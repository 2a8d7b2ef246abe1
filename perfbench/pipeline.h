// One measured pass of a benchmark workload: generate -> construct -> Run ->
// every Analyze* -> serialize the sinks to memory -> read them back and run
// the offline cross-checks. Every layer is driven through the library's
// public calls and timed from outside, around the call.
//
// A pass is what one process does once: perfbench/run.py starts a fresh
// process per pass, so peak RSS (getrusage's ru_maxrss, i.e. VmHWM) belongs
// to exactly one pass.

#ifndef PERFBENCH_PIPELINE_H_
#define PERFBENCH_PIPELINE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/checks.h"
#include "src/core/experiment.h"
#include "src/obs/trace_profiler.h"

namespace perfbench {

// A named benchmark workload. All run the BenchScale paper cluster with the
// Philly scheduler; they differ in window length and in which layers are on.
struct Workload {
  std::string_view name;
  int days = 75;
  bool faults = false;  // FaultProcessConfig::Calibrated()
  bool ckpt = false;    // checkpoint I/O model, cooperative stagger
  bool sinks = false;   // event log + telemetry + spans + metrics attached
};

// Null when `name` is not a workload.
const Workload* FindWorkload(std::string_view name);

struct PassOptions {
  // Traced pass only: wall-clock slices from inside Run (scheduling_pass).
  philly::TraceProfiler* profiler = nullptr;
  // Traced pass only: allocations made so far by this process.
  int64_t (*allocation_count)() = nullptr;
  // After the measurement, feed every check a corrupted copy of this pass's
  // outputs and record whether the check counted it as failed.
  bool self_test = false;
};

struct PassResult {
  // Every measured or counted value, by metric name (see perfbench/README.md).
  std::map<std::string, double> values;
  // The subset of `values` that is simulated, not timed: identical across
  // invocations and between traced and untraced passes of one seed.
  std::vector<std::string> deterministic;
  std::vector<double> setup_samples;
  CheckTally checks;
  // Self-test: check name -> whether it fired on its corrupted input.
  std::map<std::string, bool> self_test;
  std::string events_sha256;  // the serialized event stream
  std::string tables_sha256;  // the rendered analysis tables + run counters
};

PassResult RunPass(const Workload& workload, uint64_t seed,
                   const PassOptions& options);

// One-line JSON object for run.py (keys sorted, numbers with all digits).
std::string PassToJson(std::string_view workload, uint64_t seed, bool traced,
                       const PassResult& pass);

}  // namespace perfbench

#endif  // PERFBENCH_PIPELINE_H_
