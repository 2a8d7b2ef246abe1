// Correctness checks behind the benchmark's `correct`/`attempted`/`failed`
// fields (failed / attempted is the error rate). Each job's ValidateJobs
// result is one check; every other function here is one run-level check.
// They are kept apart from the timed pipeline so the self-test can feed each
// of them a corrupted input and show that it fires.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/analysis.h"
#include "src/obs/rollup.h"
#include "src/sched/records.h"
#include "src/workload/job.h"

namespace perfbench {

struct CheckTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;  // "name: detail", first few only

  void Add(std::string_view name, bool ok, std::string_view detail = {});
};

// The identity of a generated job, kept to prove the result holds every one.
struct JobKey {
  philly::JobId id = philly::kNoJob;
  philly::VcId vc = 0;
  philly::SimTime submit_time = 0;
  int num_gpus = 0;
  bool operator==(const JobKey&) const = default;
};
std::vector<JobKey> KeysOf(const std::vector<philly::JobSpec>& jobs);

// ValidateJobs over every record; adds one check per job and returns the
// number of jobs with at least one issue.
int64_t CheckJobsValid(const std::vector<philly::JobRecord>& jobs,
                       CheckTally& tally);

// allocated == useful + fault-lost + ckpt overhead + ckpt stall, within 1e-6
// relative (the tolerance of the conservation property tests).
bool GpuTimeConserved(const philly::SimulationResult& result,
                      std::string* detail);

// The result holds exactly the generated jobs, in generation order.
bool AllJobsPresent(const std::vector<JobKey>& generated,
                    const std::vector<philly::JobRecord>& jobs,
                    std::string* detail);

// Table 2 rebuilt from the event stream equals the native one, exactly, on
// every field the stream carries (the occupancy-snapshot facts are not in it).
bool Table2Equal(const philly::DelayCauseResult& native,
                 const philly::DelayCauseResult& joined, std::string* detail);

// The telemetry stream's embedded sample digest equals DigestOfSamples
// recomputed from the lines read back.
bool TelemetryDigestHolds(const philly::TelemetryDigest& embedded,
                          bool found_digest,
                          const philly::TelemetryDigest& recomputed,
                          std::string* detail);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
