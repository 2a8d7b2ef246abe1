// Per-minute cluster telemetry stream — the Ganglia analogue of the paper's
// three-way log join (§2.4). The EventLog captures scheduler decisions and
// the trace writer the per-job framework logs; the ClusterTimeSeries adds the
// third source: cluster state sampled on a fixed wall-clock cadence,
// independent of when scheduler events happen to fire.
//
// Samples are taken from a Simulator time-advance hook, so recording is
// passive: it never schedules events, and the sampled state at minute m is
// the piecewise-constant pre-event state (an event AT m has not yet run).
// One ClusterTimeSeries belongs to exactly one simulation run (not
// thread-safe, like EventLog); serialization is NDJSON with fixed key order
// and shortest-round-trip doubles, so streams are byte-identical across
// PHILLY_BENCH_THREADS.
//
// Per-server GPU utilization is joined in with the same AR(1) jitter model
// GangliaSampler applies in analysis: one observed-utilization step per
// running job per sampled minute, seeded per (run seed, job, attempt), so
// the stream's observed utilization is deterministic and cross-checkable
// against AnalyzeUtilization's digest (see rollup.h).
//
// Memory layout. A sample's variable-length arrays are immutable shared
// rows (SharedRow): most of them repeat the previous minute's values, so
// both the recorder and the reader give a new sample the previous sample's
// row whenever the values are equal. A row is only ever replaced, never
// written in place, so the sharing is invisible to readers of samples().

#ifndef SRC_OBS_TIMESERIES_H_
#define SRC_OBS_TIMESERIES_H_

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "src/cluster/cluster.h"
#include "src/common/function_ref.h"
#include "src/common/shared_row.h"
#include "src/common/sim_time.h"
#include "src/telemetry/sampler.h"

namespace philly {

// One telemetry scan line. Scalars with default values are omitted from the
// NDJSON encoding (event_log style); array fields are always present. The
// variable-length arrays are shared rows (see the header comment); assign a
// std::vector or a braced list to replace one.
struct TelemetrySample {
  SimTime time = 0;  // sample timestamp, aligned to the sampling grid

  // Cluster occupancy.
  int used_gpus = 0;
  int free_gpus = 0;
  double occupancy = 0.0;  // used / (used + free), 0 when the cluster is empty
  int running_jobs = 0;
  int queued_jobs = 0;

  // Fragmentation / placement-index view.
  int busy_servers = 0;
  int empty_servers = 0;
  int racks_with_empty = 0;
  int offline_servers = 0;
  SharedRow<int> rack_free_gpus;  // index = rack id

  // Per-VC scheduler state (index = VC id).
  SharedRow<int> vc_queued;
  SharedRow<int> vc_running;
  SharedRow<int> vc_used_gpus;

  // Busy servers bucketed by mean observed GPU utilization decile
  // (0-10%, ..., 90-100%); Fig 8-style fleet utilization shape. Fixed-size
  // so a sample costs one fewer heap allocation per simulated minute.
  std::array<int, 10> util_deciles = {};

  // Cumulative scheduler/fault counters as of this sample (monotone).
  int64_t locality_relaxations = 0;
  int64_t backoffs = 0;
  int64_t preemptions = 0;
  int64_t migrations = 0;
  int64_t fault_kills = 0;
  double lost_gpu_seconds = 0.0;

  // Checkpoint I/O view (populated only when the I/O model is enabled; the
  // array is omitted from the encoding when empty so disabled-model streams
  // stay byte-identical to pre-checkpoint builds). ckpt_rack_writers[r] is
  // the number of writes draining rack r's storage at sample time; the
  // scalars are cumulative completed-write and cost counters.
  SharedRow<int> ckpt_rack_writers;
  int64_t ckpt_writes = 0;
  double ckpt_overhead_gpu_seconds = 0.0;
  double ckpt_stall_gpu_seconds = 0.0;

  // Per-VC x per-blame-code cumulative attributed queueing seconds, VC-major
  // (kNumBlameCodes entries per VC; see src/obs/span.h). Populated only when
  // the span tracer is attached — empty arrays are omitted from the encoding
  // so tracer-off streams stay byte-identical to pre-span builds.
  SharedRow<int64_t> vc_blame_s;

  // Busy-GPU-weighted utilization, percent.
  double util_expected_pct = 0.0;  // from the loss-curve expectation
  double util_observed_pct = 0.0;  // with the Ganglia AR(1) jitter join
};

// Staging buffers for one sample's array members, each with the meaning of
// the TelemetrySample row of the same name. They are reused from sample to
// sample, so filling one allocates nothing; ClusterTimeSeries turns them
// into the sample's shared rows.
struct TelemetrySampleRows {
  std::vector<int> rack_free_gpus;
  std::vector<int> vc_queued;
  std::vector<int> vc_running;
  std::vector<int> vc_used_gpus;
  std::vector<int> ckpt_rack_writers;
  std::vector<int64_t> vc_blame_s;

  void Clear();  // empties every row, keeping its capacity
};

std::string ToNdjsonLine(const TelemetrySample& s);
bool TelemetrySampleFromNdjsonLine(std::string_view line, TelemetrySample* sample,
                                   std::string* error);

struct TelemetryDigest;  // rollup.h

// Deterministic per-minute recorder. The owning ClusterSimulation drives it:
// BeginRun once, then AppendSample at every grid time crossed by the clock.
// The utilization join keeps one UtilJitter per running attempt
// (StartUtilJitter) and advances it with ObserveUtilPct exactly once per
// sampled minute.
class ClusterTimeSeries {
 public:
  // AR(1) jitter state of one (job, attempt) observed-utilization stream.
  struct UtilJitter {
    uint64_t seed = 0;
    int64_t next_index = 0;  // next HashedNormal index to consume
    double x = 0.0;          // current AR(1) deviation
  };

  explicit ClusterTimeSeries(SimDuration period = Minutes(1),
                             SamplerConfig sampler = {});

  SimDuration period() const { return period_; }

  // Pre-sizes the sample buffer (cheap enabled-path, like EventLog::Reserve).
  void Reserve(size_t samples);
  // Drops all samples so the recorder can be reused.
  void Clear();

  // Starts a run: resets per-run state and seeds the utilization join.
  void BeginRun(uint64_t seed);

  // Next unsampled grid time (first grid point strictly after the last
  // sample; the grid starts at time 0, which is never sampled — it is the
  // run's epoch, before any arrival).
  SimTime NextSampleTime() const;

  // Appends the sample at NextSampleTime(). `fill` sets the new sample's
  // scalars and writes its array members into the staging rows, which start
  // out empty; each row is then committed, sharing the previous sample's
  // storage when the values are equal.
  void AppendSample(FunctionRef<void(TelemetrySample&, TelemetrySampleRows&)> fill);

  // The jitter stream of `job`'s attempt `attempt`, seeded per (run seed,
  // job, attempt) with a stationary start (GangliaSampler::SampleSegment's
  // construction). Valid after BeginRun.
  UtilJitter StartUtilJitter(JobId job, int attempt) const;

  // Returns the observed utilization in percent for `expected_util` (a
  // fraction) and advances `jitter` one AR(1) step.
  double ObserveUtilPct(UtilJitter& jitter, double expected_util) const;

  const std::vector<TelemetrySample>& samples() const { return samples_; }

  // NDJSON: one sample per line, fixed key order; when `digest` is non-null a
  // final digest line is appended for self-integrity checks.
  void WriteNdjson(std::ostream& out, const TelemetryDigest* digest = nullptr) const;

  // Reads a stream written by WriteNdjson. Stops at the first malformed line
  // ("line N: ..." in *error); a line after the digest line is malformed. A
  // trailing digest line, when present, is decoded into *digest
  // (found_digest reports whether one was seen). Read-back samples share
  // equal rows with their predecessor just as recorded ones do.
  static std::vector<TelemetrySample> ReadNdjson(std::istream& in,
                                                 TelemetryDigest* digest,
                                                 bool* found_digest,
                                                 std::string* error);

 private:
  SimDuration period_;
  SamplerConfig sampler_;
  uint64_t run_seed_ = 0;
  int64_t last_index_ = 0;  // grid index of the last appended sample
  std::vector<TelemetrySample> samples_;
  TelemetrySampleRows staging_;  // AppendSample's reused row buffers
};

}  // namespace philly

#endif  // SRC_OBS_TIMESERIES_H_
