#include "perfbench/pipeline.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <istream>
#include <memory>
#include <sstream>
#include <streambuf>
#include <utility>

#include "src/common/sha256.h"
#include "src/common/strings.h"
#include "src/core/analysis.h"
#include "src/core/event_join.h"
#include "src/core/span_analysis.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/sched/simulation.h"
#include "src/workload/generator.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using philly::DelayCauseResult;
using philly::JobRecord;
using philly::SimulationResult;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

// Peak resident set of this process so far (VmHWM), in MB.
double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// In-memory sink for a serialized stream: fixed 1 MiB chunks, so memory
// follows the bytes written instead of a doubling string's capacity (which
// would make peak RSS jump with where a stream's size falls relative to a
// power of two).
class ChunkedBuffer : public std::streambuf {
 public:
  size_t size() const { return full_bytes_ + static_cast<size_t>(pptr() - pbase()); }
  std::vector<std::string_view> Pieces() const {
    std::vector<std::string_view> pieces;
    for (size_t i = 0; i < chunks_.size(); ++i) {
      pieces.emplace_back(chunks_[i].get(),
                          i + 1 < chunks_.size()
                              ? kChunkBytes
                              : static_cast<size_t>(pptr() - pbase()));
    }
    return pieces;
  }
  std::string ToString() const {
    std::string text;
    text.reserve(size());
    for (std::string_view piece : Pieces()) {
      text.append(piece);
    }
    return text;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    if (!chunks_.empty()) {
      full_bytes_ += kChunkBytes;
    }
    chunks_.push_back(std::make_unique_for_overwrite<char[]>(kChunkBytes));
    char* chunk = chunks_.back().get();
    setp(chunk, chunk + kChunkBytes);
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }

 private:
  static constexpr size_t kChunkBytes = size_t{1} << 20;
  std::vector<std::unique_ptr<char[]>> chunks_;
  size_t full_bytes_ = 0;  // bytes in every chunk but the last
};

// Reads pieces of memory back as one stream, in place: the read-back timers
// measure parsing, not a copy into a stringstream.
class PieceReader : public std::streambuf {
 public:
  explicit PieceReader(std::vector<std::string_view> pieces)
      : pieces_(std::move(pieces)) {}

 protected:
  int_type underflow() override {
    while (next_ < pieces_.size()) {
      const std::string_view piece = pieces_[next_++];
      if (!piece.empty()) {
        char* begin = const_cast<char*>(piece.data());
        setg(begin, begin, begin + piece.size());
        return traits_type::to_int_type(*begin);
      }
    }
    return traits_type::eof();
  }

 private:
  std::vector<std::string_view> pieces_;
  size_t next_ = 0;
};

// Times a stage from outside; `seconds` accumulates the elapsed time.
template <typename F>
void Timed(double& seconds, F&& stage) {
  const auto start = Clock::now();
  stage();
  seconds += Seconds(start, Clock::now());
}

double Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

// Durations (us) of every scheduling_pass slice, read from the profiler's
// public Chrome-trace output: one slice per line, name before dur.
std::vector<int64_t> SchedulingPassDurations(const philly::TraceProfiler& p) {
  std::ostringstream out;
  p.WriteChromeTrace(out);
  const std::string trace = std::move(out).str();
  std::vector<int64_t> durations;
  const std::string_view name = "\"name\": \"scheduling_pass\"";
  const std::string_view dur = "\"dur\": ";
  for (size_t at = trace.find(name); at != std::string::npos;
       at = trace.find(name, at + 1)) {
    const size_t d = trace.find(dur, at);
    durations.push_back(std::stoll(trace.substr(d + dur.size(), 24)));
  }
  return durations;
}

// ------------------------------------------------------- rendered tables

void Put(std::string& out, std::string_view key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "=%.17g\n", value);
  out.append(key).append(buf);
}

void PutHist(std::string& out, const std::string& key,
             const philly::StreamingHistogram& h) {
  Put(out, key + ".n", h.Count());
  Put(out, key + ".mean", h.Mean());
  Put(out, key + ".p50", h.Quantile(0.5));
  Put(out, key + ".p90", h.Quantile(0.9));
  Put(out, key + ".p99", h.Quantile(0.99));
}

struct Analyses {
  philly::UtilizationResult utilization;
  philly::FailureAnalysisResult failures;
  philly::VcLoadResult vc_load;
  philly::HostResourceResult host_resources;
  philly::RunTimeResult run_times;
  philly::QueueDelayResult queue_delays;
  philly::LocalityDelayResult locality;
  DelayCauseResult delay_causes;
  philly::StatusResult status;
  philly::ConvergenceResult convergence;
};

// A canonical text rendering of every analysis table plus the run counters;
// its SHA-256 lets a perf change show byte-identical outputs.
std::string RenderTables(const Analyses& a, const SimulationResult& r) {
  std::string out;
  for (size_t s = 0; s < a.utilization.by_size.size(); ++s) {
    PutHist(out, "util.size" + std::to_string(s), a.utilization.by_size[s]);
  }
  PutHist(out, "util.all", a.utilization.all);
  for (const auto& row : a.failures.rows) {
    const std::string key = "fail." + std::to_string(static_cast<int>(row.reason));
    Put(out, key + ".trials", static_cast<double>(row.trials));
    Put(out, key + ".rtf_p50", row.rtf_p50_min);
  }
  Put(out, "fail.mean_retries", a.failures.mean_retries_all);
  for (const auto& row : a.vc_load.rows) {
    const std::string key = "vc." + std::to_string(row.vc);
    Put(out, key + ".busy", row.mean_busy_gpus);
    Put(out, key + ".delay", row.mean_queue_delay_min);
  }
  PutHist(out, "host.cpu", a.host_resources.cpu_util);
  PutHist(out, "host.mem", a.host_resources.memory_util);
  for (size_t b = 0; b < a.run_times.cdf_minutes.size(); ++b) {
    PutHist(out, "runtime.b" + std::to_string(b), a.run_times.cdf_minutes[b]);
    PutHist(out, "queue.b" + std::to_string(b), a.queue_delays.overall[b]);
    Put(out, "t2.fair.b" + std::to_string(b),
        static_cast<double>(a.delay_causes.by_bucket[b].fair_share));
    Put(out, "t2.frag.b" + std::to_string(b),
        static_cast<double>(a.delay_causes.by_bucket[b].fragmentation));
  }
  for (const auto& cell : a.locality.gt_eight) {
    Put(out, "loc.gt8.s" + std::to_string(cell.num_servers),
        cell.delay_minutes.p50);
  }
  Put(out, "t2.fair_time", a.delay_causes.fair_share_time_fraction);
  Put(out, "t2.ooo", a.delay_causes.out_of_order_fraction);
  for (size_t s = 0; s < a.status.by_status.size(); ++s) {
    Put(out, "status." + std::to_string(s),
        a.status.by_status[s].gpu_time_share);
  }
  Put(out, "conv.jobs",
      static_cast<double>(a.convergence.jobs_with_convergence_info));
  Put(out, "run.decisions", static_cast<double>(r.scheduling_decisions));
  Put(out, "run.events", static_cast<double>(r.sim_events_processed));
  Put(out, "run.fault_kills", static_cast<double>(r.machine_fault_kills));
  Put(out, "run.ckpt_writes", static_cast<double>(r.ckpt_writes_completed));
  Put(out, "run.allocated", r.allocated_gpu_seconds);
  return out;
}

// ------------------------------------------------------------ self-test

// Feeds every check a corrupted copy of this pass's outputs. Inputs are
// mutated in place and restored, so year-scale records are never copied. A
// corruption that cannot be built from the outputs counts as not fired.
void SelfTest(const Workload& w, SimulationResult& result,
              const std::vector<JobKey>& generated,
              const std::string& events_text,
              std::vector<philly::SchedEvent>& events,
              const std::string& telemetry_text,
              std::vector<philly::TelemetrySample>& samples,
              const philly::TelemetryDigest& embedded,
              const std::string& spans_text,
              std::vector<philly::SpanRecord>& spans,
              std::map<std::string, bool>& fired) {
  std::string detail;
  {  // A shrunk gang: one GPU less in one multi-GPU placement.
    philly::PlacementShard* shard = nullptr;
    for (auto& job : result.jobs) {
      for (auto& attempt : job.attempts) {
        for (auto& s : attempt.placement.shards) {
          if (shard == nullptr && s.gpus >= 2) {
            shard = &s;
          }
        }
      }
    }
    fired["validate_jobs"] = false;
    if (shard != nullptr) {
      --shard->gpus;
      CheckTally tally;
      CheckJobsValid(result.jobs, tally);
      fired["validate_jobs"] = tally.failed == 1;
      ++shard->gpus;
    }
  }
  {  // GPU-seconds that appear from nowhere.
    const double saved = result.useful_gpu_seconds;
    result.useful_gpu_seconds += 1e-3 * result.allocated_gpu_seconds + 1.0;
    fired["gpu_time_conservation"] = !GpuTimeConserved(result, &detail);
    result.useful_gpu_seconds = saved;
  }
  {  // A generated job missing from the result.
    JobRecord last = std::move(result.jobs.back());
    result.jobs.pop_back();
    fired["all_jobs_present"] = !AllJobsPresent(generated, result.jobs, &detail);
    result.jobs.push_back(std::move(last));
  }
  if (!w.sinks) {
    return;
  }
  // One malformed line in the middle of each stream.
  const auto parse_fails = [](std::string text, auto&& parse) {
    const size_t line = text.find('\n', text.size() / 2) + 1;
    text.insert(line, "{\"t\":}\n");
    PieceReader buf({text});
    std::istream in(&buf);
    std::string error;
    parse(in, &error);
    return !error.empty();
  };
  fired["events_parse"] = parse_fails(events_text, [](std::istream& in,
                                                      std::string* error) {
    philly::EventLog::ReadNdjson(in, error);
  });
  fired["telemetry_parse"] = parse_fails(
      telemetry_text, [](std::istream& in, std::string* error) {
        philly::TelemetryDigest digest;
        bool found = false;
        philly::ClusterTimeSeries::ReadNdjson(in, &digest, &found, error);
      });
  fired["spans_parse"] = parse_fails(spans_text, [](std::istream& in,
                                                    std::string* error) {
    philly::SpanLog::ReadNdjson(in, error);
  });
  const DelayCauseResult native = philly::AnalyzeDelayCauses(result.jobs, &result);
  {  // An hour of fair-share wait added to one counted job's first start.
    const auto counted = std::find_if(
        result.jobs.begin(), result.jobs.end(), [](const JobRecord& job) {
          return job.TotalRunTime() >= philly::Minutes(1);
        });
    philly::SchedEvent* target = nullptr;
    for (auto& e : events) {
      if (counted != result.jobs.end() &&
          e.kind == philly::SchedEventKind::kSchedule && e.attempt == 0 &&
          e.job == counted->spec.id) {
        target = &e;
        break;
      }
    }
    fired["event_join_table2"] = false;
    if (target != nullptr) {
      target->fair_share_time += philly::Hours(1);
      std::string error;
      const SimulationResult joined = philly::JoinSchedulerEvents(events, &error);
      fired["event_join_table2"] =
          !error.empty() ||
          !Table2Equal(native, philly::AnalyzeDelayCauses(joined.jobs, &joined),
                       &detail);
      target->fair_share_time -= philly::Hours(1);
    }
  }
  {  // A dropped blame span.
    const auto it = std::find_if(spans.begin(), spans.end(), [](const auto& s) {
      return s.kind == philly::SpanKind::kBlame && s.dur > 0;
    });
    fired["blame_conservation"] = fired["span_table2"] = false;
    if (it != spans.end()) {
      const philly::SpanRecord dropped = *it;
      const auto at = spans.erase(it);
      std::string error;
      fired["blame_conservation"] =
          !philly::VerifyBlameConservation(spans, result.jobs, &error);
      fired["span_table2"] = !philly::CrossCheckDelayCauses(
          native, philly::DelayCausesFromSpans(spans), &error);
      spans.insert(at, dropped);
    }
  }
  fired["telemetry_digest"] = false;
  if (!samples.empty()) {  // A flipped telemetry sample.
    philly::TelemetrySample& sample = samples[samples.size() / 2];
    ++sample.used_gpus;
    fired["telemetry_digest"] = !TelemetryDigestHolds(
        embedded, true, philly::DigestOfSamples(samples), &detail);
    --sample.used_gpus;
  }
}

// ------------------------------------------------------------ the pass

philly::ExperimentConfig ConfigFor(const Workload& w, uint64_t seed) {
  philly::ExperimentConfig config = philly::ExperimentConfig::BenchScale(w.days, seed);
  if (w.faults) {
    config.simulation.fault = philly::FaultProcessConfig::Calibrated();
  }
  if (w.ckpt) {
    // bench/checkpoint_policies' cooperative-stagger operating point at a
    // 2 GB/s per-rack storage service and a 60-minute period.
    config.simulation.scheduler.checkpoint_period = philly::Minutes(60);
    config.simulation.scheduler.checkpoint_policy =
        philly::CheckpointPolicy::kCooperativeStagger;
    config.simulation.ckpt_io.rack_bandwidth_gbps = 2.0;
  }
  return config;
}

// The measured part of a pass. Allocates everything it measures, so its
// memory is released before the extra setup repetitions run.
void MeasuredPass(const Workload& w, uint64_t seed, const PassOptions& opt,
                  PassResult& out) {
  auto& v = out.values;
  const auto allocs = [&]() -> int64_t {
    return opt.allocation_count != nullptr ? opt.allocation_count() : 0;
  };

  philly::ExperimentConfig config = ConfigFor(w, seed);
  // The sinks are attached only on the observed workload; on the others the
  // same serialize/read-back/cross-check calls run over the empty streams
  // the run produced, so every workload executes one pipeline.
  philly::EventLog event_log;
  philly::MetricsRegistry metrics;
  philly::ClusterTimeSeries timeseries;
  philly::SpanTracer span_tracer;
  if (w.sinks) {
    config.simulation.obs.event_log = &event_log;
    config.simulation.obs.metrics = &metrics;
    config.simulation.obs.timeseries = &timeseries;
    config.simulation.obs.spans = &span_tracer;
  }
  config.simulation.obs.profiler = opt.profiler;

  double generate_s = 0, construct_s = 0, run_s = 0;
  double excluded_s = 0;  // benchmark-only work inside the wall window
  int64_t alloc_generate = 0, alloc_construct = 0, alloc_run = 0;
  SimulationResult result;
  std::vector<JobKey> generated;
  double rss_before_run = 0, rss_after_run = 0;

  const auto wall_start = Clock::now();
  {
    std::vector<philly::JobSpec> jobs;
    int64_t a = allocs();
    Timed(generate_s, [&] {
      philly::WorkloadGenerator generator(config.workload);
      jobs = generator.Generate();
    });
    alloc_generate = allocs() - a;
    Timed(excluded_s, [&] { generated = KeysOf(jobs); });

    a = allocs();
    std::unique_ptr<philly::ClusterSimulation> sim;
    Timed(construct_s, [&] {
      sim = std::make_unique<philly::ClusterSimulation>(config.simulation,
                                                        std::move(jobs));
    });
    alloc_construct = allocs() - a;
    rss_before_run = PeakRssMb();
    a = allocs();
    // Run() plus the simulation object's teardown, as a caller pays it.
    Timed(run_s, [&] {
      result = sim->Run();
      sim.reset();
    });
    alloc_run = allocs() - a;
    rss_after_run = PeakRssMb();
  }

  // Every Analyze* function, each timed around its call.
  Analyses an;
  double analyze_fn_s[10] = {};
  const int64_t alloc_analyze_start = allocs();
  const auto& jobs = result.jobs;
  Timed(analyze_fn_s[0], [&] { an.utilization = philly::AnalyzeUtilization(jobs); });
  Timed(analyze_fn_s[1], [&] { an.failures = philly::AnalyzeFailures(jobs); });
  Timed(analyze_fn_s[2], [&] {
    an.vc_load = philly::AnalyzeVcLoad(jobs, config.workload.vcs);
  });
  Timed(analyze_fn_s[3], [&] { an.host_resources = philly::AnalyzeHostResources(jobs); });
  Timed(analyze_fn_s[4], [&] { an.run_times = philly::AnalyzeRunTimes(jobs); });
  Timed(analyze_fn_s[5], [&] { an.queue_delays = philly::AnalyzeQueueDelays(jobs); });
  Timed(analyze_fn_s[6], [&] { an.locality = philly::AnalyzeLocalityDelay(jobs); });
  Timed(analyze_fn_s[7], [&] {
    an.delay_causes = philly::AnalyzeDelayCauses(jobs, &result);
  });
  Timed(analyze_fn_s[8], [&] { an.status = philly::AnalyzeStatus(jobs); });
  Timed(analyze_fn_s[9], [&] { an.convergence = philly::AnalyzeConvergence(jobs); });
  const int64_t alloc_analyze = allocs() - alloc_analyze_start;
  const double rss_after_analyze = PeakRssMb();

  // Serialize every sink into memory (no disk in the measurement).
  double write_s[4] = {}, read_s[3] = {};
  ChunkedBuffer streams[4];  // events, telemetry, spans, metrics
  Timed(write_s[0], [&] {
    std::ostream os(&streams[0]);
    event_log.WriteNdjson(os);
  });
  philly::TelemetryDigest digest;
  Timed(write_s[1], [&] {
    std::ostream os(&streams[1]);
    if (w.sinks) {
      // The writer embeds both digest halves, as `phillyctl simulate` does.
      digest = philly::DigestOfSamples(timeseries.samples());
      const philly::TelemetryDigest jobs_half = philly::ComputeUtilDigest(jobs);
      digest.jobs = jobs_half.jobs;
      digest.segments = jobs_half.segments;
      digest.util_weight = jobs_half.util_weight;
      digest.util_weighted_sum = jobs_half.util_weighted_sum;
    }
    timeseries.WriteNdjson(os, w.sinks ? &digest : nullptr);
  });
  Timed(write_s[2], [&] {
    std::ostream os(&streams[2]);
    span_tracer.log().WriteNdjson(os);
  });
  Timed(write_s[3], [&] {
    std::ostream os(&streams[3]);
    metrics.WriteJson(os);
  });

  // Read every stream back.
  std::string parse_error[3];
  std::vector<philly::SchedEvent> events;
  std::vector<philly::TelemetrySample> samples;
  std::vector<philly::SpanRecord> spans;
  philly::TelemetryDigest embedded;
  bool found_digest = false;
  Timed(read_s[0], [&] {
    PieceReader buf(streams[0].Pieces());
    std::istream in(&buf);
    events = philly::EventLog::ReadNdjson(in, &parse_error[0]);
  });
  Timed(read_s[1], [&] {
    PieceReader buf(streams[1].Pieces());
    std::istream in(&buf);
    samples = philly::ClusterTimeSeries::ReadNdjson(in, &embedded, &found_digest,
                                                    &parse_error[1]);
  });
  Timed(read_s[2], [&] {
    PieceReader buf(streams[2].Pieces());
    std::istream in(&buf);
    spans = philly::SpanLog::ReadNdjson(in, &parse_error[2]);
  });

  // The offline cross-checks `phillyctl analyze` runs on the read-back
  // streams. Without sinks the span stream covers no jobs.
  const std::vector<JobRecord> no_jobs;
  const std::vector<JobRecord>& span_jobs = w.sinks ? jobs : no_jobs;
  const DelayCauseResult span_native = w.sinks ? an.delay_causes : DelayCauseResult{};
  double join_s = 0, blame_s = 0, telemetry_verify_s = 0;
  std::string join_error, blame_error, span_t2_error;
  DelayCauseResult joined_t2;
  bool blame_ok = false, span_t2_ok = false;
  philly::TelemetryDigest recomputed;
  Timed(join_s, [&] {
    const SimulationResult joined = philly::JoinSchedulerEvents(events, &join_error);
    joined_t2 = philly::AnalyzeDelayCauses(joined.jobs, &joined);
  });
  Timed(blame_s, [&] {
    blame_ok = philly::VerifyBlameConservation(spans, span_jobs, &blame_error);
    span_t2_ok = philly::CrossCheckDelayCauses(
        span_native, philly::DelayCausesFromSpans(spans), &span_t2_error);
  });
  Timed(telemetry_verify_s, [&] { recomputed = philly::DigestOfSamples(samples); });
  const auto wall_end = Clock::now();
  const double peak_rss = PeakRssMb();

  const double wall_s = Seconds(wall_start, wall_end) - excluded_s;
  double analyze_s = 0;
  for (double s : analyze_fn_s) {
    analyze_s += s;
  }
  double obs_s = join_s + blame_s + telemetry_verify_s;
  for (double s : write_s) obs_s += s;
  for (double s : read_s) obs_s += s;
  const double stages_s = generate_s + construct_s + run_s + analyze_s + obs_s;

  // --- checks (the benchmark's own validation, outside the wall time) ---
  std::string detail;
  CheckJobsValid(jobs, out.checks);
  out.checks.Add("gpu_time_conservation", GpuTimeConserved(result, &detail), detail);
  out.checks.Add("all_jobs_present", AllJobsPresent(generated, jobs, &detail), detail);
  if (w.sinks) {
    static const char* kStream[3] = {"events", "telemetry", "spans"};
    for (int i = 0; i < 3; ++i) {
      out.checks.Add(std::string(kStream[i]) + "_parse", parse_error[i].empty(),
                     parse_error[i]);
    }
    out.checks.Add("event_join_table2",
                   join_error.empty() &&
                       Table2Equal(an.delay_causes, joined_t2, &detail),
                   join_error.empty() ? detail : join_error);
    out.checks.Add("blame_conservation", blame_ok, blame_error);
    out.checks.Add("span_table2", span_t2_ok, span_t2_error);
    out.checks.Add("telemetry_digest",
                   TelemetryDigestHolds(embedded, found_digest, recomputed, &detail),
                   detail);
  }

  // --- values ---
  const double num_jobs = static_cast<double>(generated.size());
  v["wall_s"] = wall_s;
  v["bench.stage_coverage"] = stages_s / wall_s;
  v["peak_rss_mb"] = peak_rss;
  v["workload.generate_s"] = generate_s;
  v["sched.construct_s"] = construct_s;
  v["sched.run_s"] = run_s;
  v["mem.before_run_mb"] = rss_before_run;
  v["mem.after_run_mb"] = rss_after_run;
  v["mem.after_analyze_mb"] = rss_after_analyze;
  v["core.analyze_s"] = analyze_s;
  static const char* kAnalyze[10] = {
      "utilization", "failures",  "vc_load",      "host_resources", "run_times",
      "queue_delays", "locality", "delay_causes", "status",         "convergence"};
  for (int i = 0; i < 10; ++i) {
    v[std::string("core.analyze.") + kAnalyze[i] + "_s"] = analyze_fn_s[i];
  }
  static const char* kStreams[3] = {"events", "telemetry", "spans"};
  for (int i = 0; i < 3; ++i) {
    const std::string key = std::string("obs.") + kStreams[i];
    v[key + ".write_s"] = write_s[i];
    v[key + ".read_s"] = read_s[i];
    v[key + ".bytes"] = static_cast<double>(streams[i].size());
  }
  v["obs.metrics.write_s"] = write_s[3];
  v["core.event_join_s"] = join_s;
  v["core.blame_verify_s"] = blame_s;
  v["core.telemetry_verify_s"] = telemetry_verify_s;

  // Simulated counts: deterministic for a seed.
  int64_t log_attempts = 0, log_lines = 0, log_bytes = 0, segments = 0;
  philly::SimTime last_finish = 0;
  for (const auto& job : jobs) {
    last_finish = std::max(last_finish, job.finish_time);
    segments += static_cast<int64_t>(job.util_segments.size());
    for (const auto& attempt : job.attempts) {
      log_attempts += attempt.log_tail.empty() ? 0 : 1;
      log_lines += static_cast<int64_t>(attempt.log_tail.size());
      for (const auto& line : attempt.log_tail) {
        log_bytes += static_cast<int64_t>(line.size());
      }
    }
  }
  const std::pair<const char*, double> counts[] = {
      {"workload.jobs", num_jobs},
      {"sim.events", static_cast<double>(result.sim_events_processed)},
      {"sched.decisions", static_cast<double>(result.scheduling_decisions)},
      {"sched.preemptions", static_cast<double>(result.preemptions)},
      {"sched.locality_relaxations", static_cast<double>(result.locality_relaxations)},
      {"sched.backoffs", static_cast<double>(result.sched_backoffs)},
      {"sched.drain_day", static_cast<double>(last_finish) / 86400.0},
      {"failure.attempts", static_cast<double>(log_attempts)},
      {"failure.log_lines", static_cast<double>(log_lines)},
      {"failure.log_bytes", static_cast<double>(log_bytes)},
      {"telemetry.util_segments", static_cast<double>(segments)},
      {"fault.injected", static_cast<double>(result.machine_faults_injected)},
      {"fault.kills", static_cast<double>(result.machine_fault_kills)},
      {"fault.ckpt_writes", static_cast<double>(result.ckpt_writes_completed)},
      {"fault.ckpt_interrupted", static_cast<double>(result.ckpt_writes_interrupted)},
  };
  for (const auto& [name, value] : counts) {
    v[name] = value;
    out.deterministic.push_back(name);
  }
  for (const char* name : {"obs.events.bytes", "obs.telemetry.bytes", "obs.spans.bytes"}) {
    out.deterministic.push_back(name);
  }

  if (opt.profiler != nullptr) {
    const std::vector<int64_t> passes = SchedulingPassDurations(*opt.profiler);
    v["sched.passes"] = static_cast<double>(passes.size());
    out.deterministic.push_back("sched.passes");
    v["sched.pass_s"] =
        static_cast<double>(opt.profiler->TotalDurationOf("scheduling_pass")) / 1e6;
    v["sched.pass_p50_us"] = Percentile(passes, 0.50);
    v["sched.pass_p99_us"] = Percentile(passes, 0.99);
  }
  if (opt.allocation_count != nullptr) {
    v["alloc.generate"] = static_cast<double>(alloc_generate);
    v["alloc.construct"] = static_cast<double>(alloc_construct);
    v["alloc.run"] = static_cast<double>(alloc_run);
    v["alloc.analyze"] = static_cast<double>(alloc_analyze);
    v["alloc.per_job"] =
        static_cast<double>(alloc_generate + alloc_construct + alloc_run) / num_jobs;
  }

  out.events_sha256 = philly::Sha256Hex(streams[0].ToString());
  out.tables_sha256 = philly::Sha256Hex(RenderTables(an, result));

  if (opt.self_test) {
    SelfTest(w, result, generated, streams[0].ToString(), events,
             streams[1].ToString(), samples, embedded, streams[2].ToString(),
             spans, out.self_test);
  }
}

void AppendJsonNumber(std::string& out, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  out += buf;
}

void AppendJsonString(std::string& out, std::string_view text) {
  out.append("\"").append(philly::JsonEscape(text)).append("\"");
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  // BENCHMARK.json names observed75 and ckpt75 only. paper75 and year365 do
  // not fit its run budget beside them, and year365_faults' cost follows a
  // seed-dependent fault-restart pathology (README.md).
  static const Workload kWorkloads[] = {
      {"paper75", 75, false, false, false},
      {"observed75", 75, false, false, true},
      {"year365", 365, false, false, false},
      {"year365_faults", 365, true, false, false},
      {"ckpt75", 75, true, true, false},
  };
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

PassResult RunPass(const Workload& w, uint64_t seed, const PassOptions& options) {
  PassResult out;
  MeasuredPass(w, seed, options, out);
  out.setup_samples.push_back(out.values["workload.generate_s"] +
                              out.values["sched.construct_s"]);
  // Two more setups, after the measured pass released its memory; setup_s
  // is the median of the three.
  const philly::ExperimentConfig config = ConfigFor(w, seed);
  for (int rep = 1; rep < 3; ++rep) {
    const auto start = Clock::now();
    philly::WorkloadGenerator generator(config.workload);
    philly::ClusterSimulation sim(config.simulation, generator.Generate());
    out.setup_samples.push_back(Seconds(start, Clock::now()));
  }
  std::vector<double> sorted = out.setup_samples;
  std::sort(sorted.begin(), sorted.end());
  out.values["setup_s"] = sorted[sorted.size() / 2];
  return out;
}

std::string PassToJson(std::string_view workload, uint64_t seed, bool traced,
                       const PassResult& pass) {
  std::string out = "{\"workload\": ";
  AppendJsonString(out, workload);
  out += ", \"seed\": " + std::to_string(seed);
  out += ", \"traced\": ";
  out += traced ? "true" : "false";
  out += ", \"values\": {";
  bool first = true;
  for (const auto& [name, value] : pass.values) {
    out += first ? "" : ", ";
    first = false;
    AppendJsonString(out, name);
    out += ": ";
    AppendJsonNumber(out, value);
  }
  out += "}, \"deterministic\": [";
  for (size_t i = 0; i < pass.deterministic.size(); ++i) {
    out += i == 0 ? "" : ", ";
    AppendJsonString(out, pass.deterministic[i]);
  }
  out += "], \"setup_samples\": [";
  for (size_t i = 0; i < pass.setup_samples.size(); ++i) {
    out += i == 0 ? "" : ", ";
    AppendJsonNumber(out, pass.setup_samples[i]);
  }
  out += "], \"checks\": {\"attempted\": " + std::to_string(pass.checks.attempted) +
         ", \"failed\": " + std::to_string(pass.checks.failed) + ", \"failures\": [";
  for (size_t i = 0; i < pass.checks.failures.size(); ++i) {
    out += i == 0 ? "" : ", ";
    AppendJsonString(out, pass.checks.failures[i]);
  }
  out += "]}, \"self_test\": {";
  first = true;
  for (const auto& [name, fired] : pass.self_test) {
    out += first ? "" : ", ";
    first = false;
    AppendJsonString(out, name);
    out += fired ? ": true" : ": false";
  }
  out += "}, \"digest\": {\"events_sha256\": ";
  AppendJsonString(out, pass.events_sha256);
  out += ", \"tables_sha256\": ";
  AppendJsonString(out, pass.tables_sha256);
  out += "}, \"build\": {\"compiler\": ";
  AppendJsonString(out, PERFBENCH_COMPILER);
  out += ", \"build_type\": ";
  AppendJsonString(out, PERFBENCH_BUILD_TYPE);
  out += "}}";
  return out;
}

}  // namespace perfbench
