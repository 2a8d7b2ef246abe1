// phillyctl — command-line front end for the phillysim library.
//
// `phillyctl --help` lists the commands and `phillyctl <command> --help` a
// command's flags. Both are generated from the flag tables below, which also
// drive parsing and the knobs recorded in manifest.json.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/sha256.h"
#include "src/common/strings.h"
#include "src/common/table.h"
#include "src/core/analysis.h"
#include "src/core/event_join.h"
#include "src/core/experiment.h"
#include "src/core/html_report.h"
#include "src/core/runner.h"
#include "src/core/report.h"
#include "src/core/span_analysis.h"
#include "src/core/validate.h"
#include "src/fault/checkpoint_io.h"
#include "src/fleet/fleet.h"
#include "src/fault/fault_process.h"
#include "src/obs/event_log.h"
#include "src/obs/manifest.h"
#include "src/obs/metrics.h"
#include "src/obs/observability.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_profiler.h"
#include "src/trace/philly_format.h"
#include "src/trace/trace_io.h"

namespace philly {
namespace {

// How a flag's value is checked (a malformed value exits 1) and read.
enum class FlagType {
  kSwitch,  // takes no value
  kText,    // any non-empty string
  kChoice,  // one of the '|'-separated names in Flag::arg
  kInt,     // a decimal integer in [Flag::lo, Flag::hi]
  kUint64,  // a decimal unsigned 64-bit integer
  kReal,    // a finite decimal number > 0
};
using enum FlagType;

struct Flag {
  std::string_view name;
  FlagType type = kText;
  std::string_view arg = {};  // the value's placeholder in --help; kChoice: the choices
  std::string_view def = {};  // the value when the flag is not given; empty: none
  int64_t lo = 0;             // kInt range, inclusive
  int64_t hi = 0;
  bool list = false;  // a comma list of values
  bool knob = false;  // recorded in manifest.json's knobs, named without "--"
  std::string_view help;
};

// Ten years of arrivals; the paper's trace spans 75 days.
constexpr int64_t kMaxDays = 3650;

constexpr Flag kDays{.name = "--days", .type = kInt, .arg = "N", .def = "10", .lo = 1,
                     .hi = kMaxDays, .help = "days of job arrivals to simulate"};
constexpr Flag kFleetDays = [] {
  Flag flag = kDays;
  flag.def = "3";
  return flag;
}();
constexpr Flag kSeed{.name = "--seed", .type = kUint64, .arg = "S", .def = "42",
                     .help = "workload and simulation seed"};
constexpr Flag kScheduler{.name = "--scheduler", .type = kChoice,
                          .arg = "philly|fifo|optimus|tiresias|gandiva", .def = "philly",
                          .help = "scheduler preset"};
// The presets, in kScheduler's choice order.
SchedulerConfig (*const kSchedulerPresets[])() = {
    &SchedulerConfig::Philly, &SchedulerConfig::Fifo, &SchedulerConfig::Optimus,
    &SchedulerConfig::Tiresias, &SchedulerConfig::Gandiva};
// kRetry, kCkptPolicy and kRouter list their choices in enum order.
constexpr Flag kRetry{.name = "--retry", .type = kChoice, .arg = "fixed|adaptive|predictive",
                      .def = "fixed", .knob = true, .help = "failed-job retry policy"};
constexpr Flag kPrerun{.name = "--prerun", .type = kSwitch, .knob = true,
                       .help = "enable the 1-GPU pre-run pool (paper §5)"};
constexpr Flag kMigration{.name = "--migration", .type = kSwitch, .knob = true,
                          .help = "enable checkpoint-migration defragmentation (§5)"};
constexpr Flag kDedicated{.name = "--dedicated", .type = kSwitch, .knob = true,
                          .help = "place small jobs on dedicated servers (§5)"};
constexpr Flag kStrictLocality{.name = "--strict-locality", .type = kSwitch, .knob = true,
                               .help = "never relax locality constraints"};
constexpr Flag kFaults{.name = "--faults", .type = kSwitch, .def = "off", .knob = true,
                       .help = "enable the calibrated machine-fault process"};
constexpr Flag kCheckpointMins{.name = "--checkpoint-mins", .type = kInt, .arg = "N", .lo = 0,
                               .hi = kMaxDays * 24 * 60, .knob = true,
                               .help = "fault-recovery checkpoint period (default 0: none)"};
constexpr Flag kCkptPolicy{.name = "--ckpt-policy", .type = kChoice, .arg = "fixed|daly|stagger",
                           .knob = true, .help = "checkpoint scheduling policy (default fixed)"};
constexpr Flag kCkptBw{.name = "--ckpt-bw", .type = kReal, .arg = "GBPS", .knob = true,
                       .help = "per-rack checkpoint GB/s; turns on the checkpoint I/O model"};
constexpr Flag kCkptSize{.name = "--ckpt-size-gb-per-gpu", .type = kReal, .arg = "GB", .knob = true,
                         .help = "checkpoint GB per allocated GPU (default 2; needs --ckpt-bw)"};
constexpr Flag kFormat{.name = "--format", .type = kChoice, .arg = "native|philly-traces|both",
                       .def = "native", .knob = true, .help = "trace layout written to --out"};
constexpr Flag kOut{.name = "--out", .arg = "DIR", .def = "out/trace",
                    .help = "directory for the trace and manifest.json"};
constexpr Flag kFigures{.name = "--figures", .arg = "DIR",
                        .help = "also write the figure series as CSV files"};
constexpr Flag kEventsOut{.name = "--events-out", .arg = "FILE",
                          .help = "write the scheduler event stream as NDJSON"};
constexpr Flag kMetricsOut{.name = "--metrics-out", .arg = "FILE",
                           .help = "write aggregated run metrics as JSON"};
constexpr Flag kTraceOut{.name = "--trace-out", .arg = "FILE",
                         .help = "write wall-clock phase slices as Chrome trace-event JSON"};
constexpr Flag kTelemetryOut{.name = "--telemetry-out", .arg = "FILE",
                             .help = "write the per-minute telemetry stream as NDJSON"};
constexpr Flag kSpansOut{.name = "--spans-out", .arg = "FILE",
                         .help = "write the causal span stream as NDJSON"};
constexpr Flag kSpansTraceOut{.name = "--spans-trace-out", .arg = "FILE",
                              .help = "write the span tree as Chrome trace-event JSON"};
constexpr Flag kHtml{.name = "--html", .arg = "FILE",
                     .help = "render a self-contained HTML dashboard"};
constexpr Flag kSeeds{.name = "--seeds", .type = kUint64, .arg = "S", .def = "42", .list = true,
                      .help = "seeds to sweep"};
constexpr Flag kSchedulers{.name = "--schedulers", .type = kChoice, .arg = kScheduler.arg,
                           .def = "philly", .list = true, .help = "scheduler presets to sweep"};
constexpr Flag kRetries{.name = "--retries", .type = kChoice, .arg = kRetry.arg, .list = true,
                        .help = "retry policies to sweep (default: the --retry value)"};
constexpr Flag kThreads{.name = "--threads", .type = kInt, .arg = "N", .def = "0", .lo = 0,
                        .hi = 1024, .help = "worker threads (0: PHILLY_BENCH_THREADS or cores)"};
constexpr Flag kClusters{.name = "--clusters", .arg = "SPEC", .def = "3", .knob = true,
                         .help = "paper-scale cluster count, or RxS[xG] list: 15x16x8,4x24x2"};
constexpr Flag kRouter{.name = "--router", .type = kChoice, .arg = "pinned|least-loaded|spillover",
                       .def = "pinned", .knob = true, .help = "front-door job router policy"};
constexpr Flag kSpillThreshold{.name = "--spill-threshold", .type = kInt, .arg = "N", .def = "4",
                               .lo = 0, .hi = INT32_MAX, .knob = true,
                               .help = "home queue depth before spilling (spillover only)"};
constexpr Flag kFleetOut{.name = "--out", .arg = "DIR",
                         .help = "write the route and per-cluster streams and manifest.json"};
constexpr Flag kCollectSpans{.name = "--collect-spans", .type = kSwitch, .knob = true,
                             .help = "collect per-cluster span streams for --out and --html"};
constexpr Flag kTelemetry{.name = "--telemetry", .arg = "FILE",
                          .help = "telemetry stream to verify against its embedded digest"};
constexpr Flag kFromEvents{.name = "--from-events", .arg = "FILE",
                           .help = "scheduler event log to rebuild the analyses from"};
constexpr Flag kTrace{.name = "--trace", .arg = "DIR",
                      .help = "native trace directory (with a stream: cross-check against it)"};
constexpr Flag kSpans{.name = "--spans", .arg = "FILE", .help = "causal span stream"};
constexpr Flag kPhillyTraces{.name = "--philly-traces", .type = kSwitch,
                             .help = "read --trace as the public cluster_job_log layout"};
constexpr Flag kJob{.name = "--job", .type = kInt, .arg = "ID", .lo = 1, .hi = INT32_MAX,
                    .help = "job to explain"};

// Position of `text` among the flag's choices, or -1.
int ChoiceIndex(const Flag& flag, std::string_view text) {
  const std::vector<std::string_view> choices = Split(flag.arg, '|');
  const auto it = std::find(choices.begin(), choices.end(), text);
  return it == choices.end() ? -1 : static_cast<int>(it - choices.begin());
}

// Whether `text` is a well-formed value (one list entry) for the flag.
bool ValidValue(const Flag& flag, std::string_view text) {
  int64_t integer = 0;
  uint64_t unsigned_integer = 0;
  double real = 0.0;
  switch (flag.type) {
    case kChoice:
      return ChoiceIndex(flag, text) >= 0;
    case kInt:
      return ParseExact(text, &integer) && integer >= flag.lo && integer <= flag.hi;
    case kUint64:
      return ParseExact(text, &unsigned_integer);
    case kReal:
      return ParseExact(text, &real) && std::isfinite(real) && real > 0.0;
    default:
      return !text.empty();
  }
}

// The "expected ..." half of a malformed-value message.
std::string Expected(const Flag& flag) {
  const std::string what =
      flag.type == kChoice ? "one of " + std::string(flag.arg)
      : flag.type == kInt  ? "an integer in [" + std::to_string(flag.lo) + ", " +
                                std::to_string(flag.hi) + "]"
      : flag.type == kUint64 ? "an unsigned 64-bit integer"
      : flag.type == kReal   ? "a positive number"
                             : "a non-empty value";
  return flag.list ? "a comma list, each entry " + what : what;
}

class Cli;

struct Command {
  std::string_view name;
  std::string_view about;
  std::vector<const Flag*> flags;  // every flag the command reads
  // flags[0, required) must be given; analyze picks its mode by flags[0].
  size_t required = 0;
  int (*run)(const Cli&) = nullptr;
};

// A parsed command line: the command (for analyze, the mode) and the text of
// every flag given, each already checked against its table entry.
class Cli {
 public:
  Cli(const Command& command, std::map<std::string_view, std::string> given)
      : command_(command), given_(std::move(given)) {}

  const Command& command() const { return command_; }
  bool Given(const Flag& flag) const { return given_.count(flag.name) > 0; }
  // The text given for the flag, else its default.
  std::string Text(const Flag& flag) const {
    const auto it = given_.find(flag.name);
    return it != given_.end() ? it->second : std::string(flag.def);
  }
  // Conversions of text the parser already checked.
  int64_t Int(const Flag& flag) const { return std::stoll(Text(flag)); }
  uint64_t Uint64(const Flag& flag) const { return std::stoull(Text(flag)); }
  double Real(const Flag& flag) const { return std::stod(Text(flag)); }
  int Choice(const Flag& flag) const { return ChoiceIndex(flag, Text(flag)); }
  std::vector<std::string> Items(const Flag& flag) const {
    const std::string text = Text(flag);
    const std::vector<std::string_view> items = Split(text, ',');
    return {items.begin(), items.end()};
  }

 private:
  const Command& command_;
  std::map<std::string_view, std::string> given_;
};

// Applies the retry policy, the §5 switches, the checkpoint knobs and
// --faults on top of the scheduler preset already in `config`.
void ApplyRunFlags(const Cli& cli, ExperimentConfig* config) {
  SchedulerConfig& sched = config->simulation.scheduler;
  sched.retry_policy =
      static_cast<SchedulerConfig::RetryPolicyKind>(cli.Choice(kRetry));
  sched.enable_prerun_pool = cli.Given(kPrerun);
  sched.enable_migration = cli.Given(kMigration);
  if (cli.Given(kDedicated)) {
    sched.placer.pack_small_jobs = false;
  }
  if (cli.Given(kStrictLocality)) {
    sched.max_relax_level = 0;
  }
  if (cli.Given(kCheckpointMins)) {
    sched.checkpoint_period = Minutes(cli.Int(kCheckpointMins));
  }
  if (cli.Given(kCkptPolicy)) {
    sched.checkpoint_policy = static_cast<CheckpointPolicy>(cli.Choice(kCkptPolicy));
  }
  if (cli.Given(kCkptBw)) {
    config->simulation.ckpt_io.rack_bandwidth_gbps = cli.Real(kCkptBw);
  }
  if (cli.Given(kCkptSize)) {
    config->simulation.ckpt_io.size_gb_per_gpu = cli.Real(kCkptSize);
  }
  if (cli.Given(kFaults)) {
    config->simulation.fault = FaultProcessConfig::Calibrated();
  }
}

// Report sections shared by `report`, `analyze --trace`, and
// `analyze --from-events`. The first four consume only the scheduler stream
// (JobRecord scheduling fields + counters), so an event-log join can
// reproduce them without telemetry or framework logs.

void PrintStatusSection(const std::vector<JobRecord>& jobs) {
  const auto status = AnalyzeStatus(jobs);
  std::printf("=== Table 6: job status vs GPU time ===\n");
  TextTable status_table({"status", "count", "count share", "GPU-time share"});
  for (int s = 0; s < 3; ++s) {
    const auto& row = status.by_status[static_cast<size_t>(s)];
    status_table.AddRow({std::string(ToString(static_cast<JobStatus>(s))),
                         std::to_string(row.count), FormatPercent(row.count_share, 1),
                         FormatPercent(row.gpu_time_share, 1)});
  }
  std::printf("%s\n", status_table.Render().c_str());
}

void PrintRunTimeSection(const std::vector<JobRecord>& jobs) {
  const auto runtimes = AnalyzeRunTimes(jobs);
  std::printf("=== Figure 2: run times ===\n");
  TextTable rt_table({"bucket", "n", "median (min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = runtimes.cdf_minutes[static_cast<size_t>(b)];
    rt_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                     FormatDouble(hist.Count(), 0), FormatDouble(hist.Median(), 1),
                     FormatDouble(hist.Quantile(0.9), 1),
                     FormatDouble(hist.Quantile(0.99), 1)});
  }
  std::printf("%s  jobs over one week: %s\n\n", rt_table.Render().c_str(),
              FormatPercent(runtimes.fraction_over_one_week, 2).c_str());
}

void PrintQueueDelaySection(const std::vector<JobRecord>& jobs) {
  const auto delays = AnalyzeQueueDelays(jobs);
  std::printf("=== Figure 3: queueing delay ===\n");
  TextTable d_table({"bucket", "P(<=1min)", "P(<=10min)", "p90 (min)", "p99 (min)"});
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    const auto& hist = delays.overall[static_cast<size_t>(b)];
    d_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    FormatPercent(hist.CdfAt(1.0), 1), FormatPercent(hist.CdfAt(10.0), 1),
                    FormatDouble(hist.Quantile(0.9), 2),
                    FormatDouble(hist.Quantile(0.99), 2)});
  }
  std::printf("%s\n", d_table.Render().c_str());
}

void PrintDelayCauseSection(const std::vector<JobRecord>& jobs,
                            const SimulationResult* sim) {
  const auto causes = AnalyzeDelayCauses(jobs, sim);
  std::printf("=== Table 2: delay causes ===\n");
  TextTable c_table({"bucket", "fair-share", "fragmentation"});
  for (int b = 1; b < kNumSizeBuckets; ++b) {
    const auto& row = causes.by_bucket[static_cast<size_t>(b)];
    c_table.AddRow({std::string(ToString(static_cast<SizeBucket>(b))),
                    std::to_string(row.fair_share), std::to_string(row.fragmentation)});
  }
  std::printf("%swaiting time: %s fragmentation / %s fair-share\n",
              c_table.Render().c_str(),
              FormatPercent(causes.fragmentation_time_fraction, 1).c_str(),
              FormatPercent(causes.fair_share_time_fraction, 1).c_str());
  if (sim != nullptr) {
    std::printf("out-of-order: %s of decisions, %s benign; preemptions %lld; "
                "migrations %lld\n",
                FormatPercent(causes.out_of_order_fraction, 1).c_str(),
                FormatPercent(causes.out_of_order_benign_fraction, 1).c_str(),
                static_cast<long long>(sim->preemptions),
                static_cast<long long>(sim->migrations));
  }
  std::printf("\n");
}

void PrintReport(const std::vector<JobRecord>& jobs, const SimulationResult* sim) {
  PrintStatusSection(jobs);
  PrintRunTimeSection(jobs);
  PrintQueueDelaySection(jobs);
  PrintDelayCauseSection(jobs, sim);

  const auto util = AnalyzeUtilization(jobs);
  std::printf("=== Figure 5 / Table 3: GPU utilization ===\n");
  TextTable u_table({"size", "mean util (%)", "p50", "p90"});
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    const auto& hist = util.by_size[static_cast<size_t>(i)];
    u_table.AddRow({std::to_string(kRepresentativeSizes[i]) + " GPU",
                    FormatDouble(hist.Mean(), 1), FormatDouble(hist.Median(), 1),
                    FormatDouble(hist.Quantile(0.9), 1)});
  }
  std::printf("%soverall mean: %.1f%%\n\n", u_table.Render().c_str(),
              util.all.Mean());

  const auto failures = AnalyzeFailures(jobs);
  std::printf("=== Table 7: failures (top 10 by trials) ===\n");
  std::vector<const FailureAnalysisResult::ReasonRow*> rows;
  for (const auto& row : failures.rows) {
    if (row.trials > 0) {
      rows.push_back(&row);
    }
  }
  std::sort(rows.begin(), rows.end(),
            [](const auto* a, const auto* b) { return a->trials > b->trials; });
  TextTable f_table({"reason", "trials", "jobs", "users", "RTF p50 (min)", "RTF share"});
  for (size_t i = 0; i < rows.size() && i < 10; ++i) {
    f_table.AddRow({std::string(ToString(rows[i]->reason)),
                    std::to_string(rows[i]->trials), std::to_string(rows[i]->jobs),
                    std::to_string(rows[i]->users),
                    FormatDouble(rows[i]->rtf_p50_min, 2),
                    FormatPercent(rows[i]->rtf_total_share, 1)});
  }
  std::printf("%stotal trials %lld; unsuccessful rate %s; mean retries %.3f\n",
              f_table.Render().c_str(), static_cast<long long>(failures.total_trials),
              FormatPercent(failures.unsuccessful_rate_all, 1).c_str(),
              failures.mean_retries_all);

  if (sim != nullptr && sim->machine_faults_injected > 0) {
    std::printf(
        "\n=== Machine faults ===\n"
        "%lld fault events; %lld server-downs; %lld attempts killed; "
        "%.1f GPU-hours lost\n",
        static_cast<long long>(sim->machine_faults_injected),
        static_cast<long long>(sim->machine_fault_server_downs),
        static_cast<long long>(sim->machine_fault_kills),
        sim->machine_fault_lost_gpu_seconds / 3600.0);
  }
  if (sim != nullptr && sim->ckpt_writes_started > 0) {
    std::printf(
        "\n=== Checkpoint I/O ===\n"
        "%lld writes started (%lld completed, %lld interrupted); "
        "%.1f GPU-hours overhead; %.1f GPU-hours stalled on contention\n",
        static_cast<long long>(sim->ckpt_writes_started),
        static_cast<long long>(sim->ckpt_writes_completed),
        static_cast<long long>(sim->ckpt_writes_interrupted),
        sim->ckpt_overhead_gpu_seconds / 3600.0,
        sim->ckpt_stall_gpu_seconds / 3600.0);
  }
}

// The subset of the report a scheduler event log can reproduce on its own.
// Utilization, failure, and host-resource tables need the telemetry and
// framework streams, which the event stream deliberately does not carry.
void PrintEventReport(const SimulationResult& joined) {
  PrintStatusSection(joined.jobs);
  PrintRunTimeSection(joined.jobs);
  PrintQueueDelaySection(joined.jobs);
  PrintDelayCauseSection(joined.jobs, &joined);
}

void ExportFigures(const std::vector<JobRecord>& jobs, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const auto runtimes = AnalyzeRunTimes(jobs);
  const auto delays = AnalyzeQueueDelays(jobs);
  for (int b = 0; b < kNumSizeBuckets; ++b) {
    WriteCdfCsv(runtimes.cdf_minutes[static_cast<size_t>(b)],
                dir + "/fig2_runtime_bucket" + std::to_string(b) + ".csv");
    WriteCdfCsv(delays.overall[static_cast<size_t>(b)],
                dir + "/fig3_delay_bucket" + std::to_string(b) + ".csv");
  }
  const auto util = AnalyzeUtilization(jobs);
  for (int i = 0; i < UtilizationResult::kNumRepresentative; ++i) {
    WriteCdfCsv(util.by_size[static_cast<size_t>(i)],
                dir + "/fig5_util_" + std::to_string(kRepresentativeSizes[i]) +
                    "gpu.csv");
  }
  const auto host = AnalyzeHostResources(jobs);
  WriteCdfCsv(host.cpu_util, dir + "/fig7_cpu.csv");
  WriteCdfCsv(host.memory_util, dir + "/fig7_memory.csv");
  std::printf("figure series written to %s/\n", dir.c_str());
}

// Serializes `write(out)` into memory, writes the bytes to `path`, and on
// success records the sink in the manifest: output path plus the SHA-256 of
// exactly the bytes written, so a later reader can prove the file on disk is
// the one this run produced.
template <typename WriteFn>
bool WriteObsFile(const std::string& path, const char* what, const char* sink,
                  RunManifest* manifest, WriteFn write) {
  std::ostringstream buffer;
  write(buffer);
  const std::string bytes = buffer.str();
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s to %s\n", what, path.c_str());
    return false;
  }
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!out.good()) {
    std::fprintf(stderr, "error while writing %s to %s\n", what, path.c_str());
    return false;
  }
  manifest->outputs[sink] = path;
  manifest->digests[sink] = Sha256Hex(bytes);
  return true;
}

// The manifest that lets an output directory found on disk later be
// regenerated: seed, scale, and every knob flag given or defaulted.
RunManifest ManifestFor(const Cli& cli, uint64_t seed, int days) {
  RunManifest manifest;
  manifest.tool = "phillyctl";
  manifest.command = std::string(cli.command().name);
  manifest.seed = seed;
  manifest.days = days;
  for (const Flag* flag : cli.command().flags) {
    if (flag->knob && (cli.Given(*flag) || !flag->def.empty())) {
      manifest.knobs[std::string(flag->name.substr(2))] = cli.Text(*flag);
    }
  }
  return manifest;
}

// Reads the span stream at `path`, or says why it cannot.
bool LoadSpans(const std::string& path, std::vector<SpanRecord>* spans) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open span stream %s\n", path.c_str());
    return false;
  }
  std::string error;
  *spans = SpanLog::ReadNdjson(in, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(), error.c_str());
    return false;
  }
  return true;
}

// Writes manifest.json into `dir`, or says why it cannot.
bool WriteManifest(const RunManifest& manifest, const std::string& dir) {
  const std::string path = dir + "/manifest.json";
  if (!manifest.WriteFile(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("manifest written to %s\n", path.c_str());
  return true;
}

// Reads the native trace under `dir`, or says why it cannot.
bool LoadNativeTrace(const std::string& dir, std::vector<JobRecord>* jobs) {
  if (TraceReader::ReadDirectory(dir, jobs)) {
    return true;
  }
  std::fprintf(stderr, "cannot open native trace files under %s\n", dir.c_str());
  return false;
}

int RunSimulateOrReport(const Cli& cli) {
  const bool write_output = cli.command().name == "simulate";
  const int days = static_cast<int>(cli.Int(kDays));
  const uint64_t seed = cli.Uint64(kSeed);
  ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
  config.simulation.scheduler = kSchedulerPresets[cli.Choice(kScheduler)]();
  ApplyRunFlags(cli, &config);

  // Observability sinks attach only when their output was requested: a run
  // without these flags keeps config.simulation.obs all-null and is
  // byte-identical to a run from before the sinks existed.
  EventLog event_log;
  MetricsRegistry metrics;
  TraceProfiler profiler;
  ClusterTimeSeries timeseries;
  SpanTracer spans;
  // The dashboard joins the telemetry and scheduler streams, so --html
  // implies both recorders even when their files were not asked for.
  if (cli.Given(kEventsOut) || cli.Given(kHtml)) {
    config.simulation.obs.event_log = &event_log;
  }
  if (cli.Given(kMetricsOut)) {
    config.simulation.obs.metrics = &metrics;
  }
  if (cli.Given(kTraceOut)) {
    config.simulation.obs.profiler = &profiler;
  }
  if (cli.Given(kTelemetryOut) || cli.Given(kHtml)) {
    config.simulation.obs.timeseries = &timeseries;
  }
  // The span tracer attaches only on explicit request: with it attached the
  // telemetry stream grows per-VC blame columns, so quietly enabling it for
  // --html would change --telemetry-out bytes for users who never asked for
  // attribution.
  if (cli.Given(kSpansOut) || cli.Given(kSpansTraceOut)) {
    config.simulation.obs.spans = &spans;
  }

  std::printf("simulating %d days (seed %llu, scheduler %s)...\n", days,
              static_cast<unsigned long long>(seed),
              config.simulation.scheduler.name.c_str());
  const ExperimentRun run = RunExperiment(config);
  std::printf("%lld jobs completed\n\n", static_cast<long long>(run.num_jobs));

  RunManifest manifest = ManifestFor(cli, seed, days);
  manifest.knobs["scheduler"] = config.simulation.scheduler.name;
  const std::string out = write_output ? cli.Text(kOut) : "";
  if (write_output) {
    std::filesystem::create_directories(out);
    const std::string format = cli.Text(kFormat);
    if (format == "native" || format == "both") {
      if (!TraceWriter::WriteDirectory(run.result.jobs, out)) {
        std::fprintf(stderr, "cannot write native trace to %s\n", out.c_str());
        return 1;
      }
      manifest.outputs["trace"] = out;
      std::printf("native trace written to %s/\n", out.c_str());
    }
    if (format == "philly-traces" || format == "both") {
      PhillyTracesExporter exporter(config.simulation.cluster);
      if (!exporter.WriteDirectory(run.result.jobs, out)) {
        std::fprintf(stderr, "cannot write philly-traces files to %s\n", out.c_str());
        return 1;
      }
      manifest.outputs["philly-traces"] = out;
      std::printf("philly-traces-format files written to %s/\n", out.c_str());
    }
  }

  {
    // Scoped so the "analyze" slice closes before the trace file is written.
    ScopedTimer analyze_timer(config.simulation.obs.profiler, "analyze");
    PrintReport(run.result.jobs, &run.result);
    if (cli.Given(kFigures)) {
      ExportFigures(run.result.jobs, cli.Text(kFigures));
    }
  }

  // Each requested stream, in write order: its flag, what it is, its manifest
  // name, its writer, and the line reporting it (around the path).
  struct Sink {
    const Flag& flag;
    const char* what;
    const char* name;
    std::function<void(std::ostream&)> write;
    std::string before;
    const char* after = "";
  };
  const Sink sinks[] = {
      {kEventsOut, "event log", "events", [&](std::ostream& out) { event_log.WriteNdjson(out); },
       std::to_string(event_log.size()) + " scheduler events written to "},
      {kMetricsOut, "metrics", "metrics", [&](std::ostream& out) { metrics.WriteJson(out); },
       "metrics written to "},
      {kTraceOut, "phase trace", "phase-trace",
       [&](std::ostream& out) { profiler.WriteChromeTrace(out); },
       std::to_string(profiler.size()) + " phase slices written to ", " (open in ui.perfetto.dev)"},
      {kTelemetryOut, "telemetry", "telemetry",
       [&](std::ostream& out) {
         const TelemetryDigest digest =
             ComputeTelemetryDigest(timeseries.samples(), run.result.jobs);
         timeseries.WriteNdjson(out, &digest);
       },
       std::to_string(timeseries.samples().size()) + " telemetry samples written to "},
      {kSpansOut, "span stream", "spans", [&](std::ostream& out) { spans.log().WriteNdjson(out); },
       std::to_string(spans.log().spans().size()) + " causal spans written to "},
      {kSpansTraceOut, "span trace", "spans-trace",
       [&](std::ostream& out) { WriteSpanChromeTrace(out, spans.log().spans()); },
       "span trace written to ", " (open in ui.perfetto.dev)"},
      {kHtml, "dashboard", "dashboard",
       [&](std::ostream& out) {
         HtmlDashboardInput dashboard;
         dashboard.title = "philly " + config.simulation.scheduler.name + " seed " +
                           std::to_string(config.simulation.seed) + ", " +
                           std::to_string(days) + " days";
         dashboard.samples = &timeseries.samples();
         dashboard.events = &event_log.events();
         dashboard.jobs = &run.result.jobs;
         if (config.simulation.obs.spans != nullptr) {
           dashboard.spans = &spans.log().spans();
         }
         out << RenderHtmlDashboard(dashboard);
       },
       "dashboard written to "},
  };
  for (const Sink& sink : sinks) {
    if (!cli.Given(sink.flag)) {
      continue;
    }
    const std::string path = cli.Text(sink.flag);
    if (!WriteObsFile(path, sink.what, sink.name, &manifest, sink.write)) {
      return 1;
    }
    std::printf("%s%s%s\n", sink.before.c_str(), path.c_str(), sink.after);
  }
  return write_output && !WriteManifest(manifest, out) ? 1 : 0;
}

// Compares the event-rebuilt jobs against a native trace, field by field,
// for every number both sources claim to know. Returns the mismatch count
// (printing the first few).
int CrossCheckAgainstTrace(const std::vector<JobRecord>& joined,
                           const std::vector<JobRecord>& native) {
  std::map<JobId, const JobRecord*> by_id;
  for (const JobRecord& job : native) {
    by_id[job.spec.id] = &job;
  }
  int mismatches = 0;
  const auto report = [&](JobId id, const char* field, double from_events,
                          double from_trace) {
    ++mismatches;
    if (mismatches <= 10) {
      std::fprintf(stderr,
                   "cross-check mismatch: job %lld %s: events say %g, "
                   "trace says %g\n",
                   static_cast<long long>(id), field, from_events, from_trace);
    }
  };
  if (joined.size() != native.size()) {
    std::fprintf(stderr, "cross-check mismatch: %zu jobs from events vs %zu "
                 "in the trace\n", joined.size(), native.size());
    ++mismatches;
  }
  for (const JobRecord& job : joined) {
    const auto it = by_id.find(job.spec.id);
    if (it == by_id.end()) {
      report(job.spec.id, "presence", 1, 0);
      continue;
    }
    const JobRecord& ref = *it->second;
    if (job.spec.vc != ref.spec.vc) {
      report(job.spec.id, "vc", job.spec.vc, ref.spec.vc);
    }
    if (job.spec.num_gpus != ref.spec.num_gpus) {
      report(job.spec.id, "num_gpus", job.spec.num_gpus, ref.spec.num_gpus);
    }
    if (job.spec.submit_time != ref.spec.submit_time) {
      report(job.spec.id, "submit_time",
             static_cast<double>(job.spec.submit_time),
             static_cast<double>(ref.spec.submit_time));
    }
    if (job.InitialQueueDelay() != ref.InitialQueueDelay()) {
      report(job.spec.id, "initial queue delay",
             static_cast<double>(job.InitialQueueDelay()),
             static_cast<double>(ref.InitialQueueDelay()));
    }
    if (job.attempts.size() != ref.attempts.size()) {
      report(job.spec.id, "attempt count",
             static_cast<double>(job.attempts.size()),
             static_cast<double>(ref.attempts.size()));
    }
    if (job.status != ref.status) {
      report(job.spec.id, "status", static_cast<int>(job.status),
             static_cast<int>(ref.status));
    }
    if (job.finish_time != ref.finish_time) {
      report(job.spec.id, "finish_time", static_cast<double>(job.finish_time),
             static_cast<double>(ref.finish_time));
    }
  }
  if (mismatches > 10) {
    std::fprintf(stderr, "... and %d more mismatches\n", mismatches - 10);
  }
  return mismatches;
}

// `analyze --from-events FILE [--trace DIR]`: rebuild the scheduler-stream
// analyses from the NDJSON event log alone; with --trace, also verify the
// rebuilt records against the native trace (the round-trip check the CI
// smoke job runs).
int RunAnalyzeFromEvents(const Cli& cli) {
  const std::string path = cli.Text(kFromEvents);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open event log %s\n", path.c_str());
    return 1;
  }
  std::string error;
  const std::vector<SchedEvent> events = EventLog::ReadNdjson(in, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const SimulationResult joined = JoinSchedulerEvents(events, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "inconsistent event stream in %s: %s\n", path.c_str(),
                 error.c_str());
    return 1;
  }
  std::printf("rebuilt %zu jobs from %zu scheduler events in %s\n\n",
              joined.jobs.size(), events.size(), path.c_str());
  PrintEventReport(joined);

  if (cli.Given(kSpans)) {
    const std::string spans_path = cli.Text(kSpans);
    std::vector<SpanRecord> spans;
    if (!LoadSpans(spans_path, &spans)) {
      return 1;
    }
    // First the conservation identity: every second a job measurably waited
    // is attributed to exactly one blame span, and the fairness/fragmentation
    // subtotals match the native per-wait attribution.
    if (!VerifyBlameConservation(spans, joined.jobs, &error)) {
      std::fprintf(stderr, "blame-conservation check failed for %s: %s\n",
                   spans_path.c_str(), error.c_str());
      return 1;
    }
    std::printf("blame conservation verified: %zu spans account for every "
                "waited second of %zu jobs\n",
                spans.size(), joined.jobs.size());
    // Then Table 2 rebuilt from the attributed spans alone must equal the
    // native analysis, exactly.
    const DelayCauseResult native = AnalyzeDelayCauses(joined.jobs, nullptr);
    const DelayCauseResult from_spans = DelayCausesFromSpans(spans);
    if (!CrossCheckDelayCauses(native, from_spans, &error)) {
      std::fprintf(stderr,
                   "span-rebuilt Table 2 disagrees with the native analysis: "
                   "%s\n",
                   error.c_str());
      return 1;
    }
    std::printf("cross-check passed: Table 2 rebuilt from attributed spans "
                "matches the native analysis\n");
  }

  if (cli.Given(kTrace)) {
    std::vector<JobRecord> native;
    if (!LoadNativeTrace(cli.Text(kTrace), &native)) {
      return 1;
    }
    const int mismatches = CrossCheckAgainstTrace(joined.jobs, native);
    if (mismatches > 0) {
      std::fprintf(stderr,
                   "event log and native trace disagree (%d mismatches)\n",
                   mismatches);
      return 1;
    }
    std::printf("cross-check passed: %zu jobs agree with the native trace\n",
                native.size());
  }
  return 0;
}

// `analyze --telemetry FILE [--trace DIR]`: verify a telemetry stream
// against its embedded digest and summarize it. The sample-derived half is
// recomputed from the stream itself (self-integrity: any edited line flips
// it); with --trace the job-derived Table 3 half is recomputed from the
// native trace with the same code path the writer used, so both checks are
// exact, not within-epsilon.
int RunAnalyzeTelemetry(const Cli& cli) {
  const std::string path = cli.Text(kTelemetry);
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open telemetry stream %s\n", path.c_str());
    return 1;
  }
  TelemetryDigest written;
  bool found_digest = false;
  std::string error;
  const std::vector<TelemetrySample> samples =
      ClusterTimeSeries::ReadNdjson(in, &written, &found_digest, &error);
  if (!error.empty()) {
    std::fprintf(stderr, "failed to parse %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  std::printf("read %zu telemetry samples from %s\n", samples.size(),
              path.c_str());
  if (!found_digest) {
    std::fprintf(stderr, "%s carries no digest line; cannot verify\n",
                 path.c_str());
    return 1;
  }

  const TelemetryDigest recomputed = DigestOfSamples(samples);
  if (!SampleAggregatesEqual(recomputed, written)) {
    std::fprintf(stderr,
                 "sample digest mismatch: stream says samples=%lld "
                 "used_gpu_samples=%lld occ_sum=%.17g util_obs_sum=%.17g, "
                 "recomputed samples=%lld used_gpu_samples=%lld occ_sum=%.17g "
                 "util_obs_sum=%.17g\n",
                 static_cast<long long>(written.samples),
                 static_cast<long long>(written.used_gpu_samples),
                 written.occupancy_sum, written.util_observed_sum,
                 static_cast<long long>(recomputed.samples),
                 static_cast<long long>(recomputed.used_gpu_samples),
                 recomputed.occupancy_sum, recomputed.util_observed_sum);
    return 1;
  }
  std::printf("sample aggregates verified against the embedded digest\n");

  // Table 3 aggregate means, rebuilt from the digest the writer derived.
  std::printf("\n=== Table 3 utilization aggregates (from telemetry) ===\n");
  TextTable table({"class", "weight", "mean util (%)"});
  static const char* kClassNames[TelemetryDigest::kNumClasses] = {
      "1 GPU", "4 GPU", "8 GPU", "16 GPU", "all"};
  for (int c = 0; c < TelemetryDigest::kNumClasses; ++c) {
    const double weight = written.util_weight[static_cast<size_t>(c)];
    const double mean =
        weight > 0.0
            ? written.util_weighted_sum[static_cast<size_t>(c)] / weight
            : 0.0;
    table.AddRow({kClassNames[c], FormatDouble(weight, 0),
                  FormatDouble(mean, 2)});
  }
  std::printf("%s\n", table.Render().c_str());

  if (cli.Given(kTrace)) {
    std::vector<JobRecord> native;
    if (!LoadNativeTrace(cli.Text(kTrace), &native)) {
      return 1;
    }
    const TelemetryDigest from_trace = ComputeUtilDigest(native);
    if (!JobAggregatesEqual(from_trace, written)) {
      std::fprintf(stderr,
                   "utilization digest mismatch: stream says jobs=%lld "
                   "segments=%lld overall wsum=%.17g, trace says jobs=%lld "
                   "segments=%lld overall wsum=%.17g\n",
                   static_cast<long long>(written.jobs),
                   static_cast<long long>(written.segments),
                   written.util_weighted_sum[TelemetryDigest::kOverallClass],
                   static_cast<long long>(from_trace.jobs),
                   static_cast<long long>(from_trace.segments),
                   from_trace.util_weighted_sum[TelemetryDigest::kOverallClass]);
      return 1;
    }
    std::printf("cross-check passed: utilization aggregates match the native "
                "trace (%zu jobs)\n", native.size());
  }
  return 0;
}

// `analyze --trace DIR`: validate a written trace (or import the public
// philly-traces layout) and print every table.
int RunAnalyze(const Cli& cli) {
  const std::string dir = cli.Text(kTrace);
  std::vector<JobRecord> jobs;
  if (cli.Given(kPhillyTraces)) {
    // Public-release layout: parse cluster_job_log. Telemetry-dependent
    // analyses are skipped (the job log carries no utilization).
    std::ifstream job_log(dir + "/cluster_job_log");
    if (!job_log) {
      std::fprintf(stderr, "cannot open %s/cluster_job_log\n", dir.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << job_log.rdbuf();
    PhillyTracesImporter importer;
    std::string error;
    jobs = importer.ImportJobLog(buffer.str(), &error);
    if (!error.empty()) {
      std::fprintf(stderr, "failed to parse cluster_job_log: %s\n", error.c_str());
      return 1;
    }
    std::printf("imported %zu jobs (%d VCs, %d users, %d machines) from %s\n\n",
                jobs.size(), importer.num_vcs(), importer.num_users(),
                importer.num_machines(), dir.c_str());
  } else {
    if (!LoadNativeTrace(dir, &jobs)) {
      return 1;
    }
    const ValidationReport validation = ValidateJobs(jobs);
    if (!validation.ok()) {
      std::fprintf(stderr, "trace failed validation: %s\n",
                   validation.Summary().c_str());
      return 1;
    }
    std::printf("loaded and validated %zu jobs from %s\n\n", jobs.size(),
                dir.c_str());
  }
  PrintReport(jobs, nullptr);
  if (cli.Given(kFigures)) {
    ExportFigures(jobs, cli.Text(kFigures));
  }
  return 0;
}

// Runs the schedulers x retry-policies x seeds cross product through the
// experiment pool and prints one summary row per run. Rows come out in
// (scheduler, retry, seed) order no matter how many worker threads execute
// the simulations.
int RunSweep(const Cli& cli) {
  std::vector<uint64_t> seeds;
  for (const std::string& item : cli.Items(kSeeds)) {
    seeds.push_back(std::stoull(item));
  }
  const std::vector<std::string> scheduler_names = cli.Items(kSchedulers);
  // Third sweep dimension: retry policies. Defaults to the single --retry
  // value so `sweep --retry adaptive` keeps working unchanged.
  const std::vector<std::string> retry_names =
      cli.Given(kRetries) ? cli.Items(kRetries) : std::vector{cli.Text(kRetry)};

  const int days = static_cast<int>(cli.Int(kDays));
  std::vector<ExperimentConfig> configs;
  for (const std::string& name : scheduler_names) {
    for (const std::string& retry : retry_names) {
      for (const uint64_t seed : seeds) {
        ExperimentConfig config = ExperimentConfig::BenchScale(days, seed);
        config.simulation.scheduler = kSchedulerPresets[ChoiceIndex(kSchedulers, name)]();
        ApplyRunFlags(cli, &config);
        config.simulation.scheduler.retry_policy =
            static_cast<SchedulerConfig::RetryPolicyKind>(ChoiceIndex(kRetries, retry));
        configs.push_back(std::move(config));
      }
    }
  }

  const ExperimentPool pool(static_cast<int>(cli.Int(kThreads)));
  std::printf("sweeping %zu scheduler(s) x %zu retry policy(ies) x %zu "
              "seed(s) over %d days on %d worker thread(s)...\n\n",
              scheduler_names.size(), retry_names.size(), seeds.size(), days,
              pool.num_threads());
  const std::vector<ExperimentRun> runs = pool.RunMany(std::move(configs));

  TextTable table({"scheduler", "retry", "seed", "jobs", "passed %",
                   "mean queue (min)", "mean util (%)", "preemptions"});
  for (size_t s = 0; s < scheduler_names.size(); ++s) {
    for (size_t r = 0; r < retry_names.size(); ++r) {
      for (size_t k = 0; k < seeds.size(); ++k) {
        const ExperimentRun& run =
            runs[(s * retry_names.size() + r) * seeds.size() + k];
        const auto status = AnalyzeStatus(run.result.jobs);
        double queue_sum = 0.0;
        for (const auto& job : run.result.jobs) {
          queue_sum += ToMinutes(job.InitialQueueDelay());
        }
        const double mean_queue =
            run.result.jobs.empty()
                ? 0.0
                : queue_sum / static_cast<double>(run.result.jobs.size());
        table.AddRow({scheduler_names[s], retry_names[r], std::to_string(seeds[k]),
                      std::to_string(run.num_jobs),
                      FormatPercent(status.by_status[0].count_share, 1),
                      FormatDouble(mean_queue, 2),
                      FormatDouble(AnalyzeUtilization(run.result.jobs).all.Mean(), 1),
                      std::to_string(run.result.preemptions)});
      }
    }
  }
  std::printf("%s\n", table.Render().c_str());
  return 0;
}

// p95 of initial queueing delay, in minutes (what bench/fleet_router and the
// fleet summary table report).
double P95QueueDelayMinutes(const std::vector<JobRecord>& jobs) {
  std::vector<double> delays;
  delays.reserve(jobs.size());
  for (const JobRecord& job : jobs) {
    delays.push_back(ToMinutes(job.InitialQueueDelay()));
  }
  if (delays.empty()) {
    return 0.0;
  }
  std::sort(delays.begin(), delays.end());
  const size_t index = static_cast<size_t>(
      0.95 * static_cast<double>(delays.size() - 1) + 0.5);
  return delays[std::min(index, delays.size() - 1)];
}

// `fleet`: run N clusters behind the front-door router and summarize routing,
// queueing, and the fleet GPU-time ledger. ParseClustersSpec checks the
// --clusters grammar: a malformed spec exits 1 with its message.
int RunFleet(const Cli& cli) {
  const std::string clusters_spec = cli.Text(kClusters);
  std::vector<ClusterConfig> cluster_configs;
  std::string error;
  if (!ParseClustersSpec(clusters_spec, &cluster_configs, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  const std::string router_name = cli.Text(kRouter);
  RouterConfig router;
  router.policy = static_cast<RouterPolicy>(cli.Choice(kRouter));
  if (cli.Given(kSpillThreshold) && router.policy != RouterPolicy::kSpillover) {
    std::fprintf(stderr, "--spill-threshold only applies to --router spillover\n");
    return 1;
  }
  router.spill_threshold = cli.Int(kSpillThreshold);

  const int days = static_cast<int>(cli.Int(kFleetDays));
  const uint64_t seed = cli.Uint64(kSeed);
  const bool collect_spans = cli.Given(kCollectSpans);
  FleetConfig config;
  config.router = router;
  config.collect_events = true;
  config.collect_telemetry = true;
  config.collect_spans = collect_spans;
  config.threads = static_cast<int>(cli.Int(kThreads));
  for (size_t i = 0; i < cluster_configs.size(); ++i) {
    config.clusters.push_back(
        {"cluster" + std::to_string(i),
         FleetClusterExperiment(cluster_configs[i], days, seed,
                                static_cast<int>(i))});
  }

  std::printf("simulating a %zu-cluster fleet for %d days (seed %llu, router "
              "%s)...\n",
              config.clusters.size(), days,
              static_cast<unsigned long long>(seed), router_name.c_str());
  FleetSimulation fleet(std::move(config));
  const FleetResult result = fleet.Run();
  std::printf("%lld jobs routed (%lld off their home cluster)\n\n",
              static_cast<long long>(result.total_jobs),
              static_cast<long long>(result.spilled_jobs));

  FleetDashboardSection section;
  section.router = router_name;
  section.total_jobs = result.total_jobs;
  section.spilled_jobs = result.spilled_jobs;
  TextTable table({"cluster", "GPUs", "jobs", "home", "in", "away",
                   "mean occ %", "p95 queue (min)"});
  for (size_t i = 0; i < result.clusters.size(); ++i) {
    const FleetClusterResult& cluster = result.clusters[i];
    double occupancy_sum = 0.0;
    for (const TelemetrySample& s : cluster.telemetry.samples()) {
      occupancy_sum += s.occupancy;
    }
    const double mean_occ =
        cluster.telemetry.samples().empty()
            ? 0.0
            : occupancy_sum /
                  static_cast<double>(cluster.telemetry.samples().size());
    const double p95 = P95QueueDelayMinutes(cluster.result.jobs);
    const int gpus = cluster_configs[i].TotalGpus();
    table.AddRow({cluster.name, std::to_string(gpus),
                  std::to_string(cluster.num_jobs),
                  std::to_string(cluster.home_jobs),
                  std::to_string(cluster.routed_in),
                  std::to_string(cluster.routed_away),
                  FormatDouble(mean_occ * 100.0, 1), FormatDouble(p95, 2)});
    section.clusters.push_back({cluster.name, gpus, cluster.num_jobs,
                                cluster.home_jobs, cluster.routed_in,
                                cluster.routed_away, mean_occ, p95});
  }
  std::printf("%s\n", table.Render().c_str());
  std::printf("fleet GPU-time ledger: %.1f allocated GPU-hours = %.1f useful "
              "+ %.1f fault-lost + %.1f ckpt-overhead + %.1f ckpt-stall\n",
              result.allocated_gpu_seconds / 3600.0,
              result.useful_gpu_seconds / 3600.0,
              result.machine_fault_lost_gpu_seconds / 3600.0,
              result.ckpt_overhead_gpu_seconds / 3600.0,
              result.ckpt_stall_gpu_seconds / 3600.0);

  RunManifest manifest = ManifestFor(cli, seed, days);
  manifest.threads = static_cast<int>(cli.Int(kThreads));
  if (router.policy != RouterPolicy::kSpillover) {
    manifest.knobs.erase("spill-threshold");
  }

  const std::string out_dir = cli.Text(kFleetOut);
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    if (!WriteObsFile(out_dir + "/fleet_events.ndjson", "fleet route stream",
                      "fleet-events", &manifest, [&](std::ostream& out) {
                        result.route_events.WriteNdjson(out);
                      })) {
      return 1;
    }
    for (const FleetClusterResult& cluster : result.clusters) {
      // Same embedded digest the simulate path writes, so each per-cluster
      // stream verifies under `analyze --telemetry` on its own.
      const TelemetryDigest digest =
          ComputeTelemetryDigest(cluster.telemetry.samples(), cluster.result.jobs);
      const struct {
        std::string kind;
        const char* what;
        std::function<void(std::ostream&)> write;
      } streams[] = {
          {"events", "event log", [&](std::ostream& out) { cluster.events.WriteNdjson(out); }},
          {"telemetry", "telemetry",
           [&](std::ostream& out) { cluster.telemetry.WriteNdjson(out, &digest); }},
          {"spans", "span stream",
           [&](std::ostream& out) { cluster.spans.log().WriteNdjson(out); }},
      };
      for (const auto& stream : streams) {
        if ((stream.kind != "spans" || collect_spans) &&
            !WriteObsFile(out_dir + "/" + cluster.name + "." + stream.kind + ".ndjson",
                          stream.what, (cluster.name + "-" + stream.kind).c_str(), &manifest,
                          stream.write)) {
          return 1;
        }
      }
    }
    std::printf("fleet streams written to %s/\n", out_dir.c_str());
  }

  const std::string html_out = cli.Text(kHtml);
  if (!html_out.empty()) {
    // Fleet-wide inputs: concatenated streams (rollup-of-concatenation equals
    // the merged fleet rollup) plus the routing section.
    std::vector<TelemetrySample> all_samples;
    std::vector<SchedEvent> all_events;
    std::vector<JobRecord> all_jobs;
    std::vector<SpanRecord> all_spans;
    for (const FleetClusterResult& cluster : result.clusters) {
      all_samples.insert(all_samples.end(), cluster.telemetry.samples().begin(),
                         cluster.telemetry.samples().end());
      all_events.insert(all_events.end(), cluster.events.events().begin(),
                        cluster.events.events().end());
      all_jobs.insert(all_jobs.end(), cluster.result.jobs.begin(),
                      cluster.result.jobs.end());
      all_spans.insert(all_spans.end(), cluster.spans.log().spans().begin(),
                       cluster.spans.log().spans().end());
    }
    all_events.insert(all_events.end(), result.route_events.events().begin(),
                      result.route_events.events().end());
    HtmlDashboardInput dashboard;
    dashboard.title = "philly fleet (" + router_name + ") seed " +
                      std::to_string(seed) + ", " + std::to_string(days) +
                      " days";
    dashboard.samples = &all_samples;
    dashboard.events = &all_events;
    dashboard.jobs = &all_jobs;
    if (collect_spans) {
      dashboard.spans = &all_spans;
    }
    dashboard.fleet = &section;
    if (!WriteObsFile(html_out, "dashboard", "dashboard", &manifest,
                      [&](std::ostream& out) {
                        out << RenderHtmlDashboard(dashboard);
                      })) {
      return 1;
    }
    std::printf("fleet dashboard written to %s\n", html_out.c_str());
  }

  return !out_dir.empty() && !WriteManifest(manifest, out_dir) ? 1 : 0;
}

// `explain --job ID --spans FILE`: reconstruct one job's causal timeline from
// the span stream alone. An unreadable or unparseable stream, or a job with
// no spans, exits 1 with a message naming exactly what was wrong.
int RunExplain(const Cli& cli) {
  const int64_t job_id = cli.Int(kJob);
  const std::string path = cli.Text(kSpans);
  std::vector<SpanRecord> spans;
  if (!LoadSpans(path, &spans)) {
    return 1;
  }
  const std::string timeline =
      RenderJobExplanation(static_cast<JobId>(job_id), spans);
  if (timeline.empty()) {
    std::fprintf(stderr, "no spans for job %lld in %s (%zu spans read)\n",
                 static_cast<long long>(job_id), path.c_str(), spans.size());
    return 1;
  }
  std::printf("%s", timeline.c_str());
  return 0;
}

// The command table. analyze has one entry per mode, tried in order: the
// first whose flags[0] is given runs, else the last.
const std::vector<Command>& Commands() {
  const auto join = [](std::initializer_list<std::vector<const Flag*>> parts) {
    std::vector<const Flag*> flags;
    for (const auto& part : parts) {
      flags.insert(flags.end(), part.begin(), part.end());
    }
    return flags;
  };
  const std::vector<const Flag*> run = {&kRetry, &kPrerun, &kMigration, &kDedicated,
                                        &kStrictLocality, &kFaults, &kCheckpointMins,
                                        &kCkptPolicy, &kCkptBw, &kCkptSize};
  const std::vector<const Flag*> sinks = {&kFigures, &kEventsOut, &kMetricsOut, &kTraceOut,
                                          &kTelemetryOut, &kSpansOut, &kSpansTraceOut, &kHtml};
  static const std::vector<Command> kCommands = {
      {"simulate", "run a simulation; write the trace, the requested streams and manifest.json",
       join({{&kDays, &kSeed, &kScheduler}, run, {&kFormat, &kOut}, sinks}), 0,
       RunSimulateOrReport},
      {"report", "run a simulation and print the full analysis, writing no trace",
       join({{&kDays, &kSeed, &kScheduler}, run, sinks}), 0, RunSimulateOrReport},
      {"analyze",
       "verify a telemetry stream against its embedded digest and print Table 3 "
       "(--trace: also check it against the native trace)",
       {&kTelemetry, &kTrace}, 1, RunAnalyzeTelemetry},
      {"analyze",
       "rebuild Table 6, Figures 2-3 and Table 2 from an event log (--spans: verify "
       "blame conservation; --trace: cross-check every job against the native trace)",
       {&kFromEvents, &kTrace, &kSpans}, 1, RunAnalyzeFromEvents},
      {"analyze", "re-analyze a written trace and print every table",
       {&kTrace, &kFigures, &kPhillyTraces}, 1, RunAnalyze},
      {"sweep", "run the schedulers x retry policies x seeds cross product on the "
                "experiment pool; one summary row per run",
       join({{&kDays, &kSeeds, &kSchedulers, &kRetries, &kThreads}, run}), 0, RunSweep},
      {"fleet", "run a multi-cluster fleet behind the front-door job router (docs/fleet.md)",
       {&kClusters, &kRouter, &kSpillThreshold, &kFleetDays, &kSeed, &kThreads, &kFleetOut,
        &kHtml, &kCollectSpans},
       0, RunFleet},
      {"explain", "print one job's causal timeline, reconstructed from a span stream",
       {&kJob, &kSpans}, 2, RunExplain},
  };
  return kCommands;
}

// "explain --job ID --spans FILE": the command and its required flags.
std::string Synopsis(const Command& command) {
  std::string synopsis(command.name);
  for (size_t i = 0; i < command.required; ++i) {
    synopsis += " " + std::string(command.flags[i]->name) + " " +
                std::string(command.flags[i]->arg);
  }
  return synopsis;
}

// Prints the usage of command `name`, or of every command when it is empty.
void PrintUsage(std::FILE* out, std::string_view name) {
  if (name.empty()) {
    std::fprintf(out, "usage: phillyctl <command> [flags]\n\ncommands:\n");
    for (const Command& command : Commands()) {
      std::fprintf(out, "  %s\n      %s\n", Synopsis(command).c_str(),
                   std::string(command.about).c_str());
    }
    std::fprintf(out, "\n`phillyctl <command> --help` lists a command's flags. Exit status: 0 "
                      "ok; 1 a malformed value, bad input or failed check; 2 a usage error, "
                      "reported before anything runs.\n");
    return;
  }
  for (const Command& command : Commands()) {
    if (command.name != name) {
      continue;
    }
    std::fprintf(out, "usage: phillyctl %s%s\n  %s\n", Synopsis(command).c_str(),
                 command.flags.size() > command.required ? " [flags]" : "",
                 std::string(command.about).c_str());
    for (const Flag* flag : command.flags) {
      std::string left = "  " + std::string(flag->name);
      if (flag->type != kSwitch) {
        left += " " + std::string(flag->arg) + (flag->list ? ",..." : "");
      }
      std::string help(flag->help);
      if (flag->type == kInt) {
        help += " [" + std::to_string(flag->lo) + ", " + std::to_string(flag->hi) + "]";
      }
      if (flag->type != kSwitch && !flag->def.empty()) {
        help += " (default " + std::string(flag->def) + ")";
      }
      if (left.size() >= 34) {
        left += "\n" + std::string(34, ' ');
      }
      std::fprintf(out, "%-34s %s\n", left.c_str(), help.c_str());
    }
  }
}

const Flag* FindFlag(const Command& command, std::string_view name) {
  for (const Flag* flag : command.flags) {
    if (flag->name == name) {
      return flag;
    }
  }
  return nullptr;
}

// A usage error: nothing has run or been written yet.
[[noreturn]] void UsageError(std::string_view command, const std::string& problem) {
  std::fprintf(stderr, "phillyctl: %s\n\n", problem.c_str());
  PrintUsage(stderr, command);
  std::exit(2);
}

// Reads argv once against the command table. Exits 0 after printing --help,
// 2 on a usage error and 1 on a malformed flag value, in each case before any
// command runs.
Cli Parse(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "";
  if (name == "--help") {
    PrintUsage(stdout, "");
    std::exit(0);
  }
  std::vector<const Command*> modes;
  for (const Command& command : Commands()) {
    if (command.name == name) {
      modes.push_back(&command);
    }
  }
  if (modes.empty()) {
    UsageError("", name.empty() ? "no command given" : "unknown command '" + name + "'");
  }

  std::map<std::string_view, std::string> given;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      PrintUsage(stdout, name);
      std::exit(0);
    }
    const Flag* flag = nullptr;
    for (const Command* mode : modes) {
      flag = flag != nullptr ? flag : FindFlag(*mode, arg);
    }
    if (flag == nullptr) {
      UsageError(name, (StartsWith(arg, "-") ? "unknown flag " : "unexpected argument ") +
                             ("'" + arg + "'"));
    }
    if (given.count(flag->name) > 0) {
      UsageError(name, arg + " given twice");
    }
    if (flag->type == kSwitch) {
      given[flag->name] = "on";
    } else if (i + 1 == argc || StartsWith(argv[i + 1], "--")) {
      UsageError(name, arg + " needs a value");
    } else {
      given[flag->name] = argv[++i];
    }
  }

  const Command* command = modes.back();
  for (const Command* mode : modes) {
    if (mode->required == 0 || given.count(mode->flags[0]->name) > 0) {
      command = mode;
      break;
    }
  }
  for (size_t i = 0; i < command->required; ++i) {
    if (given.count(command->flags[i]->name) == 0) {
      UsageError(name, "missing " + std::string(command->flags[i]->name));
    }
  }
  for (const auto& [flag_name, text] : given) {
    if (FindFlag(*command, flag_name) == nullptr) {
      UsageError(name, std::string(flag_name) + " does not apply to `" + Synopsis(*command) + "`");
    }
  }
  for (const Flag* flag : command->flags) {
    const auto it = given.find(flag->name);
    if (it == given.end() || flag->type == kSwitch) {
      continue;
    }
    const std::vector<std::string_view> items =
        flag->list ? Split(it->second, ',') : std::vector<std::string_view>{it->second};
    for (const std::string_view item : items) {
      if (!ValidValue(*flag, item)) {
        std::fprintf(stderr, "%s '%s' is invalid: expected %s\n",
                     std::string(flag->name).c_str(), it->second.c_str(),
                     Expected(*flag).c_str());
        std::exit(1);
      }
    }
  }
  return Cli(*command, std::move(given));
}

}  // namespace
}  // namespace philly

int main(int argc, char** argv) {
  const philly::Cli cli = philly::Parse(argc, argv);
  return cli.command().run(cli);
}
