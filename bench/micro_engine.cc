// Microbenchmarks for the simulation substrate (google-benchmark): event
// queue throughput, placement search, utilization-model evaluation, failure
// classification, and end-to-end simulation rate.

#include <benchmark/benchmark.h>

#include <sstream>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/failure/failure_logs.h"
#include "src/obs/event_log.h"
#include "src/obs/metrics.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"
#include "src/obs/trace_profiler.h"
#include "src/sched/placement.h"
#include "src/core/analysis.h"
#include "src/sched/simulation.h"
#include "src/trace/philly_format.h"
#include "src/sim/simulator.h"
#include "src/telemetry/util_model.h"
#include "src/workload/model_zoo.h"

namespace philly {
namespace {

void BM_EventQueueScheduleFire(benchmark::State& state) {
  const auto n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    Rng rng(7);
    for (int i = 0; i < n; ++i) {
      sim.ScheduleAt(static_cast<SimTime>(rng.Below(1000000)), [] {});
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.ProcessedCount());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_HistogramAdd(benchmark::State& state) {
  StreamingHistogram hist(0.0, 100.0, 200);
  Rng rng(3);
  for (auto _ : state) {
    hist.Add(rng.Uniform(0, 100));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistogramAdd);

// Brings a paper-scale cluster to ~80% occupancy with random small jobs.
Cluster LoadedPaperCluster(const LocalityPlacer& placer) {
  Cluster cluster(ClusterConfig::PaperScale());
  Rng rng(5);
  JobId next = 1;
  while (cluster.Occupancy() < 0.8) {
    const int gpus = static_cast<int>(rng.Between(1, 8));
    const auto placement = placer.FindPlacement(cluster, gpus, 3);
    if (!placement.has_value()) {
      break;
    }
    cluster.Allocate(next++, *placement);
  }
  return cluster;
}

// Pure placement search at a fixed cluster state: index-backed vs the legacy
// full-scan reference (the second range arg selects the path). The spread
// between the two is the per-query win of the free-capacity index.
void BM_PlacementSearch(benchmark::State& state) {
  PlacerConfig config;
  config.use_scan_reference = state.range(1) != 0;
  LocalityPlacer placer(config);
  const Cluster cluster = LoadedPaperCluster(placer);
  const int gpus = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(placer.FindPlacement(cluster, gpus, 2));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(config.use_scan_reference ? "scan" : "index");
}
BENCHMARK(BM_PlacementSearch)
    ->Args({1, 0})
    ->Args({1, 1})
    ->Args({8, 0})
    ->Args({8, 1})
    ->Args({32, 0})
    ->Args({32, 1});

// Allocate/release churn through FindPlacement, the scheduler's actual hot
// loop shape: every allocation and release also pays the incremental index
// maintenance, so this measures search + upkeep together against the
// maintenance-free scan.
void BM_PlacementChurn(benchmark::State& state) {
  PlacerConfig config;
  config.use_scan_reference = state.range(0) != 0;
  LocalityPlacer placer(config);
  Cluster cluster = LoadedPaperCluster(placer);
  Rng rng(17);
  JobId next = 1000000;
  std::vector<JobId> held;
  for (auto _ : state) {
    const int gpus = static_cast<int>(rng.Between(1, 16));
    const auto placement =
        placer.FindPlacement(cluster, gpus, static_cast<int>(rng.Below(4)));
    if (placement.has_value()) {
      cluster.Allocate(next, *placement);
      held.push_back(next++);
    }
    if (held.size() > 64 || (!held.empty() && !placement.has_value())) {
      const size_t pick = rng.Below(held.size());
      cluster.Release(held[pick]);
      held[pick] = held.back();
      held.pop_back();
    }
    benchmark::DoNotOptimize(cluster.NumFreeGpus());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(config.use_scan_reference ? "scan" : "index");
}
BENCHMARK(BM_PlacementChurn)->Arg(0)->Arg(1);

void BM_UtilizationModel(benchmark::State& state) {
  UtilizationModel model;
  Cluster cluster(ClusterConfig::Small());
  JobSpec job;
  job.id = 1;
  job.num_gpus = 16;
  job.base_utilization = 0.6;
  Placement placement;
  placement.shards = {{0, 8}, {1, 8}};
  cluster.Allocate(1, placement);
  const auto activity_of = [](JobId) { return JobActivity{0.6, 1.0, 8, 1}; };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model.ExpectedUtilization(job, placement, cluster, activity_of));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_UtilizationModel);

void BM_FailureClassification(benchmark::State& state) {
  FailureLogSynthesizer synthesizer;
  FailureClassifier classifier;
  Rng rng(11);
  std::vector<std::vector<std::string>> samples;
  for (int r = 0; r < kNumFailureReasons; ++r) {
    samples.push_back(synthesizer.LinesFor(static_cast<FailureReason>(r), rng));
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(classifier.Classify(samples[i++ % samples.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FailureClassification);

void BM_AnalyzeUtilization(benchmark::State& state) {
  WorkloadConfig workload = WorkloadConfig::Scaled(2, 5);
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  const SimulationResult result = sim.Run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeUtilization(result.jobs).all.Mean());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.jobs.size()));
}
BENCHMARK(BM_AnalyzeUtilization)->Unit(benchmark::kMillisecond);

void BM_AnalyzeFailures(benchmark::State& state) {
  WorkloadConfig workload = WorkloadConfig::Scaled(2, 5);
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  const SimulationResult result = sim.Run();
  for (auto _ : state) {
    benchmark::DoNotOptimize(AnalyzeFailures(result.jobs).total_trials);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.jobs.size()));
}
BENCHMARK(BM_AnalyzeFailures)->Unit(benchmark::kMillisecond);

void BM_TraceExportImport(benchmark::State& state) {
  WorkloadConfig workload = WorkloadConfig::Scaled(1, 5);
  SimulationConfig config;
  config.vcs = workload.vcs;
  ClusterSimulation sim(config, WorkloadGenerator(workload).Generate());
  const SimulationResult result = sim.Run();
  PhillyTracesExporter exporter(config.cluster);
  for (auto _ : state) {
    std::ostringstream out;
    exporter.WriteJobLog(result.jobs, out);
    PhillyTracesImporter importer;
    benchmark::DoNotOptimize(importer.ImportJobLog(out.str()).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(result.jobs.size()));
}
BENCHMARK(BM_TraceExportImport)->Unit(benchmark::kMillisecond);

void BM_EndToEndSimulation(benchmark::State& state) {
  const int days = static_cast<int>(state.range(0));
  WorkloadConfig workload = WorkloadConfig::Scaled(days, 3);
  const auto jobs = WorkloadGenerator(workload).Generate();
  for (auto _ : state) {
    SimulationConfig config;
    config.vcs = workload.vcs;
    ClusterSimulation sim(config, jobs);
    benchmark::DoNotOptimize(sim.Run().jobs.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(jobs.size()));
  state.SetLabel(std::to_string(jobs.size()) + " jobs");
}
BENCHMARK(BM_EndToEndSimulation)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// Same simulation with observability sinks attached. The second argument is
// a sink mask (1 = event log, 2 = metrics, 4 = phase profiler, 8 = telemetry
// time series, 16 = causal span tracer) so each sink's cost is measurable
// against BM_EndToEndSimulation on its own. The event-driven sinks (events,
// metrics, profiler, spans) pay per simulator event and hold to a < ~5%
// budget — the span tracer measured ~2% on the 1-day run (one segment append
// per failed evaluation plus a CanPlace probe at fragmentation decisions;
// probes are memoized against Cluster::AllocVersion(), which is what keeps
// this under budget — unmemoized they measured ~12%). The
// telemetry sink is different in kind: it pays per simulated minute
// (~1.4us/sample on the drained 1-day BenchScale run: one AR(1) step per
// running job plus the sample's shared-row commit; see docs/perf.md), and
// this workload simulates far more minutes (~45k for the drained 1-day run)
// than it processes events (~8k), so the telemetry rows sit well
// above the event-proportional budget by construction — that is the price of
// a fixed-cadence scan, not an append-path regression. Watch the per-sample
// cost, not the ratio. The sinks live outside the loop, mirroring real usage
// (metrics/profiler are long-lived and shared across a sweep's runs; the
// per-run event log and telemetry recorder are drained and cleared between
// runs), so the measurement captures steady-state append cost rather than
// first-touch page faults on a cold buffer every iteration.
void BM_EndToEndSimulationObserved(benchmark::State& state) {
  const int days = static_cast<int>(state.range(0));
  const int sinks = static_cast<int>(state.range(1));
  WorkloadConfig workload = WorkloadConfig::Scaled(days, 3);
  const auto jobs = WorkloadGenerator(workload).Generate();
  EventLog event_log;
  MetricsRegistry metrics;
  TraceProfiler profiler;
  ClusterTimeSeries timeseries;
  SpanTracer spans;
  for (auto _ : state) {
    event_log.Clear();
    timeseries.Clear();
    spans.Clear();
    SimulationConfig config;
    config.vcs = workload.vcs;
    if ((sinks & 1) != 0) config.obs.event_log = &event_log;
    if ((sinks & 2) != 0) config.obs.metrics = &metrics;
    if ((sinks & 4) != 0) config.obs.profiler = &profiler;
    if ((sinks & 8) != 0) config.obs.timeseries = &timeseries;
    if ((sinks & 16) != 0) config.obs.spans = &spans;
    ClusterSimulation sim(config, jobs);
    benchmark::DoNotOptimize(sim.Run().jobs.size());
    benchmark::DoNotOptimize(event_log.size());
    benchmark::DoNotOptimize(timeseries.samples().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(jobs.size()));
  std::string label = std::to_string(jobs.size()) + " jobs, sinks:";
  if ((sinks & 1) != 0) label += " events";
  if ((sinks & 2) != 0) label += " metrics";
  if ((sinks & 4) != 0) label += " profiler";
  if ((sinks & 8) != 0) label += " telemetry";
  if ((sinks & 16) != 0) label += " spans";
  state.SetLabel(label);
}
BENCHMARK(BM_EndToEndSimulationObserved)
    ->Args({1, 1})   // event log only
    ->Args({1, 2})   // metrics only
    ->Args({1, 4})   // phase profiler only
    ->Args({1, 8})   // telemetry time series only
    ->Args({1, 16})  // causal span tracer only
    ->Args({1, 31})  // everything at once
    ->Args({4, 31})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace philly

BENCHMARK_MAIN();
