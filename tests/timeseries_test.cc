// Tests for the telemetry stream: NDJSON codec round-trips, the per-minute
// sampling contract, shared array rows, digest self-checks (sample half and
// job half), rollup windowing/merging, and the two contracts shared with the
// event log — byte-identical streams regardless of pool thread count, and
// zero perturbation of simulation output when the sink is attached.
//
// TelemetryStreamDeterministicAcrossPoolThreads carries the `tsan` ctest
// label via this binary (see tests/CMakeLists.txt).

#include "src/obs/timeseries.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/strings.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/core/runner.h"
#include "src/fault/fault_process.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"

namespace philly {
namespace {

ExperimentConfig SmallConfig(uint64_t seed) {
  return ExperimentConfig::BenchScale(/*days=*/1, seed);
}

std::string NdjsonOf(const ClusterTimeSeries& ts,
                     const TelemetryDigest* digest = nullptr) {
  std::ostringstream out;
  ts.WriteNdjson(out, digest);
  return out.str();
}

std::vector<TelemetrySample> ReadBack(const std::string& ndjson) {
  std::istringstream in(ndjson);
  TelemetryDigest digest;
  bool found_digest = false;
  std::string error;
  std::vector<TelemetrySample> samples =
      ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
  EXPECT_TRUE(error.empty()) << error;
  return samples;
}

// Where sample i's row equals sample i-1's, both must hold the same storage.
// Returns how many non-empty rows were shared, so callers can check that the
// rule was exercised at all.
template <typename Row>
int ExpectEqualRowsShared(const std::vector<TelemetrySample>& samples,
                          Row TelemetrySample::*row, const char* name) {
  int shared = 0;
  for (size_t i = 1; i < samples.size(); ++i) {
    const Row& prev = samples[i - 1].*row;
    const Row& cur = samples[i].*row;
    if (!cur.empty() && cur == prev) {
      EXPECT_EQ(cur.data(), prev.data()) << name << " at sample " << i;
      ++shared;
    }
  }
  return shared;
}

// Every row present in the run must have been shared at least once; the span
// tracer is always attached, and `with_ckpt` says whether the checkpoint I/O
// model was on.
void ExpectSharing(const std::vector<TelemetrySample>& samples, bool with_ckpt) {
  EXPECT_GT(ExpectEqualRowsShared(samples, &TelemetrySample::rack_free_gpus,
                                  "rack_free_gpus"), 0);
  EXPECT_GT(ExpectEqualRowsShared(samples, &TelemetrySample::vc_queued, "vc_queued"), 0);
  EXPECT_GT(ExpectEqualRowsShared(samples, &TelemetrySample::vc_running, "vc_running"), 0);
  EXPECT_GT(ExpectEqualRowsShared(samples, &TelemetrySample::vc_used_gpus,
                                  "vc_used_gpus"), 0);
  EXPECT_GT(ExpectEqualRowsShared(samples, &TelemetrySample::vc_blame_s, "vc_blame_s"), 0);
  const int ckpt = ExpectEqualRowsShared(samples, &TelemetrySample::ckpt_rack_writers,
                                         "ckpt_rack_writers");
  if (with_ckpt) {
    EXPECT_GT(ckpt, 0);
  }
}

// Field-by-field comparison, so a mismatch names the field and the sample.
#define EXPECT_SAMPLE_FIELD_EQ(a, b, field) \
  EXPECT_EQ((a).field, (b).field) << #field << " at sample " << index

void ExpectSamplesEqual(const TelemetrySample& a, const TelemetrySample& b,
                        size_t index) {
  EXPECT_SAMPLE_FIELD_EQ(a, b, time);
  EXPECT_SAMPLE_FIELD_EQ(a, b, used_gpus);
  EXPECT_SAMPLE_FIELD_EQ(a, b, free_gpus);
  EXPECT_SAMPLE_FIELD_EQ(a, b, occupancy);
  EXPECT_SAMPLE_FIELD_EQ(a, b, running_jobs);
  EXPECT_SAMPLE_FIELD_EQ(a, b, queued_jobs);
  EXPECT_SAMPLE_FIELD_EQ(a, b, busy_servers);
  EXPECT_SAMPLE_FIELD_EQ(a, b, empty_servers);
  EXPECT_SAMPLE_FIELD_EQ(a, b, racks_with_empty);
  EXPECT_SAMPLE_FIELD_EQ(a, b, offline_servers);
  EXPECT_SAMPLE_FIELD_EQ(a, b, rack_free_gpus);
  EXPECT_SAMPLE_FIELD_EQ(a, b, vc_queued);
  EXPECT_SAMPLE_FIELD_EQ(a, b, vc_running);
  EXPECT_SAMPLE_FIELD_EQ(a, b, vc_used_gpus);
  EXPECT_SAMPLE_FIELD_EQ(a, b, util_deciles);
  EXPECT_SAMPLE_FIELD_EQ(a, b, locality_relaxations);
  EXPECT_SAMPLE_FIELD_EQ(a, b, backoffs);
  EXPECT_SAMPLE_FIELD_EQ(a, b, preemptions);
  EXPECT_SAMPLE_FIELD_EQ(a, b, migrations);
  EXPECT_SAMPLE_FIELD_EQ(a, b, fault_kills);
  EXPECT_SAMPLE_FIELD_EQ(a, b, lost_gpu_seconds);
  EXPECT_SAMPLE_FIELD_EQ(a, b, ckpt_rack_writers);
  EXPECT_SAMPLE_FIELD_EQ(a, b, ckpt_writes);
  EXPECT_SAMPLE_FIELD_EQ(a, b, ckpt_overhead_gpu_seconds);
  EXPECT_SAMPLE_FIELD_EQ(a, b, ckpt_stall_gpu_seconds);
  EXPECT_SAMPLE_FIELD_EQ(a, b, vc_blame_s);
  EXPECT_SAMPLE_FIELD_EQ(a, b, util_expected_pct);
  EXPECT_SAMPLE_FIELD_EQ(a, b, util_observed_pct);
}

TelemetrySample FullySetSample() {
  TelemetrySample s;
  s.time = Minutes(7);
  s.used_gpus = 96;
  s.free_gpus = 32;
  s.occupancy = 0.75;
  s.running_jobs = 12;
  s.queued_jobs = 5;
  s.busy_servers = 14;
  s.empty_servers = 2;
  s.racks_with_empty = 1;
  s.offline_servers = 3;
  s.rack_free_gpus = {8, 0, 24};
  s.vc_queued = {2, 3};
  s.vc_running = {7, 5};
  s.vc_used_gpus = {40, 56};
  s.util_deciles = {0, 1, 0, 2, 3, 4, 2, 1, 1, 0};
  s.locality_relaxations = 9;
  s.backoffs = 4;
  s.preemptions = 2;
  s.migrations = 1;
  s.fault_kills = 6;
  s.lost_gpu_seconds = 1234.5;
  s.util_expected_pct = 52.375;
  s.util_observed_pct = 49.0625;
  return s;
}

// ------------------------------------------------------------ NDJSON codec

TEST(TimeSeriesCodecTest, SampleRoundTripsAllFields) {
  const TelemetrySample s = FullySetSample();
  const std::string line = ToNdjsonLine(s);
  TelemetrySample parsed;
  std::string error;
  ASSERT_TRUE(TelemetrySampleFromNdjsonLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed.time, s.time);
  EXPECT_EQ(parsed.used_gpus, s.used_gpus);
  EXPECT_EQ(parsed.free_gpus, s.free_gpus);
  EXPECT_EQ(parsed.occupancy, s.occupancy);
  EXPECT_EQ(parsed.running_jobs, s.running_jobs);
  EXPECT_EQ(parsed.queued_jobs, s.queued_jobs);
  EXPECT_EQ(parsed.busy_servers, s.busy_servers);
  EXPECT_EQ(parsed.empty_servers, s.empty_servers);
  EXPECT_EQ(parsed.racks_with_empty, s.racks_with_empty);
  EXPECT_EQ(parsed.offline_servers, s.offline_servers);
  EXPECT_EQ(parsed.rack_free_gpus, s.rack_free_gpus);
  EXPECT_EQ(parsed.vc_queued, s.vc_queued);
  EXPECT_EQ(parsed.vc_running, s.vc_running);
  EXPECT_EQ(parsed.vc_used_gpus, s.vc_used_gpus);
  EXPECT_EQ(parsed.util_deciles, s.util_deciles);
  EXPECT_EQ(parsed.locality_relaxations, s.locality_relaxations);
  EXPECT_EQ(parsed.backoffs, s.backoffs);
  EXPECT_EQ(parsed.preemptions, s.preemptions);
  EXPECT_EQ(parsed.migrations, s.migrations);
  EXPECT_EQ(parsed.fault_kills, s.fault_kills);
  EXPECT_EQ(parsed.lost_gpu_seconds, s.lost_gpu_seconds);
  EXPECT_EQ(parsed.util_expected_pct, s.util_expected_pct);
  EXPECT_EQ(parsed.util_observed_pct, s.util_observed_pct);
  // Re-serialization is byte-stable.
  EXPECT_EQ(ToNdjsonLine(parsed), line);
}

TEST(TimeSeriesCodecTest, DefaultScalarsAreOmittedButArraysStay) {
  TelemetrySample s;
  s.time = Minutes(1);
  s.rack_free_gpus = {64};
  s.vc_queued = {0};
  s.vc_running = {0};
  s.vc_used_gpus = {0};
  const std::string line = ToNdjsonLine(s);
  EXPECT_EQ(line.find("\"used\""), std::string::npos) << line;
  EXPECT_EQ(line.find("\"occ\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"rack_free\":[64]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"vc_queued\":[0]"), std::string::npos) << line;
}

TEST(TimeSeriesCodecTest, DigestLineRoundTripsBitwise) {
  TelemetryDigest digest;
  digest.samples = 1440;
  digest.used_gpu_samples = 98304;
  digest.queue_depth_max = 17;
  digest.occupancy_sum = 1234.0000000000002;  // exercises shortest round-trip
  digest.util_expected_sum = 0.1 + 0.2;
  digest.util_observed_sum = 70000.125;
  digest.jobs = 321;
  digest.segments = 999;
  for (int c = 0; c < TelemetryDigest::kNumClasses; ++c) {
    digest.util_weight[static_cast<size_t>(c)] = 100.5 + c;
    digest.util_weighted_sum[static_cast<size_t>(c)] = 5000.0625 * (c + 1);
  }

  const std::string line = ToNdjsonLine(digest);
  ASSERT_TRUE(IsTelemetryDigestLine(line));
  EXPECT_FALSE(IsTelemetryDigestLine(ToNdjsonLine(FullySetSample())));
  TelemetryDigest parsed;
  std::string error;
  ASSERT_TRUE(TelemetryDigestFromNdjsonLine(line, &parsed, &error)) << error;
  EXPECT_EQ(parsed, digest);  // bitwise via defaulted operator==
}

TEST(TimeSeriesCodecTest, ReadNdjsonReportsMalformedLine) {
  const char* bad[] = {
      "not json at all",
      // A known member holding the wrong JSON type is an error, not a 0.
      "{\"t\":\"60\",\"rack_free\":[]}",
      "{\"t\":120,\"used\":\"7\"}",
      "{\"t\":120,\"occ\":\"0.5\"}",
      "{\"t\":120,\"rack_free\":[1,\"2\"]}",
      "{\"t\":120,\"vc_queued\":3}",
      "{\"t\":120,\"util_deciles\":[0,0,0,0,0,0,0,0,0,0,1]}",
      // A known member given twice is an error, not "first one wins".
      "{\"t\":120,\"used\":1,\"used\":2}",
      "{\"t\":120,\"t\":180}",
      // Truncated, trailing content, missing `t`.
      "{\"t\":120,\"rack_free\":[1,2",
      "{\"t\":120}{}",
      "{\"used\":1}",
      // A digest line with the wrong type or a short class array.
      "{\"digest\":1,\"samples\":\"1\",\"util_weight\":[0,0,0,0,0],"
      "\"util_wsum\":[0,0,0,0,0]}",
      "{\"digest\":1,\"util_weight\":[0,0,0,0],\"util_wsum\":[0,0,0,0,0]}",
  };
  for (const char* line : bad) {
    std::istringstream in(
        std::string("{\"t\":60,\"rack_free\":[],\"vc_queued\":[],"
                    "\"vc_running\":[],\"vc_gpus\":[],\"util_deciles\":[]}\n") +
        line + "\n");
    TelemetryDigest digest;
    bool found_digest = false;
    std::string error;
    const auto samples =
        ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
    EXPECT_EQ(samples.size(), 1u) << line;
    EXPECT_FALSE(found_digest) << line;
    EXPECT_NE(error.find("line 2"), std::string::npos) << line << ": " << error;
  }
}

// The digest closes the stream: a sample after it, or a second digest, is a
// malformed stream rather than a sample appended to the digested ones or a
// digest that silently replaces the first.
TEST(TimeSeriesCodecTest, SampleAfterTheDigestLineIsRejected) {
  TelemetrySample s = FullySetSample();
  const std::string first = ToNdjsonLine(s);
  s.time += Minutes(1);
  std::istringstream in(first + "\n" + ToNdjsonLine(TelemetryDigest{}) + "\n" +
                        ToNdjsonLine(s) + "\n");
  TelemetryDigest digest;
  bool found_digest = false;
  std::string error;
  const auto samples = ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
  EXPECT_EQ(samples.size(), 1u);
  EXPECT_NE(error.find("line 3: sample after the digest line"), std::string::npos)
      << error;
}

TEST(TimeSeriesCodecTest, SecondDigestLineIsRejected) {
  TelemetryDigest first;
  first.samples = 1;
  TelemetryDigest second;
  second.samples = 2;
  std::istringstream in(ToNdjsonLine(FullySetSample()) + "\n" + ToNdjsonLine(first) +
                        "\n" + ToNdjsonLine(second) + "\n");
  TelemetryDigest digest;
  bool found_digest = false;
  std::string error;
  ClusterTimeSeries::ReadNdjson(in, &digest, &found_digest, &error);
  EXPECT_NE(error.find("line 3: second digest line"), std::string::npos) << error;
  EXPECT_EQ(digest.samples, 1);
}

TEST(TimeSeriesCodecTest, IntegersPastDoublePrecisionDecodeExactly) {
  const std::string line =
      "{\"t\":60,\"relax\":9007199254740993,\"rack_free\":[],\"vc_queued\":[],"
      "\"vc_running\":[],\"vc_gpus\":[],\"util_deciles\":[0,0,0,0,0,0,0,0,0,0],"
      "\"vc_blame_s\":[9007199254740993]}";
  TelemetrySample sample;
  std::string error;
  ASSERT_TRUE(TelemetrySampleFromNdjsonLine(line, &sample, &error)) << error;
  EXPECT_EQ(sample.locality_relaxations, int64_t{9007199254740993});
  EXPECT_EQ(sample.vc_blame_s, std::vector<int64_t>{9007199254740993});
  EXPECT_EQ(ToNdjsonLine(sample), line);
}

// Samples carry no string member of their own, so the escape case for this
// stream is a foreign member whose string holds every escaped byte: it must
// be skipped cleanly and the sample still re-serialize byte-identically.
TEST(TimeSeriesCodecTest, EscapedStringMembersAreSkippedCleanly) {
  const TelemetrySample s = FullySetSample();
  const std::string line = ToNdjsonLine(s);
  const std::string with_detail =
      line.substr(0, line.size() - 1) + ",\"detail\":\"" +
      JsonEscape("quote\" backslash\\ newline\n ctrl\x01 }") + "\"}";
  ASSERT_NE(with_detail.find("\\u0001"), std::string::npos) << with_detail;
  TelemetrySample parsed;
  std::string error;
  ASSERT_TRUE(TelemetrySampleFromNdjsonLine(with_detail, &parsed, &error)) << error;
  EXPECT_EQ(ToNdjsonLine(parsed), line);
}

// --------------------------------------------------------- sampling contract

TEST(ClusterTimeSeriesTest, SamplesLieOnTheMinuteGrid) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  ASSERT_GT(ts.samples().size(), 100u);
  for (size_t i = 0; i < ts.samples().size(); ++i) {
    EXPECT_EQ(ts.samples()[i].time,
              static_cast<SimTime>(i + 1) * ts.period());
  }
  // Cumulative counters are monotone.
  for (size_t i = 1; i < ts.samples().size(); ++i) {
    EXPECT_GE(ts.samples()[i].preemptions, ts.samples()[i - 1].preemptions);
    EXPECT_GE(ts.samples()[i].locality_relaxations,
              ts.samples()[i - 1].locality_relaxations);
  }
  // Occupancy identity holds on every line.
  for (const TelemetrySample& s : ts.samples()) {
    int rack_free = 0;
    for (int f : s.rack_free_gpus) {
      rack_free += f;
    }
    EXPECT_EQ(rack_free, s.free_gpus) << "at t=" << s.time;
  }
}

TEST(ClusterTimeSeriesTest, FullRunStreamRoundTripsByteIdentically) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(13);
  config.simulation.obs.timeseries = &ts;
  const auto run = RunExperiment(config);

  const TelemetryDigest digest =
      ComputeTelemetryDigest(ts.samples(), run.result.jobs);

  const std::string ndjson = NdjsonOf(ts, &digest);
  std::istringstream in(ndjson);
  TelemetryDigest read_digest;
  bool found_digest = false;
  std::string error;
  const auto samples =
      ClusterTimeSeries::ReadNdjson(in, &read_digest, &found_digest, &error);
  ASSERT_TRUE(error.empty()) << error;
  ASSERT_TRUE(found_digest);
  ASSERT_EQ(samples.size(), ts.samples().size());
  EXPECT_EQ(read_digest, digest);

  // The reader's recomputation of both digest halves is exact: file-order
  // aggregates over the parsed samples, and the same job-derived utilization
  // aggregates from the run's records.
  EXPECT_TRUE(SampleAggregatesEqual(DigestOfSamples(samples), read_digest));
  EXPECT_TRUE(JobAggregatesEqual(ComputeUtilDigest(run.result.jobs), read_digest));

  // And the parsed samples re-serialize to the same bytes.
  std::string reserialized;
  for (const TelemetrySample& s : samples) {
    reserialized += ToNdjsonLine(s);
    reserialized += '\n';
  }
  reserialized += ToNdjsonLine(read_digest);
  reserialized += '\n';
  EXPECT_EQ(reserialized, ndjson);
}

// ---------------------------------------------------------- shared rows

// Consecutive samples whose arrays are equal hold one copy of them, both as
// recorded and as read back.
TEST(ClusterTimeSeriesTest, EqualRowsShareStorageWithThePreviousSample) {
  ClusterTimeSeries ts;
  SpanTracer spans;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  config.simulation.obs.spans = &spans;
  RunExperiment(config);
  ASSERT_GT(ts.samples().size(), 100u);

  ExpectSharing(ts.samples(), /*with_ckpt=*/false);
  const std::vector<TelemetrySample> parsed = ReadBack(NdjsonOf(ts));
  ASSERT_EQ(parsed.size(), ts.samples().size());
  ExpectSharing(parsed, /*with_ckpt=*/false);
}

// A row is replaced, never written through: assigning one sample's row
// leaves every sample that shared it as it was.
TEST(ClusterTimeSeriesTest, AssigningARowLeavesItsNeighboursUnchanged) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);
  std::vector<TelemetrySample> samples = ts.samples();
  size_t i = 1;
  while (i + 1 < samples.size() &&
         !(samples[i].vc_queued == samples[i - 1].vc_queued &&
           samples[i].vc_queued == samples[i + 1].vc_queued)) {
    ++i;
  }
  ASSERT_LT(i + 1, samples.size()) << "no run of three equal vc_queued rows";
  const std::vector<int> before(samples[i].vc_queued.begin(),
                                samples[i].vc_queued.end());

  samples[i].vc_queued = {-1, -2};
  EXPECT_EQ(samples[i].vc_queued, (std::vector<int>{-1, -2}));
  EXPECT_EQ(samples[i - 1].vc_queued, before);
  EXPECT_EQ(samples[i + 1].vc_queued, before);
  EXPECT_EQ(ts.samples()[i].vc_queued, before);

  samples[i].vc_queued = std::vector<int>{};
  EXPECT_TRUE(samples[i].vc_queued.empty());
  EXPECT_EQ(samples[i - 1].vc_queued, before);
  EXPECT_EQ(samples[i + 1].vc_queued, before);
}

// Every array member populated: faults, cooperative-stagger checkpoints and
// the span tracer. The read-back samples equal the recorded ones field by
// field and share rows the same way.
TEST(ClusterTimeSeriesTest, FaultedCheckpointedTracedRunReadsBackFieldByField) {
  ClusterTimeSeries ts(Minutes(10));
  SpanTracer spans;
  ExperimentConfig config = SmallConfig(29);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
  config.simulation.scheduler.checkpoint_period = Minutes(30);
  config.simulation.scheduler.checkpoint_policy = CheckpointPolicy::kCooperativeStagger;
  config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
  config.simulation.obs.timeseries = &ts;
  config.simulation.obs.spans = &spans;
  const auto run = RunExperiment(config);
  ASSERT_GT(run.result.machine_fault_kills, 0);
  ASSERT_GT(run.result.ckpt_writes_completed, 0);

  const std::vector<TelemetrySample>& recorded = ts.samples();
  const std::vector<TelemetrySample> parsed = ReadBack(NdjsonOf(ts));
  ASSERT_EQ(parsed.size(), recorded.size());
  for (size_t i = 0; i < recorded.size(); ++i) {
    ExpectSamplesEqual(parsed[i], recorded[i], i);
  }
  ExpectSharing(recorded, /*with_ckpt=*/true);
  ExpectSharing(parsed, /*with_ckpt=*/true);
}

TEST(ClusterTimeSeriesTest, TamperedStreamFailsTheSampleDigest) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(13);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  const TelemetryDigest digest = DigestOfSamples(ts.samples());
  std::vector<TelemetrySample> tampered = ts.samples();
  tampered[tampered.size() / 2].used_gpus += 1;
  EXPECT_FALSE(SampleAggregatesEqual(DigestOfSamples(tampered), digest));
}

// Attaching the telemetry sink must not change a single bit of the
// simulation output: sampling rides the clock-advance hook and adds zero
// simulator events.
TEST(ClusterTimeSeriesTest, EnabledSinkDoesNotPerturbSimulation) {
  const ExperimentConfig base = SmallConfig(23);
  const SimulationResult plain = RunExperiment(base).result;

  ClusterTimeSeries ts;
  ExperimentConfig observed = base;
  observed.simulation.obs.timeseries = &ts;
  const SimulationResult instrumented = RunExperiment(observed).result;

  ASSERT_EQ(plain.jobs.size(), instrumented.jobs.size());
  EXPECT_EQ(plain.scheduling_decisions, instrumented.scheduling_decisions);
  EXPECT_EQ(plain.preemptions, instrumented.preemptions);
  EXPECT_EQ(plain.sim_events_processed, instrumented.sim_events_processed);
  for (size_t i = 0; i < plain.jobs.size(); ++i) {
    const JobRecord& a = plain.jobs[i];
    const JobRecord& b = instrumented.jobs[i];
    ASSERT_EQ(a.spec.id, b.spec.id);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.finish_time, b.finish_time);
    EXPECT_EQ(a.gpu_seconds, b.gpu_seconds);
    EXPECT_EQ(a.util_segments.size(), b.util_segments.size());
  }
  EXPECT_GT(ts.samples().size(), 0u);
}

// The cross-thread byte-identity contract (tsan-labelled): the same seeds
// produce the same telemetry bytes whether runs execute serially or on an
// ExperimentPool with 4 workers.
TEST(ClusterTimeSeriesTest, TelemetryStreamDeterministicAcrossPoolThreads) {
  const std::vector<uint64_t> seeds = {7, 11, 19};

  std::vector<std::string> serial;
  for (uint64_t seed : seeds) {
    ClusterTimeSeries ts;
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.timeseries = &ts;
    RunExperiment(config);
    serial.push_back(NdjsonOf(ts));
  }

  std::vector<ClusterTimeSeries> recorders(seeds.size());
  std::vector<ExperimentConfig> configs;
  for (size_t i = 0; i < seeds.size(); ++i) {
    ExperimentConfig config = SmallConfig(seeds[i]);
    config.simulation.obs.timeseries = &recorders[i];
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(4);
  pool.RunMany(std::move(configs));

  for (size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_EQ(NdjsonOf(recorders[i]), serial[i]) << "seed " << seeds[i];
  }
}

TEST(ClusterTimeSeriesTest, RunManyRejectsSharedRecorder) {
  ClusterTimeSeries shared;
  std::vector<ExperimentConfig> configs;
  for (uint64_t seed : {1u, 2u}) {
    ExperimentConfig config = SmallConfig(seed);
    config.simulation.obs.timeseries = &shared;
    configs.push_back(std::move(config));
  }
  const ExperimentPool pool(2);
  EXPECT_THROW(pool.RunMany(std::move(configs)), std::invalid_argument);
}

TEST(ClusterTimeSeriesTest, StreamCoversFaultCounters) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(29);
  config.simulation.fault = FaultProcessConfig::Calibrated();
  config.simulation.obs.timeseries = &ts;
  const auto run = RunExperiment(config);

  ASSERT_FALSE(ts.samples().empty());
  const TelemetrySample& last = ts.samples().back();
  EXPECT_EQ(last.fault_kills, run.result.machine_fault_kills);
  EXPECT_EQ(last.lost_gpu_seconds, run.result.machine_fault_lost_gpu_seconds);
  EXPECT_EQ(last.preemptions, run.result.preemptions);
  EXPECT_EQ(last.migrations, run.result.migrations);
}

// ------------------------------------------------------------------ rollup

TEST(TelemetryRollupTest, WindowsDownsampleTheStream) {
  ClusterTimeSeries ts;
  ExperimentConfig config = SmallConfig(7);
  config.simulation.obs.timeseries = &ts;
  RunExperiment(config);

  TelemetryRollup rollup(Hours(1));
  rollup.AddAll(ts.samples());
  ASSERT_FALSE(rollup.windows().empty());

  int64_t total = 0;
  for (const auto& [start, window] : rollup.windows()) {
    EXPECT_EQ(start % Hours(1), 0);
    EXPECT_GT(window.samples, 0);
    EXPECT_LE(window.samples, 60);  // one-minute cadence, one-hour windows
    EXPECT_LE(window.occupancy_min, window.occupancy_max);
    total += window.samples;
  }
  EXPECT_EQ(total, static_cast<int64_t>(ts.samples().size()));
  EXPECT_EQ(rollup.occupancy_pct().count(),
            static_cast<int64_t>(ts.samples().size()));
}

TEST(TelemetryRollupTest, MergeFromFoldsShards) {
  ClusterTimeSeries a;
  ClusterTimeSeries b;
  {
    ExperimentConfig config = SmallConfig(7);
    config.simulation.obs.timeseries = &a;
    RunExperiment(config);
  }
  {
    ExperimentConfig config = SmallConfig(11);
    config.simulation.obs.timeseries = &b;
    RunExperiment(config);
  }

  TelemetryRollup merged(Hours(1));
  merged.AddAll(a.samples());
  TelemetryRollup shard(Hours(1));
  shard.AddAll(b.samples());
  merged.MergeFrom(shard);

  TelemetryRollup direct(Hours(1));
  direct.AddAll(a.samples());
  direct.AddAll(b.samples());
  ASSERT_EQ(merged.windows().size(), direct.windows().size());
  for (const auto& [start, window] : direct.windows()) {
    const auto it = merged.windows().find(start);
    ASSERT_NE(it, merged.windows().end());
    EXPECT_EQ(it->second.samples, window.samples);
    EXPECT_EQ(it->second.queued_max, window.queued_max);
  }
  EXPECT_EQ(merged.queue_depth().count(), direct.queue_depth().count());

  std::ostringstream json;
  merged.WriteJson(json);
  EXPECT_NE(json.str().find("\"windows\""), std::string::npos);
}

TEST(TelemetryRollupTest, MergeFromRejectsMismatchedWindows) {
  TelemetryRollup hourly(Hours(1));
  TelemetryRollup daily(Hours(24));
  EXPECT_THROW(hourly.MergeFrom(daily), std::invalid_argument);
}

TEST(TelemetryRollupTest, RejectsNonPositiveWindow) {
  EXPECT_THROW(TelemetryRollup(0), std::invalid_argument);
}

}  // namespace
}  // namespace philly
