// Tests for the single-pass NDJSON codec (src/common/ndjson.h) and the three
// stream decoders built on it:
//
//   * NdjsonObjectReaderTest: the scanner's strictness contract — one JSON
//     object per line, unknown keys skipped as any value, wrong types and
//     trailing content rejected, integers exact, escapes decoded.
//   * NdjsonDifferentialTest: every line of a faulted, checkpointed,
//     span-traced run's event, telemetry and span streams decodes to the
//     same records as a JsonValue-DOM reference decoder, and re-serializes
//     byte-identically.
//   * NdjsonTruncationFuzzTest: every proper prefix of a valid line of each
//     stream is rejected.

#include "src/common/ndjson.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/json.h"
#include "src/core/analysis.h"
#include "src/core/experiment.h"
#include "src/fault/fault_process.h"
#include "src/obs/event_log.h"
#include "src/obs/rollup.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace philly {
namespace {

// -------------------------------------------------------------- the scanner

// Decodes `line` against the key table {"a", "b", "s", "arr"}, reading a and
// b as integers, s as a string and arr as an integer array.
struct Probe {
  int64_t a = 0;
  double b = 0.0;
  std::string s;
  std::vector<int64_t> arr;
};

constexpr std::string_view kProbeKeys[] = {"a", "b", "s", "arr"};

bool DecodeProbe(std::string_view line, Probe* probe, std::string* error) {
  uint64_t seen = 0;
  return DecodeNdjsonObject(
      line, kProbeKeys,
      [probe](size_t key, NdjsonObjectReader& r) {
        switch (key) {
          case 0: return r.ReadInt(&probe->a);
          case 1: return r.ReadDouble(&probe->b);
          case 2: return r.ReadString(&probe->s);
          default: return r.ReadIntArray(&probe->arr);
        }
      },
      &seen, error);
}

TEST(NdjsonObjectReaderTest, AcceptsWhitespaceAndSkipsUnknownMembers) {
  Probe p;
  std::string error;
  ASSERT_TRUE(DecodeProbe(
      " { \"x\" : {\"deep\":[1,{\"k\":null},\"s\\\"]\"]} , \"a\" : -12 ,"
      "\"y\":[true,false,null,-0.5e+3],\"b\":2.5,\"z\":\"\\u00e9\\n\","
      "\"arr\" : [ 3 , 4 ] ,\"s\":\"ok\"}\r",
      &p, &error))
      << error;
  EXPECT_EQ(p.a, -12);
  EXPECT_EQ(p.b, 2.5);
  EXPECT_EQ(p.s, "ok");
  EXPECT_EQ(p.arr, (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(p.arr.capacity(), 2u);  // reserved exactly
}

TEST(NdjsonObjectReaderTest, RejectsMalformedLines) {
  const char* bad[] = {
      "",
      "[]",
      "{",
      "{\"a\":1",
      "{\"a\":1,}",
      "{\"a\" 1}",
      "{a:1}",
      "{\"a\":1}x",
      "{\"a\":1}{}",
      "{\"a\":01}",
      "{\"a\":+1}",
      "{\"a\":1.5}",        // integer member holding a fraction
      "{\"a\":\"1\"}",      // integer member holding a string
      "{\"b\":\"1\"}",      // double member holding a string
      "{\"b\":1.}",
      "{\"b\":.5}",
      "{\"b\":1e}",
      "{\"b\":nan}",
      "{\"b\":1e999}",
      "{\"s\":7}",          // string member holding a number
      "{\"s\":\"a\\qb\"}",  // invalid escape
      "{\"s\":\"\\u12\"}",
      "{\"s\":\"\\ud800\"}",  // unpaired surrogate
      "{\"s\":\"tab\there\"}",  // raw control character
      "{\"arr\":[1,]}",
      "{\"arr\":[1 2]}",
      "{\"arr\":[\"1\"]}",
      "{\"arr\":3}",
      "{\"a\":1,\"a\":2}",  // duplicate known key
      "{\"x\":tru}",
      "{\"x\":[1,}",
      "{\"x\":{\"k\"}}",
      "{\"a\":9223372036854775808}",  // past int64
  };
  for (const char* line : bad) {
    Probe p;
    std::string error;
    EXPECT_FALSE(DecodeProbe(line, &p, &error)) << "accepted: " << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(NdjsonObjectReaderTest, ErrorNamesTheMemberAndByte) {
  Probe p;
  std::string error;
  ASSERT_FALSE(DecodeProbe("{\"a\":\"60\"}", &p, &error));
  EXPECT_EQ(error, "member 'a': expected an integer at byte 5");
}

TEST(NdjsonObjectReaderTest, IntegersAreExactPastDoublePrecision) {
  Probe p;
  std::string error;
  ASSERT_TRUE(DecodeProbe("{\"a\":9007199254740993}", &p, &error)) << error;
  EXPECT_EQ(p.a, int64_t{9007199254740993});
  ASSERT_TRUE(DecodeProbe("{\"a\":-9223372036854775808}", &p, &error)) << error;
  EXPECT_EQ(p.a, INT64_MIN);
}

TEST(NdjsonObjectReaderTest, NarrowIntegersRejectOutOfRangeValues) {
  const std::string_view keys[] = {"v"};
  int32_t v = 0;
  uint64_t seen = 0;
  std::string error;
  const auto read = [&v](size_t, NdjsonObjectReader& r) { return r.ReadInt(&v); };
  EXPECT_TRUE(DecodeNdjsonObject("{\"v\":2147483647}", keys, read, &seen, &error));
  EXPECT_EQ(v, 2147483647);
  EXPECT_FALSE(DecodeNdjsonObject("{\"v\":2147483648}", keys, read, &seen, &error));
}

TEST(NdjsonObjectReaderTest, DoublesRoundTripShortestOutputBitwise) {
  for (const double value : {0.1 + 0.2, 1234.0000000000002, 5e-324, -1.7976931348623157e308,
                             49.0625, 1e21, 123456789.0}) {
    std::string line = "{\"b\":";
    AppendJsonDouble(line, value);
    line += '}';
    Probe p;
    std::string error;
    ASSERT_TRUE(DecodeProbe(line, &p, &error)) << line << ": " << error;
    EXPECT_EQ(p.b, value) << line;
  }
}

TEST(NdjsonObjectReaderTest, DecodesStringEscapes) {
  Probe p;
  std::string error;
  ASSERT_TRUE(DecodeProbe(
      "{\"s\":\"q\\\"b\\\\s\\/n\\nt\\tr\\rb\\bf\\fc\\u0001e\\u00e9g\\ud83d\\ude00\"}",
      &p, &error))
      << error;
  EXPECT_EQ(p.s, "q\"b\\s/n\nt\tr\rb\bf\fc\x01" "e\xC3\xA9g\xF0\x9F\x98\x80");
}

TEST(NdjsonObjectReaderTest, EscapedKeysAreMatchedDecoded) {
  Probe p;
  std::string error;
  ASSERT_TRUE(DecodeProbe("{\"\\u0061\":5}", &p, &error)) << error;
  EXPECT_EQ(p.a, 5);
}

TEST(NdjsonObjectReaderTest, DeepUnknownNestingIsRejectedNotRecursed) {
  std::string line = "{\"x\":";
  line.append(10000, '[');
  line.append(10000, ']');
  line += '}';
  Probe p;
  std::string error;
  EXPECT_FALSE(DecodeProbe(line, &p, &error));
  EXPECT_NE(error.find("nested too deeply"), std::string::npos) << error;
}

TEST(NdjsonLinesTest, ReportsTheFailingLineNumber) {
  std::istringstream in("{\"a\":1}\n\n{\"a\":2}\n{\"a\":x}\n{\"a\":4}\n");
  std::vector<int64_t> seen;
  std::string error;
  ReadNdjsonLines(
      in,
      [&seen](std::string_view line, std::string* line_error) {
        Probe p;
        if (!DecodeProbe(line, &p, line_error)) {
          return false;
        }
        seen.push_back(p.a);
        return true;
      },
      &error);
  EXPECT_EQ(seen, (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(error.rfind("line 4: ", 0), 0u) << error;
}

// ------------------------------------------------ JsonValue reference decoders
//
// The DOM-based decoding the streams used before the single-pass codec:
// every field read through JsonValue, numbers through double. Correct for
// the simulator's own output (no value needs more than 53 bits, no string
// holds an escape), which is what the differential check feeds it.

int64_t RefInt(const JsonValue& v, std::string_view key, int64_t fallback) {
  const JsonValue& field = v[key];
  return field.is_null() ? fallback : static_cast<int64_t>(field.AsNumber());
}

template <typename Int>
std::vector<Int> RefIntArray(const JsonValue& v, std::string_view key) {
  std::vector<Int> out;
  for (const JsonValue& item : v[key].AsArray()) {
    out.push_back(static_cast<Int>(item.AsNumber()));
  }
  return out;
}

JsonValue ParseRef(std::string_view line) {
  std::string error;
  JsonValue v = JsonValue::Parse(line, &error);
  EXPECT_TRUE(error.empty()) << error << ": " << line;
  return v;
}

SchedEvent RefEvent(std::string_view line) {
  const JsonValue v = ParseRef(line);
  SchedEvent e;
  EXPECT_TRUE(SchedEventKindFromString(v["ev"].AsString(), &e.kind)) << line;
  e.time = RefInt(v, "t", 0);
  e.job = RefInt(v, "job", kNoJob);
  e.vc = static_cast<int32_t>(RefInt(v, "vc", -1));
  e.user = static_cast<int32_t>(RefInt(v, "user", -1));
  e.gpus = static_cast<int>(RefInt(v, "gpus", 0));
  e.attempt = static_cast<int>(RefInt(v, "attempt", -1));
  e.rack = static_cast<int32_t>(RefInt(v, "rack", -1));
  e.cluster = static_cast<int32_t>(RefInt(v, "cluster", -1));
  e.home = static_cast<int32_t>(RefInt(v, "home", -1));
  e.home_queue = RefInt(v, "home_queue", -1);
  e.dest_queue = RefInt(v, "dest_queue", -1);
  e.dest_free = RefInt(v, "dest_free", -1);
  e.ready_time = RefInt(v, "ready", 0);
  e.wait = RefInt(v, "wait", 0);
  e.fair_share_time = RefInt(v, "fair", 0);
  e.fragmentation_time = RefInt(v, "frag", 0);
  e.sched_attempts = static_cast<int>(RefInt(v, "evals", 0));
  e.out_of_order = RefInt(v, "ooo", 0) != 0;
  e.benign = RefInt(v, "benign", 0) != 0;
  e.placement = v["placement"].AsString();
  e.failed = RefInt(v, "failed", 0) != 0;
  e.preempted = RefInt(v, "preempted", 0) != 0;
  e.machine_fault = RefInt(v, "mfault", 0) != 0;
  e.status = static_cast<int>(RefInt(v, "status", -1));
  e.started_out_of_order = RefInt(v, "ooo_started", 0) != 0;
  e.out_of_order_benign = RefInt(v, "ooo_benign", 0) != 0;
  e.overtaken = RefInt(v, "overtaken", 0) != 0;
  e.relax_level = static_cast<int>(RefInt(v, "relax", 0));
  e.delay = RefInt(v, "delay", 0);
  e.lost_gpu_seconds = v["lost_gpu_s"].AsNumber(0.0);
  e.detail = v["detail"].AsString();
  return e;
}

TelemetrySample RefSample(std::string_view line) {
  const JsonValue v = ParseRef(line);
  TelemetrySample s;
  s.time = RefInt(v, "t", 0);
  s.used_gpus = static_cast<int>(RefInt(v, "used", 0));
  s.free_gpus = static_cast<int>(RefInt(v, "free", 0));
  s.occupancy = v["occ"].AsNumber(0.0);
  s.running_jobs = static_cast<int>(RefInt(v, "running", 0));
  s.queued_jobs = static_cast<int>(RefInt(v, "queued", 0));
  s.busy_servers = static_cast<int>(RefInt(v, "busy_srv", 0));
  s.empty_servers = static_cast<int>(RefInt(v, "empty_srv", 0));
  s.racks_with_empty = static_cast<int>(RefInt(v, "racks_empty", 0));
  s.offline_servers = static_cast<int>(RefInt(v, "offline", 0));
  s.locality_relaxations = RefInt(v, "relax", 0);
  s.backoffs = RefInt(v, "backoffs", 0);
  s.preemptions = RefInt(v, "preempt", 0);
  s.migrations = RefInt(v, "migrate", 0);
  s.fault_kills = RefInt(v, "fault_kill", 0);
  s.lost_gpu_seconds = v["lost_gpu_s"].AsNumber(0.0);
  s.ckpt_writes = RefInt(v, "ckpt_writes", 0);
  s.ckpt_overhead_gpu_seconds = v["ckpt_overhead_gpu_s"].AsNumber(0.0);
  s.ckpt_stall_gpu_seconds = v["ckpt_stall_gpu_s"].AsNumber(0.0);
  s.util_expected_pct = v["util_exp"].AsNumber(0.0);
  s.util_observed_pct = v["util_obs"].AsNumber(0.0);
  s.rack_free_gpus = RefIntArray<int>(v, "rack_free");
  s.vc_queued = RefIntArray<int>(v, "vc_queued");
  s.vc_running = RefIntArray<int>(v, "vc_running");
  s.vc_used_gpus = RefIntArray<int>(v, "vc_gpus");
  s.ckpt_rack_writers = RefIntArray<int>(v, "ckpt_writers");
  s.vc_blame_s = RefIntArray<int64_t>(v, "vc_blame_s");
  const std::vector<int> deciles = RefIntArray<int>(v, "util_deciles");
  for (size_t i = 0; i < s.util_deciles.size() && i < deciles.size(); ++i) {
    s.util_deciles[i] = deciles[i];
  }
  return s;
}

TelemetryDigest RefDigest(std::string_view line) {
  const JsonValue v = ParseRef(line);
  TelemetryDigest d;
  d.samples = RefInt(v, "samples", 0);
  d.used_gpu_samples = RefInt(v, "used_gpu_samples", 0);
  d.queue_depth_max = RefInt(v, "queue_max", 0);
  d.occupancy_sum = v["occ_sum"].AsNumber();
  d.util_expected_sum = v["util_exp_sum"].AsNumber();
  d.util_observed_sum = v["util_obs_sum"].AsNumber();
  d.jobs = RefInt(v, "jobs", 0);
  d.segments = RefInt(v, "segments", 0);
  const auto& weights = v["util_weight"].AsArray();
  const auto& sums = v["util_wsum"].AsArray();
  EXPECT_EQ(weights.size(), d.util_weight.size());
  EXPECT_EQ(sums.size(), d.util_weighted_sum.size());
  for (size_t i = 0; i < weights.size() && i < d.util_weight.size(); ++i) {
    d.util_weight[i] = weights[i].AsNumber();
  }
  for (size_t i = 0; i < sums.size() && i < d.util_weighted_sum.size(); ++i) {
    d.util_weighted_sum[i] = sums[i].AsNumber();
  }
  return d;
}

SpanRecord RefSpan(std::string_view line) {
  const JsonValue v = ParseRef(line);
  SpanRecord s;
  EXPECT_TRUE(SpanKindFromString(v["sp"].AsString(), &s.kind)) << line;
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    EXPECT_TRUE(BlameCodeFromString(v["code"].AsString(), &s.code)) << line;
  }
  s.start = RefInt(v, "t", 0);
  s.dur = RefInt(v, "dur", 0);
  s.job = RefInt(v, "job", kNoJob);
  s.vc = static_cast<int32_t>(RefInt(v, "vc", -1));
  s.user = static_cast<int32_t>(RefInt(v, "user", -1));
  s.gpus = static_cast<int>(RefInt(v, "gpus", 0));
  s.wait_index = static_cast<int>(RefInt(v, "wait", -1));
  s.attempt = static_cast<int>(RefInt(v, "attempt", -1));
  s.detail = v["detail"].AsString();
  return s;
}

// Field-by-field comparisons, so a mismatch names the field.
#define EXPECT_FIELD_EQ(a, b, field) \
  EXPECT_EQ((a).field, (b).field) << #field << " on line " << line_number

void ExpectEventsEqual(const SchedEvent& a, const SchedEvent& b, size_t line_number) {
  EXPECT_FIELD_EQ(a, b, time);
  EXPECT_FIELD_EQ(a, b, kind);
  EXPECT_FIELD_EQ(a, b, job);
  EXPECT_FIELD_EQ(a, b, vc);
  EXPECT_FIELD_EQ(a, b, user);
  EXPECT_FIELD_EQ(a, b, gpus);
  EXPECT_FIELD_EQ(a, b, attempt);
  EXPECT_FIELD_EQ(a, b, ready_time);
  EXPECT_FIELD_EQ(a, b, wait);
  EXPECT_FIELD_EQ(a, b, fair_share_time);
  EXPECT_FIELD_EQ(a, b, fragmentation_time);
  EXPECT_FIELD_EQ(a, b, sched_attempts);
  EXPECT_FIELD_EQ(a, b, out_of_order);
  EXPECT_FIELD_EQ(a, b, benign);
  EXPECT_FIELD_EQ(a, b, placement);
  EXPECT_FIELD_EQ(a, b, failed);
  EXPECT_FIELD_EQ(a, b, preempted);
  EXPECT_FIELD_EQ(a, b, machine_fault);
  EXPECT_FIELD_EQ(a, b, status);
  EXPECT_FIELD_EQ(a, b, started_out_of_order);
  EXPECT_FIELD_EQ(a, b, out_of_order_benign);
  EXPECT_FIELD_EQ(a, b, overtaken);
  EXPECT_FIELD_EQ(a, b, relax_level);
  EXPECT_FIELD_EQ(a, b, delay);
  EXPECT_FIELD_EQ(a, b, lost_gpu_seconds);
  EXPECT_FIELD_EQ(a, b, rack);
  EXPECT_FIELD_EQ(a, b, cluster);
  EXPECT_FIELD_EQ(a, b, home);
  EXPECT_FIELD_EQ(a, b, home_queue);
  EXPECT_FIELD_EQ(a, b, dest_queue);
  EXPECT_FIELD_EQ(a, b, dest_free);
  EXPECT_FIELD_EQ(a, b, detail);
}

void ExpectSamplesEqual(const TelemetrySample& a, const TelemetrySample& b,
                        size_t line_number) {
  EXPECT_FIELD_EQ(a, b, time);
  EXPECT_FIELD_EQ(a, b, used_gpus);
  EXPECT_FIELD_EQ(a, b, free_gpus);
  EXPECT_FIELD_EQ(a, b, occupancy);
  EXPECT_FIELD_EQ(a, b, running_jobs);
  EXPECT_FIELD_EQ(a, b, queued_jobs);
  EXPECT_FIELD_EQ(a, b, busy_servers);
  EXPECT_FIELD_EQ(a, b, empty_servers);
  EXPECT_FIELD_EQ(a, b, racks_with_empty);
  EXPECT_FIELD_EQ(a, b, offline_servers);
  EXPECT_FIELD_EQ(a, b, rack_free_gpus);
  EXPECT_FIELD_EQ(a, b, vc_queued);
  EXPECT_FIELD_EQ(a, b, vc_running);
  EXPECT_FIELD_EQ(a, b, vc_used_gpus);
  EXPECT_FIELD_EQ(a, b, util_deciles);
  EXPECT_FIELD_EQ(a, b, locality_relaxations);
  EXPECT_FIELD_EQ(a, b, backoffs);
  EXPECT_FIELD_EQ(a, b, preemptions);
  EXPECT_FIELD_EQ(a, b, migrations);
  EXPECT_FIELD_EQ(a, b, fault_kills);
  EXPECT_FIELD_EQ(a, b, lost_gpu_seconds);
  EXPECT_FIELD_EQ(a, b, ckpt_rack_writers);
  EXPECT_FIELD_EQ(a, b, ckpt_writes);
  EXPECT_FIELD_EQ(a, b, ckpt_overhead_gpu_seconds);
  EXPECT_FIELD_EQ(a, b, ckpt_stall_gpu_seconds);
  EXPECT_FIELD_EQ(a, b, vc_blame_s);
  EXPECT_FIELD_EQ(a, b, util_expected_pct);
  EXPECT_FIELD_EQ(a, b, util_observed_pct);
}

void ExpectSpansEqual(const SpanRecord& a, const SpanRecord& b, size_t line_number) {
  EXPECT_FIELD_EQ(a, b, start);
  EXPECT_FIELD_EQ(a, b, dur);
  EXPECT_FIELD_EQ(a, b, kind);
  EXPECT_FIELD_EQ(a, b, code);
  EXPECT_FIELD_EQ(a, b, job);
  EXPECT_FIELD_EQ(a, b, vc);
  EXPECT_FIELD_EQ(a, b, user);
  EXPECT_FIELD_EQ(a, b, gpus);
  EXPECT_FIELD_EQ(a, b, wait_index);
  EXPECT_FIELD_EQ(a, b, attempt);
  EXPECT_FIELD_EQ(a, b, detail);
}

#undef EXPECT_FIELD_EQ

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  return lines;
}

// The three streams of one small run with machine faults, the checkpoint
// I/O model (cooperative stagger) and the span tracer attached, so the
// optional members — event `rack`, telemetry `ckpt_writers` and `vc_blame_s`,
// every `detail` — all appear.
struct Streams {
  std::string events;
  std::string telemetry;  // sample lines plus the trailing digest line
  std::string spans;
};

const Streams& FaultedRunStreams() {
  static const Streams streams = [] {
    // span_test's small workload shape: a day of arrivals at reduced rates
    // on a quarter-size cluster with a warm-start cohort.
    ExperimentConfig config = ExperimentConfig::BenchScale(/*days=*/1, /*seed=*/13);
    for (VcConfig& vc : config.workload.vcs) {
      vc.arrival_rate_per_hour *= 0.3;
    }
    config.simulation.cluster.skus.clear();
    config.simulation.cluster.skus.push_back(
        {/*racks=*/4, /*servers_per_rack=*/16, /*gpus_per_server=*/8});
    config.simulation.cluster.skus.push_back(
        {/*racks=*/1, /*servers_per_rack=*/24, /*gpus_per_server=*/2});
    config.workload.prepopulate_busy_gpus = 536;
    config.simulation.fault = FaultProcessConfig::Calibrated();
    config.simulation.fault.server_crash_mtbf_hours = 24.0 * 8;
    config.simulation.scheduler.checkpoint_period = Minutes(30);
    config.simulation.scheduler.checkpoint_policy =
        CheckpointPolicy::kCooperativeStagger;
    config.simulation.ckpt_io.rack_bandwidth_gbps = 0.5;
    config.simulation.ckpt_io.size_gb_per_gpu = 4.0;
    EventLog events;
    // Hourly samples: the drain tail runs for months of simulated time, and
    // per-minute samples would make the stream hundreds of MB.
    ClusterTimeSeries timeseries(Hours(1));
    SpanTracer spans;
    config.simulation.obs.event_log = &events;
    config.simulation.obs.timeseries = &timeseries;
    config.simulation.obs.spans = &spans;
    const ExperimentRun run = RunExperiment(config);

    const TelemetryDigest digest =
        ComputeTelemetryDigest(timeseries.samples(), run.result.jobs);

    Streams out;
    std::ostringstream e, t, s;
    events.WriteNdjson(e);
    timeseries.WriteNdjson(t, &digest);
    spans.log().WriteNdjson(s);
    out.events = e.str();
    out.telemetry = t.str();
    out.spans = s.str();
    return out;
  }();
  return streams;
}

TEST(NdjsonDifferentialTest, EventDecoderAgreesWithDomReference) {
  const std::vector<std::string> lines = Lines(FaultedRunStreams().events);
  ASSERT_GT(lines.size(), 1000u);
  bool saw_rack = false, saw_detail = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    SchedEvent decoded;
    std::string error;
    ASSERT_TRUE(SchedEventFromNdjsonLine(lines[i], &decoded, &error))
        << "line " << i + 1 << ": " << error;
    ExpectEventsEqual(decoded, RefEvent(lines[i]), i + 1);
    ASSERT_EQ(ToNdjsonLine(decoded), lines[i]) << "line " << i + 1;
    saw_rack = saw_rack || decoded.rack >= 0;
    saw_detail = saw_detail || !decoded.detail.empty();
  }
  EXPECT_TRUE(saw_rack);
  EXPECT_TRUE(saw_detail);
}

TEST(NdjsonDifferentialTest, TelemetryDecoderAgreesWithDomReference) {
  const std::vector<std::string> lines = Lines(FaultedRunStreams().telemetry);
  ASSERT_GT(lines.size(), 1000u);
  ASSERT_TRUE(IsTelemetryDigestLine(lines.back()));
  bool saw_writers = false, saw_blame = false;
  for (size_t i = 0; i + 1 < lines.size(); ++i) {
    TelemetrySample decoded;
    std::string error;
    ASSERT_TRUE(TelemetrySampleFromNdjsonLine(lines[i], &decoded, &error))
        << "line " << i + 1 << ": " << error;
    ExpectSamplesEqual(decoded, RefSample(lines[i]), i + 1);
    ASSERT_EQ(ToNdjsonLine(decoded), lines[i]) << "line " << i + 1;
    saw_writers = saw_writers || !decoded.ckpt_rack_writers.empty();
    saw_blame = saw_blame || !decoded.vc_blame_s.empty();
  }
  EXPECT_TRUE(saw_writers);
  EXPECT_TRUE(saw_blame);

  TelemetryDigest decoded;
  std::string error;
  ASSERT_TRUE(TelemetryDigestFromNdjsonLine(lines.back(), &decoded, &error)) << error;
  EXPECT_EQ(decoded, RefDigest(lines.back()));
  EXPECT_EQ(ToNdjsonLine(decoded), lines.back());
}

TEST(NdjsonDifferentialTest, SpanDecoderAgreesWithDomReference) {
  const std::vector<std::string> lines = Lines(FaultedRunStreams().spans);
  ASSERT_GT(lines.size(), 100u);
  bool saw_detail = false;
  for (size_t i = 0; i < lines.size(); ++i) {
    SpanRecord decoded;
    std::string error;
    ASSERT_TRUE(SpanRecordFromNdjsonLine(lines[i], &decoded, &error))
        << "line " << i + 1 << ": " << error;
    ExpectSpansEqual(decoded, RefSpan(lines[i]), i + 1);
    ASSERT_EQ(ToNdjsonLine(decoded), lines[i]) << "line " << i + 1;
    saw_detail = saw_detail || !decoded.detail.empty();
  }
  EXPECT_TRUE(saw_detail);
}

// ------------------------------------------------------- truncation fuzzing

// The longest line of a stream: the one with the most members to cut into.
std::string LongestLine(const std::string& text) {
  std::string longest;
  for (const std::string& line : Lines(text)) {
    if (line.size() > longest.size()) {
      longest = line;
    }
  }
  return longest;
}

template <typename Decode>
void ExpectEveryPrefixRejected(const std::string& line, Decode decode) {
  ASSERT_FALSE(line.empty());
  std::string error;
  ASSERT_TRUE(decode(line, &error)) << error << ": " << line;
  for (size_t cut = 0; cut < line.size(); ++cut) {
    // An exactly-sized heap copy, so a read past the cut is a sanitizer
    // error rather than a read of the original line's next byte.
    const std::vector<char> prefix(line.begin(), line.begin() + static_cast<std::ptrdiff_t>(cut));
    const std::string_view view(prefix.data(), prefix.size());
    error.clear();
    EXPECT_FALSE(decode(view, &error)) << "accepted prefix: " << view;
    EXPECT_FALSE(error.empty()) << view;
  }
}

TEST(NdjsonTruncationFuzzTest, EveryPrefixOfEachStreamLineIsRejected) {
  const Streams& streams = FaultedRunStreams();
  ExpectEveryPrefixRejected(LongestLine(streams.events),
                            [](std::string_view line, std::string* error) {
                              SchedEvent e;
                              return SchedEventFromNdjsonLine(line, &e, error);
                            });
  std::vector<std::string> telemetry = Lines(streams.telemetry);
  const std::string digest_line = telemetry.back();
  telemetry.pop_back();
  std::string sample_line;
  for (const std::string& line : telemetry) {
    if (line.size() > sample_line.size()) {
      sample_line = line;
    }
  }
  ExpectEveryPrefixRejected(sample_line, [](std::string_view line, std::string* error) {
    TelemetrySample s;
    return TelemetrySampleFromNdjsonLine(line, &s, error);
  });
  ExpectEveryPrefixRejected(digest_line, [](std::string_view line, std::string* error) {
    TelemetryDigest d;
    return TelemetryDigestFromNdjsonLine(line, &d, error);
  });
  ExpectEveryPrefixRejected(LongestLine(streams.spans),
                            [](std::string_view line, std::string* error) {
                              SpanRecord s;
                              return SpanRecordFromNdjsonLine(line, &s, error);
                            });
}

}  // namespace
}  // namespace philly
