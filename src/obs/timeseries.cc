#include "src/obs/timeseries.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <ostream>

#include "src/common/distributions.h"
#include "src/common/ndjson.h"
#include "src/obs/rollup.h"

namespace philly {
namespace {

// Same deterministic noise primitives as GangliaSampler (sampler.cc): the
// telemetry join must be reproducible from (seed, job, attempt) alone.
uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

double HashedNormal(uint64_t seed, uint64_t index) {
  const uint64_t h = Mix64(seed ^ (index * 0x9E3779B97F4A7C15ull));
  const double u = (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
  return Probit(u);
}

// Member names in encoding order (the decoder's key table).
enum SampleKey {
  kKeyTime, kKeyUsed, kKeyFree, kKeyOcc, kKeyRunning, kKeyQueued,
  kKeyBusySrv, kKeyEmptySrv, kKeyRacksEmpty, kKeyOffline, kKeyRelax,
  kKeyBackoffs, kKeyPreempt, kKeyMigrate, kKeyFaultKill, kKeyLostGpuS,
  kKeyCkptWrites, kKeyCkptOverhead, kKeyCkptStall, kKeyUtilExp, kKeyUtilObs,
  kKeyRackFree, kKeyVcQueued, kKeyVcRunning, kKeyVcGpus, kKeyUtilDeciles,
  kKeyCkptWriters, kKeyVcBlame, kNumSampleKeys,
};

constexpr std::string_view kSampleKeys[kNumSampleKeys] = {
    "t",          "used",         "free",         "occ",
    "running",    "queued",       "busy_srv",     "empty_srv",
    "racks_empty", "offline",     "relax",        "backoffs",
    "preempt",    "migrate",      "fault_kill",   "lost_gpu_s",
    "ckpt_writes", "ckpt_overhead_gpu_s", "ckpt_stall_gpu_s", "util_exp",
    "util_obs",   "rack_free",    "vc_queued",    "vc_running",
    "vc_gpus",    "util_deciles", "ckpt_writers", "vc_blame_s",
};

void AppendNdjsonLine(std::string& out, const TelemetrySample& s) {
  out += "{\"t\":";
  AppendJsonInt(out, s.time);
  if (s.used_gpus != 0) {
    AppendNdjsonField(out, "used", static_cast<int64_t>(s.used_gpus));
  }
  if (s.free_gpus != 0) {
    AppendNdjsonField(out, "free", static_cast<int64_t>(s.free_gpus));
  }
  if (s.occupancy != 0.0) {
    AppendNdjsonField(out, "occ", s.occupancy);
  }
  if (s.running_jobs != 0) {
    AppendNdjsonField(out, "running", static_cast<int64_t>(s.running_jobs));
  }
  if (s.queued_jobs != 0) {
    AppendNdjsonField(out, "queued", static_cast<int64_t>(s.queued_jobs));
  }
  if (s.busy_servers != 0) {
    AppendNdjsonField(out, "busy_srv", static_cast<int64_t>(s.busy_servers));
  }
  if (s.empty_servers != 0) {
    AppendNdjsonField(out, "empty_srv", static_cast<int64_t>(s.empty_servers));
  }
  if (s.racks_with_empty != 0) {
    AppendNdjsonField(out, "racks_empty", static_cast<int64_t>(s.racks_with_empty));
  }
  if (s.offline_servers != 0) {
    AppendNdjsonField(out, "offline", static_cast<int64_t>(s.offline_servers));
  }
  if (s.locality_relaxations != 0) {
    AppendNdjsonField(out, "relax", s.locality_relaxations);
  }
  if (s.backoffs != 0) {
    AppendNdjsonField(out, "backoffs", s.backoffs);
  }
  if (s.preemptions != 0) {
    AppendNdjsonField(out, "preempt", s.preemptions);
  }
  if (s.migrations != 0) {
    AppendNdjsonField(out, "migrate", s.migrations);
  }
  if (s.fault_kills != 0) {
    AppendNdjsonField(out, "fault_kill", s.fault_kills);
  }
  if (s.lost_gpu_seconds != 0.0) {
    AppendNdjsonField(out, "lost_gpu_s", s.lost_gpu_seconds);
  }
  if (s.ckpt_writes != 0) {
    AppendNdjsonField(out, "ckpt_writes", s.ckpt_writes);
  }
  if (s.ckpt_overhead_gpu_seconds != 0.0) {
    AppendNdjsonField(out, "ckpt_overhead_gpu_s", s.ckpt_overhead_gpu_seconds);
  }
  if (s.ckpt_stall_gpu_seconds != 0.0) {
    AppendNdjsonField(out, "ckpt_stall_gpu_s", s.ckpt_stall_gpu_seconds);
  }
  if (s.util_expected_pct != 0.0) {
    AppendNdjsonField(out, "util_exp", s.util_expected_pct);
  }
  if (s.util_observed_pct != 0.0) {
    AppendNdjsonField(out, "util_obs", s.util_observed_pct);
  }
  AppendNdjsonArray(out, "rack_free", s.rack_free_gpus);
  AppendNdjsonArray(out, "vc_queued", s.vc_queued);
  AppendNdjsonArray(out, "vc_running", s.vc_running);
  AppendNdjsonArray(out, "vc_gpus", s.vc_used_gpus);
  AppendNdjsonArray(out, "util_deciles", s.util_deciles);
  // Present only when the checkpoint I/O model is enabled (byte-identity for
  // disabled-model streams).
  if (!s.ckpt_rack_writers.empty()) {
    AppendNdjsonArray(out, "ckpt_writers", s.ckpt_rack_writers);
  }
  // Present only when the span tracer is attached (same byte-identity rule).
  if (!s.vc_blame_s.empty()) {
    AppendNdjsonArray(out, "vc_blame_s", s.vc_blame_s);
  }
  out += '}';
}

// Decodes one sample line: scalars and the fixed-size deciles into *s, the
// variable-length arrays into *rows (every row is cleared first, so a member
// the line omits reads back empty).
bool DecodeSample(std::string_view line, TelemetrySample* s,
                  TelemetrySampleRows* rows, std::string* error) {
  rows->Clear();
  const auto read_member = [s, rows](size_t key, NdjsonObjectReader& r) {
    switch (key) {
      case kKeyTime: return r.ReadInt(&s->time);
      case kKeyUsed: return r.ReadInt(&s->used_gpus);
      case kKeyFree: return r.ReadInt(&s->free_gpus);
      case kKeyOcc: return r.ReadDouble(&s->occupancy);
      case kKeyRunning: return r.ReadInt(&s->running_jobs);
      case kKeyQueued: return r.ReadInt(&s->queued_jobs);
      case kKeyBusySrv: return r.ReadInt(&s->busy_servers);
      case kKeyEmptySrv: return r.ReadInt(&s->empty_servers);
      case kKeyRacksEmpty: return r.ReadInt(&s->racks_with_empty);
      case kKeyOffline: return r.ReadInt(&s->offline_servers);
      case kKeyRelax: return r.ReadInt(&s->locality_relaxations);
      case kKeyBackoffs: return r.ReadInt(&s->backoffs);
      case kKeyPreempt: return r.ReadInt(&s->preemptions);
      case kKeyMigrate: return r.ReadInt(&s->migrations);
      case kKeyFaultKill: return r.ReadInt(&s->fault_kills);
      case kKeyLostGpuS: return r.ReadDouble(&s->lost_gpu_seconds);
      case kKeyCkptWrites: return r.ReadInt(&s->ckpt_writes);
      case kKeyCkptOverhead: return r.ReadDouble(&s->ckpt_overhead_gpu_seconds);
      case kKeyCkptStall: return r.ReadDouble(&s->ckpt_stall_gpu_seconds);
      case kKeyUtilExp: return r.ReadDouble(&s->util_expected_pct);
      case kKeyUtilObs: return r.ReadDouble(&s->util_observed_pct);
      case kKeyRackFree: return r.ReadIntArray(&rows->rack_free_gpus);
      case kKeyVcQueued: return r.ReadIntArray(&rows->vc_queued);
      case kKeyVcRunning: return r.ReadIntArray(&rows->vc_running);
      case kKeyVcGpus: return r.ReadIntArray(&rows->vc_used_gpus);
      case kKeyUtilDeciles: {
        size_t count = 0;
        return r.ReadArray(std::span<int>(s->util_deciles), &count);
      }
      case kKeyCkptWriters: return r.ReadIntArray(&rows->ckpt_rack_writers);
      case kKeyVcBlame: return r.ReadIntArray(&rows->vc_blame_s);
    }
    return false;
  };
  uint64_t seen = 0;
  if (!DecodeNdjsonObject(line, kSampleKeys, read_member, &seen, error)) {
    return false;
  }
  if ((seen & (uint64_t{1} << kKeyTime)) == 0) {
    if (error != nullptr) {
      *error = "telemetry line is not a sample object";
    }
    return false;
  }
  return true;
}

// The one sharing rule: a row equal to the previous sample's row reuses its
// storage; any other row gets its own.
template <typename T>
void CommitRow(SharedRow<T> TelemetrySample::*row, const std::vector<T>& staged,
               const TelemetrySample* prev, TelemetrySample& s) {
  if (prev != nullptr && prev->*row == staged) {
    s.*row = prev->*row;
  } else {
    s.*row = staged;
  }
}

void CommitRows(const TelemetrySampleRows& staged, const TelemetrySample* prev,
                TelemetrySample& s) {
  CommitRow(&TelemetrySample::rack_free_gpus, staged.rack_free_gpus, prev, s);
  CommitRow(&TelemetrySample::vc_queued, staged.vc_queued, prev, s);
  CommitRow(&TelemetrySample::vc_running, staged.vc_running, prev, s);
  CommitRow(&TelemetrySample::vc_used_gpus, staged.vc_used_gpus, prev, s);
  CommitRow(&TelemetrySample::ckpt_rack_writers, staged.ckpt_rack_writers, prev, s);
  CommitRow(&TelemetrySample::vc_blame_s, staged.vc_blame_s, prev, s);
}

}  // namespace

void TelemetrySampleRows::Clear() {
  rack_free_gpus.clear();
  vc_queued.clear();
  vc_running.clear();
  vc_used_gpus.clear();
  ckpt_rack_writers.clear();
  vc_blame_s.clear();
}

std::string ToNdjsonLine(const TelemetrySample& s) {
  std::string out;
  out.reserve(1024);
  AppendNdjsonLine(out, s);
  return out;
}

bool TelemetrySampleFromNdjsonLine(std::string_view line, TelemetrySample* sample,
                                   std::string* error) {
  TelemetrySample s;
  TelemetrySampleRows rows;
  if (!DecodeSample(line, &s, &rows, error)) {
    return false;
  }
  CommitRows(rows, nullptr, s);
  *sample = std::move(s);
  return true;
}

ClusterTimeSeries::ClusterTimeSeries(SimDuration period, SamplerConfig sampler)
    : period_(period), sampler_(sampler) {
  assert(period_ > 0);
}

void ClusterTimeSeries::Reserve(size_t samples) { samples_.reserve(samples); }

void ClusterTimeSeries::Clear() {
  samples_.clear();
  last_index_ = 0;
  run_seed_ = 0;
}

void ClusterTimeSeries::BeginRun(uint64_t seed) {
  samples_.clear();
  last_index_ = 0;
  run_seed_ = seed;
}

SimTime ClusterTimeSeries::NextSampleTime() const {
  return (last_index_ + 1) * period_;
}

void ClusterTimeSeries::AppendSample(
    FunctionRef<void(TelemetrySample&, TelemetrySampleRows&)> fill) {
  staging_.Clear();
  const SimTime t = NextSampleTime();
  ++last_index_;
  TelemetrySample& sample = samples_.emplace_back();
  sample.time = t;
  fill(sample, staging_);
  const size_t n = samples_.size();
  CommitRows(staging_, n >= 2 ? &samples_[n - 2] : nullptr, sample);
}

ClusterTimeSeries::UtilJitter ClusterTimeSeries::StartUtilJitter(JobId job,
                                                                 int attempt) const {
  UtilJitter jitter;
  jitter.seed = Mix64(run_seed_ ^ (static_cast<uint64_t>(job) << 18) ^
                      (static_cast<uint64_t>(attempt) + 0x9E3779B97F4A7C15ull));
  jitter.x = sampler_.jitter_sigma * HashedNormal(jitter.seed, 0);
  jitter.next_index = 1;
  return jitter;
}

double ClusterTimeSeries::ObserveUtilPct(UtilJitter& jitter,
                                         double expected_util) const {
  const double value = std::clamp(expected_util + jitter.x, 0.0, 1.0) * 100.0;
  const double rho = sampler_.ar1_rho;
  const double innovation_sigma =
      sampler_.jitter_sigma * std::sqrt(1.0 - rho * rho);
  jitter.x = rho * jitter.x +
             innovation_sigma *
                 HashedNormal(jitter.seed, static_cast<uint64_t>(jitter.next_index++));
  return value;
}

void ClusterTimeSeries::WriteNdjson(std::ostream& out,
                                    const TelemetryDigest* digest) const {
  WriteNdjsonLines(out, samples_.size(), [this](std::string& buffer, size_t i) {
    AppendNdjsonLine(buffer, samples_[i]);
  });
  if (digest != nullptr) {
    out << ToNdjsonLine(*digest) << '\n';
  }
}

std::vector<TelemetrySample> ClusterTimeSeries::ReadNdjson(
    std::istream& in, TelemetryDigest* digest, bool* found_digest,
    std::string* error) {
  if (found_digest != nullptr) {
    *found_digest = false;
  }
  std::vector<TelemetrySample> samples;
  TelemetrySampleRows rows;  // decode scratch, reused line to line
  bool after_digest = false;
  ReadNdjsonLines(in, [&](std::string_view line, std::string* line_error) {
    if (after_digest) {
      *line_error = IsTelemetryDigestLine(line) ? "second digest line"
                                                : "sample after the digest line";
      return false;
    }
    if (IsTelemetryDigestLine(line)) {
      TelemetryDigest parsed;
      if (!TelemetryDigestFromNdjsonLine(line, &parsed, line_error)) {
        return false;
      }
      if (digest != nullptr) {
        *digest = parsed;
      }
      if (found_digest != nullptr) {
        *found_digest = true;
      }
      after_digest = true;
      return true;
    }
    TelemetrySample sample;
    if (!DecodeSample(line, &sample, &rows, line_error)) {
      return false;
    }
    CommitRows(rows, samples.empty() ? nullptr : &samples.back(), sample);
    samples.push_back(std::move(sample));
    return true;
  }, error);
  return samples;
}

}  // namespace philly
