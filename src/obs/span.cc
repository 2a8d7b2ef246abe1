#include "src/obs/span.h"

#include <cassert>
#include <ostream>

#include "src/common/ndjson.h"

namespace philly {
namespace {

constexpr std::string_view kBlameNames[kNumBlameCodes] = {
    "fair_share_cap", "fragmentation", "locality_wait", "backoff",
    "fault_recovery", "ckpt_stall",    "router_queue",
};

constexpr std::string_view kSpanKindNames[kNumSpanKinds] = {
    "queued",
    "blame",
    "running",
    "ckpt",
};

// Member names in encoding order (the decoder's key table).
enum SpanKey {
  kKeyStart, kKeyKind, kKeyDur, kKeyCode, kKeyJob, kKeyVc, kKeyUser,
  kKeyGpus, kKeyWait, kKeyAttempt, kKeyDetail, kNumSpanKeys,
};

constexpr std::string_view kSpanKeys[kNumSpanKeys] = {
    "t",  "sp",   "dur",  "code",    "job",    "vc",
    "user", "gpus", "wait", "attempt", "detail",
};

void AppendNdjsonLine(std::string& out, const SpanRecord& s) {
  out += "{\"t\":";
  AppendJsonInt(out, s.start);
  out += ",\"sp\":\"";
  out += ToString(s.kind);
  out += '"';
  AppendNdjsonField(out, "dur", s.dur);
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    AppendNdjsonField(out, "code", ToString(s.code));
  }
  if (s.job != kNoJob) {
    AppendNdjsonField(out, "job", s.job);
  }
  if (s.vc >= 0) {
    AppendNdjsonField(out, "vc", static_cast<int64_t>(s.vc));
  }
  if (s.user >= 0) {
    AppendNdjsonField(out, "user", static_cast<int64_t>(s.user));
  }
  if (s.gpus > 0) {
    AppendNdjsonField(out, "gpus", static_cast<int64_t>(s.gpus));
  }
  if (s.wait_index >= 0) {
    AppendNdjsonField(out, "wait", static_cast<int64_t>(s.wait_index));
  }
  if (s.attempt >= 0) {
    AppendNdjsonField(out, "attempt", static_cast<int64_t>(s.attempt));
  }
  if (!s.detail.empty()) {
    AppendNdjsonField(out, "detail", s.detail);
  }
  out += '}';
}

}  // namespace

std::string_view ToString(BlameCode code) {
  return kBlameNames[static_cast<size_t>(code)];
}

bool BlameCodeFromString(std::string_view text, BlameCode* code) {
  for (int i = 0; i < kNumBlameCodes; ++i) {
    if (text == kBlameNames[static_cast<size_t>(i)]) {
      *code = static_cast<BlameCode>(i);
      return true;
    }
  }
  return false;
}

std::string_view ToString(SpanKind kind) {
  return kSpanKindNames[static_cast<size_t>(kind)];
}

bool SpanKindFromString(std::string_view text, SpanKind* kind) {
  for (int i = 0; i < kNumSpanKinds; ++i) {
    if (text == kSpanKindNames[static_cast<size_t>(i)]) {
      *kind = static_cast<SpanKind>(i);
      return true;
    }
  }
  return false;
}

std::string ToNdjsonLine(const SpanRecord& span) {
  std::string out;
  out.reserve(96);
  AppendNdjsonLine(out, span);
  return out;
}

bool SpanRecordFromNdjsonLine(std::string_view line, SpanRecord* span,
                              std::string* error) {
  SpanRecord s;
  // The code is checked against the kind once both are known; until then
  // only a code tag that names no blame code is remembered, for the message.
  bool code_known = false;
  std::string unknown_code;
  const auto read_member = [&](size_t key, NdjsonObjectReader& r) {
    switch (key) {
      case kKeyStart: return r.ReadInt(&s.start);
      case kKeyKind: {
        std::string_view tag;
        if (!r.ReadStringView(&tag)) {
          return false;
        }
        return SpanKindFromString(tag, &s.kind) ||
               r.Fail("unknown span kind '" + std::string(tag) + "'");
      }
      case kKeyDur: return r.ReadInt(&s.dur);
      case kKeyCode: {
        std::string_view tag;
        if (!r.ReadStringView(&tag)) {
          return false;
        }
        code_known = BlameCodeFromString(tag, &s.code);
        if (!code_known) {
          unknown_code = tag;
        }
        return true;
      }
      case kKeyJob: return r.ReadInt(&s.job);
      case kKeyVc: return r.ReadInt(&s.vc);
      case kKeyUser: return r.ReadInt(&s.user);
      case kKeyGpus: return r.ReadInt(&s.gpus);
      case kKeyWait: return r.ReadInt(&s.wait_index);
      case kKeyAttempt: return r.ReadInt(&s.attempt);
      case kKeyDetail: return r.ReadString(&s.detail);
    }
    return false;
  };
  uint64_t seen = 0;
  if (!DecodeNdjsonObject(line, kSpanKeys, read_member, &seen, error)) {
    return false;
  }
  // `t`, `sp`, and `dur` are written unconditionally, so a line missing any
  // of them is truncation or hand-editing, not a default-omitted field.
  constexpr uint64_t kRequired = (uint64_t{1} << kKeyStart) |
                                 (uint64_t{1} << kKeyKind) |
                                 (uint64_t{1} << kKeyDur);
  if ((seen & kRequired) != kRequired) {
    if (error != nullptr) {
      *error = "span line is missing 't', 'sp' or 'dur'";
    }
    return false;
  }
  if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
    if (!code_known) {
      if (error != nullptr) {
        *error = "unknown blame code '" + unknown_code + "'";
      }
      return false;
    }
  } else {
    s.code = SpanRecord{}.code;  // other kinds carry no code
  }
  *span = std::move(s);
  return true;
}

void SpanLog::WriteNdjson(std::ostream& out) const {
  WriteNdjsonLines(out, spans_.size(), [this](std::string& buffer, size_t i) {
    AppendNdjsonLine(buffer, spans_[i]);
  });
}

std::vector<SpanRecord> SpanLog::ReadNdjson(std::istream& in, std::string* error) {
  std::vector<SpanRecord> spans;
  ReadNdjsonLines(in, [&spans](std::string_view line, std::string* line_error) {
    SpanRecord span;
    if (!SpanRecordFromNdjsonLine(line, &span, line_error)) {
      return false;
    }
    spans.push_back(std::move(span));
    return true;
  }, error);
  return spans;
}

void WriteSpanChromeTrace(std::ostream& out, const std::vector<SpanRecord>& spans) {
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const SpanRecord& s : spans) {
    out << (first ? "\n" : ",\n");
    out << "  {\"name\": \"" << ToString(s.kind);
    if (s.kind == SpanKind::kBlame || s.kind == SpanKind::kCkpt) {
      out << ':' << ToString(s.code);
    }
    if (!s.detail.empty()) {
      // Details are identifier-ish tags we emit ourselves; escape the two
      // characters that could still break the JSON string.
      out << ':';
      for (char c : s.detail) {
        if (c == '"' || c == '\\') {
          out << '\\';
        }
        out << c;
      }
    }
    // Simulated seconds -> trace microseconds; pid groups by VC, tid by job,
    // so Perfetto's track view shows one lifecycle lane per job.
    out << "\", \"ph\": \"X\", \"ts\": " << s.start * 1000000
        << ", \"dur\": " << s.dur * 1000000
        << ", \"pid\": " << (s.vc >= 0 ? s.vc : 0) << ", \"tid\": "
        << (s.job != kNoJob ? s.job : 0) << "}";
    first = false;
  }
  out << (first ? "]" : "\n]") << ", \"displayTimeUnit\": \"ms\"}\n";
}

void SpanTracer::Reserve(size_t num_jobs) {
  tracks_.reserve(num_jobs);
  log_.Reserve(num_jobs * 4);
}

void SpanTracer::Clear() {
  tracks_.clear();
  vc_blame_.clear();
  log_.Clear();
}

SpanTracer::Track& SpanTracer::TrackOf(JobId job) {
  assert(job >= 0);
  if (static_cast<size_t>(job) >= tracks_.size()) {
    tracks_.resize(static_cast<size_t>(job) + 1);
  }
  return tracks_[static_cast<size_t>(job)];
}

void SpanTracer::MarkRouterQueued(JobId job) {
  TrackOf(job).router_queued = true;
}

void SpanTracer::Charge(Track& track, SimTime upto) {
  const SimDuration dt = upto - track.mark;
  if (dt <= 0) {
    return;
  }
  if (!track.segs.empty() && track.segs.back().code == track.pending) {
    // Intervals are contiguous by construction, so same-code neighbours merge.
    track.segs.back().end = upto;
  } else {
    track.segs.push_back({track.mark, upto, track.pending});
  }
  if (track.vc >= 0) {
    if (static_cast<size_t>(track.vc) >= vc_blame_.size()) {
      vc_blame_.resize(static_cast<size_t>(track.vc) + 1, {});
    }
    vc_blame_[static_cast<size_t>(track.vc)]
             [static_cast<size_t>(track.pending)] += dt;
  }
  track.mark = upto;
}

SpanRecord& SpanTracer::Emit(SpanKind kind, const Track& track, JobId job,
                             SimTime start, SimDuration dur) {
  SpanRecord& span = log_.Append();
  span.kind = kind;
  span.start = start;
  span.dur = dur;
  span.job = job;
  span.vc = track.vc;
  span.user = track.user;
  span.gpus = track.gpus;
  return span;
}

void SpanTracer::OnEnqueue(JobId job, int32_t vc, int32_t user, int gpus,
                           SimTime now, bool fault_recovery) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  track.queued = true;
  track.queued_at = now;
  track.mark = now;
  track.segs.clear();
  if (fault_recovery) {
    track.pending = BlameCode::kFaultRecovery;
  } else if (track.router_queued && !track.ever_enqueued) {
    track.pending = BlameCode::kRouterQueue;
  } else {
    track.pending = BlameCode::kBackoff;
  }
  track.ever_enqueued = true;
}

void SpanTracer::OnEvalFail(JobId job, SimTime now, BlameCode code) {
  Track& track = TrackOf(job);
  assert(track.queued);
  Charge(track, now);
  track.pending = code;
}

void SpanTracer::OnStart(JobId job, int32_t vc, int32_t user, int gpus,
                         SimTime now, int wait_index, int attempt) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  if (track.queued) {
    Charge(track, now);
    if (now > track.queued_at) {
      Emit(SpanKind::kQueued, track, job, track.queued_at, now - track.queued_at)
          .wait_index = wait_index;
      for (const Seg& seg : track.segs) {
        SpanRecord& span =
            Emit(SpanKind::kBlame, track, job, seg.start, seg.end - seg.start);
        span.code = seg.code;
        span.wait_index = wait_index;
      }
    }
    track.queued = false;
    track.segs.clear();
  }
  track.running = true;
  track.run_start = now;
  track.run_attempt = attempt;
}

void SpanTracer::OnRunStart(JobId job, int32_t vc, int32_t user, int gpus,
                            SimTime now, int attempt) {
  Track& track = TrackOf(job);
  track.vc = vc;
  track.user = user;
  track.gpus = gpus;
  track.running = true;
  track.run_start = now;
  track.run_attempt = attempt;
}

void SpanTracer::OnRunEnd(JobId job, SimTime now, std::string_view reason) {
  Track& track = TrackOf(job);
  if (!track.running) {
    return;
  }
  track.running = false;
  if (now <= track.run_start) {
    return;
  }
  SpanRecord& span =
      Emit(SpanKind::kRunning, track, job, track.run_start, now - track.run_start);
  span.attempt = track.run_attempt;
  span.detail = reason;
}

void SpanTracer::OnCkptStall(JobId job, SimTime now, SimDuration stall,
                             std::string_view detail) {
  if (stall <= 0) {
    return;
  }
  Track& track = TrackOf(job);
  SpanRecord& span = Emit(SpanKind::kCkpt, track, job, now - stall, stall);
  span.code = BlameCode::kCkptStall;
  span.attempt = track.run_attempt;
  span.detail = detail;
  if (track.vc >= 0) {
    if (static_cast<size_t>(track.vc) >= vc_blame_.size()) {
      vc_blame_.resize(static_cast<size_t>(track.vc) + 1, {});
    }
    vc_blame_[static_cast<size_t>(track.vc)]
             [static_cast<size_t>(BlameCode::kCkptStall)] += stall;
  }
}

void SpanTracer::FillVcBlame(std::vector<int64_t>& out) const {
  if (vc_blame_.empty()) {
    return;
  }
  out.reserve(vc_blame_.size() * kNumBlameCodes);
  for (const auto& per_vc : vc_blame_) {
    for (const int64_t seconds : per_vc) {
      out.push_back(seconds);
    }
  }
}

}  // namespace philly
