#include "src/obs/event_log.h"

#include <ostream>

#include "src/common/ndjson.h"

namespace philly {
namespace {

constexpr std::string_view kKindNames[kNumSchedEventKinds] = {
    "submit",  "queued",  "locality_relax", "backoff",    "schedule",
    "preempt", "migrate", "fault_kill",     "requeue",    "complete",
    "ckpt_begin", "ckpt_end", "ckpt_stall", "route",
};

void AppendFlag(std::string& out, std::string_view key, bool value) {
  if (value) {
    AppendNdjsonField(out, key, static_cast<int64_t>(1));
  }
}

// Member names in encoding order (the decoder's key table).
enum EventKey {
  kKeyTime, kKeyKind, kKeyJob, kKeyVc, kKeyUser, kKeyGpus, kKeyAttempt,
  kKeyRack, kKeyCluster, kKeyHome, kKeyHomeQueue, kKeyDestQueue,
  kKeyDestFree, kKeyReady, kKeyWait, kKeyFair, kKeyFrag, kKeyEvals, kKeyOoo,
  kKeyBenign, kKeyPlacement, kKeyFailed, kKeyPreempted, kKeyMfault,
  kKeyStatus, kKeyOooStarted, kKeyOooBenign, kKeyOvertaken, kKeyRelax,
  kKeyDelay, kKeyLostGpuS, kKeyDetail, kNumEventKeys,
};

constexpr std::string_view kEventKeys[kNumEventKeys] = {
    "t",          "ev",        "job",        "vc",          "user",
    "gpus",       "attempt",   "rack",       "cluster",     "home",
    "home_queue", "dest_queue", "dest_free", "ready",       "wait",
    "fair",       "frag",      "evals",      "ooo",         "benign",
    "placement",  "failed",    "preempted",  "mfault",      "status",
    "ooo_started", "ooo_benign", "overtaken", "relax",      "delay",
    "lost_gpu_s", "detail",
};

bool ReadFlag(NdjsonObjectReader& r, bool* out) {
  int64_t value = 0;
  if (!r.ReadInt(&value)) {
    return false;
  }
  *out = value != 0;
  return true;
}

void AppendNdjsonLine(std::string& out, const SchedEvent& e) {
  out += "{\"t\":";
  AppendJsonInt(out, e.time);
  out += ",\"ev\":\"";
  out += ToString(e.kind);
  out += '"';
  if (e.job != kNoJob) {
    AppendNdjsonField(out, "job", e.job);
  }
  if (e.vc >= 0) {
    AppendNdjsonField(out, "vc", static_cast<int64_t>(e.vc));
  }
  if (e.user >= 0) {
    AppendNdjsonField(out, "user", static_cast<int64_t>(e.user));
  }
  if (e.gpus > 0) {
    AppendNdjsonField(out, "gpus", static_cast<int64_t>(e.gpus));
  }
  if (e.attempt >= 0) {
    AppendNdjsonField(out, "attempt", static_cast<int64_t>(e.attempt));
  }
  if (e.rack >= 0) {
    AppendNdjsonField(out, "rack", static_cast<int64_t>(e.rack));
  }
  if (e.cluster >= 0) {
    AppendNdjsonField(out, "cluster", static_cast<int64_t>(e.cluster));
  }
  if (e.home >= 0) {
    AppendNdjsonField(out, "home", static_cast<int64_t>(e.home));
  }
  if (e.home_queue >= 0) {
    AppendNdjsonField(out, "home_queue", e.home_queue);
  }
  if (e.dest_queue >= 0) {
    AppendNdjsonField(out, "dest_queue", e.dest_queue);
  }
  if (e.dest_free >= 0) {
    AppendNdjsonField(out, "dest_free", e.dest_free);
  }
  if (e.kind == SchedEventKind::kSchedule) {
    AppendNdjsonField(out, "ready", e.ready_time);
    AppendNdjsonField(out, "wait", e.wait);
    AppendNdjsonField(out, "fair", e.fair_share_time);
    AppendNdjsonField(out, "frag", e.fragmentation_time);
    AppendNdjsonField(out, "evals", static_cast<int64_t>(e.sched_attempts));
    AppendFlag(out, "ooo", e.out_of_order);
    AppendFlag(out, "benign", e.benign);
    if (!e.placement.empty()) {
      AppendNdjsonField(out, "placement", e.placement);
    }
  }
  AppendFlag(out, "failed", e.failed);
  AppendFlag(out, "preempted", e.preempted);
  AppendFlag(out, "mfault", e.machine_fault);
  if (e.status >= 0) {
    AppendNdjsonField(out, "status", static_cast<int64_t>(e.status));
  }
  AppendFlag(out, "ooo_started", e.started_out_of_order);
  AppendFlag(out, "ooo_benign", e.out_of_order_benign);
  AppendFlag(out, "overtaken", e.overtaken);
  if (e.relax_level > 0) {
    AppendNdjsonField(out, "relax", static_cast<int64_t>(e.relax_level));
  }
  if (e.delay > 0) {
    AppendNdjsonField(out, "delay", e.delay);
  }
  if (e.lost_gpu_seconds > 0) {
    AppendNdjsonField(out, "lost_gpu_s", e.lost_gpu_seconds);
  }
  if (!e.detail.empty()) {
    AppendNdjsonField(out, "detail", e.detail);
  }
  out += '}';
}

}  // namespace

std::string_view ToString(SchedEventKind kind) {
  return kKindNames[static_cast<size_t>(kind)];
}

bool SchedEventKindFromString(std::string_view text, SchedEventKind* kind) {
  for (int i = 0; i < kNumSchedEventKinds; ++i) {
    if (text == kKindNames[static_cast<size_t>(i)]) {
      *kind = static_cast<SchedEventKind>(i);
      return true;
    }
  }
  return false;
}

SchedEvent& EventLog::Append(SchedEventKind kind, SimTime time, JobId job) {
  SchedEvent& event = events_.emplace_back();
  event.kind = kind;
  event.time = time;
  event.job = job;
  return event;
}

std::string ToNdjsonLine(const SchedEvent& event) {
  std::string out;
  out.reserve(96);
  AppendNdjsonLine(out, event);
  return out;
}

bool SchedEventFromNdjsonLine(std::string_view line, SchedEvent* event,
                              std::string* error) {
  SchedEvent e;
  const auto read_member = [&e](size_t key, NdjsonObjectReader& r) {
    switch (key) {
      case kKeyTime: return r.ReadInt(&e.time);
      case kKeyKind: {
        std::string_view tag;
        if (!r.ReadStringView(&tag)) {
          return false;
        }
        return SchedEventKindFromString(tag, &e.kind) ||
               r.Fail("unknown event kind '" + std::string(tag) + "'");
      }
      case kKeyJob: return r.ReadInt(&e.job);
      case kKeyVc: return r.ReadInt(&e.vc);
      case kKeyUser: return r.ReadInt(&e.user);
      case kKeyGpus: return r.ReadInt(&e.gpus);
      case kKeyAttempt: return r.ReadInt(&e.attempt);
      case kKeyRack: return r.ReadInt(&e.rack);
      case kKeyCluster: return r.ReadInt(&e.cluster);
      case kKeyHome: return r.ReadInt(&e.home);
      case kKeyHomeQueue: return r.ReadInt(&e.home_queue);
      case kKeyDestQueue: return r.ReadInt(&e.dest_queue);
      case kKeyDestFree: return r.ReadInt(&e.dest_free);
      case kKeyReady: return r.ReadInt(&e.ready_time);
      case kKeyWait: return r.ReadInt(&e.wait);
      case kKeyFair: return r.ReadInt(&e.fair_share_time);
      case kKeyFrag: return r.ReadInt(&e.fragmentation_time);
      case kKeyEvals: return r.ReadInt(&e.sched_attempts);
      case kKeyOoo: return ReadFlag(r, &e.out_of_order);
      case kKeyBenign: return ReadFlag(r, &e.benign);
      case kKeyPlacement: return r.ReadString(&e.placement);
      case kKeyFailed: return ReadFlag(r, &e.failed);
      case kKeyPreempted: return ReadFlag(r, &e.preempted);
      case kKeyMfault: return ReadFlag(r, &e.machine_fault);
      case kKeyStatus: return r.ReadInt(&e.status);
      case kKeyOooStarted: return ReadFlag(r, &e.started_out_of_order);
      case kKeyOooBenign: return ReadFlag(r, &e.out_of_order_benign);
      case kKeyOvertaken: return ReadFlag(r, &e.overtaken);
      case kKeyRelax: return r.ReadInt(&e.relax_level);
      case kKeyDelay: return r.ReadInt(&e.delay);
      case kKeyLostGpuS: return r.ReadDouble(&e.lost_gpu_seconds);
      case kKeyDetail: return r.ReadString(&e.detail);
    }
    return false;
  };
  uint64_t seen = 0;
  if (!DecodeNdjsonObject(line, kEventKeys, read_member, &seen, error)) {
    return false;
  }
  // `t` and `ev` are written unconditionally, so a line missing either is
  // truncation or hand-editing, not a default-omitted field.
  constexpr uint64_t kRequired = (uint64_t{1} << kKeyTime) | (uint64_t{1} << kKeyKind);
  if ((seen & kRequired) != kRequired) {
    if (error != nullptr) {
      *error = "event line is missing 't' or 'ev'";
    }
    return false;
  }
  *event = std::move(e);
  return true;
}

void EventLog::WriteNdjson(std::ostream& out) const {
  WriteNdjsonLines(out, events_.size(), [this](std::string& buffer, size_t i) {
    AppendNdjsonLine(buffer, events_[i]);
  });
}

std::vector<SchedEvent> EventLog::ReadNdjson(std::istream& in,
                                             std::string* error) {
  std::vector<SchedEvent> events;
  ReadNdjsonLines(in, [&events](std::string_view line, std::string* line_error) {
    SchedEvent event;
    if (!SchedEventFromNdjsonLine(line, &event, line_error)) {
      return false;
    }
    events.push_back(std::move(event));
    return true;
  }, error);
  return events;
}

}  // namespace philly
