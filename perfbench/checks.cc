#include "perfbench/checks.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "src/core/span_analysis.h"
#include "src/core/validate.h"

namespace perfbench {

using philly::DelayCauseResult;
using philly::JobRecord;
using philly::SimulationResult;

void CheckTally::Add(std::string_view name, bool ok, std::string_view detail) {
  ++attempted;
  if (ok) {
    return;
  }
  ++failed;
  if (failures.size() < 20) {
    failures.push_back(std::string(name) + ": " + std::string(detail));
  }
}

std::vector<JobKey> KeysOf(const std::vector<philly::JobSpec>& jobs) {
  std::vector<JobKey> keys;
  keys.reserve(jobs.size());
  for (const auto& spec : jobs) {
    keys.push_back({spec.id, spec.vc, spec.submit_time, spec.num_gpus});
  }
  return keys;
}

int64_t CheckJobsValid(const std::vector<JobRecord>& jobs, CheckTally& tally) {
  philly::ValidateOptions options;
  options.max_issues = SIZE_MAX;
  const philly::ValidationReport report = philly::ValidateJobs(jobs, options);
  std::unordered_set<philly::JobId> bad;
  for (const auto& issue : report.issues) {
    bad.insert(issue.job);
  }
  const auto num_bad = static_cast<int64_t>(bad.size());
  tally.attempted += static_cast<int64_t>(jobs.size());
  tally.failed += num_bad;
  if (num_bad > 0 && tally.failures.size() < 20) {
    tally.failures.push_back("ValidateJobs: " + report.Summary(3));
  }
  return num_bad;
}

bool GpuTimeConserved(const SimulationResult& r, std::string* detail) {
  const double recomposed = r.useful_gpu_seconds +
                            r.machine_fault_lost_gpu_seconds +
                            r.ckpt_overhead_gpu_seconds +
                            r.ckpt_stall_gpu_seconds;
  const double tol = 1e-6 * std::max(1.0, std::abs(r.allocated_gpu_seconds));
  if (std::abs(recomposed - r.allocated_gpu_seconds) <= tol) {
    return true;
  }
  *detail = "allocated " + std::to_string(r.allocated_gpu_seconds) +
            " != recomposed " + std::to_string(recomposed);
  return false;
}

bool AllJobsPresent(const std::vector<JobKey>& generated,
                    const std::vector<JobRecord>& jobs, std::string* detail) {
  if (generated.size() != jobs.size()) {
    *detail = std::to_string(generated.size()) + " generated, " +
              std::to_string(jobs.size()) + " in the result";
    return false;
  }
  for (size_t i = 0; i < jobs.size(); ++i) {
    const auto& spec = jobs[i].spec;
    if (!(generated[i] == JobKey{spec.id, spec.vc, spec.submit_time,
                                 spec.num_gpus})) {
      *detail = "record " + std::to_string(i) + " is job " +
                std::to_string(spec.id) + ", generated job " +
                std::to_string(generated[i].id);
      return false;
    }
  }
  return true;
}

bool Table2Equal(const DelayCauseResult& native, const DelayCauseResult& joined,
                 std::string* detail) {
  // The cause counts and time split, as the span cross-check compares them,
  // plus the out-of-order shares the event stream also carries.
  if (!philly::CrossCheckDelayCauses(native, joined, detail)) {
    return false;
  }
  if (native.out_of_order_by_bucket != joined.out_of_order_by_bucket ||
      native.out_of_order_fraction != joined.out_of_order_fraction ||
      native.out_of_order_benign_fraction !=
          joined.out_of_order_benign_fraction) {
    *detail = "out-of-order shares differ";
    return false;
  }
  return true;
}

bool TelemetryDigestHolds(const philly::TelemetryDigest& embedded,
                          bool found_digest,
                          const philly::TelemetryDigest& recomputed,
                          std::string* detail) {
  if (!found_digest) {
    *detail = "stream carries no digest line";
    return false;
  }
  if (!philly::SampleAggregatesEqual(embedded, recomputed)) {
    *detail = "embedded samples=" + std::to_string(embedded.samples) +
              " used_gpu_samples=" + std::to_string(embedded.used_gpu_samples) +
              ", recomputed samples=" + std::to_string(recomputed.samples) +
              " used_gpu_samples=" + std::to_string(recomputed.used_gpu_samples);
    return false;
  }
  return true;
}

}  // namespace perfbench
