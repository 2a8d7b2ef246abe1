#include "src/core/runner.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "src/common/strings.h"

namespace philly {
namespace {

[[noreturn]] void DieOnKnob(const char* name, const char* value,
                            const char* expected) {
  std::fprintf(stderr, "%s='%s' is invalid: expected %s\n", name, value,
               expected);
  std::exit(2);
}

}  // namespace

int PositiveIntFromEnv(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  int64_t value = 0;
  if (!ParseExact(env, &value) || value < 1 || value > INT32_MAX) {
    DieOnKnob(name, env, "a positive integer");
  }
  return static_cast<int>(value);
}

uint64_t U64FromEnv(const char* name, uint64_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr || *env == '\0') {
    return fallback;
  }
  uint64_t value = 0;
  if (!ParseExact(env, &value)) {
    DieOnKnob(name, env, "an unsigned integer");
  }
  return value;
}

int DefaultPoolThreads() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return PositiveIntFromEnv("PHILLY_BENCH_THREADS", hw > 0 ? hw : 1);
}

ExperimentPool::ExperimentPool(int num_threads)
    : num_threads_(num_threads > 0 ? num_threads : DefaultPoolThreads()) {}

void ExperimentPool::ParallelFor(int n, const std::function<void(int)>& fn) const {
  if (n <= 0) {
    return;
  }
  const int workers = std::min(num_threads_, n);
  if (workers <= 1) {
    for (int i = 0; i < n; ++i) {
      fn(i);
    }
    return;
  }
  std::atomic<int> next{0};
  std::exception_ptr first_error;
  std::mutex error_mu;
  auto worker = [&] {
    for (int i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) {
          first_error = std::current_exception();
        }
      }
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int t = 0; t < workers; ++t) {
    threads.emplace_back(worker);
  }
  for (auto& thread : threads) {
    thread.join();
  }
  if (first_error) {
    std::rethrow_exception(first_error);
  }
}

std::vector<ExperimentRun> ExperimentPool::RunMany(
    std::vector<ExperimentConfig> configs) const {
  // Shared metrics/profiler sinks are thread-safe and may appear in every
  // config, but an EventLog or ClusterTimeSeries belongs to exactly one run:
  // concurrent appends from two simulations would interleave (and race).
  // Catch the misuse before it corrupts a stream.
  for (size_t i = 0; i < configs.size(); ++i) {
    const EventLog* log = configs[i].simulation.obs.event_log;
    const ClusterTimeSeries* ts = configs[i].simulation.obs.timeseries;
    for (size_t j = i + 1; j < configs.size(); ++j) {
      if (log != nullptr && configs[j].simulation.obs.event_log == log) {
        throw std::invalid_argument(
            "ExperimentPool::RunMany: the same EventLog is attached to more "
            "than one config; event logs are per-run");
      }
      if (ts != nullptr && configs[j].simulation.obs.timeseries == ts) {
        throw std::invalid_argument(
            "ExperimentPool::RunMany: the same ClusterTimeSeries is attached "
            "to more than one config; telemetry recorders are per-run");
      }
    }
  }
  std::vector<ExperimentRun> runs(configs.size());
  ParallelFor(static_cast<int>(configs.size()), [&](int i) {
    runs[static_cast<size_t>(i)] =
        RunExperiment(configs[static_cast<size_t>(i)]);
  });
  return runs;
}

std::vector<ExperimentRun> ExperimentPool::RunSeeds(
    const ExperimentConfig& base, const std::vector<uint64_t>& seeds) const {
  return RunMany(ConfigsForSeeds(base, seeds));
}

std::vector<ExperimentConfig> ConfigsForSeeds(const ExperimentConfig& base,
                                              const std::vector<uint64_t>& seeds) {
  std::vector<ExperimentConfig> configs;
  configs.reserve(seeds.size());
  for (uint64_t seed : seeds) {
    ExperimentConfig config = base;
    config.workload.seed = seed;
    config.simulation.seed = seed;
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace philly
