// One benchmark pass in its own process; prints the pass as one JSON line.
//
//   perfbench_pass   --workload NAME --seed N [--self-test]
//   perfbench_traced --workload NAME --seed N
//
// perfbench/run.py starts these and aggregates their lines; see
// perfbench/README.md for what is measured.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "perfbench/pipeline.h"

#ifdef PERFBENCH_TRACED
namespace perfbench {
int64_t AllocationCount();  // count_alloc.cc
}  // namespace perfbench
#endif

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 0;
  bool have_seed = false;
  perfbench::PassOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--workload" && i + 1 < argc) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && i + 1 < argc) {
      char* end = nullptr;
      seed = std::strtoull(argv[++i], &end, 10);
      have_seed = end != nullptr && *end == '\0' && argv[i][0] != '\0' &&
                  argv[i][0] != '-';
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(workload_name);
  if (workload == nullptr || !have_seed) {
    std::fprintf(stderr, "usage: %s --workload NAME --seed N [--self-test]\n",
                 argv[0]);
    return 2;
  }

#ifdef PERFBENCH_TRACED
  philly::TraceProfiler profiler;
  options.profiler = &profiler;
  options.allocation_count = &perfbench::AllocationCount;
  const bool traced = true;
#else
  const bool traced = false;
#endif
  try {
    const perfbench::PassResult pass = perfbench::RunPass(*workload, seed, options);
    std::printf("%s\n",
                perfbench::PassToJson(workload->name, seed, traced, pass).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pass failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
