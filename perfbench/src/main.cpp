// perfbench: the Tasklet middleware's benchmark binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--short]
//
// Runs one workload and prints, as the last line of stdout, one JSON object
// with the keys correct, attempted, failed and metrics: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1. See
// README.md in this directory for the workloads and metrics.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"
#include "common/log.hpp"
#include "reference.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<kernels_sim|pool_sim|reliable_sim> --seed <n> "
               "--seconds <s> --trace <0|1> [--short]\n",
               why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--short") {
      options.short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (arg == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      options.trace = value[0] == '1';
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const perfbench::Options options = parse(argc, argv);
  // The middleware logs provider churn and alerts at info; keep stderr to
  // the benchmark's own notes.
  tasklets::Logger::instance().set_level(tasklets::LogLevel::kWarn);

  perfbench::RunResult result;
  if (const std::string problem = perfbench::ref::self_check(); !problem.empty()) {
    result.violate("reference self-check: " + problem);
  }
  if (options.workload == "kernels_sim") {
    perfbench::run_kernels_sim(options, result);
  } else if (options.workload == "pool_sim") {
    perfbench::run_pool_sim(options, result);
  } else if (options.workload == "reliable_sim") {
    perfbench::run_reliable_sim(options, result);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  if (result.attempted == 0) result.violate("no operation was attempted");
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
