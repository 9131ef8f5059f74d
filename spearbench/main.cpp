// spearbench: runs one benchmark workload and prints its metrics.
//
//   spearbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--root <checkout>] [--trace-dir <dir>] [--source <id>]
//
// The last stdout line is the result object
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}};
// the line before it is the run record (machine, compiler, build).  The exit
// code is 0 only when every output checked out.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.h"
#include "workloads.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SPEARBENCH_SANITIZED 1
#else
#define SPEARBENCH_SANITIZED 0
#endif

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "spearbench: %s\nusage: spearbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--root <dir>] [--trace-dir <dir>] "
               "[--source <id>]\nworkloads:",
               why);
  for (const std::string& name : spearbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (SPEARBENCH_SANITIZED) {
    std::fprintf(stderr, "spearbench: refusing to measure a sanitizer build\n");
    return 3;
  }
  spearbench::RunOptions options;
  std::string source = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
        have_seconds = options.seconds > 0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else if (flag == "--root") {
        options.root = value;
      } else if (flag == "--trace-dir") {
        options.trace_dir = value;
      } else if (flag == "--source") {
        source = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }

  spearbench::Outcome outcome;
  try {
    outcome = spearbench::run_workload(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spearbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& note : outcome.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "spearbench: FAILED CHECK: %s\n", error.c_str());
  }
  const bool correct = outcome.errors.empty() && outcome.failed == 0;
  std::printf("%s\n", spearbench::run_record_json(options.workload,
                                                  options.seed, options.seconds,
                                                  options.trace, source)
                          .c_str());
  std::printf("%s\n", spearbench::result_json(correct, outcome.attempted,
                                              outcome.failed, outcome.metrics)
                          .c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
