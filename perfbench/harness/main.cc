// perfbench_harness: runs one benchmark workload in this process and prints
// the host facts, then one JSON result line:
//
//   perfbench_harness --workload serve_ram --seed 1 --seconds 10 --trace 0
//       --scratch DIR [--scale tiny] [--perturb-reference]
//
// Column files go under DIR (which must exist) and are removed at exit;
// a traced run also writes its spans to DIR/spans.json.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "serve_ram|knn_paged|serve_paged --seed N --seconds S "
               "--trace 0|1 --scratch DIR [--scale full|tiny] "
               "[--perturb-reference]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--perturb-reference") {
      args.perturb_reference = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--scratch") {
      args.scratch = value;
    } else if (flag == "--scale") {
      args.scale = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.scratch.empty()) Usage("--scratch is required");
  if (args.seconds <= 0) Usage("--seconds must be positive");
  if (args.scale != "full" && args.scale != "tiny") Usage("bad --scale");

  perfbench::Report report;
  if (args.workload == "serve_ram") {
    report = perfbench::RunServeRam(args);
  } else if (args.workload == "serve_paged") {
    report = perfbench::RunServePaged(args);
  } else if (args.workload == "knn_paged") {
    report = perfbench::RunKnnPaged(args);
  } else {
    Usage("unknown workload");
  }
  std::printf("host: %s\n", perfbench::HostFactsJson().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.metrics.Json().c_str());
  return 0;
}
