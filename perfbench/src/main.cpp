// pfl_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out-dir <dir>]
//
// Runs one seeded workload for about <s> seconds of steady state, checks
// every output, and prints one JSON result line last. --trace 0 reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes the benchmark's spans to <out-dir>/trace-<workload>.json.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: pfl_perfbench --workload closed-batch|hyperbolic-table|"
               "volunteer-rpc --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out-dir") {
      args.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || args.seconds <= 0.0) return usage();

  try {
    perfbench::Report report;
    if (args.workload == "closed-batch") {
      report = perfbench::run_closed_batch(args);
    } else if (args.workload == "hyperbolic-table") {
      report = perfbench::run_hyperbolic_table(args);
    } else if (args.workload == "volunteer-rpc") {
      report = perfbench::run_volunteer_rpc(args);
    } else {
      return usage();
    }
    return perfbench::emit(args, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfl_perfbench: %s\n", e.what());
    return 1;
  }
}
