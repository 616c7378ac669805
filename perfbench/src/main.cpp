// stof_perfbench: one run of one serving workload.
//
//   stof_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--work-dir <dir>] [--trace-out <file.json>]
//
// Prints a self-describing record line, then the result line
// {"correct", "attempted", "failed", "metrics"} last.  Exits non-zero
// without a result line on bad arguments or an exception.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  perfbench::Options opts;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      opts.workload = val;
    } else if (key == "--seed") {
      opts.seed = std::stoull(val);
    } else if (key == "--seconds") {
      opts.seconds = std::stod(val);
    } else if (key == "--trace") {
      opts.trace = val == "1";
    } else if (key == "--work-dir") {
      opts.work_dir = val;
    } else if (key == "--trace-out") {
      trace_out = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (opts.workload.empty() || argc % 2 == 0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--trace-out <file>]\n",
                 argv[0]);
    return 2;
  }
  try {
    const perfbench::Report rep = perfbench::run(opts);
    if (opts.trace && !trace_out.empty()) {
      std::ofstream(trace_out) << perfbench::chrome_trace_json(rep, opts);
    }
    std::printf("%s\n%s\n", perfbench::record_json(rep, opts).c_str(),
                perfbench::result_json(rep).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
