// The repository benchmark's binary:
//
//   perfbench --workload read|mixed|campaign|solo --seed N --seconds S
//             --trace 0|1 --workdir DIR
//
// Runs one workload and prints its summary, then the result object as the
// last line of standard output. Exits non-zero, printing no result, when
// the arguments are bad or the workload cannot run. perfbench/run.py
// builds this binary and calls it; see perfbench/README.md.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = value == "read" || value == "mixed" ||
                      value == "campaign" || value == "solo";
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = !value.empty() && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = !value.empty() && *end == '\0' && args->seconds > 0.0;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds &&
         have_trace && !args->workdir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload read|mixed|campaign|solo "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  perfbench::RunResult result;
  perfbench::AddBaseProvenance(args, &result);
  const bool serving = args.workload == "read" || args.workload == "mixed";
  const uclean::Status status = serving
                                    ? perfbench::RunServing(args, &result)
                                    : perfbench::RunCampaigns(args, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s: %s\n", args.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  perfbench::PrintResult(args, result);
  return 0;
}
