//===- main.cpp - stagebench entry point ----------------------------------===//
//
//   stagebench --workload NAME --seed N [--seconds S] [--trace 0|1]
//
// Exit codes: 0 run completed (the last stdout line is the JSON
// result), 1 set-up or an op could not run, 2 usage error.
//
//===----------------------------------------------------------------------===//

#include "Options.h"
#include "Runner.h"

#include <cstdio>

int main(int Argc, char **Argv) {
  using namespace stagebench;
  Options Opts;
  std::string Err =
      parseOptions(std::vector<std::string>(Argv + 1, Argv + Argc), Opts);
  if (!Err.empty()) {
    std::fprintf(stderr, "stagebench: %s\nusage: stagebench --workload {",
                 Err.c_str());
    for (size_t I = 0; I < workloadNames().size(); ++I)
      std::fprintf(stderr, "%s%s", I ? "," : "", workloadNames()[I].c_str());
    std::fprintf(stderr, "} --seed N [--seconds S] [--trace 0|1]\n");
    return 2;
  }
  return runBenchmark(Opts, stdout);
}
