//===- Options.cpp - Command line of the stage benchmark ------------------===//

#include "Options.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace stagebench {

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {
      "analyze-paper", "analyze-races", "detect-large", "record-lockheavy",
      "serve-zipf"};
  return Names;
}

/// Parses a whole decimal number in [Min, Max].
static bool parseUnsigned(const std::string &S, uint64_t Min, uint64_t Max,
                          uint64_t &Out) {
  if (S.empty() || S.find_first_not_of("0123456789") != std::string::npos)
    return false;
  errno = 0;
  unsigned long long V = std::strtoull(S.c_str(), nullptr, 10);
  if (errno == ERANGE || V < Min || V > Max)
    return false;
  Out = V;
  return true;
}

std::string parseOptions(const std::vector<std::string> &Args, Options &Out) {
  bool HaveWorkload = false, HaveSeed = false;
  for (size_t I = 0; I < Args.size(); ++I) {
    std::string Flag = Args[I], Value;
    size_t Eq = Flag.find('=');
    if (Eq != std::string::npos) {
      Value = Flag.substr(Eq + 1);
      Flag = Flag.substr(0, Eq);
    } else if (I + 1 < Args.size()) {
      Value = Args[++I];
    } else {
      return Flag + " expects a value";
    }
    uint64_t N = 0;
    if (Flag == "--workload") {
      const auto &Names = workloadNames();
      if (std::find(Names.begin(), Names.end(), Value) == Names.end())
        return "unknown workload '" + Value + "'";
      Out.Workload = Value;
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      if (!parseUnsigned(Value, 0, UINT64_MAX, N))
        return "--seed expects a non-negative integer, got '" + Value + "'";
      Out.Seed = N;
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      if (!parseUnsigned(Value, 1, 3600, N))
        return "--seconds expects 1..3600, got '" + Value + "'";
      Out.Seconds = static_cast<unsigned>(N);
    } else if (Flag == "--trace") {
      if (Value != "0" && Value != "1")
        return "--trace expects 0 or 1, got '" + Value + "'";
      Out.Trace = Value == "1";
    } else {
      return "unknown option '" + Flag + "'";
    }
  }
  if (!HaveWorkload)
    return "--workload is required";
  if (!HaveSeed)
    return "--seed is required";
  return "";
}

} // namespace stagebench
