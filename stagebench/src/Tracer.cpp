//===- Tracer.cpp - In-memory spans around public calls -------------------===//

#include "Tracer.h"

#include <chrono>
#include <cstdio>

namespace stagebench {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::begin(const char *Name, uint64_t Op) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartNs = nowNs();
  Spans.push_back(S);
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void Tracer::end(int32_t Id) {
  Spans[Id].EndNs = nowNs();
  if (!Open.empty() && Open.back() == Id)
    Open.pop_back();
}

double Tracer::totalMs(const std::string &Name) const {
  int64_t Ns = 0;
  for (const Span &S : Spans)
    if (Name == S.Name)
      Ns += S.EndNs - S.StartNs;
  return Ns / 1e6;
}

/// Self time of every span, indexed like Spans.
static std::vector<int64_t> selfTimes(const std::vector<Span> &Spans) {
  std::vector<int64_t> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].EndNs - Spans[I].StartNs;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.EndNs - S.StartNs;
  return Self;
}

double Tracer::selfMs(const std::string &Name) const {
  std::vector<int64_t> Self = selfTimes(Spans);
  int64_t Ns = 0;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Name == Spans[I].Name)
      Ns += Self[I];
  return Ns / 1e6;
}

double Tracer::counter(const std::string &Name) const {
  auto It = Counts.find(Name);
  return It == Counts.end() ? 0 : It->second;
}

bool Tracer::write(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::vector<int64_t> Self = selfTimes(Spans);
  int64_t Origin = Spans.empty() ? 0 : Spans.front().StartNs;
  std::fprintf(F, "id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%d\t%llu\t%s\t%lld\t%lld\t%lld\n", I, S.Parent,
                 static_cast<unsigned long long>(S.Op), S.Name,
                 static_cast<long long>(S.StartNs - Origin),
                 static_cast<long long>(S.EndNs - Origin),
                 static_cast<long long>(Self[I]));
  }
  return std::fclose(F) == 0;
}

} // namespace stagebench
