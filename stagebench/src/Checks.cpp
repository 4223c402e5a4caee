//===- Checks.cpp - Correctness checks behind failed ops ------------------===//

#include "Checks.h"

namespace stagebench {

static std::string mismatch(const char *What, uint64_t Want, uint64_t Got) {
  return std::string(What) + " " + std::to_string(Got) + ", expected " +
         std::to_string(Want);
}

std::string diffCounts(const perfplay::UlcpCounts &Want,
                       const perfplay::UlcpCounts &Got) {
  const struct {
    const char *Name;
    uint64_t A, B;
  } Fields[] = {{"null-lock", Want.NullLock, Got.NullLock},
                {"read-read", Want.ReadRead, Got.ReadRead},
                {"disjoint-write", Want.DisjointWrite, Got.DisjointWrite},
                {"benign", Want.Benign, Got.Benign},
                {"true-contention", Want.TrueContention, Got.TrueContention}};
  for (const auto &F : Fields)
    if (F.A != F.B)
      return mismatch(F.Name, F.A, F.B);
  return "";
}

std::string diffOutcome(const PipelineOutcome &Want,
                        const PipelineOutcome &Got) {
  std::string D = diffCounts(Want.Counts, Got.Counts);
  if (!D.empty())
    return D;
  const struct {
    const char *Name;
    uint64_t A, B;
  } Fields[] = {{"aux locks", Want.AuxLocks, Got.AuxLocks},
                {"standalone sections", Want.Standalone, Got.Standalone},
                {"original makespan", Want.OrigTimeNs, Got.OrigTimeNs},
                {"ULCP-free makespan", Want.FreeTimeNs, Got.FreeTimeNs},
                {"races", Want.Races, Got.Races}};
  for (const auto &F : Fields)
    if (F.A != F.B)
      return mismatch(F.Name, F.A, F.B);
  return "";
}

std::string checkRecording(const RecordingFacts &F) {
  if (!F.LoadError.empty())
    return "recorded trace unusable: " + F.LoadError;
  if (F.Records + F.Drops != F.Attempts)
    return mismatch("records + drops", F.Attempts, F.Records + F.Drops);
  if (F.Drops != 0)
    return mismatch("drops", 0, F.Drops);
  if (F.Acquires != F.ExpectedAcquires)
    return mismatch("recorded acquires", F.ExpectedAcquires, F.Acquires);
  return "";
}

} // namespace stagebench
