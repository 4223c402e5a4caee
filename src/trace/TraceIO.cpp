//===- trace/TraceIO.cpp - Trace (de)serialization -------------------------===//

#include "trace/TraceIO.h"

#include "support/MappedFile.h"
#include "trace/TraceV3.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <sstream>

using namespace perfplay;

//===----------------------------------------------------------------------===//
// Text format
//===----------------------------------------------------------------------===//

static const char *TextMagic = "perfplay-trace-v1";

/// Escapes whitespace and '%' so names and paths stay single tokens.
static std::string escapeToken(std::string_view S) {
  std::string Out;
  Out.reserve(S.size());
  for (char C : S) {
    if (C == ' ')
      Out += "%20";
    else if (C == '\t')
      Out += "%09";
    else if (C == '\n')
      Out += "%0A";
    else if (C == '%')
      Out += "%25";
    else
      Out += C;
  }
  if (Out.empty())
    Out = "%00"; // Empty-string sentinel keeps token counts stable.
  return Out;
}

static int hexDigit(char C) {
  if (C >= '0' && C <= '9')
    return C - '0';
  if (C >= 'a' && C <= 'f')
    return C - 'a' + 10;
  if (C >= 'A' && C <= 'F')
    return C - 'A' + 10;
  return -1;
}

static std::string unescapeToken(const std::string &S) {
  if (S == "%00")
    return "";
  std::string Out;
  Out.reserve(S.size());
  for (size_t I = 0; I != S.size(); ++I) {
    if (S[I] == '%' && I + 2 < S.size()) {
      int Hi = hexDigit(S[I + 1]), Lo = hexDigit(S[I + 2]);
      if (Hi >= 0 && Lo >= 0) {
        Out += static_cast<char>(Hi * 16 + Lo);
        I += 2;
        continue;
      }
    }
    Out += S[I];
  }
  return Out;
}

std::string perfplay::writeTraceText(const Trace &Tr) {
  std::ostringstream OS;
  OS << TextMagic << "\n";

  OS << "locks " << Tr.Locks.size() << "\n";
  for (const auto &L : Tr.Locks)
    OS << "lock " << (L.IsSpin ? 1 : 0) << " "
       << escapeToken(Tr.Names.str(L.Name)) << "\n";

  OS << "sites " << Tr.Sites.size() << "\n";
  for (const auto &S : Tr.Sites)
    OS << "site " << S.BeginLine << " " << S.EndLine << " "
       << escapeToken(Tr.Names.str(S.File)) << " "
       << escapeToken(Tr.Names.str(S.Function)) << "\n";

  OS << "locksets " << Tr.Locksets.size() << "\n";
  for (const auto &LS : Tr.Locksets) {
    OS << "lockset " << LS.Entries.size();
    for (const auto &E : LS.Entries)
      OS << " " << E.Lock << ":"
         << (E.SourceCs == InvalidId ? -1
                                     : static_cast<int64_t>(E.SourceCs));
    OS << "\n";
  }

  OS << "constraints " << Tr.Constraints.size() << "\n";
  for (const auto &C : Tr.Constraints)
    OS << "constraint " << C.Before << " " << C.After << "\n";

  OS << "schedule " << Tr.LockSchedule.size() << "\n";
  for (size_t L = 0; L != Tr.LockSchedule.size(); ++L) {
    OS << "sched " << L << " " << Tr.LockSchedule[L].size();
    for (const CsRef &R : Tr.LockSchedule[L])
      OS << " " << R.Thread << ":" << R.Index;
    OS << "\n";
  }

  OS << "threads " << Tr.Threads.size() << "\n";
  for (const auto &T : Tr.Threads) {
    OS << "thread " << T.Events.size() << "\n";
    for (const Event &E : T.Events) {
      switch (E.Kind) {
      case EventKind::ThreadStart:
        OS << "ts\n";
        break;
      case EventKind::ThreadEnd:
        OS << "te\n";
        break;
      case EventKind::LockAcquire:
        OS << "acq " << E.Lock << " "
           << (E.Site == InvalidId ? -1 : static_cast<int64_t>(E.Site))
           << " "
           << (E.Lockset == InvalidId ? -1
                                      : static_cast<int64_t>(E.Lockset))
           << "\n";
        break;
      case EventKind::LockRelease:
        OS << "rel " << E.Lock << "\n";
        break;
      case EventKind::Read:
        OS << "rd " << E.Addr << " " << E.Value << "\n";
        break;
      case EventKind::Write:
        OS << "wr " << E.Addr << " " << E.Value << " "
           << static_cast<unsigned>(E.Op) << "\n";
        break;
      case EventKind::Compute:
        OS << "comp " << E.Cost << "\n";
        break;
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
        OS << (E.Kind == EventKind::RwAcquireRead ? "rwa " : "rww ")
           << E.Lock << " "
           << (E.Site == InvalidId ? -1 : static_cast<int64_t>(E.Site))
           << " "
           << (E.Lockset == InvalidId ? -1
                                      : static_cast<int64_t>(E.Lockset))
           << "\n";
        break;
      case EventKind::TryAcquire:
        OS << "try " << E.Lock << " "
           << (E.Site == InvalidId ? -1 : static_cast<int64_t>(E.Site))
           << " "
           << (E.Lockset == InvalidId ? -1
                                      : static_cast<int64_t>(E.Lockset))
           << " " << static_cast<unsigned>(E.Mode) << " "
           << (E.TrySucceeded ? 1 : 0) << "\n";
        break;
      case EventKind::CondWait:
        OS << "cwait " << E.Lock << " "
           << (E.Site == InvalidId ? -1 : static_cast<int64_t>(E.Site))
           << "\n";
        break;
      case EventKind::CondSignal:
        OS << "csig " << E.Lock << "\n";
        break;
      case EventKind::CondBroadcast:
        OS << "cbro " << E.Lock << "\n";
        break;
      }
    }
  }
  OS << "end\n";
  return OS.str();
}

namespace {

/// Minimal line/token cursor over the text format.
class TextCursor {
public:
  explicit TextCursor(const std::string &Text) : In(Text) {}

  /// Reads the next non-empty line into the token stream.
  bool nextLine(std::string &Err) {
    std::string Line;
    while (std::getline(In, Line)) {
      if (!Line.empty() && Line.back() == '\r')
        Line.pop_back();
      if (Line.empty())
        continue;
      ++LineNo;
      Tokens.str(Line);
      Tokens.clear();
      return true;
    }
    Err = "unexpected end of trace text";
    return false;
  }

  bool word(std::string &Out, std::string &Err) {
    if (Tokens >> Out)
      return true;
    Err = "line " + std::to_string(LineNo) + ": missing token";
    return false;
  }

  bool expect(const char *Keyword, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    if (W != Keyword) {
      Err = "line " + std::to_string(LineNo) + ": expected '" + Keyword +
            "', got '" + W + "'";
      return false;
    }
    return true;
  }

  bool integer(int64_t &Out, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    errno = 0;
    char *End = nullptr;
    long long V = std::strtoll(W.c_str(), &End, 10);
    if (End == W.c_str() || *End != '\0' || errno == ERANGE) {
      Err = "line " + std::to_string(LineNo) + ": bad integer '" + W + "'";
      return false;
    }
    Out = V;
    return true;
  }

  bool unsignedInt(uint64_t &Out, std::string &Err) {
    int64_t V;
    if (!integer(V, Err))
      return false;
    if (V < 0) {
      Err = "line " + std::to_string(LineNo) + ": negative count";
      return false;
    }
    Out = static_cast<uint64_t>(V);
    return true;
  }

  /// Parses "a:b" pairs where a,b may be -1 meaning InvalidId.
  bool idPair(uint32_t &A, uint32_t &B, std::string &Err) {
    std::string W;
    if (!word(W, Err))
      return false;
    size_t Colon = W.find(':');
    if (Colon == std::string::npos) {
      Err = "line " + std::to_string(LineNo) + ": expected 'a:b' pair";
      return false;
    }
    auto parseOne = [&](const std::string &S, uint32_t &Out) {
      errno = 0;
      char *End = nullptr;
      long long V = std::strtoll(S.c_str(), &End, 10);
      if (End == S.c_str() || *End != '\0' || errno == ERANGE)
        return false;
      Out = V < 0 ? InvalidId : static_cast<uint32_t>(V);
      return true;
    };
    if (!parseOne(W.substr(0, Colon), A) ||
        !parseOne(W.substr(Colon + 1), B)) {
      Err = "line " + std::to_string(LineNo) + ": bad pair '" + W + "'";
      return false;
    }
    return true;
  }

  unsigned line() const { return LineNo; }

private:
  std::istringstream In;
  std::istringstream Tokens;
  unsigned LineNo = 0;
};

} // namespace

bool perfplay::parseTraceText(const std::string &Text, Trace &Out,
                              std::string &Err) {
  Out = Trace();
  TextCursor C(Text);

  if (!C.nextLine(Err))
    return false;
  std::string Magic;
  if (!C.word(Magic, Err))
    return false;
  if (Magic != TextMagic) {
    Err = "not a perfplay trace (bad magic '" + Magic + "')";
    return false;
  }

  uint64_t N;
  // Locks.
  if (!C.nextLine(Err) || !C.expect("locks", Err) || !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("lock", Err))
      return false;
    uint64_t Spin;
    std::string Name;
    if (!C.unsignedInt(Spin, Err) || !C.word(Name, Err))
      return false;
    LockInfo Info;
    Info.IsSpin = Spin != 0;
    Info.Name = Out.Names.intern(unescapeToken(Name));
    Out.Locks.push_back(Info);
  }

  // Sites.
  if (!C.nextLine(Err) || !C.expect("sites", Err) || !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("site", Err))
      return false;
    uint64_t Begin, End;
    std::string File, Function;
    if (!C.unsignedInt(Begin, Err) || !C.unsignedInt(End, Err) ||
        !C.word(File, Err) || !C.word(Function, Err))
      return false;
    CodeSite S;
    S.BeginLine = static_cast<uint32_t>(Begin);
    S.EndLine = static_cast<uint32_t>(End);
    S.File = Out.Names.intern(unescapeToken(File));
    S.Function = Out.Names.intern(unescapeToken(Function));
    Out.Sites.push_back(S);
  }

  // Locksets.
  if (!C.nextLine(Err) || !C.expect("locksets", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("lockset", Err))
      return false;
    uint64_t K;
    if (!C.unsignedInt(K, Err))
      return false;
    Lockset LS;
    for (uint64_t J = 0; J != K; ++J) {
      LocksetEntry E;
      if (!C.idPair(E.Lock, E.SourceCs, Err))
        return false;
      LS.Entries.push_back(E);
    }
    Out.Locksets.push_back(std::move(LS));
  }

  // Constraints.
  if (!C.nextLine(Err) || !C.expect("constraints", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("constraint", Err))
      return false;
    uint64_t Before, After;
    if (!C.unsignedInt(Before, Err) || !C.unsignedInt(After, Err))
      return false;
    Out.Constraints.push_back(
        OrderConstraint{static_cast<uint32_t>(Before),
                        static_cast<uint32_t>(After)});
  }

  // Schedule.
  if (!C.nextLine(Err) || !C.expect("schedule", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  // Every per-lock order needs its own "sched" line of >= 9 chars, so
  // a count beyond input-length/9 is forged — reject it before the
  // resize allocates proportionally to it.
  if (N > Text.size() / 9) {
    Err = "schedule count exceeds input size";
    return false;
  }
  Out.LockSchedule.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    if (!C.nextLine(Err) || !C.expect("sched", Err))
      return false;
    uint64_t LockIdx, K;
    if (!C.unsignedInt(LockIdx, Err) || !C.unsignedInt(K, Err))
      return false;
    if (LockIdx >= Out.LockSchedule.size()) {
      Err = "line " + std::to_string(C.line()) + ": sched lock out of range";
      return false;
    }
    auto &Order = Out.LockSchedule[LockIdx];
    for (uint64_t J = 0; J != K; ++J) {
      CsRef R;
      if (!C.idPair(R.Thread, R.Index, Err))
        return false;
      Order.push_back(R);
    }
  }

  // Threads.
  if (!C.nextLine(Err) || !C.expect("threads", Err) ||
      !C.unsignedInt(N, Err))
    return false;
  for (uint64_t T = 0; T != N; ++T) {
    if (!C.nextLine(Err) || !C.expect("thread", Err))
      return false;
    uint64_t NumEvents;
    if (!C.unsignedInt(NumEvents, Err))
      return false;
    // The shortest event line ("ts\n") is 3 chars; a count the input
    // cannot possibly hold must not size the reserve below — and the
    // reserve itself is clamped by the in-memory event size so even an
    // accepted count cannot allocate a multiple of the input.
    if (NumEvents > Text.size() / 3) {
      Err = "event count exceeds input size";
      return false;
    }
    ThreadTrace TT;
    TT.Events.reserve(std::min<size_t>(
        NumEvents, Text.size() / sizeof(Event) + 1));
    for (uint64_t I = 0; I != NumEvents; ++I) {
      if (!C.nextLine(Err))
        return false;
      std::string Kind;
      if (!C.word(Kind, Err))
        return false;
      if (Kind == "ts") {
        TT.Events.push_back(Event::threadStart());
      } else if (Kind == "te") {
        TT.Events.push_back(Event::threadEnd());
      } else if (Kind == "acq") {
        int64_t Lock, Site, LS;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err))
          return false;
        TT.Events.push_back(Event::lockAcquire(
            static_cast<LockId>(Lock),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site),
            LS < 0 ? InvalidId : static_cast<LocksetId>(LS)));
      } else if (Kind == "rel") {
        int64_t Lock;
        if (!C.integer(Lock, Err))
          return false;
        TT.Events.push_back(Event::lockRelease(static_cast<LockId>(Lock)));
      } else if (Kind == "rd") {
        uint64_t Addr, Value;
        if (!C.unsignedInt(Addr, Err) || !C.unsignedInt(Value, Err))
          return false;
        TT.Events.push_back(Event::read(Addr, Value));
      } else if (Kind == "wr") {
        uint64_t Addr, Value, Op;
        if (!C.unsignedInt(Addr, Err) || !C.unsignedInt(Value, Err) ||
            !C.unsignedInt(Op, Err))
          return false;
        if (Op > static_cast<uint64_t>(WriteOpKind::Xor)) {
          Err = "line " + std::to_string(C.line()) + ": bad write op";
          return false;
        }
        TT.Events.push_back(
            Event::write(Addr, Value, static_cast<WriteOpKind>(Op)));
      } else if (Kind == "comp") {
        uint64_t Cost;
        if (!C.unsignedInt(Cost, Err))
          return false;
        TT.Events.push_back(Event::compute(Cost));
      } else if (Kind == "rwa" || Kind == "rww") {
        int64_t Lock, Site, LS;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err))
          return false;
        CodeSiteId S = Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site);
        LocksetId L = LS < 0 ? InvalidId : static_cast<LocksetId>(LS);
        TT.Events.push_back(
            Kind == "rwa"
                ? Event::rwAcquireRead(static_cast<LockId>(Lock), S, L)
                : Event::rwAcquireWrite(static_cast<LockId>(Lock), S, L));
      } else if (Kind == "try") {
        int64_t Lock, Site, LS;
        uint64_t Mode, Ok;
        if (!C.integer(Lock, Err) || !C.integer(Site, Err) ||
            !C.integer(LS, Err) || !C.unsignedInt(Mode, Err) ||
            !C.unsignedInt(Ok, Err))
          return false;
        if (Mode > static_cast<uint64_t>(AcquireMode::Shared)) {
          Err = "line " + std::to_string(C.line()) + ": bad acquire mode";
          return false;
        }
        if (Ok > 1) {
          Err = "line " + std::to_string(C.line()) + ": bad try flag";
          return false;
        }
        TT.Events.push_back(Event::tryAcquire(
            static_cast<LockId>(Lock),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site), Ok != 0,
            static_cast<AcquireMode>(Mode),
            LS < 0 ? InvalidId : static_cast<LocksetId>(LS)));
      } else if (Kind == "cwait") {
        int64_t Cond, Site;
        if (!C.integer(Cond, Err) || !C.integer(Site, Err))
          return false;
        TT.Events.push_back(Event::condWait(
            static_cast<LockId>(Cond),
            Site < 0 ? InvalidId : static_cast<CodeSiteId>(Site)));
      } else if (Kind == "csig") {
        int64_t Cond;
        if (!C.integer(Cond, Err))
          return false;
        TT.Events.push_back(Event::condSignal(static_cast<LockId>(Cond)));
      } else if (Kind == "cbro") {
        int64_t Cond;
        if (!C.integer(Cond, Err))
          return false;
        TT.Events.push_back(Event::condBroadcast(static_cast<LockId>(Cond)));
      } else {
        Err = "line " + std::to_string(C.line()) + ": unknown event '" +
              Kind + "'";
        return false;
      }
    }
    Out.Threads.push_back(std::move(TT));
  }

  if (!C.nextLine(Err) || !C.expect("end", Err))
    return false;

  Out.buildCsIndex();
  std::string Invalid = Out.validate();
  if (!Invalid.empty()) {
    Err = "parsed trace fails validation: " + Invalid;
    return false;
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Binary format
//===----------------------------------------------------------------------===//

static const char BinaryMagic[8] = {'P', 'F', 'P', 'L', 'T', 'R', 'C', '1'};

namespace {

class ByteWriter {
public:
  void u8(uint8_t V) { Bytes.push_back(V); }
  void u32(uint32_t V) {
    for (int I = 0; I != 4; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void u64(uint64_t V) {
    for (int I = 0; I != 8; ++I)
      Bytes.push_back(static_cast<uint8_t>(V >> (8 * I)));
  }
  void str(std::string_view S) {
    u32(static_cast<uint32_t>(S.size()));
    Bytes.insert(Bytes.end(), S.begin(), S.end());
  }
  std::vector<uint8_t> take() { return std::move(Bytes); }

private:
  std::vector<uint8_t> Bytes;
};

/// Cursor over a borrowed byte buffer — typically a read-only file
/// mapping, so every accessor bounds-checks before touching memory and
/// nothing here allocates.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}

  size_t remaining() const { return Size - Pos; }

  /// True when a table of \p N entries, each occupying at least
  /// \p MinEntryBytes on disk, can still fit in the unread suffix.
  /// The guard every table loop runs before trusting an on-disk count:
  /// a hostile 12-byte file must not drive a multi-gigabyte resize.
  bool countFits(uint64_t N, size_t MinEntryBytes) const {
    return N <= remaining() / MinEntryBytes;
  }

  bool u8(uint8_t &V) {
    if (remaining() < 1)
      return false;
    V = Data[Pos++];
    return true;
  }
  bool u32(uint32_t &V) {
    if (remaining() < 4)
      return false;
    V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  bool u64(uint64_t &V) {
    if (remaining() < 8)
      return false;
    V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos++]) << (8 * I);
    return true;
  }
  /// Reads a length-prefixed string as a view into the borrowed
  /// buffer; the caller interns (copies) it.
  bool str(std::string_view &S) {
    uint32_t Len;
    if (!u32(Len) || Len > remaining())
      return false;
    S = std::string_view(reinterpret_cast<const char *>(Data) + Pos, Len);
    Pos += Len;
    return true;
  }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
};

} // namespace

std::vector<uint8_t> perfplay::writeTraceBinary(const Trace &Tr) {
  ByteWriter W;
  for (char C : BinaryMagic)
    W.u8(static_cast<uint8_t>(C));

  W.u32(static_cast<uint32_t>(Tr.Locks.size()));
  for (const auto &L : Tr.Locks) {
    W.u8(L.IsSpin ? 1 : 0);
    W.str(Tr.Names.str(L.Name));
  }

  W.u32(static_cast<uint32_t>(Tr.Sites.size()));
  for (const auto &S : Tr.Sites) {
    W.u32(S.BeginLine);
    W.u32(S.EndLine);
    W.str(Tr.Names.str(S.File));
    W.str(Tr.Names.str(S.Function));
  }

  W.u32(static_cast<uint32_t>(Tr.Locksets.size()));
  for (const auto &LS : Tr.Locksets) {
    W.u32(static_cast<uint32_t>(LS.Entries.size()));
    for (const auto &E : LS.Entries) {
      W.u32(E.Lock);
      W.u32(E.SourceCs);
    }
  }

  W.u32(static_cast<uint32_t>(Tr.Constraints.size()));
  for (const auto &C : Tr.Constraints) {
    W.u32(C.Before);
    W.u32(C.After);
  }

  W.u32(static_cast<uint32_t>(Tr.LockSchedule.size()));
  for (const auto &Order : Tr.LockSchedule) {
    W.u32(static_cast<uint32_t>(Order.size()));
    for (const CsRef &R : Order) {
      W.u32(R.Thread);
      W.u32(R.Index);
    }
  }

  W.u32(static_cast<uint32_t>(Tr.Threads.size()));
  for (const auto &T : Tr.Threads) {
    W.u32(static_cast<uint32_t>(T.Events.size()));
    for (const Event &E : T.Events) {
      W.u8(static_cast<uint8_t>(E.Kind));
      switch (E.Kind) {
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      case EventKind::LockAcquire:
        W.u32(E.Lock);
        W.u32(E.Site);
        W.u32(E.Lockset);
        break;
      case EventKind::LockRelease:
        W.u32(E.Lock);
        break;
      case EventKind::Read:
        W.u64(E.Addr);
        W.u64(E.Value);
        break;
      case EventKind::Write:
        W.u64(E.Addr);
        W.u64(E.Value);
        W.u8(static_cast<uint8_t>(E.Op));
        break;
      case EventKind::Compute:
        W.u64(E.Cost);
        break;
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
        W.u32(E.Lock);
        W.u32(E.Site);
        W.u32(E.Lockset);
        break;
      case EventKind::TryAcquire:
        W.u32(E.Lock);
        W.u32(E.Site);
        W.u32(E.Lockset);
        W.u8(static_cast<uint8_t>(E.Mode));
        W.u8(E.TrySucceeded ? 1 : 0);
        break;
      case EventKind::CondWait:
        W.u32(E.Lock);
        W.u32(E.Site);
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        W.u32(E.Lock);
        break;
      }
    }
  }
  return W.take();
}

bool perfplay::parseTraceBinary(const uint8_t *Data, size_t Size,
                                Trace &Out, std::string &Err) {
  Out = Trace();
  ByteReader R(Data, Size);
  auto fail = [&](const char *Msg) {
    Err = Msg;
    return false;
  };

  for (char C : BinaryMagic) {
    uint8_t B;
    if (!R.u8(B) || B != static_cast<uint8_t>(C))
      return fail("not a perfplay binary trace (bad magic)");
  }

  // Every table below validates its on-disk count against the unread
  // byte budget (using each entry's minimum encoded size) before any
  // container is sized.  Corrupt or hostile headers therefore fail
  // with a typed "count exceeds file size" diagnostic instead of
  // triggering an allocation proportional to the forged count — peak
  // memory stays bounded by the real file size.

  uint32_t N;
  if (!R.u32(N))
    return fail("truncated lock table");
  if (!R.countFits(N, 5)) // u8 spin + u32 name length
    return fail("lock table count exceeds file size");
  Out.Locks.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    LockInfo L;
    uint8_t Spin;
    std::string_view Name;
    if (!R.u8(Spin) || !R.str(Name))
      return fail("truncated lock entry");
    L.IsSpin = Spin != 0;
    L.Name = Out.Names.intern(Name);
    Out.Locks.push_back(L);
  }

  if (!R.u32(N))
    return fail("truncated site table");
  if (!R.countFits(N, 16)) // two u32 lines + two u32 string lengths
    return fail("site table count exceeds file size");
  Out.Sites.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    CodeSite S;
    std::string_view File, Function;
    if (!R.u32(S.BeginLine) || !R.u32(S.EndLine) || !R.str(File) ||
        !R.str(Function))
      return fail("truncated site entry");
    S.File = Out.Names.intern(File);
    S.Function = Out.Names.intern(Function);
    Out.Sites.push_back(S);
  }

  if (!R.u32(N))
    return fail("truncated lockset table");
  if (!R.countFits(N, 4)) // u32 entry count per lockset
    return fail("lockset table count exceeds file size");
  Out.Locksets.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t K;
    if (!R.u32(K))
      return fail("truncated lockset");
    if (!R.countFits(K, 8)) // u32 lock + u32 source section
      return fail("lockset entry count exceeds file size");
    Lockset LS;
    LS.Entries.reserve(K);
    for (uint32_t J = 0; J != K; ++J) {
      LocksetEntry E;
      if (!R.u32(E.Lock) || !R.u32(E.SourceCs))
        return fail("truncated lockset entry");
      LS.Entries.push_back(E);
    }
    Out.Locksets.push_back(std::move(LS));
  }

  if (!R.u32(N))
    return fail("truncated constraint table");
  if (!R.countFits(N, 8)) // u32 before + u32 after
    return fail("constraint table count exceeds file size");
  Out.Constraints.reserve(N);
  for (uint32_t I = 0; I != N; ++I) {
    OrderConstraint C;
    if (!R.u32(C.Before) || !R.u32(C.After))
      return fail("truncated constraint");
    Out.Constraints.push_back(C);
  }

  if (!R.u32(N))
    return fail("truncated schedule");
  if (!R.countFits(N, 4)) // u32 entry count per per-lock order
    return fail("schedule count exceeds file size");
  Out.LockSchedule.resize(N);
  for (uint32_t I = 0; I != N; ++I) {
    uint32_t K;
    if (!R.u32(K))
      return fail("truncated schedule order");
    if (!R.countFits(K, 8)) // u32 thread + u32 index
      return fail("schedule entry count exceeds file size");
    Out.LockSchedule[I].reserve(K);
    for (uint32_t J = 0; J != K; ++J) {
      CsRef Ref;
      if (!R.u32(Ref.Thread) || !R.u32(Ref.Index))
        return fail("truncated schedule entry");
      Out.LockSchedule[I].push_back(Ref);
    }
  }

  if (!R.u32(N))
    return fail("truncated thread table");
  if (!R.countFits(N, 4)) // u32 event count per thread
    return fail("thread table count exceeds file size");
  Out.Threads.reserve(N);
  for (uint32_t T = 0; T != N; ++T) {
    uint32_t NumEvents;
    if (!R.u32(NumEvents))
      return fail("truncated thread header");
    if (!R.countFits(NumEvents, 1)) // u8 kind tag per event
      return fail("event count exceeds file size");
    ThreadTrace TT;
    // The count check above uses the 1-byte on-disk minimum
    // (ThreadStart/End are bare tags), but events occupy sizeof(Event)
    // in memory — clamp the reserve so a dense forged count cannot
    // multiply the file size; oversized legitimate threads just grow
    // geometrically past the hint.
    TT.Events.reserve(std::min<size_t>(
        NumEvents, R.remaining() / sizeof(Event) + 1));
    for (uint32_t I = 0; I != NumEvents; ++I) {
      uint8_t KindByte;
      if (!R.u8(KindByte))
        return fail("truncated event");
      if (KindByte > static_cast<uint8_t>(EventKind::CondBroadcast))
        return fail("unknown event kind");
      Event E;
      E.Kind = static_cast<EventKind>(KindByte);
      switch (E.Kind) {
      case EventKind::ThreadStart:
      case EventKind::ThreadEnd:
        break;
      case EventKind::LockAcquire:
        if (!R.u32(E.Lock) || !R.u32(E.Site) || !R.u32(E.Lockset))
          return fail("truncated acquire");
        break;
      case EventKind::LockRelease:
        if (!R.u32(E.Lock))
          return fail("truncated release");
        break;
      case EventKind::Read:
        if (!R.u64(E.Addr) || !R.u64(E.Value))
          return fail("truncated read");
        break;
      case EventKind::Write: {
        uint8_t Op;
        if (!R.u64(E.Addr) || !R.u64(E.Value) || !R.u8(Op))
          return fail("truncated write");
        if (Op > static_cast<uint8_t>(WriteOpKind::Xor))
          return fail("unknown write op");
        E.Op = static_cast<WriteOpKind>(Op);
        break;
      }
      case EventKind::Compute:
        if (!R.u64(E.Cost))
          return fail("truncated compute");
        break;
      case EventKind::RwAcquireRead:
      case EventKind::RwAcquireWrite:
        if (!R.u32(E.Lock) || !R.u32(E.Site) || !R.u32(E.Lockset))
          return fail("truncated rwlock acquire");
        E.Mode = E.Kind == EventKind::RwAcquireRead ? AcquireMode::Shared
                                                    : AcquireMode::Exclusive;
        break;
      case EventKind::TryAcquire: {
        uint8_t Mode, Ok;
        if (!R.u32(E.Lock) || !R.u32(E.Site) || !R.u32(E.Lockset) ||
            !R.u8(Mode) || !R.u8(Ok))
          return fail("truncated trylock");
        if (Mode > static_cast<uint8_t>(AcquireMode::Shared))
          return fail("unknown acquire mode");
        if (Ok > 1)
          return fail("bad trylock flag");
        E.Mode = static_cast<AcquireMode>(Mode);
        E.TrySucceeded = Ok != 0;
        break;
      }
      case EventKind::CondWait:
        if (!R.u32(E.Lock) || !R.u32(E.Site))
          return fail("truncated condition wait");
        break;
      case EventKind::CondSignal:
      case EventKind::CondBroadcast:
        if (!R.u32(E.Lock))
          return fail("truncated condition signal");
        break;
      }
      TT.Events.push_back(E);
    }
    Out.Threads.push_back(std::move(TT));
  }

  Out.buildCsIndex();
  std::string Invalid = Out.validate();
  if (!Invalid.empty()) {
    Err = "parsed trace fails validation: " + Invalid;
    return false;
  }
  return true;
}

bool perfplay::parseTraceBinary(const std::vector<uint8_t> &Bytes,
                                Trace &Out, std::string &Err) {
  return parseTraceBinary(Bytes.data(), Bytes.size(), Out, Err);
}

/// The binary header's magic is not valid text-format prose, so the
/// first eight bytes decide the format unambiguously.
static bool hasBinaryMagic(const uint8_t *Data, size_t Size) {
  return Size >= sizeof(BinaryMagic) &&
         std::memcmp(Data, BinaryMagic, sizeof(BinaryMagic)) == 0;
}

bool perfplay::parseTraceBuffer(const uint8_t *Data, size_t Size,
                                Trace &Out, std::string &Err,
                                TraceFormat *Format) {
  auto sniffed = [&](TraceFormat F) {
    if (Format)
      *Format = F;
  };
  if (hasBinaryMagic(Data, Size)) {
    sniffed(TraceFormat::Binary);
    return parseTraceBinary(Data, Size, Out, Err);
  }
  if (hasTraceV3Magic(Data, Size)) {
    sniffed(TraceFormat::V3);
    return parseTraceV3(Data, Size, Out, Err);
  }
  sniffed(TraceFormat::Text);
  // The line parser tokenizes out of a string; one copy, text only.
  std::string Text;
  if (Size != 0)
    Text.assign(reinterpret_cast<const char *>(Data), Size);
  return parseTraceText(Text, Out, Err);
}

//===----------------------------------------------------------------------===//
// File helpers
//===----------------------------------------------------------------------===//

bool perfplay::saveTrace(const Trace &Tr, const std::string &Path,
                         std::string &Err, TraceFormat Format) {
  if (Format == TraceFormat::V3)
    return saveTraceV3(Tr, Path, Err);
  const char *Data;
  size_t Size;
  std::string Text;
  std::vector<uint8_t> Bytes;
  if (Format == TraceFormat::Binary) {
    Bytes = writeTraceBinary(Tr);
    Data = reinterpret_cast<const char *>(Bytes.data());
    Size = Bytes.size();
  } else {
    Text = writeTraceText(Tr);
    Data = Text.data();
    Size = Text.size();
  }
  FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    Err = "cannot open '" + Path + "' for writing";
    return false;
  }
  size_t Written = std::fwrite(Data, 1, Size, F);
  std::fclose(F);
  if (Written != Size) {
    Err = "short write to '" + Path + "'";
    return false;
  }
  return true;
}

bool perfplay::loadTrace(const std::string &Path, Trace &Out,
                         std::string &Err, TraceFormat *Format) {
  MappedFile File;
  if (!File.open(Path, Err))
    return false;
  // Owned names: nothing in the parsed Trace points into File, which
  // dies at the end of this call.
  return parseTraceBuffer(File.data(), File.size(), Out, Err, Format);
}

Expected<Trace> perfplay::readTraceFile(const std::string &Path) {
  Trace Out;
  std::string Err;
  if (!loadTrace(Path, Out, Err))
    return PipelineError(ErrorCode::TraceIOFailed, std::move(Err));
  return Out;
}
