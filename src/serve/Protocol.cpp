//===- serve/Protocol.cpp - Serve daemon wire protocol ----------------------===//

#include "serve/Protocol.h"

#include <cerrno>
#include <cstring>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace perfplay;
using namespace perfplay::serve;

namespace {

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  Out.push_back(static_cast<uint8_t>(V));
  Out.push_back(static_cast<uint8_t>(V >> 8));
  Out.push_back(static_cast<uint8_t>(V >> 16));
  Out.push_back(static_cast<uint8_t>(V >> 24));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

/// Bounds-checked little-endian cursor: every get* fails (returns
/// false) instead of reading past Size, so a hostile payload can never
/// overrun the frame buffer.
struct Cursor {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;

  bool getU8(uint8_t &V) {
    if (Pos + 1 > Size)
      return false;
    V = Data[Pos++];
    return true;
  }
  bool getU32(uint32_t &V) {
    if (Pos + 4 > Size)
      return false;
    V = static_cast<uint32_t>(Data[Pos]) |
        static_cast<uint32_t>(Data[Pos + 1]) << 8 |
        static_cast<uint32_t>(Data[Pos + 2]) << 16 |
        static_cast<uint32_t>(Data[Pos + 3]) << 24;
    Pos += 4;
    return true;
  }
  bool getU64(uint64_t &V) {
    V = 0;
    if (Pos + 8 > Size)
      return false;
    for (unsigned I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return true;
  }
  bool getString(std::string &S, uint32_t Len) {
    if (Pos + Len > Size)
      return false;
    S.assign(reinterpret_cast<const char *>(Data + Pos), Len);
    Pos += Len;
    return true;
  }
};

/// Reads exactly \p Len bytes.  Returns 1 on success, 0 on EOF before
/// the first byte, -1 on error/timeout/mid-read EOF.  \p TimeoutMs
/// bounds each poll wait (0 = block forever).
int readFull(int Fd, uint8_t *Buf, size_t Len, std::string &Err,
             int TimeoutMs) {
  size_t Got = 0;
  while (Got < Len) {
    if (TimeoutMs > 0) {
      struct pollfd Pfd = {Fd, POLLIN, 0};
      int PollRc = ::poll(&Pfd, 1, TimeoutMs);
      if (PollRc == 0) {
        Err = "read timed out";
        return -1;
      }
      if (PollRc < 0) {
        if (errno == EINTR)
          continue;
        Err = std::string("poll: ") + std::strerror(errno);
        return -1;
      }
    }
    ssize_t N = ::recv(Fd, Buf + Got, Len - Got, 0);
    if (N == 0) {
      if (Got == 0)
        return 0;
      Err = "connection closed mid-frame";
      return -1;
    }
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("recv: ") + std::strerror(errno);
      return -1;
    }
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

ResultSummary perfplay::serve::summarizeResult(const PipelineResult &R) {
  ResultSummary S;
  S.NullLock = R.Detection.Counts.NullLock;
  S.ReadRead = R.Detection.Counts.ReadRead;
  S.DisjointWrite = R.Detection.Counts.DisjointWrite;
  S.Benign = R.Detection.Counts.Benign;
  S.TrueContention = R.Detection.Counts.TrueContention;
  S.TryFailEdges = R.Detection.TryFailEdges;
  S.TopologyEdges = R.Transformation.Topology.numEdges();
  S.NumAuxLocks = R.Transformation.NumAuxLocks;
  S.NumStandalone = R.Transformation.NumStandalone;
  S.OriginalTotalTime = R.Original.TotalTime;
  S.UlcpFreeTotalTime = R.UlcpFree.TotalTime;
  return S;
}

void perfplay::serve::encodeFrame(FrameType Type,
                                  const std::vector<uint8_t> &Payload,
                                  std::vector<uint8_t> &Out) {
  putU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.push_back(static_cast<uint8_t>(Type));
  Out.insert(Out.end(), Payload.begin(), Payload.end());
}

std::vector<uint8_t>
perfplay::serve::encodeAnalyzeRequest(const AnalyzeRequest &Req) {
  std::vector<uint8_t> P;
  P.push_back(Req.PairMode);
  P.push_back(Req.NoCache);
  putU32(P, static_cast<uint32_t>(Req.Path.size()));
  P.insert(P.end(), Req.Path.begin(), Req.Path.end());
  return P;
}

bool perfplay::serve::decodeAnalyzeRequest(const uint8_t *Data, size_t Size,
                                           AnalyzeRequest &Out,
                                           std::string &Err) {
  Cursor C{Data, Size};
  uint32_t PathLen = 0;
  if (!C.getU8(Out.PairMode) || !C.getU8(Out.NoCache) ||
      !C.getU32(PathLen)) {
    Err = "analyze request truncated";
    return false;
  }
  if (Out.PairMode > 1) {
    Err = "analyze request: bad pair mode";
    return false;
  }
  // The embedded length is validated against the bytes actually in the
  // frame — a hostile PathLen cannot allocate past the payload.
  if (!C.getString(Out.Path, PathLen)) {
    Err = "analyze request: path length exceeds payload";
    return false;
  }
  if (C.Pos != Size) {
    Err = "analyze request: trailing bytes";
    return false;
  }
  return true;
}

std::vector<uint8_t>
perfplay::serve::encodeResultSummary(const ResultSummary &Sum) {
  std::vector<uint8_t> P;
  for (uint64_t V :
       {Sum.NullLock, Sum.ReadRead, Sum.DisjointWrite, Sum.Benign,
        Sum.TrueContention, Sum.TryFailEdges, Sum.TopologyEdges,
        Sum.NumAuxLocks, Sum.NumStandalone, Sum.OriginalTotalTime,
        Sum.UlcpFreeTotalTime})
    putU64(P, V);
  P.push_back(Sum.FromResultCache);
  P.push_back(Sum.FromTraceCache);
  return P;
}

bool perfplay::serve::decodeResultSummary(const uint8_t *Data, size_t Size,
                                          ResultSummary &Out,
                                          std::string &Err) {
  Cursor C{Data, Size};
  uint64_t *Fields[] = {
      &Out.NullLock,      &Out.ReadRead,     &Out.DisjointWrite,
      &Out.Benign,        &Out.TrueContention, &Out.TryFailEdges,
      &Out.TopologyEdges, &Out.NumAuxLocks,  &Out.NumStandalone,
      &Out.OriginalTotalTime, &Out.UlcpFreeTotalTime};
  for (uint64_t *F : Fields)
    if (!C.getU64(*F)) {
      Err = "result summary truncated";
      return false;
    }
  if (!C.getU8(Out.FromResultCache) || !C.getU8(Out.FromTraceCache) ||
      C.Pos != Size) {
    Err = "result summary malformed";
    return false;
  }
  return true;
}

std::vector<uint8_t>
perfplay::serve::encodeServeStats(const ServeStats &Stats) {
  std::vector<uint8_t> P;
  for (uint64_t V :
       {Stats.RequestsServed, Stats.RequestsFailed, Stats.ProtocolErrors,
        Stats.RequestsRejected, Stats.TraceCacheHits,
        Stats.TraceCacheMisses, Stats.ResultCacheHits,
        Stats.ResultCacheMisses, Stats.CacheEvictions, Stats.CachedTraces,
        Stats.CachedResults, Stats.CacheBytes, Stats.QueueDepth,
        Stats.P50Micros, Stats.P99Micros})
    putU64(P, V);
  return P;
}

bool perfplay::serve::decodeServeStats(const uint8_t *Data, size_t Size,
                                       ServeStats &Out, std::string &Err) {
  Cursor C{Data, Size};
  uint64_t *Fields[] = {
      &Out.RequestsServed,   &Out.RequestsFailed, &Out.ProtocolErrors,
      &Out.RequestsRejected, &Out.TraceCacheHits, &Out.TraceCacheMisses,
      &Out.ResultCacheHits,  &Out.ResultCacheMisses, &Out.CacheEvictions,
      &Out.CachedTraces,     &Out.CachedResults,  &Out.CacheBytes,
      &Out.QueueDepth,       &Out.P50Micros,      &Out.P99Micros};
  for (uint64_t *F : Fields)
    if (!C.getU64(*F)) {
      Err = "stats payload truncated";
      return false;
    }
  if (C.Pos != Size) {
    Err = "stats payload: trailing bytes";
    return false;
  }
  return true;
}

std::vector<uint8_t> perfplay::serve::encodeError(ErrorCode Code,
                                                  const std::string &Msg) {
  std::vector<uint8_t> P;
  P.push_back(static_cast<uint8_t>(Code));
  putU32(P, static_cast<uint32_t>(Msg.size()));
  P.insert(P.end(), Msg.begin(), Msg.end());
  return P;
}

bool perfplay::serve::decodeError(const uint8_t *Data, size_t Size,
                                  ErrorCode &Code, std::string &Msg,
                                  std::string &Err) {
  Cursor C{Data, Size};
  uint8_t Raw = 0;
  uint32_t Len = 0;
  if (!C.getU8(Raw) || !C.getU32(Len) || !C.getString(Msg, Len) ||
      C.Pos != Size) {
    Err = "error payload malformed";
    return false;
  }
  Code = static_cast<ErrorCode>(Raw);
  return true;
}

int perfplay::serve::readFrame(int Fd, Frame &Out, const FrameLimits &Limits,
                               std::string &Err, int IdleTimeoutMs) {
  uint8_t Header[5];
  int Rc = readFull(Fd, Header, sizeof(Header), Err, IdleTimeoutMs);
  if (Rc <= 0)
    return Rc;
  uint32_t Len = static_cast<uint32_t>(Header[0]) |
                 static_cast<uint32_t>(Header[1]) << 8 |
                 static_cast<uint32_t>(Header[2]) << 16 |
                 static_cast<uint32_t>(Header[3]) << 24;
  // The budget check precedes the allocation: a 4 GiB length prefix
  // costs the daemon nothing but this comparison.
  if (Len > Limits.MaxFrameBytes) {
    Err = "frame length " + std::to_string(Len) +
          " exceeds the frame budget (" +
          std::to_string(Limits.MaxFrameBytes) + ")";
    return -1;
  }
  Out.Type = static_cast<FrameType>(Header[4]);
  Out.Payload.resize(Len);
  if (Len > 0 &&
      readFull(Fd, Out.Payload.data(), Len, Err, IdleTimeoutMs) != 1) {
    if (Err.empty())
      Err = "connection closed mid-frame";
    return -1;
  }
  return 1;
}

bool perfplay::serve::writeFrame(int Fd, FrameType Type,
                                 const std::vector<uint8_t> &Payload,
                                 std::string &Err) {
  std::vector<uint8_t> Bytes;
  Bytes.reserve(5 + Payload.size());
  encodeFrame(Type, Payload, Bytes);
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      Err = std::string("send: ") + std::strerror(errno);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

// -- ServeClient -------------------------------------------------------------

/// Read deadline of stats() and shutdown().  The daemon answers both
/// without running an analysis; one that stays silent this long lost
/// the connection (e.g. it shut down with the connection unserved).
/// The wait also covers a fresh connection's time in the daemon's
/// queue, so a saturated daemon can exceed it.  analyze() has no
/// deadline: its reply time is a full analysis of an unbounded trace.
static constexpr int ControlReadTimeoutMs = 30000;

ServeClient::~ServeClient() { close(); }

void ServeClient::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

Expected<void> ServeClient::connect(const std::string &SocketPath) {
  close();
  struct sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return PipelineError(ErrorCode::ProtocolError,
                         "socket path too long: " + SocketPath);
  std::memcpy(Addr.sun_path, SocketPath.c_str(), SocketPath.size() + 1);

  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return PipelineError(ErrorCode::ProtocolError,
                         std::string("socket: ") + std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<struct sockaddr *>(&Addr),
                sizeof(Addr)) != 0) {
    std::string Msg = "connect " + SocketPath + ": " + std::strerror(errno);
    close();
    return PipelineError(ErrorCode::ProtocolError, std::move(Msg));
  }
  return Expected<void>();
}

Expected<Frame> ServeClient::roundTrip(FrameType Type,
                                       const std::vector<uint8_t> &Payload,
                                       int ReadTimeoutMs) {
  if (Fd < 0)
    return PipelineError(ErrorCode::ProtocolError, "client not connected");
  std::string SendErr;
  bool Sent = writeFrame(Fd, Type, Payload, SendErr);
  // A daemon that refuses the connection (queue full, shutting down)
  // writes its typed error and closes without reading the request, so
  // the send can fail; the error frame is still readable.
  std::string Err;
  Frame Response;
  int Rc = readFrame(Fd, Response, Limits, Err, Sent ? ReadTimeoutMs : 1);
  if (!Sent && (Rc != 1 || Response.Type != FrameType::ErrorResponse))
    return PipelineError(ErrorCode::ProtocolError, std::move(SendErr));
  if (Rc == 0)
    return PipelineError(ErrorCode::ProtocolError,
                         "daemon closed the connection");
  if (Rc < 0)
    return PipelineError(ErrorCode::ProtocolError, std::move(Err));
  if (Response.Type == FrameType::ErrorResponse) {
    ErrorCode Code = ErrorCode::ProtocolError;
    std::string Msg;
    if (!decodeError(Response.Payload.data(), Response.Payload.size(), Code,
                     Msg, Err))
      return PipelineError(ErrorCode::ProtocolError, std::move(Err));
    return PipelineError(Code, std::move(Msg));
  }
  return Response;
}

Expected<ResultSummary> ServeClient::analyze(const AnalyzeRequest &Req) {
  Expected<Frame> FrameOr =
      roundTrip(FrameType::AnalyzeRequest, encodeAnalyzeRequest(Req),
                /*ReadTimeoutMs=*/0);
  if (!FrameOr)
    return FrameOr.error();
  if (FrameOr->Type != FrameType::ResultResponse)
    return PipelineError(ErrorCode::ProtocolError,
                         "unexpected response type");
  ResultSummary Sum;
  std::string Err;
  if (!decodeResultSummary(FrameOr->Payload.data(), FrameOr->Payload.size(),
                           Sum, Err))
    return PipelineError(ErrorCode::ProtocolError, std::move(Err));
  return Sum;
}

static Expected<ServeStats> expectStats(Expected<Frame> FrameOr) {
  if (!FrameOr)
    return FrameOr.error();
  if (FrameOr->Type != FrameType::StatsResponse)
    return PipelineError(ErrorCode::ProtocolError,
                         "unexpected response type");
  ServeStats Stats;
  std::string Err;
  if (!decodeServeStats(FrameOr->Payload.data(), FrameOr->Payload.size(),
                        Stats, Err))
    return PipelineError(ErrorCode::ProtocolError, std::move(Err));
  return Stats;
}

Expected<ServeStats> ServeClient::stats() {
  return expectStats(
      roundTrip(FrameType::StatsRequest, {}, ControlReadTimeoutMs));
}

Expected<ServeStats> ServeClient::shutdown() {
  return expectStats(
      roundTrip(FrameType::ShutdownRequest, {}, ControlReadTimeoutMs));
}

bool ServeClient::sendRaw(const std::vector<uint8_t> &Bytes) {
  if (Fd < 0)
    return false;
  size_t Sent = 0;
  while (Sent < Bytes.size()) {
    ssize_t N = ::send(Fd, Bytes.data() + Sent, Bytes.size() - Sent,
                       MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  return true;
}

int ServeClient::readRaw(Frame &Out, std::string &Err, int IdleTimeoutMs) {
  if (Fd < 0) {
    Err = "client not connected";
    return -1;
  }
  return readFrame(Fd, Out, Limits, Err, IdleTimeoutMs);
}
