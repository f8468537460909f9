//===- perfbench/Serve.cpp - The serve workload ---------------------------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
//
// Spawns vdga-serve in pipe mode on the first ~1k-line scale pin (the
// same program for every seed, so the latency tail does not move with
// it) and drives it in a closed loop with one client: the next request is
// written only after the previous reply's newline arrived. Each session
// is a cold start (spawn, first query, which triggers the solve) followed
// by a seeded stream of mayAlias / pointsTo / modref queries whose
// operands come from the summary's own universe, as the query loadgen
// draws them. Every reply must equal, ignoring id, latency_us and cached,
// the rendering of a CacheMode::Bypass answer from an in-process
// QuerySession.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Tier.h"

#include "driver/Pipeline.h"
#include "query/AliasSummary.h"
#include "query/Protocol.h"
#include "query/QuerySession.h"
#include "query/Server.h"

#include <csignal>
#include <cstdio>
#include <fstream>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace perfbench;
using namespace vdga;

namespace {

/// Queries per session after the first, solve-triggering one. Small
/// enough that a run holds a few dozen cold starts.
constexpr size_t QueriesPerSession = 50'000;

/// SplitMix64, the generator the query loadgen draws operands with.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

enum class Op { MayAlias, PointsTo, ModRef };

struct Request {
  Op Kind;
  std::string A, B;
  std::string Line; ///< Wire text without the newline.
};

/// The loadgen's mix: half mayAlias, 30% pointsTo, 20% modref split
/// between function names and call sites.
std::vector<Request> makeStream(const AliasSummary &S, uint64_t Seed,
                                size_t N) {
  Rng Rand(Seed * 0x9E3779B9ULL + 1);
  size_t NumVars = S.Variables.size(), NumFns = S.Functions.size(),
         NumSites = S.Callsites.size();
  std::vector<Request> Stream;
  Stream.reserve(N);
  while (Stream.size() < N) {
    uint64_t Roll = Rand.below(100);
    Request Q;
    if (Roll < 50) {
      Q.Kind = Op::MayAlias;
      Q.A = S.Variables[Rand.below(NumVars)].Name;
      Q.B = S.Variables[Rand.below(NumVars)].Name;
    } else if (Roll < 80 || (Roll >= 90 && NumSites == 0)) {
      Q.Kind = Op::PointsTo;
      Q.A = S.Variables[Rand.below(NumVars)].Name;
    } else if (Roll < 90) {
      Q.Kind = Op::ModRef;
      Q.A = S.Functions[Rand.below(NumFns)].Name;
    } else {
      Q.Kind = Op::ModRef;
      Q.A = S.Callsites[Rand.below(NumSites)].Site;
    }
    JsonObject O;
    O.field("id", static_cast<int64_t>(Stream.size()));
    switch (Q.Kind) {
    case Op::MayAlias:
      O.field("op", "mayAlias").field("a", Q.A).field("b", Q.B);
      break;
    case Op::PointsTo:
      O.field("op", "pointsTo").field("var", Q.A);
      break;
    case Op::ModRef:
      O.field("op", "modref").field("target", Q.A);
      break;
    }
    Q.Line = O.str();
    Stream.push_back(std::move(Q));
  }
  return Stream;
}

QueryAnswer ask(QuerySession &S, const Request &Q, CacheMode Mode) {
  switch (Q.Kind) {
  case Op::MayAlias:
    return S.mayAlias(Q.A, Q.B, Mode);
  case Op::PointsTo:
    return S.pointsTo(Q.A, Mode);
  case Op::ModRef:
    break;
  }
  return S.modref(Q.A, Mode);
}

/// The server's response for \p A without the id, cached and latency_us
/// fields (docs/QUERY_PROTOCOL.md gives the field order).
std::string expectedReply(const Request &Q, const QueryAnswer &A) {
  const char *OpName = Q.Kind == Op::MayAlias   ? "mayAlias"
                       : Q.Kind == Op::PointsTo ? "pointsTo"
                                                : "modref";
  JsonObject O;
  if (!A.Ok) {
    O.field("ok", false).field("op", OpName);
    O.field("error", A.Error).field("detail", A.Detail);
    return O.str();
  }
  O.field("ok", true).field("op", OpName);
  if (Q.Kind == Op::MayAlias)
    O.field("verdict", A.Verdict);
  else if (Q.Kind == Op::PointsTo)
    O.list("locations", A.Locations);
  else
    O.field("top", A.TopModRef).list("mod", A.Mod).list("ref", A.Ref);
  O.field("tier", precisionTierName(A.Tier)).field("degraded", A.Degraded);
  return O.str();
}

/// Drops one `"Key":<bare token>` member (number or boolean) from a flat
/// JSON object, with its separating comma.
void dropMember(std::string &Json, std::string_view Key) {
  std::string Needle = "\"" + std::string(Key) + "\":";
  size_t At = Json.find(Needle);
  if (At == std::string::npos)
    return;
  size_t End = At + Needle.size();
  while (End < Json.size() && Json[End] != ',' && Json[End] != '}')
    ++End;
  if (End < Json.size() && Json[End] == ',')
    ++End; // "key":v, -> remove through the comma.
  else if (At > 0 && Json[At - 1] == ',')
    --At; // ,"key":v} -> remove the leading comma.
  Json.erase(At, End - At);
}

std::string normalizeReply(std::string Reply) {
  for (const char *Key : {"id", "cached", "latency_us"})
    dropMember(Reply, Key);
  return Reply;
}

/// One vdga-serve child in pipe mode. The destructor kills and reaps a
/// server that is still running, so no exit path leaves one behind.
class ServerProcess {
public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess &) = delete;
  ServerProcess &operator=(const ServerProcess &) = delete;
  ~ServerProcess() {
    closeFds();
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      int Status = 0;
      ::waitpid(Pid, &Status, 0);
    }
  }

  bool start(const std::string &Bin, const std::string &File) {
    int In[2], Out[2];
    if (::pipe2(In, O_CLOEXEC) != 0)
      return false;
    if (::pipe2(Out, O_CLOEXEC) != 0) {
      ::close(In[0]);
      ::close(In[1]);
      return false;
    }
    Pid = ::fork();
    if (Pid == 0) {
      ::dup2(In[0], 0);
      ::dup2(Out[1], 1);
      ::execl(Bin.c_str(), Bin.c_str(), File.c_str(),
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
    ::close(In[0]);
    ::close(Out[1]);
    ToServer = In[1];
    FromServer = Out[0];
    return Pid > 0;
  }

  /// Writes \p Line plus a newline and reads one reply line.
  bool roundTrip(const std::string &Line, std::string &Reply) {
    std::string Msg = Line + '\n';
    for (size_t Off = 0; Off < Msg.size();) {
      ssize_t W = ::write(ToServer, Msg.data() + Off, Msg.size() - Off);
      if (W <= 0)
        return false;
      Off += static_cast<size_t>(W);
    }
    size_t Nl;
    while ((Nl = Buf.find('\n')) == std::string::npos) {
      char Chunk[65536];
      ssize_t N = ::read(FromServer, Chunk, sizeof(Chunk));
      if (N <= 0)
        return false;
      Buf.append(Chunk, static_cast<size_t>(N));
    }
    Reply.assign(Buf, 0, Nl);
    Buf.erase(0, Nl + 1);
    return true;
  }

  /// Ends the session with EOF and reaps the server. True when it exited
  /// 0; \p PeakRssMb receives its peak resident set size.
  bool finish(double &PeakRssMb) {
    closeFds();
    int Status = 0;
    rusage Usage{};
    pid_t Got = ::wait4(Pid, &Status, 0, &Usage);
    Pid = -1;
    PeakRssMb = static_cast<double>(Usage.ru_maxrss) / 1024.0;
    return Got > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
  }

private:
  void closeFds() {
    if (ToServer >= 0)
      ::close(ToServer);
    if (FromServer >= 0)
      ::close(FromServer);
    ToServer = FromServer = -1;
  }

  pid_t Pid = -1;
  int ToServer = -1;
  int FromServer = -1;
  std::string Buf;
};

struct Session {
  bool Ok = false;
  int64_t FirstAnswerNs = 0;
  int64_t QueryLoopNs = 0;
  int64_t TotalNs = 0;
  double PeakRssMb = 0;
};

/// One cold-start session over the whole stream; replies land in
/// \p Replies and per-query round trips (all but the first) in \p LatNs.
Session runSession(const Config &C, const std::string &File,
                   const std::vector<Request> &Stream,
                   std::vector<std::string> &Replies,
                   std::vector<double> &LatNs, SpanRecorder &Rec,
                   uint32_t Round) {
  using Scope = SpanRecorder::Scope;
  Session S;
  Replies.assign(Stream.size(), std::string());
  int64_t Start = nowNs();
  Scope Job(Rec, "job", Round);
  ServerProcess P;
  {
    Scope Sc(Rec, "serve.cold_start", Round);
    if (!P.start(C.ServeBin, File) || !P.roundTrip(Stream[0].Line, Replies[0]))
      return S;
  }
  S.FirstAnswerNs = nowNs() - Start;
  {
    Scope Sc(Rec, "serve.queries", Round);
    int64_t LoopStart = nowNs();
    for (size_t I = 1; I < Stream.size(); ++I) {
      int64_t T0 = nowNs();
      if (!P.roundTrip(Stream[I].Line, Replies[I]))
        return S;
      LatNs.push_back(static_cast<double>(nowNs() - T0));
    }
    S.QueryLoopNs = nowNs() - LoopStart;
  }
  Scope Sc(Rec, "serve.shutdown", Round);
  S.Ok = P.finish(S.PeakRssMb);
  S.TotalNs = nowNs() - Start;
  return S;
}

} // namespace

bool perfbench::runServeWorkload(const Config &C, BenchResult &R) {
  // Set-up: regenerate and check the pinned program, build the in-process
  // summary the stream draws operands from, and spawn a server once up to
  // its `hello` reply. Repeated for a median.
  const std::string File = C.WorkDir + "/serve-input.c";
  std::string Source;
  std::unique_ptr<AnalyzedProgram> AP;
  AliasSummary Summary;
  std::vector<Request> Stream;
  std::vector<double> SetupS;
  for (int I = 0; I < 3; ++I) {
    int64_t Start = nowNs();
    std::string Error;
    if (!loadScaleProgram(0, ScalePoints[0].Pins[0], Source, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return false;
    }
    {
      std::ofstream Out(File, std::ios::binary | std::ios::trunc);
      Out << Source;
      if (!Out) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", File.c_str());
        return false;
      }
    }
    AP = AnalyzedProgram::create(Source, &Error);
    if (!AP) {
      std::fprintf(stderr, "perfbench: frontend failed: %s\n", Error.c_str());
      return false;
    }
    Summary = buildAliasSummary(*AP, Source);
    if (Summary.Variables.empty() || Summary.Functions.empty() ||
        Summary.Degraded) {
      std::fprintf(stderr, "perfbench: serve summary is degraded or empty\n");
      return false;
    }
    Stream = makeStream(Summary, C.Seed, QueriesPerSession + 1);
    ServerProcess P;
    std::string Hello;
    double Rss = 0;
    if (!P.start(C.ServeBin, File) ||
        !P.roundTrip("{\"op\":\"hello\"}", Hello) || !P.finish(Rss)) {
      std::fprintf(stderr, "perfbench: cannot start %s\n",
                   C.ServeBin.c_str());
      return false;
    }
    SetupS.push_back(static_cast<double>(nowNs() - Start) / 1e9);
  }

  MetricsRegistry BypassMetrics;
  QuerySession Bypass(Summary, BypassMetrics);
  std::vector<std::string> Expected;
  SpanRecorder Rec;
  CheckLog Log;
  std::vector<std::string> Replies;
  std::vector<double> LatNs, SessionMs, TracedSessionMs, FirstAnswerMs, Rss;
  int64_t LoopNs = 0;
  uint64_t LoopQueries = 0;
  const unsigned MinSessions = C.Trace ? 4 : 3;
  const int64_t Deadline = nowNs() + static_cast<int64_t>(C.Seconds * 1e9);
  int64_t LastSessionNs = 0;
  for (uint32_t Round = 0;
       Round < MinSessions || nowNs() + LastSessionNs < Deadline; ++Round) {
    bool Traced = C.Trace && Round % 2 == 0;
    Rec.Enabled = Traced;
    int64_t SessionStart = nowNs();
    Session S = runSession(C, File, Stream, Replies, LatNs, Rec, Round);
    Rec.Enabled = false;
    R.Attempted += Stream.size();
    if (!S.Ok) {
      R.Failed += Stream.size();
      Log.fail("session " + std::to_string(Round) + " failed");
      continue;
    }
    (Traced ? TracedSessionMs : SessionMs).push_back(nsToMs(S.TotalNs));
    FirstAnswerMs.push_back(nsToMs(S.FirstAnswerNs));
    Rss.push_back(S.PeakRssMb);
    LoopNs += S.QueryLoopNs;
    LoopQueries += Stream.size() - 1;

    // Output checks (untimed); the expected replies are rendered once.
    if (Expected.empty())
      for (const Request &Q : Stream)
        Expected.push_back(
            expectedReply(Q, ask(Bypass, Q, CacheMode::Bypass)));
    for (size_t I = 0; I < Stream.size(); ++I)
      if (normalizeReply(Replies[I]) != Expected[I]) {
        ++R.Failed;
        Log.fail("reply to " + Stream[I].Line + " was " + Replies[I] +
                 ", expected " + Expected[I]);
      }
    LastSessionNs = nowNs() - SessionStart;
  }
  auto ReportChecks = [&Log] {
    for (const std::string &F : Log.Samples)
      std::fprintf(stderr, "perfbench: check failed: %s\n", F.c_str());
  };
  std::fprintf(stderr,
               "perfbench: serve: %zu queries/session, %zu untraced + %zu "
               "traced sessions\n",
               Stream.size(), SessionMs.size(), TracedSessionMs.size());

  auto &V = R.Values;
  V["setup_s"] = median(SetupS);
  V["analyze_ms_p50"] = median(SessionMs);
  V["analyze_ms_p90"] = quantile(SessionMs, 0.9);
  V["peak_rss_mb"] = median(Rss);
  V["first_answer_ms"] = median(FirstAnswerMs);
  V["first_answer_ms_p90"] = quantile(FirstAnswerMs, 0.9);
  V["query_ns_p50"] = median(LatNs);
  V["query_ns_p99"] = quantile(LatNs, 0.99);
  V["queries_per_s"] = LoopNs > 0 ? static_cast<double>(LoopQueries) /
                                        (static_cast<double>(LoopNs) / 1e9)
                                  : 0;
  if (!C.Trace) {
    ReportChecks();
    return true;
  }

  // --- Per-layer numbers. -------------------------------------------------
  double N = static_cast<double>(TracedSessionMs.size());
  std::map<std::string, double> Self = Rec.selfMillisByName();
  double ServeMs = Self["serve.cold_start"] + Self["serve.queries"] +
                   Self["serve.shutdown"];
  double TracedTotal = 0;
  for (double Ms : TracedSessionMs)
    TracedTotal += Ms;
  V["serve.ms"] = ServeMs / N;
  V["trace.round_ms"] = TracedTotal / N;
  V["trace.layers_ms"] = ServeMs / N;
  V["trace.untraced_ms"] = (TracedTotal - ServeMs) / N;
  V["trace.overhead_ms"] = median(TracedSessionMs) - median(SessionMs);

  // Replay the same stream in process: through a QuerySession on a fresh
  // summary (session cost) and through QueryServer::handleLine (adds wire
  // parse and render). The first query of each is the cold one, as over
  // the pipe, and is left out of the latency samples.
  using Scope = SpanRecorder::Scope;
  Rec.Enabled = true;
  const uint32_t Replay = SpanRecorder::NoRound;
  std::string Error;
  std::unique_ptr<AnalyzedProgram> ReplayAP;
  {
    Scope Sc(Rec, "frontend.create", Replay);
    ReplayAP = AnalyzedProgram::create(Source, &Error);
  }
  if (!ReplayAP) {
    std::fprintf(stderr, "perfbench: replay frontend failed: %s\n",
                 Error.c_str());
    return false;
  }
  AliasSummary ReplaySummary;
  int64_t SummaryStart = nowNs();
  {
    Scope Sc(Rec, "query.summary", Replay);
    ReplaySummary = buildAliasSummary(*ReplayAP, Source);
  }
  V["query.summary_ms"] = nsToMs(nowNs() - SummaryStart);
  MetricsRegistry SessionMetrics;
  std::vector<double> SessionNs, HandleNs;
  {
    Scope Sc(Rec, "query.session", Replay);
    QuerySession Sess(ReplaySummary, SessionMetrics);
    ask(Sess, Stream[0], CacheMode::Use);
    for (size_t I = 1; I < Stream.size(); ++I) {
      int64_t T0 = nowNs();
      QueryAnswer A = ask(Sess, Stream[I], CacheMode::Use);
      SessionNs.push_back(static_cast<double>(nowNs() - T0));
      ++R.Attempted;
      if (I < Expected.size() && expectedReply(Stream[I], A) != Expected[I]) {
        ++R.Failed;
        Log.fail("in-process answer to " + Stream[I].Line + " differs");
      }
    }
  }
  {
    Scope Sc(Rec, "query.handle", Replay);
    auto Server = QueryServer::create(Source, {}, &Error);
    if (!Server) {
      std::fprintf(stderr, "perfbench: replay server failed: %s\n",
                   Error.c_str());
      return false;
    }
    bool Shutdown = false;
    Server->handleLine(Stream[0].Line, Shutdown);
    for (size_t I = 1; I < Stream.size(); ++I) {
      int64_t T0 = nowNs();
      std::string Reply = Server->handleLine(Stream[I].Line, Shutdown);
      HandleNs.push_back(static_cast<double>(nowNs() - T0));
      ++R.Attempted;
      if (I < Expected.size() && normalizeReply(Reply) != Expected[I]) {
        ++R.Failed;
        Log.fail("in-process reply to " + Stream[I].Line + " was " + Reply);
      }
    }
  }
  Rec.Enabled = false;
  auto Count = [&](const char *Name) -> double {
    const Metric *M = SessionMetrics.find(Name);
    return M ? static_cast<double>(M->Count) : 0;
  };
  double Hits = Count("query.alias_hits") + Count("query.pointee_hits") +
                Count("query.modref_hits");
  double Misses = Count("query.alias_misses") + Count("query.pointee_misses") +
                  Count("query.modref_misses");
  double SessionP50 = median(SessionNs), HandleP50 = median(HandleNs);
  V["query.session_ns_p50"] = SessionP50;
  V["query.handle_ns_p50"] = HandleP50;
  V["query.wire_ns_p50"] = HandleP50 - SessionP50;
  V["query.pipe_ns_p50"] = median(LatNs) - HandleP50;
  V["query.hit_rate"] = Hits + Misses > 0 ? Hits / (Hits + Misses) : 0;
  ReportChecks();
  if (!Rec.writeJsonl(C.WorkDir + "/spans-serve.jsonl"))
    std::fprintf(stderr, "perfbench: cannot write the span dump\n");
  return true;
}
