//===- perfbench/Analyze.cpp - corpus, scale and clients workloads --------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
//
// The three in-process workloads. A round runs every program of the
// workload once, serially, through the workload's stages; each stage is
// one public library call with library defaults. Output checks run after
// a program's timed segment, so they never count as analysis time.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Tier.h"

#include "clients/DefUse.h"
#include "clients/ModRef.h"
#include "checker/Oracle.h"
#include "contextsens/Spurious.h"
#include "corpus/Corpus.h"
#include "driver/Pipeline.h"
#include "fuzz/Generator.h"
#include "lint/Lint.h"
#include "pointsto/Statistics.h"

#include <algorithm>
#include <cstdio>
#include <optional>

using namespace perfbench;
using namespace vdga;

namespace {

/// Caps each corpus program's interpreter run. Uncapped, backprop alone
/// executes ~13M steps, over half the round; the oracle checks the
/// truncated run's trace prefix, which stays a valid obligation.
constexpr uint64_t InterpStepCap = 1'000'000;

struct Stages {
  bool CS = false;
  bool DefUse = false;
  bool Lint = false;
  bool Interp = false;
};

struct Job {
  std::string Name;
  std::string Source;
  uint64_t CIPairs = 0;
  uint64_t CSPairs = 0;
  uint64_t DefUseEdges = 0;
};

struct JobTiming {
  int64_t TotalNs = 0;
  /// From the job's start to its first answer, the complete CI points-to
  /// solution. A round's first-answer time sums these over its programs:
  /// the frontend and CI work every program's client waits for, measured
  /// over an interval long enough to repeat from run to run.
  int64_t FirstAnswerNs = 0;
  bool Ok = true;
};

/// Work counters summed over the traced rounds.
using Counters = std::map<std::string, double>;

JobTiming runJob(const Job &J, const Stages &S, SpanRecorder &Rec,
                 uint32_t Round, Counters *K, CheckLog &Log) {
  using Scope = SpanRecorder::Scope;
  JobTiming T;
  int64_t Start = nowNs();
  int32_t JobSpan = Rec.begin("job", Round);

  std::string Error;
  std::unique_ptr<AnalyzedProgram> AP;
  {
    Scope Sc(Rec, "frontend.create", Round);
    AP = AnalyzedProgram::create(J.Source, &Error);
  }
  if (!AP) {
    Rec.end(JobSpan);
    T.TotalNs = nowNs() - Start;
    T.Ok = false;
    Log.fail(J.Name + ": frontend failed: " + Error);
    return T;
  }
  std::optional<PointsToResult> CI;
  {
    Scope Sc(Rec, "pointsto.ci", Round);
    CI.emplace(AP->runContextInsensitive());
  }
  T.FirstAnswerNs = nowNs() - Start;
  std::optional<ContextSensResult> CS;
  std::optional<PointsToResult> Stripped;
  if (S.CS) {
    {
      Scope Sc(Rec, "contextsens.cs", Round);
      CS.emplace(AP->runContextSensitive(*CI));
    }
    Scope Sc(Rec, "contextsens.strip", Round);
    Stripped.emplace(CS->stripAssumptions());
  }
  std::optional<DefUseInfo> DU;
  if (S.DefUse) {
    Scope Sc(Rec, "clients.defuse", Round);
    DU.emplace(computeDefUse(AP->G, *CI, AP->PT, AP->Paths));
  }
  {
    Scope Sc(Rec, "clients.modref", Round);
    ModRefInfo MR = computeModRef(AP->G, *CI, AP->PT, AP->Paths);
  }
  std::optional<LintReport> LR;
  if (S.Lint) {
    Scope Sc(Rec, "lint.run", Round);
    LintOptions LO;
    LO.Tier = LintTier::ContextInsens;
    LR.emplace(runLint(*AP, LO));
  }
  std::optional<RunResult> RR;
  std::optional<OracleResult> OR;
  if (S.Interp) {
    {
      Scope Sc(Rec, "interp.run", Round);
      RR.emplace(AP->interpret("", InterpStepCap));
    }
    if (RR->Ok) {
      Scope Sc(Rec, "checker.oracle", Round);
      OracleAnalyses A;
      A.CI = &*CI;
      A.CS = Stripped ? &*Stripped : nullptr;
      OR.emplace(runSoundnessOracle(AP->G, AP->Paths, AP->PT,
                                    AP->program().Names, RR->Trace, A));
    }
  }
  Rec.end(JobSpan);
  T.TotalNs = nowNs() - Start;

  // --- Output checks (untimed). ------------------------------------------
  auto Fail = [&](const std::string &What) {
    T.Ok = false;
    Log.fail(J.Name + ": " + What);
  };
  auto Mismatch = [&](const char *What, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Fail(std::string(What) + " " + std::to_string(Got) + " != pinned " +
           std::to_string(Want));
  };
  if (!CI->complete())
    Fail("CI solve incomplete");
  else
    Mismatch("CI pair instances", CI->totalPairInstances(), J.CIPairs);
  if (CS) {
    if (!CS->complete()) {
      Fail("CS solve incomplete");
    } else {
      Mismatch("CS pair instances", Stripped->totalPairInstances(), J.CSPairs);
      Mismatch("indirect ops where CS wins",
               countIndirectOpsWhereCSWins(AP->G, *CI, *Stripped, AP->PT), 0);
      Mismatch("containment violations",
               computeSpuriousStats(AP->G, *CI, *Stripped, AP->PT, AP->Paths,
                                    AP->locations())
                   .ContainmentViolations,
               0);
    }
  }
  if (DU)
    Mismatch("DefUse edges", DU->totalEdges(), J.DefUseEdges);
  if (LR) {
    if (LR->Degraded)
      Fail("lint degraded");
    Mismatch("lint errors", LR->errorCount(), 0);
  }
  if (RR && !RR->Ok)
    Fail("interpreter failed: " + RR->Error);
  if (OR && !OR->ok())
    Fail("oracle: " + std::to_string(OR->Findings.size()) +
         " findings, first: " + OR->Findings.front().Message);

  if (K) {
    Counters &C = *K;
    C["frontend.nodes"] += static_cast<double>(AP->G.numNodes());
    C["pointsto.transfer_fns"] += static_cast<double>(CI->Stats.TransferFns);
    C["pointsto.meet_ops"] += static_cast<double>(CI->Stats.MeetOps);
    C["pointsto.pairs_inserted"] +=
        static_cast<double>(CI->Stats.PairsInserted);
    C["pointsto.pair_instances"] +=
        static_cast<double>(CI->totalPairInstances());
    PairTotals Totals = computePairTotals(AP->G, *CI);
    C["pointsto.store_pairs"] += static_cast<double>(Totals.Store);
    C["pointsto.alias_pairs"] += static_cast<double>(Totals.total());
    if (const Metric *M = AP->Metrics.find("ci.solver.strategy"))
      C["pointsto.strategy"] = static_cast<double>(M->Count);
    if (CS) {
      C["contextsens.transfer_fns"] +=
          static_cast<double>(CS->Stats.TransferFns);
      C["contextsens.meet_ops"] += static_cast<double>(CS->Stats.MeetOps);
      C["contextsens.pairs_inserted"] +=
          static_cast<double>(CS->Stats.PairsInserted);
      if (const Metric *M = AP->Metrics.find("cs.subsumption_discards"))
        C["contextsens.subsumption_discards"] +=
            static_cast<double>(M->Count);
    }
    if (DU)
      C["clients.defuse_edges"] += static_cast<double>(DU->totalEdges());
    if (LR) {
      C["lint.findings"] += static_cast<double>(LR->Findings.size());
      for (const auto &[Phase, Ms] : LR->PassMillis) {
        std::string Name = "lint." + Phase + "_ms";
        std::replace(Name.begin(), Name.end(), '-', '_');
        C[Name] += Ms;
      }
    }
    if (RR)
      C["interp.steps"] += static_cast<double>(RR->StepsExecuted);
    if (OR)
      C["checker.oracle_checks"] += static_cast<double>(OR->Checks);
  }
  return T;
}

bool buildJobs(const Config &C, std::vector<Job> &Jobs) {
  Jobs.clear();
  if (C.Workload == "corpus") {
    for (const CorpusProgram &P : corpus()) {
      auto Pin = std::find_if(
          std::begin(CorpusPins), std::end(CorpusPins),
          [&](const CorpusPin &Q) { return std::string_view(Q.Name) == P.Name; });
      if (Pin == std::end(CorpusPins)) {
        std::fprintf(stderr, "perfbench: no pin for corpus program %s\n",
                     P.Name);
        return false;
      }
      std::string Error;
      if (!AnalyzedProgram::create(P.Source, &Error)) {
        std::fprintf(stderr, "perfbench: corpus program %s fails: %s\n",
                     P.Name, Error.c_str());
        return false;
      }
      Jobs.push_back({P.Name, P.Source, Pin->CIPairs, Pin->CSPairs,
                      Pin->DefUseEdges});
    }
    return true;
  }
  // scale: all three size points; clients: the two smaller ones.
  unsigned Points = C.Workload == "scale" ? 3 : 2;
  for (unsigned Point = 0; Point < Points; ++Point) {
    Job J;
    std::string Error;
    const ScalePin &Pin = pinFor(Point, C.Seed);
    if (!loadScaleProgram(Point, Pin, J.Source, Error)) {
      std::fprintf(stderr, "perfbench: %s\n", Error.c_str());
      return false;
    }
    J.Name = std::string(ScalePoints[Point].Name) + "/seed" +
             std::to_string(Pin.GenSeed);
    J.CIPairs = Pin.CIPairs;
    J.DefUseEdges = Pin.DefUseEdges;
    Jobs.push_back(std::move(J));
  }
  return true;
}

} // namespace

std::string perfbench::generateScaleSource(const ScalePoint &P,
                                           const ScalePin &Pin) {
  FuzzOptions O;
  O.Seed = Pin.GenSeed;
  O.MaxFunctions = P.Functions;
  O.MaxStmtsPerBlock = P.StmtsPerBlock;
  O.MaxBlockDepth = P.BlockDepth;
  return generateProgram(O).render();
}

unsigned perfbench::countLines(std::string_view Source) {
  return static_cast<unsigned>(std::count(Source.begin(), Source.end(), '\n'));
}

bool perfbench::loadScaleProgram(unsigned Point, const ScalePin &Pin,
                                 std::string &Source, std::string &Error) {
  const ScalePoint &P = ScalePoints[Point];
  Source = generateScaleSource(P, Pin);
  std::string What = std::string(P.Name) + " generator seed " +
                     std::to_string(Pin.GenSeed) + ": ";
  if (unsigned Lines = countLines(Source); Lines != Pin.Lines) {
    Error = What + std::to_string(Lines) + " lines, pinned " +
            std::to_string(Pin.Lines) + " (generator drift)";
    return false;
  }
  std::string FrontError;
  auto AP = AnalyzedProgram::create(Source, &FrontError);
  if (!AP) {
    Error = What + "frontend failed: " + FrontError;
    return false;
  }
  if (AP->G.numNodes() != Pin.Nodes) {
    Error = What + std::to_string(AP->G.numNodes()) + " VDG nodes, pinned " +
            std::to_string(Pin.Nodes) + " (generator or VDG construction drift)";
    return false;
  }
  return true;
}

bool perfbench::runAnalyzeWorkload(const Config &C, BenchResult &R) {
  Stages S;
  if (C.Workload == "corpus") {
    S.CS = S.DefUse = S.Lint = S.Interp = true;
  } else if (C.Workload == "clients") {
    S.DefUse = S.Lint = true;
  }

  // Set-up: load or regenerate the inputs and check their pins, several
  // times so the reported set-up time is a median.
  std::vector<Job> Jobs;
  std::vector<double> SetupS;
  for (int I = 0; I < 3; ++I) {
    int64_t Start = nowNs();
    if (!buildJobs(C, Jobs))
      return false;
    SetupS.push_back(static_cast<double>(nowNs() - Start) / 1e9);
  }
  for (const Job &J : Jobs)
    if (S.DefUse && J.DefUseEdges == 0) {
      std::fprintf(stderr, "perfbench: %s has no pinned DefUse edge count\n",
                   J.Name.c_str());
      return false;
    }

  SpanRecorder Rec;
  CheckLog Log;
  Counters K;
  std::vector<double> RoundMs, TracedRoundMs, FirstAnswerMs, JobNs;
  int64_t TimedNs = 0;
  uint64_t TimedJobs = 0;
  // In a traced run, even rounds are traced and odd rounds are not, so
  // the run measures its own tracing overhead. No round starts that the
  // previous one's duration says would end past the deadline.
  const unsigned MinRounds = C.Trace ? 4 : 3;
  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(C.Seconds * 1e9);
  int64_t LastRoundNs = 0;
  for (uint32_t Round = 0;
       Round < MinRounds || nowNs() + LastRoundNs < Deadline; ++Round) {
    bool Traced = C.Trace && Round % 2 == 0;
    Rec.Enabled = Traced;
    int64_t RoundStart = nowNs();
    int64_t RoundNs = 0, FirstAnswerNs = 0;
    for (const Job &J : Jobs) {
      JobTiming T = runJob(J, S, Rec, Round, Traced ? &K : nullptr, Log);
      RoundNs += T.TotalNs;
      FirstAnswerNs += T.FirstAnswerNs;
      JobNs.push_back(static_cast<double>(T.TotalNs));
      ++R.Attempted;
      if (!T.Ok)
        ++R.Failed;
    }
    (Traced ? TracedRoundMs : RoundMs).push_back(nsToMs(RoundNs));
    FirstAnswerMs.push_back(nsToMs(FirstAnswerNs));
    TimedNs += RoundNs;
    TimedJobs += Jobs.size();
    LastRoundNs = nowNs() - RoundStart;
  }
  Rec.Enabled = false;
  for (const std::string &F : Log.Samples)
    std::fprintf(stderr, "perfbench: check failed: %s\n", F.c_str());

  auto &V = R.Values;
  V["setup_s"] = median(SetupS);
  V["analyze_ms_p50"] = median(RoundMs);
  V["analyze_ms_p90"] = quantile(RoundMs, 0.9);
  V["peak_rss_mb"] = selfPeakRssMb();
  V["first_answer_ms"] = median(FirstAnswerMs);
  V["first_answer_ms_p90"] = quantile(FirstAnswerMs, 0.9);
  V["query_ns_p50"] = median(JobNs);
  V["query_ns_p99"] = quantile(JobNs, 0.99);
  V["queries_per_s"] =
      static_cast<double>(TimedJobs) / (static_cast<double>(TimedNs) / 1e9);
  std::fprintf(stderr,
               "perfbench: %s: %zu programs/round, %zu untraced + %zu traced "
               "rounds, untraced round ms min %.1f p10 %.1f p25 %.1f median "
               "%.1f max %.1f\n",
               C.Workload.c_str(), Jobs.size(), RoundMs.size(),
               TracedRoundMs.size(), quantile(RoundMs, 0),
               quantile(RoundMs, 0.1), quantile(RoundMs, 0.25), median(RoundMs),
               quantile(RoundMs, 1));
  if (!C.Trace)
    return true;

  // --- Per-layer numbers from the traced rounds. -------------------------
  double N = static_cast<double>(TracedRoundMs.size());
  std::map<std::string, double> Self = Rec.selfMillisByName();
  auto PerRound = [&](const char *Name) { return Self[Name] / N; };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  V["frontend.ms"] = PerRound("frontend.create");
  V["frontend.nodes_per_ms"] =
      Ratio(K["frontend.nodes"], Self["frontend.create"]);
  V["pointsto.ms"] = PerRound("pointsto.ci");
  for (const char *Name :
       {"pointsto.transfer_fns", "pointsto.meet_ops", "pointsto.pairs_inserted",
        "pointsto.pair_instances", "contextsens.transfer_fns",
        "contextsens.meet_ops", "contextsens.pairs_inserted",
        "contextsens.subsumption_discards", "clients.defuse_edges",
        "lint.findings", "interp.steps", "checker.oracle_checks"})
    V[Name] = K[Name] / N;
  V["pointsto.strategy"] = K["pointsto.strategy"];
  V["pointsto.store_pair_share"] =
      Ratio(K["pointsto.store_pairs"], K["pointsto.alias_pairs"]);
  V["pointsto.insert_ratio"] =
      Ratio(K["pointsto.pairs_inserted"], K["pointsto.meet_ops"]);
  V["contextsens.ms"] =
      PerRound("contextsens.cs") + PerRound("contextsens.strip");
  V["clients.defuse_ms"] = PerRound("clients.defuse");
  V["clients.modref_ms"] = PerRound("clients.modref");
  V["lint.ms"] = PerRound("lint.run");
  for (const auto &[Name, Ms] : K)
    if (Name.rfind("lint.", 0) == 0 && Name.size() > 3 &&
        Name.compare(Name.size() - 3, 3, "_ms") == 0)
      V[Name] = Ms / N;
  V["interp.ms"] = PerRound("interp.run");
  V["interp.steps_per_ms"] = Ratio(K["interp.steps"], Self["interp.run"]);
  V["checker.oracle_ms"] = PerRound("checker.oracle");

  double LayersMs = 0;
  for (const auto &[Name, Ms] : Self)
    if (std::string_view(Name) != "job")
      LayersMs += Ms;
  double TracedTotal = 0;
  for (double Ms : TracedRoundMs)
    TracedTotal += Ms;
  V["trace.round_ms"] = TracedTotal / N;
  V["trace.layers_ms"] = LayersMs / N;
  V["trace.untraced_ms"] = (TracedTotal - LayersMs) / N;
  V["trace.overhead_ms"] = median(TracedRoundMs) - median(RoundMs);
  if (!Rec.writeJsonl(C.WorkDir + "/spans-" + C.Workload + ".jsonl"))
    std::fprintf(stderr, "perfbench: cannot write the span dump\n");
  return true;
}

//===----------------------------------------------------------------------===//
// Survey: candidate pin rows for Tier.h
//===----------------------------------------------------------------------===//

int perfbench::runSurvey(int Argc, char **Argv) {
  if (Argc == 3 && std::string_view(Argv[2]) == "corpus") {
    for (const CorpusProgram &P : corpus()) {
      std::string Error;
      auto AP = AnalyzedProgram::create(P.Source, &Error);
      if (!AP) {
        std::printf("// %s: frontend failed\n", P.Name);
        continue;
      }
      PointsToResult CI = AP->runContextInsensitive();
      PointsToResult CS = AP->runContextSensitive(CI).stripAssumptions();
      std::printf("    {\"%s\", %llu, %llu, %llu},\n", P.Name,
                  static_cast<unsigned long long>(CI.totalPairInstances()),
                  static_cast<unsigned long long>(CS.totalPairInstances()),
                  static_cast<unsigned long long>(
                      computeDefUse(AP->G, CI, AP->PT, AP->Paths)
                          .totalEdges()));
    }
    return 0;
  }
  if (Argc < 7) {
    std::fprintf(stderr, "usage: perfbench --survey <functions> <stmts> "
                         "<depth> <first-seed> <count> [--clients]\n");
    return 2;
  }
  ScalePoint P{"survey",
               static_cast<unsigned>(std::strtoul(Argv[2], nullptr, 10)),
               static_cast<unsigned>(std::strtoul(Argv[3], nullptr, 10)),
               static_cast<unsigned>(std::strtoul(Argv[4], nullptr, 10)),
               {}};
  uint64_t First = std::strtoull(Argv[5], nullptr, 10);
  uint64_t Count = std::strtoull(Argv[6], nullptr, 10);
  // --clients pins DefUse edges and times the clients pipeline; without
  // it, the scale pipeline is timed.
  Stages S;
  S.DefUse = S.Lint = Argc > 7 && std::string_view(Argv[7]) == "--clients";
  for (uint64_t Seed = First; Seed < First + Count; ++Seed) {
    Job J;
    J.Name = "seed" + std::to_string(Seed);
    J.Source = generateScaleSource(P, {Seed, 0, 0, 0, 0});
    std::string Error;
    auto AP = AnalyzedProgram::create(J.Source, &Error);
    if (!AP) {
      std::printf("// seed %llu: frontend failed\n",
                  static_cast<unsigned long long>(Seed));
      continue;
    }
    PointsToResult CI = AP->runContextInsensitive();
    J.CIPairs = CI.totalPairInstances();
    if (S.DefUse)
      J.DefUseEdges = computeDefUse(AP->G, CI, AP->PT, AP->Paths).totalEdges();
    SpanRecorder Rec;
    CheckLog Log;
    std::vector<double> Ms;
    for (int I = 0; I < 3; ++I)
      Ms.push_back(nsToMs(runJob(J, S, Rec, 0, nullptr, Log).TotalNs));
    // The peak RSS is the process's, so it is per program only when the
    // survey covers one seed.
    std::printf("    {%llu, %u, %zu, %llu, %llu}, // %s pipeline %.1f ms, "
                "peak %.0f MiB%s\n",
                static_cast<unsigned long long>(Seed), countLines(J.Source),
                AP->G.numNodes(), static_cast<unsigned long long>(J.CIPairs),
                static_cast<unsigned long long>(J.DefUseEdges),
                S.DefUse ? "clients" : "scale", median(Ms), selfPeakRssMb(),
                Log.Failures ? " (checks failed)" : "");
    std::fflush(stdout);
  }
  return 0;
}
