//===- perfbench/main.cpp - Benchmark entry point --------------*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
// Runs one named workload for a fixed time, checks every output, and
// prints one JSON object as the last line of stdout:
//
//   perfbench --workload <corpus|scale|clients|serve> --seed <n>
//             --seconds <s> --trace <0|1> --serve-bin <path> --workdir <dir>
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the
// per-layer metrics from spans around each public library call. The exit
// status is 0 when every output check passed, 1 when any failed, 2 on a
// usage error or a set-up failure (such as a pinned input that drifted).
// README.md describes the workloads and metrics; run.py builds and runs
// this binary.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string_view>

using namespace perfbench;

namespace {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Printed with --trace 0, in BENCHMARK.json's end_to_end order.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},
    {"analyze_ms_p90", "ms"},
    {"peak_rss_mb", "MiB"},
    {"first_answer_ms_p90", "ms"},
    {"query_ns_p99", "ns"},
};

/// Measured with --trace 0 but only reported on stderr: on a host whose
/// speed switches between a fast and a slow state, medians and means
/// move with the share of time a run spends in each, so they are too
/// unsteady to gate on. The tails above sit in the slow state.
constexpr MetricDef Informational[] = {
    {"analyze_ms_p50", "ms"},
    {"first_answer_ms", "ms"},
    {"query_ns_p50", "ns"},
    {"queries_per_s", "1/s"},
};

/// Printed with --trace 1, in BENCHMARK.json's per_layer order. A layer
/// the workload does not run reads 0.
constexpr MetricDef PerLayer[] = {
    {"frontend.ms", "ms"},
    {"frontend.nodes_per_ms", "1/ms"},
    {"pointsto.ms", "ms"},
    {"pointsto.transfer_fns", "count"},
    {"pointsto.meet_ops", "count"},
    {"pointsto.pairs_inserted", "count"},
    {"pointsto.pair_instances", "count"},
    {"pointsto.store_pair_share", "ratio"},
    {"pointsto.insert_ratio", "ratio"},
    {"pointsto.strategy", "enum"},
    {"contextsens.ms", "ms"},
    {"contextsens.meet_ops", "count"},
    {"contextsens.transfer_fns", "count"},
    {"contextsens.pairs_inserted", "count"},
    {"contextsens.subsumption_discards", "count"},
    {"clients.defuse_ms", "ms"},
    {"clients.modref_ms", "ms"},
    {"clients.defuse_edges", "count"},
    {"lint.ms", "ms"},
    {"lint.findings", "count"},
    {"lint.solve_ms", "ms"},
    {"lint.build_ms", "ms"},
    {"lint.heap_ms", "ms"},
    {"lint.null_ms", "ms"},
    {"lint.dead_store_ms", "ms"},
    {"lint.leak_ms", "ms"},
    {"interp.ms", "ms"},
    {"interp.steps", "count"},
    {"interp.steps_per_ms", "1/ms"},
    {"checker.oracle_ms", "ms"},
    {"checker.oracle_checks", "count"},
    {"query.summary_ms", "ms"},
    {"query.handle_ns_p50", "ns"},
    {"query.session_ns_p50", "ns"},
    {"query.wire_ns_p50", "ns"},
    {"query.pipe_ns_p50", "ns"},
    {"query.hit_rate", "ratio"},
    {"serve.ms", "ms"},
    {"trace.round_ms", "ms"},
    {"trace.layers_ms", "ms"},
    {"trace.untraced_ms", "ms"},
    {"trace.overhead_ms", "ms"},
};

std::string renderNumber(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[64];
  auto [End, Ec] = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return Ec == std::errc() ? std::string(Buf, End) : "0";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <corpus|scale|clients|serve> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "                 --serve-bin <vdga-serve> --workdir <dir>\n"
               "       perfbench --survey <functions> <stmts> <depth> "
               "<first-seed> <count> [--clients]\n"
               "       perfbench --survey corpus\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  if (argc > 1 && std::string_view(argv[1]) == "--survey")
    return runSurvey(argc, argv);

  Config C;
  for (int I = 1; I < argc; ++I) {
    std::string_view Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *Value = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      C.Workload = Value;
    } else if (Arg == "--seed") {
      C.Seed = std::strtoull(Value, &End, 10);
      if (*End || !*Value || Value[0] == '-')
        return usage();
    } else if (Arg == "--seconds") {
      C.Seconds = std::strtod(Value, &End);
      if (*End || !*Value || !(C.Seconds > 0))
        return usage();
    } else if (Arg == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return usage();
      C.Trace = Value[0] == '1';
    } else if (Arg == "--serve-bin") {
      C.ServeBin = Value;
    } else if (Arg == "--workdir") {
      C.WorkDir = Value;
    } else {
      return usage();
    }
  }
  if (C.WorkDir.empty() || C.ServeBin.empty())
    return usage();

  // Library defaults only: no environment overrides of the solver, the
  // trace sink, fault injection or job counts, in this process or in the
  // servers it spawns; and no artifact store outside the work directory.
  for (const char *Var : {"VDGA_SOLVER", "VDGA_TRACE", "VDGA_FAULT",
                          "VDGA_FAULT_EPOCH", "VDGA_JOBS", "VDGA_QUERY_STORE"})
    unsetenv(Var);
  // A server that dies mid-request must surface as a failed read, not
  // kill the benchmark.
  std::signal(SIGPIPE, SIG_IGN);

  BenchResult R;
  bool SetupOk;
  if (C.Workload == "corpus" || C.Workload == "scale" ||
      C.Workload == "clients")
    SetupOk = runAnalyzeWorkload(C, R);
  else if (C.Workload == "serve")
    SetupOk = runServeWorkload(C, R);
  else
    return usage();
  if (!SetupOk)
    return 2;

  std::fprintf(stderr, "perfbench: error_rate %s (%llu of %llu failed)\n",
               renderNumber(R.Attempted ? static_cast<double>(R.Failed) /
                                              static_cast<double>(R.Attempted)
                                        : 1.0)
                   .c_str(),
               static_cast<unsigned long long>(R.Failed),
               static_cast<unsigned long long>(R.Attempted));

  if (!C.Trace)
    for (const MetricDef &M : Informational)
      if (auto It = R.Values.find(M.Name); It != R.Values.end())
        std::fprintf(stderr, "perfbench: %s %s %s (not gated)\n", M.Name,
                     renderNumber(It->second).c_str(), M.Unit);

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &M : C.Trace ? std::span<const MetricDef>(PerLayer)
                                    : std::span<const MetricDef>(EndToEnd)) {
    auto It = R.Values.find(M.Name);
    if (It == R.Values.end() && !C.Trace) {
      std::fprintf(stderr, "perfbench: workload did not measure %s\n",
                   M.Name);
      return 2;
    }
    if (!First)
      Json += ", ";
    First = false;
    Json += std::string("\"") + M.Name + "\": {\"value\": " +
            renderNumber(It == R.Values.end() ? 0 : It->second) +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return R.Failed == 0 && R.Attempted > 0 ? 0 : 1;
}
