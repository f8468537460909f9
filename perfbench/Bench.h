//===- perfbench/Bench.h - Shared benchmark plumbing -----------*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every perfbench workload shares: the run configuration, the result
/// the benchmark prints as its last stdout line, the in-memory span recorder
/// behind the traced run, and the order statistics the metrics use.
///
//===----------------------------------------------------------------------===//

#ifndef VDGA_PERFBENCH_BENCH_H
#define VDGA_PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double nsToMs(int64_t Ns) { return static_cast<double>(Ns) / 1e6; }

/// The \p Q quantile of \p V (0 <= Q <= 1) with linear interpolation
/// between order statistics; 0 for an empty sample.
double quantile(std::vector<double> V, double Q);

inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

/// Peak resident set size of this process so far, in MiB.
double selfPeakRssMb();

struct Config {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  /// The vdga-serve binary the serve workload spawns.
  std::string ServeBin;
  /// Scratch directory for generated inputs and the span dump.
  std::string WorkDir;
};

/// What one benchmark run measured. Metric names and units are fixed by
/// the tables in main.cpp, which also decide which ones a run prints.
struct BenchResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::map<std::string, double> Values;
};

/// Records the first few failed checks (to stderr at exit) and counts all.
struct CheckLog {
  uint64_t Failures = 0;
  std::vector<std::string> Samples;

  void fail(std::string What) {
    ++Failures;
    if (Samples.size() < 20)
      Samples.push_back(std::move(What));
  }
};

/// In-memory spans for the traced run: one per public library call,
/// nested under one "job" span per program (or server session). Spans
/// are only recorded while enabled, so untraced rounds pay one branch.
class SpanRecorder {
public:
  /// Round id of spans that belong to no measured round (the serve
  /// workload's in-process replay).
  static constexpr uint32_t NoRound = UINT32_MAX;

  struct Span {
    const char *Name;
    int64_t StartNs;
    int64_t EndNs;
    int32_t Parent;
    uint32_t Round;
  };

  bool Enabled = false;

  /// Opens a span as a child of the innermost open one; -1 when disabled.
  int32_t begin(const char *Name, uint32_t Round);
  void end(int32_t Id);

  class Scope {
  public:
    Scope(SpanRecorder &R, const char *Name, uint32_t Round)
        : R(R), Id(R.begin(Name, Round)) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { R.end(Id); }

  private:
    SpanRecorder &R;
    int32_t Id;
  };

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time (duration minus the part covered by child spans) summed
  /// per span name, in milliseconds, over spans of measured rounds.
  std::map<std::string, double> selfMillisByName() const;

  /// Writes one JSON object per span (name, start/end ns, parent index,
  /// round) to \p Path. Returns false when the file cannot be written.
  bool writeJsonl(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Workload entry points. Each fills \p R and returns false after a
/// fatal set-up failure (already reported on stderr).
bool runAnalyzeWorkload(const Config &C, BenchResult &R);
bool runServeWorkload(const Config &C, BenchResult &R);

/// Prints pin rows for generated programs (see README.md, "Re-pinning").
int runSurvey(int Argc, char **Argv);

} // namespace perfbench

#endif // VDGA_PERFBENCH_BENCH_H
