//===- perfbench/Support.cpp ----------------------------------------------===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <fstream>

#include <sys/resource.h>

using namespace perfbench;

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double perfbench::selfPeakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

int32_t SpanRecorder::begin(const char *Name, uint32_t Round) {
  if (!Enabled)
    return -1;
  int32_t Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, nowNs(), 0, Parent, Round});
  int32_t Id = static_cast<int32_t>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanRecorder::end(int32_t Id) {
  if (Id < 0)
    return;
  Spans[static_cast<size_t>(Id)].EndNs = nowNs();
  // Scopes nest, so the span being closed is the innermost open one.
  Open.pop_back();
}

std::map<std::string, double> SpanRecorder::selfMillisByName() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[static_cast<size_t>(S.Parent)] += S.EndNs - S.StartNs;
  std::map<std::string, double> Self;
  for (size_t I = 0; I < Spans.size(); ++I)
    if (Spans[I].Round != NoRound)
      Self[Spans[I].Name] +=
          nsToMs(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]);
  return Self;
}

bool SpanRecorder::writeJsonl(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  for (const Span &S : Spans) {
    Out << "{\"name\":\"" << S.Name << "\",\"start_ns\":" << S.StartNs
        << ",\"end_ns\":" << S.EndNs << ",\"parent\":" << S.Parent
        << ",\"round\":";
    if (S.Round == NoRound)
      Out << "null";
    else
      Out << S.Round;
    Out << "}\n";
  }
  return static_cast<bool>(Out);
}
