//===- perfbench/Tier.h - Committed inputs and expected outputs -*- C++ -*-===//
//
// Part of the vdg-alias project (Ruf, PLDI 1995 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's pinned inputs and the outputs they must produce.
///
/// Corpus pins are the per-program CI and stripped-CS pair-instance totals
/// and DefUse edge counts every round must reproduce.
///
/// The scale tier is a list of fuzz-generator programs at three size
/// points (~1k, ~2.5k and ~5k lines). Each point holds two generator
/// seeds of similar pipeline cost and peak RSS, so that `--seed` can pick
/// a different program per point without moving the workload's cost.
/// Set-up regenerates the chosen program and fails on any line or
/// VDG-node mismatch; every round then checks the CI pair instances (and,
/// where pinned, the DefUse edges). Regenerate rows with
/// `perfbench --survey`.
///
//===----------------------------------------------------------------------===//

#ifndef VDGA_PERFBENCH_TIER_H
#define VDGA_PERFBENCH_TIER_H

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace perfbench {

struct CorpusPin {
  const char *Name;
  uint64_t CIPairs;
  uint64_t CSPairs;
  uint64_t DefUseEdges;
};

/// Matches the ci_pairs / cs_pairs totals of bench/baselines.
inline constexpr CorpusPin CorpusPins[] = {
    {"allroots", 239, 239, 88},     {"anagram", 562, 561, 60},
    {"assembler", 1116, 1106, 263}, {"backprop", 328, 324, 103},
    {"bc", 2047, 2046, 1014},       {"compiler", 556, 556, 306},
    {"compress", 464, 461, 112},    {"lex315", 3284, 3241, 300},
    {"loader", 1068, 1038, 109},    {"part", 436, 436, 132},
    {"simulator", 1414, 1414, 231}, {"span", 328, 328, 113},
    {"yacr2", 625, 625, 133},       {"protocol", 28614, 28614, 566},
    {"pipeline", 52807, 52807, 124},
};

struct ScalePin {
  uint64_t GenSeed;
  unsigned Lines;
  uint64_t Nodes;
  uint64_t CIPairs;
  /// 0 where no workload runs DefUse on the program.
  uint64_t DefUseEdges;
};

struct ScalePoint {
  const char *Name;
  unsigned Functions;
  unsigned StmtsPerBlock;
  unsigned BlockDepth;
  std::span<const ScalePin> Pins;
};

inline constexpr ScalePin Pins1k[] = {
    {31, 1121, 6482, 460664, 6852},
    {39, 1258, 6561, 442158, 4812},
};
inline constexpr ScalePin Pins2k5[] = {
    {23, 2144, 11432, 1678340, 16635},
    {56, 2190, 12243, 1752872, 23012},
};
inline constexpr ScalePin Pins5k[] = {
    {1, 5741, 31120, 9987312, 0},
    {56, 5374, 29496, 10479430, 0},
};

inline constexpr ScalePoint ScalePoints[] = {
    {"scale-1k", 30, 10, 3, Pins1k},
    {"scale-2.5k", 60, 10, 3, Pins2k5},
    {"scale-5k", 120, 10, 3, Pins5k},
};

/// The pin `--seed` selects at size point \p Point. Offsetting by the
/// point index keeps the points from rotating in lockstep.
inline const ScalePin &pinFor(unsigned Point, uint64_t Seed) {
  const ScalePoint &P = ScalePoints[Point];
  return P.Pins[(Seed + Point) % P.Pins.size()];
}

/// Renders the generator program \p Pin names at size point \p P.
std::string generateScaleSource(const ScalePoint &P, const ScalePin &Pin);

unsigned countLines(std::string_view Source);

/// Regenerates \p Pin's program at \p Point into \p Source and checks its
/// line and VDG-node counts. On a mismatch returns false with the
/// difference in \p Error.
bool loadScaleProgram(unsigned Point, const ScalePin &Pin, std::string &Source,
                      std::string &Error);

} // namespace perfbench

#endif // VDGA_PERFBENCH_TIER_H
