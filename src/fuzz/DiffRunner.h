//===- fuzz/DiffRunner.h - Differential config-matrix runner ----*- C++ -*-===//
///
/// \file
/// Runs one MiniJS source under a matrix of engine configurations and
/// diffs the observable behavior — printed output, the error state, and
/// the completion value — against a plain-interpreter reference run.
/// Observable means exactly what a user of the language can see: value
/// *tags* are deliberately not compared (the interpreter canonicalizes
/// 0.5 + 0.5 to Int32 1 while compiled AddD yields Double 1.0 — both
/// print, compare and typeof identically), but -0 vs +0 *is* compared,
/// via the bit pattern of the completion value and `1 / v` print probes
/// emitted by the generator.
///
//===----------------------------------------------------------------------===//

#ifndef JITVS_FUZZ_DIFFRUNNER_H
#define JITVS_FUZZ_DIFFRUNNER_H

#include "jit/Engine.h"

#include <functional>
#include <string>
#include <vector>

namespace jitvs {
namespace fuzz {

/// One cell of the configuration matrix.
struct EngineSetup {
  std::string Name;
  /// false = plain interpreter, no Engine attached (the reference).
  bool UseJit = true;
  /// true = Runtime::setShapesEnabled(false): no IC fast paths, no shape
  /// feedback, property ops stay generic in both tiers.
  bool ShapesOff = false;
  /// true = Heap::setGCStress(true): a moving minor collection at every
  /// allocation-site safepoint. Shakes out unrooted values and stale raw
  /// pointers held across allocating calls. (JITVS_GC_STRESS=1 in the
  /// environment stresses every column regardless of this flag.)
  bool GCStress = false;
  OptConfig Opt;
  EngineKnobs Knobs;
};

/// The default matrix: an interpreter reference plus eight JIT
/// configurations spanning paper/tiered policy, fusion on/off, both
/// dispatch modes, baseline/full optimization and overflow-check
/// elimination. Thresholds are aggressive (calls=3, loops=20) so the
/// generated programs actually reach native code, OSR and bailouts.
std::vector<EngineSetup> defaultMatrix();

/// Everything observable from one run, plus engine telemetry for
/// divergence reports.
struct RunOutcome {
  std::string Output;     ///< Accumulated print() text.
  bool HadError = false;  ///< Runtime::hasError() after the run.
  std::string Error;      ///< Runtime::errorMessage().
  std::string Completion; ///< Rendered completion value (-0 aware).
  EngineStats Stats;      ///< Zero-initialized for the interpreter run.

  bool sameObservable(const RunOutcome &O) const {
    return Output == O.Output && HadError == O.HadError && Error == O.Error &&
           Completion == O.Completion;
  }
};

/// Runs \p Source once under \p Setup.
RunOutcome runOnce(const std::string &Source, const EngineSetup &Setup);

/// A reference/actual mismatch under one configuration.
struct Divergence {
  std::string ConfigName;
  RunOutcome Reference;
  RunOutcome Actual;
};

struct DiffResult {
  std::vector<Divergence> Divergences;
  bool diverged() const { return !Divergences.empty(); }
};

/// Runs \p Source under every setup in \p Matrix. The first setup with
/// UseJit == false is the reference; if none is, a plain interpreter
/// reference is implied. \p OnColumn, when set, is called with each
/// setup just before it runs (the fuzz CLI uses it to name the column a
/// crash happened in).
DiffResult runMatrix(
    const std::string &Source, const std::vector<EngineSetup> &Matrix,
    const std::function<void(const EngineSetup &)> &OnColumn = nullptr);

/// Formats a human-readable divergence report: seed, config, the
/// expected/actual observables, and the actual run's bailout-reason and
/// tier telemetry (so a reader can tell *which* speculative mechanism
/// produced the wrong answer). \p Source should be the (minimized)
/// reproducer; it is included verbatim.
std::string describeDivergence(const Divergence &D, uint64_t Seed,
                               const std::string &Source);

} // namespace fuzz
} // namespace jitvs

#endif // JITVS_FUZZ_DIFFRUNNER_H
