//===- fuzz/DiffRunner.cpp - Differential config-matrix runner ------------===//

#include "fuzz/DiffRunner.h"

#include "telemetry/BailoutReason.h"
#include "vm/Runtime.h"

#include <cmath>
#include <memory>
#include <sstream>

namespace jitvs {
namespace fuzz {

/// Renders the completion value for diffing. Tags are not observable in
/// MiniJS, so Int32 1 and Double 1.0 must render identically — but -0
/// (reachable only as a Double) is observable through `1 / v`, so it is
/// rendered distinctly. Heap values are rendered *before* the Runtime
/// (and its GC) is torn down.
static std::string renderCompletion(const Value &V) {
  if (V.isDouble() && V.asDouble() == 0.0 && std::signbit(V.asDouble()))
    return "-0";
  return V.toDisplayString();
}

std::vector<EngineSetup> defaultMatrix() {
  EngineKnobs Hot; // Aggressive thresholds: make tiny programs compile.
  Hot.CallThreshold = 3;
  Hot.LoopThreshold = 20;

  std::vector<EngineSetup> M;

  EngineSetup Interp;
  Interp.Name = "interp";
  Interp.UseJit = false;
  M.push_back(Interp);

  auto Add = [&](const char *Name, OptConfig Opt, auto Tweak) {
    EngineSetup S;
    S.Name = Name;
    S.Opt = Opt;
    S.Knobs = Hot;
    Tweak(S.Knobs);
    M.push_back(std::move(S));
  };

  OptConfig All = OptConfig::all();
  OptConfig AllOce = All;
  AllOce.OverflowCheckElim = true;

  Add("paper-all", All, [](EngineKnobs &) {});
  Add("paper-baseline", OptConfig::baseline(), [](EngineKnobs &) {});
  Add("tiered-all", All,
      [](EngineKnobs &K) { K.Policy = TierPolicy::Tiered; });
  Add("paper-nofusion", All, [](EngineKnobs &K) { K.Fusion = false; });
  Add("paper-switch", All,
      [](EngineKnobs &K) { K.Dispatch = DispatchMode::Switch; });
  Add("tiered-switch-nofusion", All, [](EngineKnobs &K) {
    K.Policy = TierPolicy::Tiered;
    K.Fusion = false;
    K.Dispatch = DispatchMode::Switch;
  });
  Add("paper-oce", AllOce, [](EngineKnobs &) {});
  // Shapes/ICs off: property ops stay generic in both tiers. Diffing
  // this against the shape-specialized columns catches wrong-slot loads,
  // missed transitions and bad guard sets as observable divergence.
  Add("paper-noshapes", All, [](EngineKnobs &) {});
  M.back().ShapesOff = true;
  Add("tiered-cache2", All, [](EngineKnobs &K) {
    K.Policy = TierPolicy::Tiered;
    K.CacheDepth = 2;
    K.ValueStabilityMax = 2;
  });
  // Background compilation columns (vs the synchronous CompileThreads=0
  // of every column above). Free-running: compiles land whenever the
  // workers finish, so install timing varies run to run — observable
  // behavior must not. Drained: block after each enqueue so compiles
  // land at the same trigger points as the synchronous pipeline while
  // still crossing the publication machinery — deterministic, and keyed
  // to a different tier policy to widen coverage.
  Add("paper-all-threads2", All,
      [](EngineKnobs &K) { K.CompileThreads = 2; });
  Add("tiered-threads2-drain", All, [](EngineKnobs &K) {
    K.Policy = TierPolicy::Tiered;
    K.CompileThreads = 2;
    K.CompileDrain = true;
  });
  // Shared code cache columns. The synchronous one runs the cache as
  // the sole specialized-entry dispatch; the drained-background one
  // crosses cache inserts with the install path. Both use a budget tiny
  // enough that real programs evict constantly, so every seed exercises
  // the eviction + reclaimer-retire interleavings.
  Add("paper-cache4k", All,
      [](EngineKnobs &K) { K.CodeCacheBytes = 4096; });
  Add("tiered-cache4k-threads2-drain", All, [](EngineKnobs &K) {
    K.Policy = TierPolicy::Tiered;
    K.CodeCacheBytes = 4096;
    K.CompileThreads = 2;
    K.CompileDrain = true;
  });
  // GC-stress columns: a moving minor collection at *every* allocation
  // safepoint. The synchronous column catches values the interpreter and
  // native tier fail to root across allocating ops; the drained
  // background column additionally crosses collections with the
  // enqueue-time tenuring of compile-task snapshots — the interleaving
  // that finds stale raw callee/environment pointers in the engine.
  Add("paper-all-gcstress", All, [](EngineKnobs &) {});
  M.back().GCStress = true;
  Add("tiered-threads2-drain-gcstress", All, [](EngineKnobs &K) {
    K.Policy = TierPolicy::Tiered;
    K.CompileThreads = 2;
    K.CompileDrain = true;
  });
  M.back().GCStress = true;

  return M;
}

RunOutcome runOnce(const std::string &Source, const EngineSetup &Setup) {
  RunOutcome Out;
  Runtime RT;
  RT.setShapesEnabled(!Setup.ShapesOff);
  if (Setup.GCStress)
    RT.heap().setGCStress(true);
  std::unique_ptr<Engine> E;
  if (Setup.UseJit)
    E = std::make_unique<Engine>(RT, Setup.Opt, Setup.Knobs);
  Value V = RT.evaluate(Source);
  Out.Completion = renderCompletion(V);
  Out.Output = RT.output();
  Out.HadError = RT.hasError();
  if (Out.HadError)
    Out.Error = RT.errorMessage();
  if (E)
    Out.Stats = E->stats();
  return Out;
}

DiffResult
runMatrix(const std::string &Source, const std::vector<EngineSetup> &Matrix,
          const std::function<void(const EngineSetup &)> &OnColumn) {
  auto Run = [&](const EngineSetup &S) {
    if (OnColumn)
      OnColumn(S);
    return runOnce(Source, S);
  };
  DiffResult Result;
  const EngineSetup *Ref = nullptr;
  RunOutcome RefOut;
  for (const EngineSetup &S : Matrix) {
    if (!S.UseJit) {
      Ref = &S;
      RefOut = Run(S);
      break;
    }
  }
  if (!Ref) {
    EngineSetup Implied;
    Implied.Name = "interp";
    Implied.UseJit = false;
    RefOut = Run(Implied);
  }
  for (const EngineSetup &S : Matrix) {
    if (&S == Ref)
      continue;
    RunOutcome Got = Run(S);
    if (!Got.sameObservable(RefOut))
      Result.Divergences.push_back({S.Name, RefOut, std::move(Got)});
  }
  return Result;
}

static void describeOutcome(std::ostream &OS, const char *Label,
                            const RunOutcome &O) {
  OS << Label << ":\n";
  OS << "  completion: " << O.Completion << "\n";
  OS << "  error: " << (O.HadError ? O.Error : "<none>") << "\n";
  OS << "  output (" << O.Output.size() << " bytes):\n";
  std::istringstream Lines(O.Output);
  std::string Line;
  while (std::getline(Lines, Line))
    OS << "    | " << Line << "\n";
}

std::string describeDivergence(const Divergence &D, uint64_t Seed,
                               const std::string &Source) {
  std::ostringstream OS;
  OS << "=== DIVERGENCE seed=" << Seed << " config=" << D.ConfigName
     << " ===\n";
  describeOutcome(OS, "reference (interp)", D.Reference);
  describeOutcome(OS, D.ConfigName.c_str(), D.Actual);
  const EngineStats &S = D.Actual.Stats;
  OS << "telemetry: compiles=" << S.Compilations
     << " specialized=" << S.SpecializedCompiles
     << " generic=" << S.GenericCompiles
     << " despecializations=" << S.Despecializations
     << " cache-hits=" << S.CacheHits << " (value=" << S.ValueTierHits
     << " type=" << S.TypeTierHits << ")"
     << " tier-demotions=" << S.TierDemotionsValueToType << "/"
     << S.TierDemotionsToGeneric << " osr=" << S.OsrEntries
     << " fused=" << S.FusedOps << "\n";
  OS << "bailouts: total=" << S.Bailouts;
  for (size_t I = 0; I < NumBailoutReasons; ++I)
    if (S.BailoutsByReason[I])
      OS << " " << bailoutReasonName(static_cast<BailoutReason>(I)) << "="
         << S.BailoutsByReason[I];
  OS << "\n";
  OS << "minimized reproducer:\n" << Source;
  if (!Source.empty() && Source.back() != '\n')
    OS << "\n";
  OS << "repro: jitvs_fuzz --seed " << Seed << " --minimize\n";
  return OS.str();
}

} // namespace fuzz
} // namespace jitvs
