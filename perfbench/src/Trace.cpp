//===- perfbench/src/Trace.cpp - Per-layer tracing from outside src/ ------===//

#include "Trace.h"

#include "lir/Codegen.h"
#include "mir/MIRBuilder.h"
#include "native/Fusion.h"
#include "passes/Passes.h"
#include "vm/Interpreter.h"

using namespace jitvs;
using namespace perfbench;

namespace {

uint64_t nsSince(Clock::time_point T0) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T0)
          .count());
}

/// Runs \p Fn and adds its duration to \p Ns.
template <typename Fn> void timed(uint64_t &Ns, Fn &&Run) {
  Clock::time_point T0 = Clock::now();
  Run();
  Ns += nsSince(T0);
}

} // namespace

LayerTotals LayerTotals::operator-(const LayerTotals &O) const {
  LayerTotals R;
#define SUB(F) R.F = F - O.F;
  SUB(LoadNs) SUB(OnCallNs) SUB(OnCallCount) SUB(OnLoopHeadNs)
  SUB(OnLoopHeadCount) SUB(Replays) SUB(SeenCompiles) SUB(BuildNs)
  SUB(MirInstrs) SUB(InliningNs) SUB(GvnNs) SUB(ConstPropNs)
  SUB(LoopInversionNs) SUB(DceNs) SUB(BceNs) SUB(InstrsAfter) SUB(CodegenNs)
  SUB(VRegs) SUB(Spills) SUB(NativeInsts) SUB(FusionNs) SUB(FusedPairs)
#undef SUB
  return R;
}

bool perfbench::timedLoad(Runtime &RT, const std::string &Source,
                          LayerTotals *Totals) {
  if (!Totals)
    return RT.load(Source);
  bool Ok = false;
  timed(Totals->LoadNs, [&] { Ok = RT.load(Source); });
  return Ok;
}

void TracingHooks::open() {
  Span S;
  S.Compiles0 = E.stats().Compilations;
  S.Specialized0 = E.stats().SpecializedCompiles;
  S.Start = Clock::now();
  Stack.push_back(S);
}

uint64_t TracingHooks::close(uint64_t &SelfCompiles,
                             uint64_t &SelfSpecialized) {
  uint64_t Ns = nsSince(Stack.back().Start);
  Closed = Stack.back();
  Stack.pop_back();
  SelfCompiles =
      E.stats().Compilations - Closed.Compiles0 - Closed.ChildCompiles;
  SelfSpecialized = E.stats().SpecializedCompiles - Closed.Specialized0 -
                    Closed.ChildSpecialized;
  Totals.SeenCompiles += SelfCompiles;
  return Ns - Closed.ChildNs;
}

void TracingHooks::chargeParent(const Span &S) {
  if (Stack.empty())
    return;
  Span &Parent = Stack.back();
  Parent.ChildNs += nsSince(S.Start);
  Parent.ChildCompiles += E.stats().Compilations - S.Compiles0;
  Parent.ChildSpecialized += E.stats().SpecializedCompiles - S.Specialized0;
}

bool TracingHooks::onCall(JSFunction *Callee, const Value &ThisV,
                          const Value *Args, size_t NumArgs, Value &Result) {
  FunctionInfo *Info = Callee->info();
  open();
  bool Handled = E.onCall(Callee, ThisV, Args, NumArgs, Result);
  uint64_t Compiles = 0, Specialized = 0;
  Totals.OnCallNs += close(Compiles, Specialized);
  ++Totals.OnCallCount;
  Span S = Closed;
  if (Compiles) {
    // Args still hold the call's arguments: they live in the caller's
    // frame, which the collector updates in place.
    std::vector<Value> ArgVec(Args, Args + NumArgs);
    for (uint64_t I = 0; I != Compiles; ++I)
      replay(Info, I < Specialized ? &ArgVec : nullptr, nullptr, nullptr);
  }
  chargeParent(S);
  return Handled;
}

bool TracingHooks::onLoopHead(InterpFrame &Frame, uint32_t PC,
                              Value &Result) {
  open();
  bool Handled = E.onLoopHead(Frame, PC, Result);
  uint64_t Compiles = 0, Specialized = 0;
  Totals.OnLoopHeadNs += close(Compiles, Specialized);
  ++Totals.OnLoopHeadCount;
  Span S = Closed;
  for (uint64_t I = 0; I != Compiles; ++I)
    replay(Frame.Info, I < Specialized ? &Frame.OrigArgs : nullptr, &PC,
           I < Specialized ? &Frame.Slots : nullptr);
  chargeParent(S);
  return Handled;
}

void TracingHooks::replay(FunctionInfo *Info,
                          const std::vector<Value> *SpecArgs,
                          const uint32_t *OsrPc,
                          const std::vector<Value> *OsrSlots) {
  // The same BuildOptions Engine::runCompilePipeline makes under the
  // paper policy: every specialized parameter and OSR slot at the value
  // tier.
  const OptConfig Config = OptConfig::all();
  BuildOptions Opts;
  if (SpecArgs) {
    Opts.SpecializedArgs = *SpecArgs;
    Opts.ParamTiers.assign(SpecArgs->size(), ParamTier::Value);
  }
  if (OsrPc) {
    Opts.OsrPc = *OsrPc;
    if (OsrSlots) {
      Opts.OsrSlotValues = *OsrSlots;
      Opts.OsrSlotTiers.assign(OsrSlots->size(), ParamTier::Value);
    }
  }
  bool HadError = RT.hasError();

  std::unique_ptr<MIRGraph> Graph;
  timed(Totals.BuildNs, [&] { Graph = buildMIR(Info, Opts); });
  Totals.MirInstrs += Graph->numInstructions();
  if (Config.ParameterSpecialization)
    timed(Totals.InliningNs,
          [&] { runClosureInlining(*Graph, RT, Config); });
  // Pipeline order of passes/Pipeline.cpp: GVN, CP, LI, DCE, BCE.
  if (Config.GlobalValueNumbering)
    timed(Totals.GvnNs, [&] { runGVN(*Graph); });
  if (Config.ConstantPropagation)
    timed(Totals.ConstPropNs, [&] { runConstantPropagation(*Graph, RT); });
  if (Config.LoopInversion)
    timed(Totals.LoopInversionNs, [&] { runLoopInversion(*Graph); });
  if (Config.DeadCodeElim)
    timed(Totals.DceNs, [&] { runDeadCodeElimination(*Graph, RT); });
  if (Config.BoundsCheckElim)
    timed(Totals.BceNs, [&] {
      runBoundsCheckElimination(*Graph, Config.RelaxedBCEAliasing);
    });
  Totals.InstrsAfter += Graph->numInstructions();

  std::unique_ptr<NativeCode> Code;
  CodegenStats CG;
  timed(Totals.CodegenNs, [&] { Code = generateCode(*Graph, &CG); });
  Totals.VRegs += CG.NumVirtualRegs;
  Totals.Spills += CG.NumSpills;
  Totals.NativeInsts += Code->sizeInInstructions();
  unsigned Fused = 0;
  timed(Totals.FusionNs, [&] { Fused = fuseMacroOps(*Code); });
  Totals.FusedPairs += Fused;
  ++Totals.Replays;

  // Constant folding reports through the runtime's error flag; a replay
  // must not leave one behind that the program itself did not raise.
  if (!HadError && RT.hasError())
    RT.clearError();
}
