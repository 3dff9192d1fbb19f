//===- perfbench/src/Trace.h - Per-layer tracing from outside src/ -*- C++ -*-===//
///
/// \file
/// The traced run's instruments. Nothing here edits or hooks into the
/// engine's sources: the per-layer numbers come from timing calls into
/// each layer's public functions.
///
///  - TracingHooks sits between the Runtime and the Engine as a
///    forwarding ExecutionHooks. It keeps a span stack so each
///    Engine::onCall / onLoopHead call is charged its self time (nested
///    hook calls made from native code or bailouts are subtracted), and it
///    reads EngineStats::Compilations around every call to see which call
///    compiled.
///  - Each compile it sees is replayed at once, outside the hook span,
///    through buildMIR, the passes in the engine's pipeline order,
///    generateCode and fuseMacroOps, timing every call. Replaying at the
///    trigger keeps the arguments and frame slots live without extra
///    rooting: the heap never collects outside a safepoint.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include "Common.h"

namespace perfbench {

/// Totals gathered by the tracer. Times are in nanoseconds.
struct LayerTotals {
  uint64_t LoadNs = 0;
  uint64_t OnCallNs = 0, OnCallCount = 0;
  uint64_t OnLoopHeadNs = 0, OnLoopHeadCount = 0;
  uint64_t Replays = 0, SeenCompiles = 0;
  uint64_t BuildNs = 0, MirInstrs = 0;
  uint64_t InliningNs = 0, GvnNs = 0, ConstPropNs = 0, LoopInversionNs = 0,
           DceNs = 0, BceNs = 0, InstrsAfter = 0;
  uint64_t CodegenNs = 0, VRegs = 0, Spills = 0, NativeInsts = 0;
  uint64_t FusionNs = 0, FusedPairs = 0;

  LayerTotals operator-(const LayerTotals &O) const;
};

/// Forwarding hooks that time the Engine and replay its compiles.
class TracingHooks final : public ExecutionHooks {
public:
  TracingHooks(Runtime &RT, Engine &E, LayerTotals &Totals)
      : RT(RT), E(E), Totals(Totals) {}

  bool onCall(JSFunction *Callee, const Value &ThisV, const Value *Args,
              size_t NumArgs, Value &Result) override;
  bool onLoopHead(InterpFrame &Frame, uint32_t PC, Value &Result) override;

private:
  struct Span {
    Clock::time_point Start;
    uint64_t Compiles0 = 0, Specialized0 = 0;
    uint64_t ChildNs = 0, ChildCompiles = 0, ChildSpecialized = 0;
  };
  void open();
  /// Closes the innermost span; \returns its self time and sets the
  /// number of (specialized) compiles made by this call itself.
  uint64_t close(uint64_t &SelfCompiles, uint64_t &SelfSpecialized);
  /// Charges the closed span's full extent (replay included) to its
  /// parent.
  void chargeParent(const Span &S);

  void replay(FunctionInfo *Info, const std::vector<Value> *SpecArgs,
              const uint32_t *OsrPc, const std::vector<Value> *OsrSlots);

  Runtime &RT;
  Engine &E;
  LayerTotals &Totals;
  std::vector<Span> Stack;
  Span Closed;
};

/// Runtime::load, timed into \p Totals when tracing.
bool timedLoad(Runtime &RT, const std::string &Source, LayerTotals *Totals);

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
