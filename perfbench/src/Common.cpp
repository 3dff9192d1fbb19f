//===- perfbench/src/Common.cpp - Shared harness helpers ------------------===//

#include "Common.h"
#include "Trace.h"

#include "jit/CodeCache.h"
#include "support/RNG.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace perfbench;

namespace {
const Clock::time_point StartOfProcess = Clock::now();
} // namespace

Clock::time_point perfbench::processStart() { return StartOfProcess; }

void RunResult::violation(const std::string &What) {
  // Keep the report readable when one fault repeats on every operation.
  if (Violations.size() < 20)
    Violations.push_back(What);
  else if (Violations.size() == 20)
    Violations.push_back("(further violations not listed)");
}

EngineKnobs perfbench::benchKnobs(size_t CodeCacheBytes) {
  EngineKnobs K;
  K.Policy = TierPolicy::Paper;
  K.CompileThreads = 0;
  K.CodeCacheBytes = CodeCacheBytes;
  return K;
}

double perfbench::quantile(std::vector<double> Values, double Q) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  double Pos = Q * static_cast<double>(Values.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, Values.size() - 1);
  return Values[Lo] + (Values[Hi] - Values[Lo]) * (Pos - std::floor(Pos));
}

double perfbench::peakRssMiB() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In KiB.
  return 0.0;
}

void perfbench::printSamples(const char *What,
                             const std::vector<double> &Samples) {
  std::fprintf(stderr, "%s: n=%zu min %.6g p10 %.6g p50 %.6g p90 %.6g max %.6g\n",
               What, Samples.size(), quantile(Samples, 0.0),
               quantile(Samples, 0.1), quantile(Samples, 0.5),
               quantile(Samples, 0.9), quantile(Samples, 1.0));
}

void perfbench::shuffle(std::vector<size_t> &Order, uint64_t Seed) {
  RNG Rand(Seed * 0x2545f4914f6cdd1dull + 17);
  for (size_t I = Order.size(); I > 1; --I)
    std::swap(Order[I - 1], Order[Rand.nextBelow(I)]);
}

Counters Counters::of(Runtime &RT, const Engine &E) {
  Counters C;
  const EngineStats &S = E.stats();
  C.Compiles = S.Compilations;
  C.SpecializedCompiles = S.SpecializedCompiles;
  C.Despecializations = S.Despecializations;
  C.Bailouts = S.Bailouts;
  C.OsrEntries = S.OsrEntries;
  C.NativeCalls = S.NativeCalls;
  C.InterpretedCalls = S.InterpretedCalls;
  for (const Engine::FunctionReport &R : E.functionReports())
    if (R.Compiles && R.MinCodeSize != SIZE_MAX)
      C.NativeCodeInsts += R.MinCodeSize;
  if (const CodeCache *Cache = E.codeCache()) {
    C.CacheHits = Cache->stats().Hits;
    C.CacheMisses = Cache->stats().Misses;
    C.CacheInsertions = Cache->stats().Insertions;
    C.CacheEvictions = Cache->stats().Evictions;
  }
  C.GcMinor = RT.heap().minorCount();
  C.GcMajor = RT.heap().gcCount();
  C.GcPromoted = RT.heap().promotedCount();
  return C;
}

#define PERFBENCH_COUNTERS(X)                                                  \
  X(Compiles) X(SpecializedCompiles) X(Despecializations) X(Bailouts)          \
  X(OsrEntries) X(NativeCalls) X(InterpretedCalls) X(NativeCodeInsts)          \
  X(CacheHits) X(CacheMisses) X(CacheInsertions) X(CacheEvictions) X(GcMinor)  \
  X(GcMajor) X(GcPromoted)

Counters &Counters::operator+=(const Counters &O) {
#define ADD(F) F += O.F;
  PERFBENCH_COUNTERS(ADD)
#undef ADD
  return *this;
}

Counters Counters::operator-(const Counters &O) const {
  Counters R;
#define SUB(F) R.F = F - O.F;
  PERFBENCH_COUNTERS(SUB)
#undef SUB
  return R;
}

std::string Counters::diff(const Counters &Expected) const {
  std::string Out;
#define CMP(F)                                                                 \
  if (F != Expected.F)                                                         \
    Out += std::string(Out.empty() ? "" : ", ") + #F + " " +                   \
           std::to_string(F) + " != " + std::to_string(Expected.F);
  PERFBENCH_COUNTERS(CMP)
#undef CMP
  return Out;
}

void perfbench::addLayerMetrics(RunResult &Res, const Counters &C,
                                const LayerTotals &T, double Ops,
                                double InterpOnlyMsPerOp,
                                double ResidentBytes) {
  const double PerOp = Ops > 0 ? 1.0 / Ops : 0.0;
  auto Ms = [&](uint64_t Ns) { return static_cast<double>(Ns) * 1e-6 * PerOp; };
  auto Us = [&](uint64_t Ns) { return static_cast<double>(Ns) * 1e-3 * PerOp; };
  auto N = [&](uint64_t V) { return static_cast<double>(V) * PerOp; };

  Res.add("parser.load_ms", Ms(T.LoadNs), "ms/op");
  Res.add("vm.interp_only_ms", InterpOnlyMsPerOp, "ms/op");
  Res.add("vm.gc_minor", N(C.GcMinor), "count/op");
  Res.add("vm.gc_major", N(C.GcMajor), "count/op");
  Res.add("vm.gc_promoted", N(C.GcPromoted), "count/op");

  Res.add("jit.on_call_us", Us(T.OnCallNs), "us/op");
  Res.add("jit.on_call_count", N(T.OnCallCount), "count/op");
  Res.add("jit.on_loop_head_us", Us(T.OnLoopHeadNs), "us/op");
  Res.add("jit.on_loop_head_count", N(T.OnLoopHeadCount), "count/op");
  Res.add("jit.compiles", N(C.Compiles), "count/op");
  Res.add("jit.compiles_specialized", N(C.SpecializedCompiles), "count/op");
  Res.add("jit.despecializations", N(C.Despecializations), "count/op");
  Res.add("jit.bailouts", N(C.Bailouts), "count/op");
  Res.add("jit.osr_entries", N(C.OsrEntries), "count/op");
  Res.add("jit.native_calls", N(C.NativeCalls), "count/op");
  Res.add("jit.interpreted_calls", N(C.InterpretedCalls), "count/op");
  Res.add("jit.code_cache.hits", N(C.CacheHits), "count/op");
  Res.add("jit.code_cache.misses", N(C.CacheMisses), "count/op");
  Res.add("jit.code_cache.insertions", N(C.CacheInsertions), "count/op");
  Res.add("jit.code_cache.evictions", N(C.CacheEvictions), "count/op");
  uint64_t Lookups = C.CacheHits + C.CacheMisses;
  Res.add("jit.code_cache.hit_ratio",
          Lookups ? static_cast<double>(C.CacheHits) / Lookups : 0.0,
          "ratio");
  Res.add("jit.code_cache.resident_bytes", ResidentBytes, "bytes");

  Res.add("mir.build_us", Us(T.BuildNs), "us/op");
  Res.add("mir.instrs", N(T.MirInstrs), "count/op");
  Res.add("passes.inlining_us", Us(T.InliningNs), "us/op");
  Res.add("passes.gvn_us", Us(T.GvnNs), "us/op");
  Res.add("passes.constprop_us", Us(T.ConstPropNs), "us/op");
  Res.add("passes.loop_inversion_us", Us(T.LoopInversionNs), "us/op");
  Res.add("passes.dce_us", Us(T.DceNs), "us/op");
  Res.add("passes.bce_us", Us(T.BceNs), "us/op");
  Res.add("passes.instrs_after", N(T.InstrsAfter), "count/op");
  Res.add("lir.codegen_us", Us(T.CodegenNs), "us/op");
  Res.add("lir.vregs", N(T.VRegs), "count/op");
  Res.add("lir.spills", N(T.Spills), "count/op");
  Res.add("lir.native_insts", N(T.NativeInsts), "count/op");
  Res.add("native.fusion_us", Us(T.FusionNs), "us/op");
  Res.add("native.fused_pairs", N(T.FusedPairs), "count/op");

  // The replay cross-check: every compile the engine counted was seen at
  // a hook boundary and replayed exactly once.
  if (T.Replays != C.Compiles || T.SeenCompiles != C.Compiles)
    Res.violation("trace replayed " + std::to_string(T.Replays) +
                  " compiles (seen " + std::to_string(T.SeenCompiles) +
                  ") but EngineStats::Compilations moved by " +
                  std::to_string(C.Compiles));
}
