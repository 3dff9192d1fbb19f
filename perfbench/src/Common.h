//===- perfbench/src/Common.h - Shared harness types and helpers -*- C++ -*-===//
///
/// \file
/// Everything the four workloads share: the command-line options, the
/// result record printed as the final JSON line, the engine set-up that is
/// identical for every workload, the quantile estimator, and the exact
/// counters that the determinism self-check and the per-layer report read.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "jit/Engine.h"
#include "vm/Runtime.h"

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using namespace jitvs;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0;
  bool Trace = false;
};

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What one run prints as its last line.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// Violated correctness checks, one line each; empty means correct.
  std::vector<std::string> Violations;
  std::vector<Metric> Metrics;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void violation(const std::string &What);
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Process start as seen by the harness (captured during static
/// initialisation, before main). setup_s runs from here.
Clock::time_point processStart();

/// The engine configuration every workload uses: the paper policy,
/// synchronous compiles and the given code-cache budget (0 = off). Built
/// from EngineKnobs, so no JITVS_* environment variable reaches it; the
/// pipeline is always OptConfig::all().
EngineKnobs benchKnobs(size_t CodeCacheBytes);

/// Linear-interpolated quantile (\p Q in [0, 1]) of \p Values: the
/// definition of Python's statistics.quantiles(method='inclusive').
double quantile(std::vector<double> Values, double Q);

/// Peak resident set size of this process in MiB: VmHWM of
/// /proc/self/status. (getrusage's ru_maxrss survives execve, so it would
/// report the launcher's peak whenever that is the larger.)
double peakRssMiB();

/// Prints the spread of one run's samples to standard error:
/// "<what>: n=<count> min p10 p50 p90 max".
void printSamples(const char *What, const std::vector<double> &Samples);

/// Seeded Fisher-Yates shuffle of \p Order.
void shuffle(std::vector<size_t> &Order, uint64_t Seed);

/// Exact engine, heap and code-cache counters of one Runtime + Engine.
/// Every field is deterministic for a synchronous engine: the same input
/// in a fresh engine must reproduce all of them (the determinism
/// self-check), and deltas of them feed the per-layer report.
struct Counters {
  uint64_t Compiles = 0;
  uint64_t SpecializedCompiles = 0;
  uint64_t Despecializations = 0;
  uint64_t Bailouts = 0;
  uint64_t OsrEntries = 0;
  uint64_t NativeCalls = 0;
  uint64_t InterpretedCalls = 0;
  uint64_t NativeCodeInsts = 0; ///< Figure 10: sum of MinCodeSize.
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheInsertions = 0;
  uint64_t CacheEvictions = 0;
  uint64_t GcMinor = 0;
  uint64_t GcMajor = 0;
  uint64_t GcPromoted = 0;

  static Counters of(Runtime &RT, const Engine &E);
  Counters &operator+=(const Counters &O);
  Counters operator-(const Counters &O) const;
  /// Empty when equal; otherwise names every counter that differs.
  std::string diff(const Counters &Expected) const;
};

struct LayerTotals;

/// Adds every per-layer metric, normalised per operation (a suite pass,
/// a page load or a session), from the measured phase's counter deltas
/// \p C, tracer totals \p T and \p InterpOnlyMsPerOp. \p ResidentBytes is
/// the code cache's final resident size (0 when the cache is off).
void addLayerMetrics(RunResult &Res, const Counters &C, const LayerTotals &T,
                     double Ops, double InterpOnlyMsPerOp,
                     double ResidentBytes);

/// Waits for a CPU that is quiet now (see Quiet.cpp) and returns its
/// number, or -1 when the process's CPU affinity cannot be read or set.
/// Gives up waiting after a few seconds and returns the least busy CPU.
int pickQuietCpu();

void runSuites(const Options &Opts, RunResult &Res);
void runWebPageLoad(const Options &Opts, RunResult &Res);
/// What tells the two serving workloads apart.
struct ServeSetup {
  size_t CacheBytes = 0;       ///< Shared code-cache budget.
  uint64_t WarmupSessions = 0; ///< Completed before timing starts.
  uint64_t WindowSessions = 0; ///< Completed sessions per window.
};
void runServe(const Options &Opts, RunResult &Res, const ServeSetup &Setup);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
