//===- perfbench/src/Suites.cpp - The Figure 9 suites workload ------------===//
///
/// \file
/// `suites`: the 23 programs of allWorkloads(), each in a fresh Runtime +
/// Engine (the paper's page-load lifetime, code cache off), pass after
/// pass. --seed shuffles the program order of every pass.
///
/// Checks: every output equals the interpreter-only run of the same
/// program; four kernels also equal values restated here in C++; every
/// program's exact counters repeat on every pass. The references are
/// computed after the timed phase, so set-up is the program's own.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "workloads/Workloads.h"

#include <algorithm>
#include <bitset>
#include <cstdio>
#include <functional>

using namespace perfbench;

namespace {

// --- Kernels restated in C++ (independent of the engine) ---------------

uint64_t bitsInByte() {
  uint64_t Sum = 0;
  for (int Y = 0; Y < 60; ++Y)
    for (unsigned X = 0; X < 256; ++X)
      Sum += std::bitset<8>(X).count();
  return Sum;
}

uint64_t nsieve() {
  uint64_t Sum = 0;
  for (int I = 1; I <= 2; ++I) {
    size_t M = (size_t(1) << I) * 2500;
    std::vector<bool> IsPrime(M + 1, true);
    for (size_t K = 2; K <= M; ++K)
      if (IsPrime[K]) {
        for (size_t J = K + K; J <= M; J += K)
          IsPrime[J] = false;
        ++Sum;
      }
  }
  return Sum;
}

/// Maximum pancake flips over all permutations of 0..N-1 (the
/// "Pfannkuchen" number), by brute force.
uint64_t fannkuch(int N) {
  std::vector<int> Perm(N);
  for (int I = 0; I < N; ++I)
    Perm[I] = I;
  uint64_t Max = 0;
  do {
    std::vector<int> P = Perm;
    uint64_t Flips = 0;
    while (P[0] != 0) {
      std::reverse(P.begin(), P.begin() + P[0] + 1);
      ++Flips;
    }
    Max = std::max(Max, Flips);
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Max;
}

uint64_t recursive() {
  std::function<int64_t(int64_t, int64_t)> Ack = [&](int64_t M, int64_t N) {
    if (M == 0)
      return N + 1;
    if (N == 0)
      return Ack(M - 1, 1);
    return Ack(M - 1, Ack(M, N - 1));
  };
  std::function<int64_t(int64_t)> Fib = [&](int64_t N) {
    return N < 2 ? N : Fib(N - 2) + Fib(N - 1);
  };
  std::function<int64_t(int64_t, int64_t, int64_t)> Tak =
      [&](int64_t X, int64_t Y, int64_t Z) {
        if (Y >= X)
          return Z;
        return Tak(Tak(X - 1, Y, Z), Tak(Y - 1, Z, X), Tak(Z - 1, X, Y));
      };
  int64_t R = 0;
  for (int64_t I = 2; I <= 4; ++I)
    R += Ack(2, I) + Fib(2 + I * 2) + Tak(I * 2, I, I - 1);
  return static_cast<uint64_t>(R);
}

struct Restated {
  const char *Workload;
  const char *Label;
  uint64_t Value;
};

std::vector<Restated> restatedKernels() {
  return {{"bitops-bits-in-byte", "bits-in-byte", bitsInByte()},
          {"access-nsieve", "nsieve", nsieve()},
          {"access-fannkuch", "fannkuch", fannkuch(7)},
          {"controlflow-recursive", "recursive", recursive()}};
}

struct ProgramRun {
  std::string Output;
  bool Error = false;
  Counters Counts;
};

/// One program in a fresh Runtime + Engine. \returns its wall time from
/// construction to the end of the top-level run.
double runProgram(const Workload &W, LayerTotals *Totals, ProgramRun &Out) {
  Clock::time_point T0 = Clock::now();
  Runtime RT;
  Engine E(RT, OptConfig::all(), benchKnobs(0));
  std::unique_ptr<TracingHooks> Tracer;
  if (Totals)
    Tracer = std::make_unique<TracingHooks>(RT, E, *Totals);
  RT.setHooks(Tracer ? static_cast<ExecutionHooks *>(Tracer.get()) : &E);
  bool Loaded = timedLoad(RT, W.Source, Totals);
  if (Loaded)
    RT.run();
  double Seconds = secondsSince(T0);
  Out.Output = RT.output();
  Out.Error = !Loaded || RT.hasError();
  Out.Counts = Counters::of(RT, E);
  return Seconds;
}

/// Interpreter-only references (no hooks at all), checked against the
/// restated kernels. \returns the interpreter's run time in seconds.
double references(const std::vector<Workload> &Programs,
                  std::vector<std::string> &Reference, RunResult &Res) {
  const size_t N = Programs.size();
  Reference.assign(N, std::string());
  double InterpSeconds = 0.0;
  for (size_t I = 0; I != N; ++I) {
    Runtime RT;
    if (!RT.load(Programs[I].Source)) {
      Res.violation(std::string(Programs[I].Name) + ": does not parse: " +
                    RT.errorMessage());
      continue;
    }
    Clock::time_point T0 = Clock::now();
    RT.run();
    InterpSeconds += secondsSince(T0);
    if (RT.hasError())
      Res.violation(std::string(Programs[I].Name) +
                    ": interpreter-only run failed: " + RT.errorMessage());
    Reference[I] = RT.output();
  }
  for (const Restated &K : restatedKernels()) {
    size_t I = 0;
    while (I != N && Programs[I].Name != std::string(K.Workload))
      ++I;
    std::string Expected =
        std::string(K.Label) + " " + std::to_string(K.Value) + "\n";
    if (I == N || Reference[I] != Expected)
      Res.violation(std::string(K.Workload) + ": interpreter printed '" +
                    (I == N ? "" : Reference[I]) + "', restated kernel " +
                    "expects '" + Expected + "'");
  }
  return InterpSeconds;
}

/// The distinct results of one program's JIT runs, with how many runs
/// gave each. A failed run is kept apart from a run that printed the same.
struct Outcome {
  std::string Output;
  bool Error = false;
  uint64_t Runs = 0;
};

} // namespace

void perfbench::runSuites(const Options &Opts, RunResult &Res) {
  const std::vector<Workload> &Programs = allWorkloads();
  const size_t N = Programs.size();
  std::vector<std::vector<Outcome>> Outcomes(N);

  LayerTotals Totals;
  LayerTotals *TotalsPtr = Opts.Trace ? &Totals : nullptr;
  std::vector<double> PassSeconds;
  std::vector<std::vector<double>> ProgramSeconds(N);
  std::vector<Counters> FirstPass(N);
  Counters Sum;
  std::vector<size_t> Order(N);

  const double SetupSeconds = secondsSince(processStart());
  Clock::time_point Start = Clock::now();
  do {
    for (size_t I = 0; I != N; ++I)
      Order[I] = I;
    shuffle(Order, Opts.Seed * 1000003 + PassSeconds.size());
    double Pass = 0.0;
    for (size_t I : Order) {
      ProgramRun Run;
      double Seconds = runProgram(Programs[I], TotalsPtr, Run);
      ProgramSeconds[I].push_back(Seconds);
      Pass += Seconds;
      ++Res.Attempted;
      Sum += Run.Counts;
      const char *Name = Programs[I].Name;
      std::vector<Outcome> &Seen = Outcomes[I];
      auto It = std::find_if(Seen.begin(), Seen.end(), [&](const Outcome &O) {
        return O.Error == Run.Error && O.Output == Run.Output;
      });
      if (It == Seen.end())
        Seen.push_back({std::move(Run.Output), Run.Error, 1});
      else
        ++It->Runs;
      if (PassSeconds.empty()) {
        FirstPass[I] = Run.Counts;
      } else if (std::string D = Run.Counts.diff(FirstPass[I]); !D.empty()) {
        Res.violation(std::string(Name) + ": not deterministic: " + D);
      }
    }
    PassSeconds.push_back(Pass);
  } while (secondsSince(Start) < Opts.Seconds);

  std::vector<std::string> Reference;
  const double InterpSeconds = references(Programs, Reference, Res);
  for (size_t I = 0; I != N; ++I)
    for (const Outcome &O : Outcomes[I])
      if (O.Error || O.Output != Reference[I]) {
        Res.Failed += O.Runs;
        Res.violation(std::string(Programs[I].Name) + ": " +
                      std::to_string(O.Runs) + " runs printed '" + O.Output +
                      "'" + (O.Error ? " and failed" : "") +
                      ", the interpreter printed '" + Reference[I] + "'");
      }

  const double Passes = static_cast<double>(PassSeconds.size());
  std::fprintf(stderr, "suites: %zu passes of %zu programs\n",
               PassSeconds.size(), N);
  printSamples("pass seconds", PassSeconds);
  if (Opts.Trace) {
    addLayerMetrics(Res, Sum, Totals, Passes, InterpSeconds * 1e3, 0.0);
    return;
  }
  std::vector<double> Rates;
  for (double S : PassSeconds)
    Rates.push_back(static_cast<double>(N) / S);
  // A pass assembled from each program's fastest run: short samples land
  // in the machine's quiet moments more often than whole passes do.
  double FastestPass = 0.0;
  for (const std::vector<double> &Runs : ProgramSeconds)
    FastestPass += quantile(Runs, 0.0);
  uint64_t CodeInsts = 0;
  for (const Counters &C : FirstPass)
    CodeInsts += C.NativeCodeInsts;
  Res.add("setup_s", SetupSeconds, "s");
  Res.add("latency_ms", FastestPass * 1e3, "ms");
  Res.add("throughput_per_s", quantile(Rates, 1.0), "1/s");
  Res.add("native_code_insts", static_cast<double>(CodeInsts), "count");
  Res.add("peak_rss_mb", peakRssMiB(), "MiB");
}
