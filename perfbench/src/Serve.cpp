//===- perfbench/src/Serve.cpp - The serving workloads --------------------===//
///
/// \file
/// `serve-hot` and `serve-evict`: buildSiteBundle (defaults, bundle seed
/// 1) in one long-lived Runtime + Engine with a shared code cache, and
/// sessions from generateSession replayed through `drive` in a
/// round-robin window of 64 live sessions, as a closed loop: a session's
/// next request is served only after its previous one, and a finished
/// session is replaced at once. --seed selects the session streams.
/// Warm-up sessions are set-up; the measured phase is cut into windows
/// of a fixed number of completed sessions.
///
/// Checks: every `drive` result equals the interpreter-only result for
/// the same (function, argument) pair; the bundle's `sink` equals the
/// number of calls issued; resident code stays within the cache budget;
/// a second engine replaying the warm-up after the timed phase reproduces
/// every exact counter.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "jit/CodeCache.h"
#include "serve/SessionWorkload.h"

#include <cmath>
#include <cstdio>

using namespace perfbench;

namespace {

constexpr uint64_t BundleSeed = 1;
constexpr unsigned Concurrency = 64;
/// Sessions whose interpreter-only replay gives vm.interp_only_ms.
constexpr uint64_t InterpSampleSessions = 2000;

/// The expected result of one drive(f, a) call, kept outside any heap.
struct Expected {
  bool IsString = false;
  double Number = 0.0;
  std::string Str;

  bool matches(const Value &V) const {
    if (IsString)
      return V.isString() && V.asString()->str() == Str;
    return V.isNumber() && (V.asNumber() == Number ||
                            (std::isnan(Number) && std::isnan(V.asNumber())));
  }
};

/// Session \p Id's call stream; the same for a given seed whatever the
/// window or admission order.
std::vector<CallEvent> sessionEvents(const SiteBundle &Site,
                                     const ServeModel &Model, uint64_t Seed,
                                     uint64_t Id) {
  RNG Rand(Seed * 1000003ull + Id * 2654435761ull + 1);
  return generateSession(Site, Model, Rand);
}

/// One Runtime + Engine serving the bundle through the round-robin
/// window.
class Server {
public:
  Server(const SiteBundle &Site, const ServeModel &Model, uint64_t Seed,
         size_t CacheBytes, LayerTotals *Totals,
         const std::vector<std::vector<Expected>> &Table, RunResult &Res)
      : Site(Site), Model(Model), Seed(Seed), Table(Table), Res(Res),
        E(RT, OptConfig::all(), benchKnobs(CacheBytes)) {
    if (Totals)
      Tracer = std::make_unique<TracingHooks>(RT, E, *Totals);
    RT.setHooks(Tracer ? static_cast<ExecutionHooks *>(Tracer.get()) : &E);
    if (!timedLoad(RT, Site.Source, Totals)) {
      Res.violation("site bundle does not parse: " + RT.errorMessage());
      return;
    }
    RT.run();
    if (RT.hasError()) {
      Res.violation("site bundle failed: " + RT.errorMessage());
      return;
    }
    DriveSlot = RT.program()->globalSlot("drive");
    Live.resize(Concurrency);
    for (Session &S : Live)
      S.Events = sessionEvents(Site, Model, Seed, Admitted++);
    Ready = true;
  }

  bool ready() const { return Ready; }

  /// Serves requests round-robin until \p Count more sessions complete,
  /// passing each finished session's latency to \p OnDone.
  template <typename Fn> void serve(uint64_t Count, Fn &&OnDone) {
    uint64_t Done = 0;
    while (Done < Count) {
      for (Session &S : Live) {
        if (Done == Count)
          break;
        size_t End =
            std::min(S.Next + Model.CallsPerRequest, S.Events.size());
        Clock::time_point T0 = Clock::now();
        for (; S.Next != End; ++S.Next)
          call(S.Events[S.Next]);
        S.Latency += secondsSince(T0);
        if (S.Next == S.Events.size()) {
          OnDone(S.Latency);
          ++Done;
          S.Events = sessionEvents(Site, Model, Seed, Admitted++);
          S.Next = 0;
          S.Latency = 0.0;
        }
      }
    }
  }

  Runtime &runtime() { return RT; }
  const Engine &engine() const { return E; }
  uint64_t calls() const { return Calls; }

  /// The bundle's own count of drive calls.
  double sink() {
    return Runtime::toNumber(RT.global(RT.program()->globalSlot("sink")));
  }

private:
  struct Session {
    std::vector<CallEvent> Events;
    size_t Next = 0;
    double Latency = 0.0;
  };

  void call(const CallEvent &Ev) {
    Value Args[2] = {Value::int32(static_cast<int32_t>(Ev.Func)),
                     Value::int32(static_cast<int32_t>(Ev.Arg))};
    // Re-read the global each call: a moving collection may relocate the
    // function object, and only the global slot is a root.
    Value Result = RT.callValue(RT.global(DriveSlot), Value::undefined(),
                                Args, 2);
    ++Calls;
    ++Res.Attempted;
    if (RT.hasError() || !Table[Ev.Func][Ev.Arg].matches(Result)) {
      ++Res.Failed;
      Res.violation("drive(" + std::to_string(Ev.Func) + ", " +
                    std::to_string(Ev.Arg) + ") returned " +
                    Result.toDisplayString() + (RT.hasError() ? " with error " +
                    RT.errorMessage() : std::string()));
      RT.clearError();
    }
  }

  const SiteBundle &Site;
  const ServeModel &Model;
  uint64_t Seed;
  const std::vector<std::vector<Expected>> &Table;
  RunResult &Res;
  Runtime RT;
  Engine E;
  std::unique_ptr<TracingHooks> Tracer;
  uint32_t DriveSlot = 0;
  std::vector<Session> Live;
  uint64_t Admitted = 0;
  uint64_t Calls = 0;
  bool Ready = false;
};

/// drive(f, a) for every function and pool entry, interpreter only.
std::vector<std::vector<Expected>> referenceTable(const SiteBundle &Site,
                                                  const ServeModel &Model,
                                                  Runtime &Ref,
                                                  RunResult &Res) {
  std::vector<std::vector<Expected>> Table(Model.NumFunctions,
                                           std::vector<Expected>(Site.PoolSize));
  Ref.evaluate(Site.Source);
  if (Ref.hasError()) {
    Res.violation("interpreter-only bundle failed: " + Ref.errorMessage());
    return Table;
  }
  uint32_t Drive = Ref.program()->globalSlot("drive");
  for (uint32_t F = 0; F != Model.NumFunctions; ++F)
    for (uint32_t A = 0; A != Site.PoolSize; ++A) {
      Value Args[2] = {Value::int32(static_cast<int32_t>(F)),
                       Value::int32(static_cast<int32_t>(A))};
      Value R = Ref.callValue(Ref.global(Drive), Value::undefined(), Args, 2);
      Expected &X = Table[F][A];
      if (R.isString()) {
        X.IsString = true;
        X.Str = R.asString()->str();
      } else if (R.isNumber()) {
        X.Number = R.asNumber();
      } else {
        Res.violation("interpreter-only drive(" + std::to_string(F) + ", " +
                      std::to_string(A) + ") returned " + R.toDisplayString());
      }
    }
  return Table;
}

/// Interpreter-only time per session over \p Count sessions starting at
/// session id \p FirstId.
double interpOnlyMsPerSession(const SiteBundle &Site, const ServeModel &Model,
                              uint64_t Seed, uint64_t FirstId, uint64_t Count,
                              Runtime &Ref) {
  uint32_t Drive = Ref.program()->globalSlot("drive");
  Clock::time_point T0 = Clock::now();
  for (uint64_t Id = FirstId; Id != FirstId + Count; ++Id)
    for (const CallEvent &Ev : sessionEvents(Site, Model, Seed, Id)) {
      Value Args[2] = {Value::int32(static_cast<int32_t>(Ev.Func)),
                       Value::int32(static_cast<int32_t>(Ev.Arg))};
      Ref.callValue(Ref.global(Drive), Value::undefined(), Args, 2);
    }
  return secondsSince(T0) * 1e3 / static_cast<double>(Count);
}

} // namespace

void perfbench::runServe(const Options &Opts, RunResult &Res,
                         const ServeSetup &Setup) {
  const ServeModel Model;
  const SiteBundle Site = buildSiteBundle(Model, BundleSeed);
  Runtime Ref;
  const auto Table = referenceTable(Site, Model, Ref, Res);

  LayerTotals Totals, ShadowTotals;
  LayerTotals *TotalsPtr = Opts.Trace ? &Totals : nullptr;
  Server Main(Site, Model, Opts.Seed, Setup.CacheBytes, TotalsPtr, Table, Res);
  if (!Main.ready())
    return;
  auto Ignore = [](double) {};
  Main.serve(Setup.WarmupSessions, Ignore);

  const Counters Before = Counters::of(Main.runtime(), Main.engine());
  const LayerTotals TotalsBefore = Totals;
  const CodeCache *Cache = Main.engine().codeCache();
  std::vector<double> WindowMedians, WindowRates, Window;
  Window.reserve(Setup.WindowSessions);
  uint64_t Sessions = 0;

  const double SetupSeconds = secondsSince(processStart());
  Clock::time_point Start = Clock::now();
  do {
    Window.clear();
    Clock::time_point W0 = Clock::now();
    Main.serve(Setup.WindowSessions,
               [&](double Latency) { Window.push_back(Latency); });
    WindowRates.push_back(static_cast<double>(Setup.WindowSessions) /
                          secondsSince(W0));
    WindowMedians.push_back(quantile(Window, 0.5));
    Sessions += Setup.WindowSessions;
    if (Cache->residentBytes() > Cache->budgetBytes())
      Res.violation("resident code " + std::to_string(Cache->residentBytes()) +
                    " bytes exceeds the budget of " +
                    std::to_string(Cache->budgetBytes()));
  } while (secondsSince(Start) < Opts.Seconds);

  const Counters After = Counters::of(Main.runtime(), Main.engine());

  // Determinism self-check: a second engine replaying the same warm-up
  // (traced alike, since replays allocate) must land on the exact
  // counters the first had when its warm-up ended. It runs after the
  // timed phase, so set-up is one engine's.
  {
    Server Shadow(Site, Model, Opts.Seed, Setup.CacheBytes,
                  Opts.Trace ? &ShadowTotals : nullptr, Table, Res);
    if (Shadow.ready()) {
      Shadow.serve(Setup.WarmupSessions, Ignore);
      Counters B = Counters::of(Shadow.runtime(), Shadow.engine());
      if (std::string D = Before.diff(B); !D.empty())
        Res.violation("serving warm-up not deterministic: " + D);
    }
  }
  if (Main.sink() != static_cast<double>(Main.calls()))
    Res.violation("bundle sink " + std::to_string(Main.sink()) +
                  " != drive calls issued " + std::to_string(Main.calls()));
  std::fprintf(stderr,
               "%s: %llu measured sessions in %zu windows, %llu calls in all\n",
               Opts.Workload.c_str(), static_cast<unsigned long long>(Sessions),
               WindowRates.size(),
               static_cast<unsigned long long>(Main.calls()));

  printSamples("window median session seconds", WindowMedians);
  printSamples("window sessions per second", WindowRates);
  if (Opts.Trace) {
    // The replay cross-check covers the whole run, warm-up included.
    if (Totals.Replays != After.Compiles)
      Res.violation("trace replayed " + std::to_string(Totals.Replays) +
                    " compiles, EngineStats::Compilations is " +
                    std::to_string(After.Compiles));
    LayerTotals Measured = Totals - TotalsBefore;
    double InterpMs =
        interpOnlyMsPerSession(Site, Model, Opts.Seed, Setup.WarmupSessions,
                               InterpSampleSessions, Ref);
    addLayerMetrics(Res, After - Before, Measured, static_cast<double>(Sessions),
                    InterpMs, static_cast<double>(Cache->residentBytes()));
    return;
  }
  Res.add("setup_s", SetupSeconds, "s");
  Res.add("latency_ms", quantile(WindowMedians, 0.0) * 1e3, "ms");
  Res.add("throughput_per_s", quantile(WindowRates, 1.0), "1/s");
  Res.add("native_code_insts", static_cast<double>(After.NativeCodeInsts),
          "count");
  Res.add("peak_rss_mb", peakRssMiB(), "MiB");
}
