//===- perfbench/src/WebPageLoad.cpp - The web page-load workload ---------===//
///
/// \file
/// `web-pageload`: pages from generateWebSessionProgram with the model's
/// calibrated distributions at 500 functions per page, a fixed list of
/// page seeds, each load in a fresh Runtime + Engine. (At the default 2500
/// functions one load takes 3.2-4.6 s, and even at 1000 it takes 0.5 s:
/// too few, too long samples for a steady fastest load; see README.md.) The pages are the same in every run,
/// so runs compare like with like; --seed shuffles the load order of every
/// round. A run loads whole rounds of all pages, at least two, so every
/// page is loaded twice and its exact counters can be compared.
///
/// Checks: the printed `sink` equals the call count read off the
/// generated source text, for the interpreter-only run (after the timed
/// phase) and for every JIT load; every load of a page repeats that page's
/// exact counters.
///
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Trace.h"

#include "profiling/WebSession.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>

using namespace perfbench;

namespace {

/// Page seeds of the workload. Fixed, so that every run and every
/// --seed loads the same pages.
constexpr uint64_t PageSeeds[] = {1, 2, 3, 4};
constexpr size_t NumPages = sizeof(PageSeeds) / sizeof(PageSeeds[0]);
constexpr unsigned FunctionsPerPage = 500;

/// Calls of wf* functions the page source makes, counted from its text:
/// each `wfN(...)` statement is one call and each
/// `for (var i = 0; i < K; i++) wfN(...)` is K calls. Every wf* body does
/// `sink = sink + 1`, so this is the `sink` the page must print.
uint64_t expectedSink(const std::string &Source) {
  static const char LoopPrefix[] = "for (var i = 0; i < ";
  uint64_t Calls = 0;
  std::istringstream In(Source);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("wf", 0) == 0) {
      ++Calls;
    } else if (Line.rfind(LoopPrefix, 0) == 0 &&
               Line.find("++) wf") != std::string::npos) {
      Calls += std::strtoull(Line.c_str() + sizeof(LoopPrefix) - 1, nullptr,
                             10);
    }
  }
  return Calls;
}

struct Page {
  std::string Source;
  std::string ExpectedOutput;
  Counters First;
  std::vector<double> LoadSeconds;
};

/// The interpreter-only run of every page must print the text count too.
/// \returns the interpreter's run time in seconds (the vm.interp_only_ms
/// reference).
double interpreterOnly(const std::vector<Page> &Pages, RunResult &Res) {
  double InterpSeconds = 0.0;
  for (size_t P = 0; P != NumPages; ++P) {
    const Page &Pg = Pages[P];
    Runtime RT;
    if (!RT.load(Pg.Source)) {
      Res.violation("page " + std::to_string(PageSeeds[P]) +
                    " does not parse: " + RT.errorMessage());
      continue;
    }
    Clock::time_point T0 = Clock::now();
    RT.run();
    InterpSeconds += secondsSince(T0);
    if (RT.hasError() || RT.output() != Pg.ExpectedOutput)
      Res.violation("page " + std::to_string(PageSeeds[P]) +
                    ": interpreter printed '" + RT.output() + "', expected '" +
                    Pg.ExpectedOutput + "'");
  }
  return InterpSeconds;
}

} // namespace

void perfbench::runWebPageLoad(const Options &Opts, RunResult &Res) {
  std::vector<Page> Pages(NumPages);
  for (size_t P = 0; P != NumPages; ++P) {
    Page &Pg = Pages[P];
    WebSessionModel Model;
    Model.NumFunctions = FunctionsPerPage;
    Pg.Source = generateWebSessionProgram(Model, PageSeeds[P]);
    Pg.ExpectedOutput =
        "session done " + std::to_string(expectedSink(Pg.Source)) + "\n";
  }

  LayerTotals Totals;
  Counters Sum;
  std::vector<size_t> Order(NumPages);
  std::vector<double> RoundRates;

  const double SetupSeconds = secondsSince(processStart());
  Clock::time_point Start = Clock::now();
  for (size_t Round = 0; Round < 2 || secondsSince(Start) < Opts.Seconds;
       ++Round) {
    for (size_t I = 0; I != NumPages; ++I)
      Order[I] = I;
    shuffle(Order, Opts.Seed * 1000003 + Round);
    double RoundSeconds = 0.0;
    for (size_t P : Order) {
      Page &Pg = Pages[P];
      Clock::time_point T0 = Clock::now();
      Runtime RT;
      Engine E(RT, OptConfig::all(), benchKnobs(0));
      std::unique_ptr<TracingHooks> Tracer;
      if (Opts.Trace)
        Tracer = std::make_unique<TracingHooks>(RT, E, Totals);
      RT.setHooks(Tracer ? static_cast<ExecutionHooks *>(Tracer.get()) : &E);
      bool Loaded = timedLoad(RT, Pg.Source, Opts.Trace ? &Totals : nullptr);
      if (Loaded)
        RT.run();
      double Seconds = secondsSince(T0);
      Pg.LoadSeconds.push_back(Seconds);
      RoundSeconds += Seconds;

      ++Res.Attempted;
      if (!Loaded || RT.hasError() || RT.output() != Pg.ExpectedOutput) {
        ++Res.Failed;
        Res.violation("page " + std::to_string(PageSeeds[P]) + ": printed '" +
                      RT.output() + "', expected '" + Pg.ExpectedOutput + "'");
      }
      Counters C = Counters::of(RT, E);
      Sum += C;
      if (Pg.LoadSeconds.size() == 1)
        Pg.First = C;
      else if (std::string D = C.diff(Pg.First); !D.empty())
        Res.violation("page " + std::to_string(PageSeeds[P]) +
                      ": not deterministic: " + D);
    }
    RoundRates.push_back(static_cast<double>(NumPages) / RoundSeconds);
  }

  // After the timed phase, so set-up is the program's own.
  const double InterpSeconds = interpreterOnly(Pages, Res);

  std::fprintf(stderr, "web-pageload: %llu page loads of %zu pages\n",
               static_cast<unsigned long long>(Res.Attempted), NumPages);
  for (const Page &Pg : Pages)
    printSamples("page load seconds", Pg.LoadSeconds);
  if (Opts.Trace) {
    addLayerMetrics(Res, Sum, Totals, static_cast<double>(Res.Attempted),
                    InterpSeconds * 1e3 / NumPages, 0.0);
    return;
  }
  // Each page's fastest load, averaged over the pages.
  double Latency = 0.0;
  uint64_t CodeInsts = 0;
  for (const Page &Pg : Pages) {
    Latency += quantile(Pg.LoadSeconds, 0.0) / NumPages;
    CodeInsts += Pg.First.NativeCodeInsts;
  }
  Res.add("setup_s", SetupSeconds, "s");
  Res.add("latency_ms", Latency * 1e3, "ms");
  Res.add("throughput_per_s", quantile(RoundRates, 1.0), "1/s");
  Res.add("native_code_insts", static_cast<double>(CodeInsts), "count");
  Res.add("peak_rss_mb", peakRssMiB(), "MiB");
}
