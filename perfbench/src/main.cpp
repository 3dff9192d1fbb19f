//===- perfbench/src/main.cpp - End-to-end and per-layer benchmark --------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
/// perfbench --pick-cpu
///
/// Runs one workload for S seconds of measurement, checks every output
/// against references that do not come from the JIT, and prints one JSON
/// object as the last line of standard output:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
/// metrics of a separate traced run. See README.md for definitions.
/// --pick-cpu prints the number of a quiet CPU to run on (see Quiet.cpp).
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace perfbench;

namespace {

/// The serving workloads. serve-hot has the jitvs_serve default budget
/// (1 MiB), above the bundle's ~165 KB working set, and all its compiles
/// happen within the warm-up. serve-evict has the serve_smoke budget
/// (16 KiB), so misses, inserts and evictions run in steady state from
/// the first sessions on. Windows hold about 0.1 s of sessions each.
constexpr ServeSetup ServeHot{1u << 20, 10000, 5000};
constexpr ServeSetup ServeEvict{16u << 10, 2000, 1000};

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload suites|web-pageload|serve-hot|"
               "serve-evict --seed N --seconds S --trace 0|1\n"
               "       perfbench --pick-cpu\n",
               Msg);
  std::exit(2);
}

uint64_t parseNumber(const char *Arg, const char *Flag, uint64_t Max) {
  char *End = nullptr;
  unsigned long long V = std::strtoull(Arg, &End, 10);
  if (!*Arg || *End || V > Max)
    usage((std::string("bad value for ") + Flag).c_str());
  return V;
}

Options parseArgs(int Argc, char **Argv) {
  Options Opts;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload") {
      Opts.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Opts.Seed = parseNumber(V, "--seed", UINT64_MAX);
    } else if (A == "--seconds") {
      Opts.Seconds = static_cast<double>(parseNumber(V, "--seconds", 600));
      if (Opts.Seconds < 1)
        usage("--seconds must be at least 1");
    } else if (A == "--trace") {
      Opts.Trace = parseNumber(V, "--trace", 1) == 1;
    } else {
      usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  return Opts;
}

void printJson(const RunResult &Res) {
  std::string Out = "{\"correct\": ";
  Out += Res.Violations.empty() ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Res.Attempted);
  Out += ", \"failed\": " + std::to_string(Res.Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (size_t I = 0; I != Res.Metrics.size(); ++I) {
    const Metric &M = Res.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc == 2 && std::strcmp(Argv[1], "--pick-cpu") == 0) {
    int Cpu = pickQuietCpu();
    if (Cpu < 0) {
      std::fprintf(stderr, "perfbench: cannot read or set CPU affinity\n");
      return 1;
    }
    std::printf("%d\n", Cpu);
    return 0;
  }
  Options Opts = parseArgs(Argc, Argv);
  RunResult Res;
  if (Opts.Workload == "suites")
    runSuites(Opts, Res);
  else if (Opts.Workload == "web-pageload")
    runWebPageLoad(Opts, Res);
  else if (Opts.Workload == "serve-hot")
    runServe(Opts, Res, ServeHot);
  else if (Opts.Workload == "serve-evict")
    runServe(Opts, Res, ServeEvict);
  else
    usage(("unknown workload " + Opts.Workload).c_str());

  for (const Metric &M : Res.Metrics)
    std::fprintf(stderr, "  %-32s %16.6f %s\n", M.Name.c_str(), M.Value,
                 M.Unit.c_str());
  for (const std::string &V : Res.Violations)
    std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", V.c_str());
  std::fflush(stderr);
  printJson(Res);
  return Res.Violations.empty() ? 0 : 1;
}
