//===- tools/fuzz_main.cpp - jitvs_fuzz differential fuzzing CLI ----------===//
///
/// \file
/// Command-line driver for the differential fuzzer.
///
///   jitvs_fuzz --count 2000 --start-seed 1     # sweep (the smoke tier)
///   jitvs_fuzz --seed 1234                     # one seed, full matrix
///   jitvs_fuzz --seed 1234 --dump              # print the program
///   jitvs_fuzz --seed 1234 --minimize          # shrink a divergence
///   jitvs_fuzz --file prog.js                  # diff an external file
///
/// Exit status: 0 = no divergence, 1 = divergence found (the report with
/// the seed and minimized reproducer is printed to stdout), 2 = usage.
/// A fatal signal (SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT) while a
/// generated program runs prints the seed and config column to stderr
/// before the process dies of it.
///
//===----------------------------------------------------------------------===//

#include "fuzz/DiffRunner.h"
#include "fuzz/Minimizer.h"
#include "fuzz/ProgramGen.h"

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include <unistd.h>

using namespace jitvs;
using namespace jitvs::fuzz;

namespace {

struct Options {
  uint64_t Count = 2000;
  uint64_t StartSeed = 1;
  uint64_t Seed = 0;
  bool HaveSeed = false;
  bool Dump = false;
  bool Minimize = false;
  std::string File;
};

void usage() {
  std::cerr
      << "usage: jitvs_fuzz [--count N] [--start-seed S]\n"
         "       jitvs_fuzz --seed S [--dump | --minimize]\n"
         "       jitvs_fuzz --file PATH\n"
         "Runs seeded random MiniJS programs under the full engine-config\n"
         "matrix and diffs output, errors and completion values against\n"
         "the plain interpreter. Exits 1 on any divergence, printing the\n"
         "seed and a minimized reproducer.\n";
}

// What the fuzzer is running, for the fatal-signal handler. Written by the
// main thread before each column; the handler (on whichever thread
// faulted, compile workers included) only reads them. Lock-free atomics
// are safe to read from a signal handler.
std::atomic<uint64_t> CurrentSeed{0};
std::atomic<const char *> CurrentColumn{nullptr};
static_assert(std::atomic<uint64_t>::is_always_lock_free &&
              std::atomic<const char *>::is_always_lock_free);

void writeStr(const char *S) {
  ssize_t Ignored = ::write(STDERR_FILENO, S, std::strlen(S));
  (void)Ignored;
}

/// Names the seed and configuration column a crash happened in, using
/// only async-signal-safe calls, then re-raises the signal so the
/// process still dies of it (SA_RESETHAND restored the default action).
void onFatalSignal(int Sig) {
  char Digits[24];
  char *P = Digits + sizeof(Digits);
  *--P = '\0';
  uint64_t Seed = CurrentSeed;
  do {
    *--P = static_cast<char>('0' + Seed % 10);
    Seed /= 10;
  } while (Seed);
  writeStr("jitvs_fuzz: fatal signal at seed ");
  writeStr(P);
  writeStr(" config=");
  const char *Column = CurrentColumn;
  writeStr(Column ? Column : "?");
  writeStr("\n");
  std::raise(Sig);
}

void noteColumn(const EngineSetup &Setup) {
  CurrentColumn = Setup.Name.c_str();
}

void installFatalSignalHandler() {
  struct sigaction SA;
  std::memset(&SA, 0, sizeof(SA));
  SA.sa_handler = onFatalSignal;
  SA.sa_flags = SA_RESETHAND;
  sigemptyset(&SA.sa_mask);
  for (int Sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
    sigaction(Sig, &SA, nullptr);
}

bool parseU64(const char *S, uint64_t &Out) {
  char *End = nullptr;
  Out = std::strtoull(S, &End, 0);
  return End && *End == '\0' && End != S;
}

/// Reports (and, for generated programs, minimizes) a divergence.
/// \returns the full report text.
std::string report(const FuzzProgram *Prog, const std::string &Source,
                   uint64_t Seed, DiffResult &Result,
                   const std::vector<EngineSetup> &Matrix, bool Minimize) {
  std::string MinSource = Source;
  if (Prog && Minimize) {
    FuzzProgram Min = minimize(*Prog, [&](const std::string &Candidate) {
      return runMatrix(Candidate, Matrix, noteColumn).diverged();
    });
    MinSource = Min.render();
    // Re-diff the minimized program so the report's expected/actual and
    // telemetry describe the reproducer itself, not its ancestor.
    DiffResult MinResult = runMatrix(MinSource, Matrix, noteColumn);
    if (MinResult.diverged())
      return describeDivergence(MinResult.Divergences.front(), Seed,
                                MinSource);
  }
  return describeDivergence(Result.Divergences.front(), Seed, MinSource);
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opt;
  for (int I = 1; I < Argc; ++I) {
    const char *A = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    if (!std::strcmp(A, "--count")) {
      const char *V = Next();
      if (!V || !parseU64(V, Opt.Count)) {
        usage();
        return 2;
      }
    } else if (!std::strcmp(A, "--start-seed")) {
      const char *V = Next();
      if (!V || !parseU64(V, Opt.StartSeed)) {
        usage();
        return 2;
      }
    } else if (!std::strcmp(A, "--seed")) {
      const char *V = Next();
      if (!V || !parseU64(V, Opt.Seed)) {
        usage();
        return 2;
      }
      Opt.HaveSeed = true;
    } else if (!std::strcmp(A, "--dump")) {
      Opt.Dump = true;
    } else if (!std::strcmp(A, "--minimize")) {
      Opt.Minimize = true;
    } else if (!std::strcmp(A, "--file")) {
      const char *V = Next();
      if (!V) {
        usage();
        return 2;
      }
      Opt.File = V;
    } else {
      usage();
      return 2;
    }
  }

  std::vector<EngineSetup> Matrix = defaultMatrix();

  if (!Opt.File.empty()) {
    std::ifstream In(Opt.File);
    if (!In) {
      std::cerr << "jitvs_fuzz: cannot read " << Opt.File << "\n";
      return 2;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    std::string Source = SS.str();
    DiffResult Result = runMatrix(Source, Matrix);
    if (Result.diverged()) {
      std::cout << "diverging configs:";
      for (const Divergence &D : Result.Divergences)
        std::cout << " " << D.ConfigName;
      std::cout << "\n";
      std::cout << describeDivergence(Result.Divergences.front(), 0, Source);
      return 1;
    }
    std::cout << "jitvs_fuzz: " << Opt.File << ": all "
              << (Matrix.size() - 1) << " configs match the interpreter\n";
    return 0;
  }

  // A crash in a generated program names the seed and column it
  // happened in.
  installFatalSignalHandler();

  if (Opt.HaveSeed) {
    CurrentSeed = Opt.Seed;
    FuzzProgram Prog = generateProgram(Opt.Seed);
    std::string Source = Prog.render();
    if (Opt.Dump) {
      std::cout << Source;
      return 0;
    }
    DiffResult Result = runMatrix(Source, Matrix, noteColumn);
    if (Result.diverged()) {
      std::cout << report(&Prog, Source, Opt.Seed, Result, Matrix,
                          Opt.Minimize);
      return 1;
    }
    std::cout << "jitvs_fuzz: seed " << Opt.Seed << ": all "
              << (Matrix.size() - 1) << " configs match the interpreter\n";
    return 0;
  }

  // Sweep mode: Count seeds starting at StartSeed. Stops at the first
  // divergence (after minimizing it) so CI fails fast with a reproducer.
  for (uint64_t S = Opt.StartSeed; S < Opt.StartSeed + Opt.Count; ++S) {
    CurrentSeed = S;
    FuzzProgram Prog = generateProgram(S);
    std::string Source = Prog.render();
    DiffResult Result = runMatrix(Source, Matrix, noteColumn);
    if (Result.diverged()) {
      std::cout << report(&Prog, Source, S, Result, Matrix,
                          /*Minimize=*/true);
      std::cerr << "jitvs_fuzz: divergence at seed " << S << " after "
                << (S - Opt.StartSeed + 1) << " programs\n";
      return 1;
    }
    if ((S - Opt.StartSeed + 1) % 500 == 0)
      std::cerr << "jitvs_fuzz: " << (S - Opt.StartSeed + 1) << "/"
                << Opt.Count << " programs, no divergence\n";
  }
  std::cout << "jitvs_fuzz: " << Opt.Count << " programs x "
            << (Matrix.size() - 1)
            << " configs: no divergence from the interpreter\n";
  return 0;
}
