//===- perfbench/src/Quiet.cpp - Pick a quiet CPU before a run ------------===//
///
/// \file
/// `perfbench --pick-cpu` prints the number of a CPU that is quiet now.
/// run.py runs it in a separate process, then pins itself to that CPU and
/// execs the measured run.
///
/// Why: on a shared host each CPU switches between a fast and a slow
/// state (about 1.7x slower, in bursts of 0.2 s to over a second; see
/// README.md, *Noise*). The timed phase copes by taking fastest samples,
/// but setup_s is one cold set-up per run. Started on a slow CPU, it read
/// up to twice its quiet value, and the median of ten runs moved with the
/// share of runs that began in a slow burst. Waiting for a quiet CPU makes
/// that share small. The set-up itself is still timed in full, from the
/// start of the fresh process.
///
/// The probe work is the engine's own: load and run a small generated page
/// in a fresh Runtime, the kind of work set-up does. A window is about
/// 10 ms of such loads and reads as its median load. The first round
/// visits every allowed CPU for ten windows to learn the fastest window;
/// from the second round on, the first CPU whose last five windows are all
/// within 25% of it is chosen. After MaxSeconds the CPU of the visit with
/// the fastest last five windows is chosen.
///
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "profiling/WebSession.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <sched.h>

using namespace perfbench;

namespace {

/// Bounds the wait, so that a phase in which every CPU is slow costs each
/// run at most this much.
constexpr double MaxSeconds = 3.0;
constexpr unsigned ProbeFunctions = 50;
constexpr double WindowSeconds = 0.010;
constexpr size_t WindowsPerVisit = 10;
constexpr size_t QuietWindows = 5;
constexpr double QuietSlack = 1.25;

bool pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  return sched_setaffinity(0, sizeof(Set), &Set) == 0;
}

/// Median seconds of one probe load over about WindowSeconds of loads.
double window(const std::string &Source) {
  std::vector<double> Loads;
  Clock::time_point Start = Clock::now();
  do {
    Clock::time_point T0 = Clock::now();
    Runtime RT;
    RT.load(Source);
    RT.run();
    Loads.push_back(secondsSince(T0));
  } while (secondsSince(Start) < WindowSeconds);
  return quantile(std::move(Loads), 0.5);
}

} // namespace

int perfbench::pickQuietCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return -1;
  std::vector<int> Cpus;
  for (int C = 0; C < CPU_SETSIZE; ++C)
    if (CPU_ISSET(C, &Allowed))
      Cpus.push_back(C);
  if (Cpus.empty())
    return -1;

  WebSessionModel Model;
  Model.NumFunctions = ProbeFunctions;
  const std::string Source = generateWebSessionProgram(Model, 1);

  Clock::time_point Start = Clock::now();
  double Fastest = std::numeric_limits<double>::infinity();
  int BestCpu = Cpus.front();
  double BestRecent = std::numeric_limits<double>::infinity();
  for (size_t Round = 0;; ++Round) {
    for (int C : Cpus) {
      if (!pinTo(C))
        return -1;
      std::vector<double> Windows;
      for (size_t K = 0; K != WindowsPerVisit; ++K)
        Windows.push_back(window(Source));
      Fastest = std::min(Fastest, *std::min_element(Windows.begin(),
                                                    Windows.end()));
      double Recent =
          *std::max_element(Windows.end() - QuietWindows, Windows.end());
      if (Recent < BestRecent) {
        BestRecent = Recent;
        BestCpu = C;
      }
      bool Quiet = Round > 0 && Recent <= QuietSlack * Fastest;
      if (Quiet || secondsSince(Start) >= MaxSeconds) {
        int Chosen = Quiet ? C : BestCpu;
        std::fprintf(stderr,
                     "perfbench: cpu %d %s after %.2f s (fastest window "
                     "%.1f us, its recent %.1f us)\n",
                     Chosen, Quiet ? "quiet" : "least busy",
                     secondsSince(Start), Fastest * 1e6,
                     (Quiet ? Recent : BestRecent) * 1e6);
        return Chosen;
      }
    }
  }
}
