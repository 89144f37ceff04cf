//===- main.cpp - Benchmark harness runner ----------------------------------===//
///
/// \file
/// Runs one workload as a closed loop with one caller and prints every
/// metric by name and unit, then one JSON result line:
///
///   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
///                     [--spans-out PATH]
///
/// Untraced (--trace 0): one untimed warm-up round fixes the exact counts
/// and the peak resident set, then whole rounds run until S seconds have
/// passed. Set-up is timed five times before the timed rounds and once
/// before every round; setup_s is the median.
/// The JSON carries the end-to-end metrics.
///
/// Traced (--trace 1): S/2 seconds untraced, then S/2 seconds with spans
/// around every call into a layer. The JSON carries the per-layer metrics:
/// self time per span occurrence, exact counts per round, and the tracing
/// overhead. Every exact count of every round, traced or not, must equal
/// the warm-up round's.
///
/// Each position of the fixed op sequence keeps its best time over the
/// timed rounds. Op latency percentiles are taken over those per-position
/// times; throughput is ops per second of the best-case round (every
/// position at its best time). Only runOp() is timed.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>

using namespace perfbench;

namespace {

constexpr unsigned InitialSetups = 5;
constexpr unsigned MinTimedRounds = 3;
constexpr size_t MaxReportedFailures = 5;

struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// The end-to-end metrics, as BENCHMARK.json declares them.
constexpr MetricDef EndToEnd[] = {
    {"setup_s", "s"},         {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},      {"op_p90_ms", "ms"},
    {"success_ratio", "ratio"}, {"peak_rss_mb", "MB"},
};

/// The per-layer metrics, as BENCHMARK.json declares them. A workload whose
/// ops never reach a layer reports 0 for it.
constexpr MetricDef PerLayer[] = {
    {"sim.run_grid_ms", "ms"},
    {"sim.ns_per_issue_slot", "ns"},
    {"sim.verify_launch_ms", "ms"},
    {"kernels.clone_ms", "ms"},
    {"transform.pipeline_ms", "ms"},
    {"issue_slots_per_s", "1/s"},
    {"sim_cycles", "count"},
    {"simt_efficiency", "ratio"},
    {"sim.issue_slots", "count"},
    {"sim.cycles.pdom", "count"},
    {"sim.cycles.sr", "count"},
    {"sim.barrier_waits", "count"},
    {"sim.mem_issues", "count"},
    {"sim.mem_transactions", "count"},
    {"sim.active_threads", "count"},
    {"transform.stage.meld_ms", "ms"},
    {"transform.stage.pdom-sync_ms", "ms"},
    {"transform.stage.sr_ms", "ms"},
    {"transform.stage.interproc_ms", "ms"},
    {"transform.stage.deconflict_ms", "ms"},
    {"transform.stage.verify_ms", "ms"},
    {"transform.stage.realloc_ms", "ms"},
    {"ir.parse_ms", "ms"},
    {"ir.print_ms", "ms"},
    {"ir.verify_ms", "ms"},
    {"lint.lint_ms", "ms"},
    {"ir.insts_in", "count"},
    {"ir.insts_out", "count"},
    {"transform.pdom.barriers_inserted", "count"},
    {"transform.sr.regions_applied", "count"},
    {"transform.interproc.functions_converged", "count"},
    {"transform.deconflict.cancels_inserted", "count"},
    {"transform.meld.pairs_melded", "count"},
    {"transform.realloc.barriers_after", "count"},
    {"transform.barrier_downgrades", "count"},
    {"serve.compile_hit_ms", "ms"},
    {"serve.simulate_hit_ms", "ms"},
    {"serve.compile_miss_ms", "ms"},
    {"serve.simulate_miss_ms", "ms"},
    {"serve.lint_ms", "ms"},
    {"serve.compile_hit_ratio", "ratio"},
    {"serve.sim_hit_ratio", "ratio"},
    {"serve.compile_evictions", "count"},
    {"trace_overhead_ratio", "ratio"},
};

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  std::string SpansOut;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    const std::string Flag = Argv[I];
    const char *V = Argv[I + 1];
    char *End = nullptr;
    if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      A.Trace = static_cast<int>(std::strtol(V, &End, 10));
    else if (Flag == "--spans-out")
      A.SpansOut = V;
    else
      return false;
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty() && A.Seconds > 0 &&
         (A.Trace == 0 || A.Trace == 1);
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  const size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// Linear-interpolated quantile of \p Sorted.
double quantile(const std::vector<double> &Sorted, double Q) {
  const double Pos = Q * static_cast<double>(Sorted.size() - 1);
  const size_t Lo = static_cast<size_t>(std::floor(Pos));
  const size_t Hi = std::min(Lo + 1, Sorted.size() - 1);
  return Sorted[Lo] + (Sorted[Hi] - Sorted[Lo]) * (Pos - static_cast<double>(Lo));
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// would also count the parent's image that a fork+exec carried over.
double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // In kB.
  return 0.0;
}

/// Drives one workload and keeps the run's tallies.
class Runner {
public:
  explicit Runner(BenchWorkload &W) : W(W) {}

  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Failures;
  RoundCounts Reference;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failures.size() < MaxReportedFailures)
      Failures.push_back(Why);
  }

  /// Timings of one phase. Each op position of the fixed sequence keeps
  /// its best (lowest) time over the phase's rounds: interference from
  /// other tenants of the host only ever adds time, so the best of many
  /// repetitions is the estimate of the program's own cost that moves
  /// least from run to run.
  struct Phase {
    std::vector<double> BestMs; ///< Per position.
    unsigned Rounds = 0;

    /// The best-case round: every position at its best time.
    double roundSeconds() const {
      double Ms = 0;
      for (const double T : BestMs)
        Ms += T;
      return Ms / 1e3;
    }
    double opsPerSecond() const {
      return Rounds ? static_cast<double>(BestMs.size()) / roundSeconds()
                    : 0.0;
    }
  };

  /// One round; appends op timings to \p P when given.
  void round(SpanRecorder *Spans, Phase *P) {
    const bool Traced = Spans != nullptr;
    W.beginRound(Traced);
    const size_t N = W.roundSize();
    const size_t First = W.untimedPrefix();
    if (P && P->BestMs.size() != N - First)
      P->BestMs.assign(N - First, std::numeric_limits<double>::infinity());
    for (size_t I = 0; I < N; ++I) {
      const bool Timed = P && I >= First;
      const int64_t Start = nowNs();
      {
        ScopedSpan Op(Timed ? Spans : nullptr, "op");
        W.runOp(I, Timed ? Spans : nullptr);
      }
      const int64_t Ns = nowNs() - Start;
      ++Attempted;
      std::string Why;
      if (!W.checkOp(I, Traced, Why))
        fail(Why);
      if (Timed)
        P->BestMs[I - First] =
            std::min(P->BestMs[I - First], static_cast<double>(Ns) / 1e6);
    }
    RoundCounts C = W.endRound();
    if (!P) {
      const std::optional<uint64_t> Known = W.referenceDigest();
      if (Known && *Known != C.Digest)
        fail("round output digest differs from the reference for this seed");
      Reference = std::move(C);
      return;
    }
    ++P->Rounds;
    // Every count must repeat exactly; counts first seen now (the traced
    // run's warp-replay counters) join the reference.
    if (C.Digest != Reference.Digest)
      fail("round output digest differs from the warm-up round's");
    for (const auto &[Name, Value] : C.Values) {
      auto [It, Inserted] = Reference.Values.try_emplace(Name, Value);
      if (!Inserted && It->second != Value)
        fail("exact count " + Name + " differs from the warm-up round's");
    }
  }

  /// Whole rounds until \p Seconds have passed; \p BetweenRounds runs
  /// untimed before each one.
  Phase timed(double Seconds, SpanRecorder *Spans,
              const std::function<void()> &BetweenRounds) {
    Phase P;
    const int64_t Start = nowNs();
    while (P.Rounds < MinTimedRounds ||
           static_cast<double>(nowNs() - Start) / 1e9 < Seconds) {
      BetweenRounds();
      round(Spans, &P);
    }
    return P;
  }

private:
  BenchWorkload &W;
};

/// Set-up samples, each the set-up of a fresh workload instance. One is
/// taken before every round, so the samples span the run and its median
/// follows the run rather than the host's state in its first milliseconds.
/// A fixed schedule (not a clock) keeps the allocation pattern, and with it
/// the peak resident set, the same from run to run.
class SetupSampler {
public:
  SetupSampler(std::unique_ptr<BenchWorkload> (*Make)(), uint64_t Seed)
      : Make(Make), Seed(Seed) {}

  void time(BenchWorkload &W) {
    const int64_t Start = nowNs();
    W.setUp(Seed);
    Seconds.push_back(static_cast<double>(nowNs() - Start) / 1e9);
  }
  void sample() { time(*Make()); }
  double median() const { return ::median(Seconds); }

private:
  std::unique_ptr<BenchWorkload> (*Make)();
  uint64_t Seed;
  std::vector<double> Seconds;
};

void printMetric(const char *Name, double Value, const char *Unit) {
  std::printf("%-42s %.10g %s\n", Name, Value, Unit);
}

std::string jsonMetrics(const MetricDef *Defs, size_t N,
                        const std::map<std::string, double> &Values) {
  std::string Out = "{";
  char Buf[64];
  for (size_t I = 0; I < N; ++I) {
    const auto It = Values.find(Defs[I].Name);
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  It == Values.end() ? 0.0 : It->second);
    Out += std::string(I ? ", " : "") + "\"" + Defs[I].Name +
           "\": {\"value\": " + Buf + ", \"unit\": \"" + Defs[I].Unit + "\"}";
  }
  return Out + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench_harness --workload sim-suite|compile-gen|"
                 "serve-mix --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  std::unique_ptr<BenchWorkload> (*Make)() = nullptr;
  if (A.Workload == "sim-suite")
    Make = makeSimSuite;
  else if (A.Workload == "compile-gen")
    Make = makeCompileGen;
  else if (A.Workload == "serve-mix")
    Make = makeServeMix;
  else {
    std::fprintf(stderr, "unknown workload '%s'\n", A.Workload.c_str());
    return 2;
  }

  const std::unique_ptr<BenchWorkload> W = Make();
  SetupSampler Setup(Make, A.Seed);
  Setup.time(*W);
  Runner R(*W);
  R.round(nullptr, nullptr); // Untimed warm-up; fixes the exact counts.
  // Every round repeats the same work, so this is the program's peak. Read
  // before the extra set-up samples, whose fresh inputs would stack on it.
  const double PeakRssMb = peakRssMb();
  for (unsigned I = 1; I < InitialSetups; ++I)
    Setup.sample();
  const auto BetweenRounds = [&Setup] { Setup.sample(); };

  const Runner::Phase Untraced = R.timed(
      A.Trace ? A.Seconds / 2 : A.Seconds, nullptr, BetweenRounds);
  SpanRecorder Spans;
  Runner::Phase Traced;
  if (A.Trace)
    Traced = R.timed(A.Seconds / 2, &Spans, BetweenRounds);
  std::vector<std::string> FinalWhy;
  const uint64_t FinalFailures = W->finalChecks(FinalWhy);
  R.Failed += FinalFailures;
  for (const std::string &Why : FinalWhy)
    if (R.Failures.size() < MaxReportedFailures)
      R.Failures.push_back(Why);

  // End-to-end metrics (untraced phase).
  std::map<std::string, double> M;
  M["setup_s"] = Setup.median();
  M["ops_per_s"] = Untraced.opsPerSecond();
  std::vector<double> PositionMs = Untraced.BestMs;
  std::sort(PositionMs.begin(), PositionMs.end());
  M["op_p50_ms"] = quantile(PositionMs, 0.50);
  M["op_p90_ms"] = quantile(PositionMs, 0.90);
  M["success_ratio"] =
      static_cast<double>(R.Attempted - std::min(R.Failed, R.Attempted)) /
      static_cast<double>(R.Attempted);
  M["peak_rss_mb"] = PeakRssMb;

  // Exact counts per round, and what derives from them.
  for (const auto &[Name, Value] : R.Reference.Values)
    M[Name] = Value;
  const auto Slots = R.Reference.Values.find("sim.issue_slots");
  if (Slots != R.Reference.Values.end())
    M["issue_slots_per_s"] = Slots->second / Untraced.roundSeconds();

  if (A.Trace) {
    const std::map<std::string, SpanRecorder::SelfTime> Self =
        Spans.selfTimes();
    for (const auto &[Name, T] : Self)
      if (Name != "op")
        M[Name + "_ms"] = static_cast<double>(T.Ns) / 1e6 /
                          static_cast<double>(T.Count);
    const auto Grid = Self.find("sim.run_grid");
    if (Slots != R.Reference.Values.end() && Grid != Self.end())
      M["sim.ns_per_issue_slot"] = static_cast<double>(Grid->second.Ns) /
                                   (Slots->second * Traced.Rounds);
    M["trace_overhead_ratio"] =
        Traced.opsPerSecond() / Untraced.opsPerSecond();
    if (!A.SpansOut.empty() && !Spans.write(A.SpansOut))
      std::fprintf(stderr, "could not write spans to %s\n",
                   A.SpansOut.c_str());
  }

  std::printf("workload %s, seed %llu, %u timed rounds of %zu ops, "
              "threads 1, closed loop with one caller\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              Untraced.Rounds + Traced.Rounds,
              W->roundSize() - W->untimedPrefix());
  for (const auto &[Name, Value] : M) {
    const char *Unit = "count";
    for (const MetricDef &D : EndToEnd)
      if (Name == D.Name)
        Unit = D.Unit;
    for (const MetricDef &D : PerLayer)
      if (Name == D.Name)
        Unit = D.Unit;
    if (Name.size() > 3 && Name.compare(Name.size() - 3, 3, "_ms") == 0)
      Unit = "ms";
    printMetric(Name.c_str(), Value, Unit);
  }
  std::printf("%-42s 0x%016llx\n", "round output digest",
              static_cast<unsigned long long>(R.Reference.Digest));
  for (const std::string &Why : R.Failures)
    std::fprintf(stderr, "check failed: %s\n", Why.c_str());

  const std::string Metrics =
      A.Trace ? jsonMetrics(PerLayer, std::size(PerLayer), M)
              : jsonMetrics(EndToEnd, std::size(EndToEnd), M);
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              R.Failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
