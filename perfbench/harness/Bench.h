//===- Bench.h - Benchmark harness core ------------------------*- C++ -*-===//
///
/// \file
/// The pieces every workload of the benchmark shares: the span recorder of
/// the traced run, the per-round result a workload hands back, and the
/// workload interface the runner in main.cpp drives.
///
/// A workload is a fixed, seeded sequence of ops (one "round"). The runner
/// repeats whole rounds in a closed loop with one caller, times only
/// runOp(), and checks every op's output in checkOp() outside the timed
/// region. Exact counts are taken per round, never over a time window, so
/// they repeat bit for bit across rounds, runs, and traced/untraced runs.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace simtsr {
struct PipelineSpec;
}

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Deterministic input generator (SplitMix64). The benchmark derives all of
/// its inputs from the workload seed through this, independent of the
/// program's own RNG.
class SplitMix64 {
public:
  explicit SplitMix64(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  uint64_t below(uint64_t Bound) { return next() % Bound; }

private:
  uint64_t State;
};

/// In-memory spans of the traced run: name, start, end and parent. Spans
/// are recorded from the harness around its calls into each layer and
/// written out once the run ends.
class SpanRecorder {
public:
  /// Names are string literals or otherwise outlive the recorder.
  struct Span {
    const char *Name = nullptr;
    int64_t StartNs = 0;
    int64_t EndNs = 0;
    int32_t Parent = -1;
  };

  uint32_t begin(const char *Name);
  void end(uint32_t Index);
  /// Renames an open or closed span (a serve request is classified as a
  /// hit or a miss only once its response is in).
  void rename(uint32_t Index, const char *Name) { Spans[Index].Name = Name; }

  struct SelfTime {
    uint64_t Count = 0;
    int64_t Ns = 0;
  };
  /// Per span name: occurrences and summed self time (the span's duration
  /// minus the part of it covered by its direct children).
  std::map<std::string, SelfTime> selfTimes() const;

  /// Writes one tab-separated line per span: index, parent, name, start
  /// and end in ns relative to the first span.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<uint32_t> Open;
};

/// RAII span; records nothing when the recorder is null (untraced runs).
class ScopedSpan {
public:
  ScopedSpan(SpanRecorder *R, const char *Name)
      : R(R), Index(R ? R->begin(Name) : 0) {}
  ~ScopedSpan() {
    if (R)
      R->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  uint32_t index() const { return Index; }

private:
  SpanRecorder *R;
  uint32_t Index;
};

/// What one round produced beyond its timings: exact counts (same key set
/// every round) and a digest folding every op's output.
struct RoundCounts {
  std::map<std::string, double> Values;
  uint64_t Digest = 0;
};

/// One benchmark workload: a fixed, seeded op sequence.
class BenchWorkload {
public:
  virtual ~BenchWorkload() = default;

  /// Builds every input from \p Seed, replacing earlier inputs. This is
  /// what setup_s times.
  virtual void setUp(uint64_t Seed) = 0;
  /// Ops per round.
  virtual size_t roundSize() const = 0;
  /// Leading ops of every round that run and are checked but not timed
  /// (serve-mix: the warm-up prefix that fills a fresh server's caches).
  virtual size_t untimedPrefix() const { return 0; }
  /// Untimed per-round preparation.
  virtual void beginRound(bool Traced) { (void)Traced; }
  /// Op \p I of the round; the only timed call.
  virtual void runOp(size_t I, SpanRecorder *Spans) = 0;
  /// Checks op \p I's output and folds it into the round's counts.
  /// \returns false (with \p Why set) when the output is wrong.
  virtual bool checkOp(size_t I, bool Traced, std::string &Why) = 0;
  /// Closes the round and returns its counts.
  virtual RoundCounts endRound() = 0;
  /// The round digest a correct program produces for this seed, when known.
  virtual std::optional<uint64_t> referenceDigest() const {
    return std::nullopt;
  }
  /// Untimed checks after the last round. \returns the number of failures.
  virtual uint64_t finalChecks(std::vector<std::string> &Why) {
    (void)Why;
    return 0;
  }
};

/// The catalog pipeline \p Name; exits the harness when the catalog no
/// longer has it.
simtsr::PipelineSpec catalogSpec(const char *Name);

std::unique_ptr<BenchWorkload> makeSimSuite();
std::unique_ptr<BenchWorkload> makeCompileGen();
std::unique_ptr<BenchWorkload> makeServeMix();

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
