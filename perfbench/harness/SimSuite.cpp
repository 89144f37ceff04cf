//===- SimSuite.cpp - sim-suite workload ------------------------------------===//
///
/// \file
/// How fast the simulator runs, and the modelled results the paper
/// reports. One round is the ten Table 2 workloads under pdom and under sr
/// (20 ops, pdom before sr per workload). An op clones the workload,
/// compiles it with runSyncPipeline and runs it with runGrid as an 8-warp
/// grid at the workload seed. Nearly all of an op's time is runGrid.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Reference.h"

#include "kernels/Runner.h"
#include "kernels/Workload.h"
#include "sim/Grid.h"
#include "transform/PassStage.h"

using namespace simtsr;

namespace perfbench {
namespace {

constexpr unsigned GridWarps = 8;
constexpr const char *Pipelines[] = {"pdom", "sr"};

class SimSuite final : public BenchWorkload {
public:
  void setUp(uint64_t Seed) override {
    this->Seed = Seed;
    Suite = makeAllWorkloads(1.0);
    Specs.clear();
    for (const char *Name : Pipelines)
      Specs.push_back(catalogSpec(Name));
  }

  size_t roundSize() const override { return Suite.size() * 2; }

  void runOp(size_t I, SpanRecorder *Spans) override {
    const simtsr::Workload &W = Suite[I / 2];
    Op &O = Last;
    {
      ScopedSpan S(Spans, "kernels.clone");
      O.Compiled = cloneWorkload(W);
    }
    {
      ScopedSpan S(Spans, "transform.pipeline");
      O.Report = runSyncPipeline(*O.Compiled.M, Specs[I % 2]);
    }
    {
      ScopedSpan S(Spans, "sim.verify_launch");
      O.Verification = verifyLaunchModule(*O.Compiled.M);
    }
    O.Kernel = O.Compiled.M->functionByName(O.Compiled.KernelName);
    O.Config = LaunchConfig();
    O.Config.Seed = Seed;
    O.Config.Latency = O.Compiled.Latency;
    O.Config.KernelArgs = O.Compiled.Args;
    O.Config.Verified = &O.Verification;
    ScopedSpan S(Spans, "sim.run_grid");
    O.Grid = O.Kernel ? runGrid(*O.Compiled.M, O.Kernel, O.Config, GridWarps,
                                O.Compiled.InitMemory)
                      : GridResult{};
  }

  bool checkOp(size_t I, bool Traced, std::string &Why) override {
    const bool Ok = check(I, Traced, Why);
    Last = Op(); // Free the op's module outside the timed region.
    return Ok;
  }

  RoundCounts endRound() override {
    const double Cycles = Counts.Values["sim_cycles"];
    Counts.Values["simt_efficiency"] =
        Cycles > 0 ? WeightedEfficiency / Cycles : 0.0;
    RoundCounts Out = std::move(Counts);
    Counts = RoundCounts();
    WeightedEfficiency = 0.0;
    return Out;
  }

  void beginRound(bool Traced) override {
    ReplayThisRound = Traced && !Replayed;
    if (ReplayThisRound)
      Replayed = true;
  }

private:
  struct Op {
    simtsr::Workload Compiled;
    PipelineReport Report;
    LaunchVerification Verification;
    const Function *Kernel = nullptr;
    LaunchConfig Config;
    GridResult Grid;
  };

  bool check(size_t I, bool Traced, std::string &Why) {
    const Op &O = Last;
    const std::string Name = Suite[I / 2].Name + "/" + Pipelines[I % 2];
    if (!O.Kernel || !O.Verification.Errors.empty() || !O.Report.clean()) {
      Why = Name + ": pipeline output does not verify";
      return false;
    }
    if (!O.Grid.Ok) {
      Why = Name + ": grid failed: " + O.Grid.FailMessage;
      return false;
    }
    const GridResult &G = O.Grid;
    Counts.Values[std::string("sim.cycles.") + Pipelines[I % 2]] +=
        static_cast<double>(G.TotalCycles);
    Counts.Values["sim.issue_slots"] += static_cast<double>(G.TotalIssueSlots);
    Counts.Values["sim_cycles"] += static_cast<double>(G.TotalCycles);
    WeightedEfficiency += G.SimtEfficiency * static_cast<double>(G.TotalCycles);
    Counts.Digest = Counts.Digest * 0x100000001b3ull ^ G.CombinedChecksum;

    if (I % 2 == 0) {
      PdomChecksum = G.CombinedChecksum;
      if (Seed == DefaultSeed && !matchesBaseline(I / 2, G)) {
        Why = Name + ": cycles/issue slots/checksum differ from "
                     "BENCH_baseline.json at seed 2020";
        return false;
      }
    } else if (G.CombinedChecksum != PdomChecksum) {
      Why = Name + ": sr checksum differs from pdom checksum";
      return false;
    }
    // The first traced round replays every grid warp by warp for the
    // barrier and memory counters GridResult does not carry.
    if (Traced && ReplayThisRound && !replayWarps(Name, Why))
      return false;
    return true;
  }

  bool matchesBaseline(size_t W, const GridResult &G) const {
    for (const PdomReference &R : PdomAtDefaultSeed)
      if (Suite[W].Name == R.Name)
        return G.TotalCycles == R.Cycles && G.TotalIssueSlots == R.IssueSlots &&
               G.CombinedChecksum == R.Checksum;
    return false;
  }

  /// One WarpSimulator per warp, built with gridWarpConfig; the per-warp
  /// SimStats sums must equal the GridResult totals.
  bool replayWarps(const std::string &Name, std::string &Why) {
    const Op &O = Last;
    uint64_t Cycles = 0, Slots = 0, Checksum = 0;
    for (unsigned W = 0; W < GridWarps; ++W) {
      WarpSimulator Sim(*O.Compiled.M, O.Kernel, gridWarpConfig(O.Config, W));
      if (O.Compiled.InitMemory)
        O.Compiled.InitMemory(Sim);
      const RunResult R = Sim.run();
      if (!R.ok()) {
        Why = Name + ": warp replay failed";
        return false;
      }
      Cycles += R.Stats.Cycles;
      Slots += R.Stats.IssueSlots;
      Checksum ^= Sim.memoryChecksum() * 0x9e3779b97f4a7c15ull + W;
      Counts.Values["sim.barrier_waits"] +=
          static_cast<double>(R.Stats.BarrierWaits);
      Counts.Values["sim.mem_issues"] += static_cast<double>(R.Stats.MemIssues);
      Counts.Values["sim.mem_transactions"] +=
          static_cast<double>(R.Stats.MemTransactions);
      Counts.Values["sim.active_threads"] +=
          static_cast<double>(R.Stats.ActiveThreads);
    }
    if (Cycles != O.Grid.TotalCycles || Slots != O.Grid.TotalIssueSlots ||
        Checksum != O.Grid.CombinedChecksum) {
      Why = Name + ": per-warp SimStats sums differ from the GridResult";
      return false;
    }
    return true;
  }

  uint64_t Seed = DefaultSeed;
  std::vector<simtsr::Workload> Suite;
  std::vector<PipelineSpec> Specs;
  Op Last;
  RoundCounts Counts;
  double WeightedEfficiency = 0.0;
  uint64_t PdomChecksum = 0;
  bool ReplayThisRound = false;
  bool Replayed = false;
};

} // namespace

std::unique_ptr<BenchWorkload> makeSimSuite() {
  return std::make_unique<SimSuite>();
}

} // namespace perfbench
