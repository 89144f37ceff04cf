//===- CompileGen.cpp - compile-gen workload --------------------------------===//
///
/// \file
/// Compile cost with no simulation: the no-change workload for every
/// simulator change. One round compiles a fixed set of generated kernels
/// (generateKernelText, GenOptions seeds derived from the workload seed).
/// An op parses one module, runs sr+ip+realloc or meld+sr+ip (alternating,
/// so every stage except strip-predicts runs), then verifyModule, the
/// convergence lint and printModule. Generated kernels rather than corpus
/// kernels keep most of an op's time in the pipeline instead of the parser.
///
/// The traced run calls findPassStage(name)->Run stage by stage with one
/// shared PipelineReport, so each stage gets its own span; the printed
/// module must match the untraced runSyncPipeline output digest for digest.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Reference.h"

#include "fuzz/KernelGen.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "lint/ConvergenceLint.h"
#include "observe/Remark.h"
#include "support/Hash.h"
#include "transform/PassStage.h"

#include <optional>

using namespace simtsr;

namespace perfbench {
namespace {

constexpr size_t ModulesPerRound = 1024;
constexpr const char *Pipelines[] = {"sr+ip+realloc", "meld+sr+ip"};

uint64_t countInstructions(const Module &M) {
  uint64_t N = 0;
  for (const auto &F : M)
    for (const BasicBlock *BB : *F)
      N += BB->size();
  return N;
}

class CompileGen final : public BenchWorkload {
public:
  void setUp(uint64_t Seed) override {
    this->Seed = Seed;
    SplitMix64 Rng(Seed);
    Texts.clear();
    for (size_t I = 0; I < ModulesPerRound; ++I) {
      GenOptions Opts;
      Opts.Seed = Rng.next();
      Texts.push_back(generateKernelText(Opts));
    }
    Specs.clear();
    for (const char *Name : Pipelines)
      Specs.push_back(catalogSpec(Name));
    ExpectedDigests.assign(Texts.size(), std::nullopt);
  }

  size_t roundSize() const override { return Texts.size(); }

  void runOp(size_t I, SpanRecorder *Spans) override {
    Op &O = Last;
    ParseResult P;
    {
      ScopedSpan S(Spans, "ir.parse");
      P = parseModule(Texts[I]);
    }
    O.M = std::move(P.M);
    if (!O.M)
      return;
    O.InstsIn = countInstructions(*O.M);
    const PipelineSpec &Spec = Specs[I % 2];
    if (Spans) {
      // Stage by stage, exactly as runSyncPipeline sequences them.
      observe::RemarkScope Scope(Spec.Params.Remarks);
      for (const std::string &Name : Spec.Stages) {
        const PassStageDef *Def = findPassStage(Name);
        if (!Def) {
          O.Report.VerifierDiagnostics.push_back("unknown stage " + Name);
          continue;
        }
        ScopedSpan S(Spans, StageSpanNames.at(Name).c_str());
        Def->Run(*O.M, O.Report, Spec.Params);
      }
    } else {
      O.Report = runSyncPipeline(*O.M, Spec);
    }
    {
      ScopedSpan S(Spans, "ir.verify");
      O.VerifierErrors = verifyModule(*O.M);
    }
    {
      ScopedSpan S(Spans, "lint.lint");
      O.Lint = lint::runConvergenceLint(*O.M);
    }
    ScopedSpan S(Spans, "ir.print");
    O.Printed = printModule(*O.M);
  }

  bool checkOp(size_t I, bool Traced, std::string &Why) override {
    const bool Ok = check(I, Traced, Why);
    Last = Op();
    return Ok;
  }

  std::optional<uint64_t> referenceDigest() const override {
    if (Seed == DefaultSeed)
      return CompileGenDigestAtDefaultSeed;
    return std::nullopt;
  }

  RoundCounts endRound() override {
    RoundCounts Out = std::move(Counts);
    Counts = RoundCounts();
    return Out;
  }

private:
  struct Op {
    std::unique_ptr<Module> M;
    uint64_t InstsIn = 0;
    PipelineReport Report;
    std::vector<std::string> VerifierErrors;
    lint::LintResult Lint;
    std::string Printed;
  };

  bool check(size_t I, bool Traced, std::string &Why) {
    const Op &O = Last;
    const std::string Name =
        "module " + std::to_string(I) + "/" + Pipelines[I % 2];
    if (!O.M) {
      Why = Name + ": parse failed";
      return false;
    }
    if (!O.Report.clean() || !O.VerifierErrors.empty() || !O.Lint.clean()) {
      Why = Name + ": not clean under the pipeline report, the verifier or "
                   "the lint";
      return false;
    }
    const uint64_t Digest = fnv1a(O.Printed);
    // The first round fixes each module's post-pipeline digest; every later
    // round, traced (stage by stage) or not, must print the same module.
    if (!ExpectedDigests[I])
      ExpectedDigests[I] = Digest;
    else if (*ExpectedDigests[I] != Digest) {
      Why = Name + (Traced ? ": stage-by-stage compile differs from "
                             "runSyncPipeline"
                           : ": post-pipeline module changed between rounds");
      return false;
    }
    Counts.Digest = fnv1aMix(Counts.Digest, Digest);
    auto &V = Counts.Values;
    const PipelineReport &R = O.Report;
    V["ir.insts_in"] += static_cast<double>(O.InstsIn);
    V["ir.insts_out"] += static_cast<double>(countInstructions(*O.M));
    V["transform.pdom.barriers_inserted"] += R.Pdom.BarriersInserted;
    V["transform.sr.regions_applied"] += static_cast<double>(R.SR.Applied.size());
    V["transform.interproc.functions_converged"] +=
        R.Interproc.FunctionsConverged;
    V["transform.deconflict.cancels_inserted"] += R.Deconflict.CancelsInserted;
    V["transform.meld.pairs_melded"] += R.Meld.PairsMelded;
    V["transform.realloc.barriers_after"] += R.Realloc.BarriersAfter;
    V["transform.barrier_downgrades"] += R.barrierDowngrades();
    return true;
  }

  uint64_t Seed = DefaultSeed;
  std::vector<std::string> Texts;
  std::vector<PipelineSpec> Specs;
  std::vector<std::optional<uint64_t>> ExpectedDigests;
  const std::map<std::string, std::string> StageSpanNames = [] {
    std::map<std::string, std::string> Names;
    for (const PassStageDef &D : passStageRegistry())
      Names[D.Name] = "transform.stage." + D.Name;
    return Names;
  }();
  Op Last;
  RoundCounts Counts;
};

} // namespace

std::unique_ptr<BenchWorkload> makeCompileGen() {
  return std::make_unique<CompileGen>();
}

} // namespace perfbench
