//===- ServeMix.cpp - serve-mix workload ------------------------------------===//
///
/// \file
/// The daemon path and its cache layer. One caller sends a fixed, seeded
/// sequence of request lines through serve::Server::handle(): 60% compile,
/// 30% simulate (4 warps, seed from a set of four) and 10% lint, all under
/// sr+ip+realloc, over the 520 Section 5.4 corpus kernels. Every other
/// request draws from a 32-kernel hot set; the rest are uniform over all
/// 520 -- twice the 256-entry compile cache -- so misses continue in
/// steady state.
///
/// The uniform half is stratified: each block of the sequence holds every
/// corpus kernel once, in seeded order, with an op fixed per kernel and
/// block, and the warm-up prefix opens with a simulate of every (hot
/// kernel, simulate seed) pair. A few corpus kernels simulate 100x longer
/// than the median, so independent draws would let the seed decide how
/// many of them a round pays for. The seed still sets the hot set, the
/// order, the hot requests' ops and the simulate seeds.
///
/// Every round starts a fresh Server and runs an untimed warm-up prefix of
/// the sequence, so the timed part meets the same cache state and the hit
/// ratios are exact per round. handle() is called directly rather than over
/// the Unix socket: over the socket, thread wake-ups dominate the time.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "kernels/Corpus.h"
#include "serve/Server.h"
#include "sim/Grid.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "transform/PassStage.h"

#include <cstring>
#include <set>

using namespace simtsr;

namespace perfbench {
namespace {

constexpr const char *ServePipeline = "sr+ip+realloc";
constexpr size_t BlockRequests = 2 * CorpusSize; ///< Hot, uniform, hot, ...
constexpr size_t PrefixRequests = BlockRequests;
constexpr size_t TimedRequests = 2 * BlockRequests;
constexpr size_t HotSetSize = 32;
constexpr unsigned SimulateWarps = 4;
constexpr uint64_t SimulateSeeds = 4;

enum class ReqOp { Compile, Simulate, Lint };

struct Req {
  ReqOp Op = ReqOp::Compile;
  uint64_t Kernel = 0; ///< Corpus id.
  uint64_t SimSeed = 0;
  std::string Line;    ///< The request line, id = position in the sequence.

  /// Identity of the request without its id: equal keys must get equal
  /// responses apart from the cache flags.
  uint64_t key() const {
    return fnv1aMix(fnv1aMix(fnv1aMix(FnvBasis, static_cast<uint64_t>(Op)),
                             Kernel),
                    SimSeed);
  }
};

std::string requestLine(size_t Id, const Req &R, const std::string &Source) {
  JsonWriter W;
  W.beginObject();
  W.key("id");
  W.numberUnsigned(Id);
  W.key("op");
  W.string(R.Op == ReqOp::Compile    ? "compile"
           : R.Op == ReqOp::Simulate ? "simulate"
                                     : "lint");
  W.key("pipeline");
  W.string(ServePipeline);
  W.key("source");
  W.string(Source);
  if (R.Op == ReqOp::Simulate) {
    W.key("warps");
    W.numberUnsigned(SimulateWarps);
    W.key("seed");
    W.numberUnsigned(R.SimSeed);
  }
  W.endObject();
  return W.take();
}

/// \p Response without its id and with the cache flags blanked: what a hit
/// must share with the miss that filled it.
std::string normalized(const std::string &Response) {
  std::string N = Response;
  const size_t Comma = N.find(',');
  if (N.rfind("{\"id\":", 0) == 0 && Comma != std::string::npos)
    N.erase(1, Comma);
  for (const char *Flag : {"\"cached\":", "\"compile_cached\":"}) {
    const size_t At = N.find(Flag);
    if (At == std::string::npos)
      continue;
    const size_t Value = At + std::strlen(Flag);
    const size_t End = N.find_first_of(",}", Value);
    N.replace(Value, End - Value, "_");
  }
  return N;
}

class ServeMix final : public BenchWorkload {
public:
  void setUp(uint64_t Seed) override {
    Sources.clear();
    for (uint64_t Id = 0; Id < CorpusSize; ++Id)
      Sources.push_back(printModule(*makeCorpusKernel(Id).M));

    SplitMix64 Rng(Seed);
    std::vector<uint64_t> HotSet;
    std::set<uint64_t> Taken;
    while (HotSet.size() < HotSetSize) {
      const uint64_t Id = Rng.below(CorpusSize);
      if (Taken.insert(Id).second)
        HotSet.push_back(Id);
    }
    // The prefix opens with every (hot kernel, simulate seed) pair, so hot
    // simulations in the timed part are hits whatever the seed.
    std::vector<std::pair<uint64_t, uint64_t>> HotPairs;
    for (const uint64_t Id : HotSet)
      for (uint64_t S = 0; S < SimulateSeeds; ++S)
        HotPairs.emplace_back(Id, Seed + S);
    for (size_t I = HotPairs.size(); I > 1; --I)
      std::swap(HotPairs[I - 1], HotPairs[Rng.below(I)]);
    const auto OpFor = [](uint64_t Mix) {
      return Mix < 6 ? ReqOp::Compile : Mix < 9 ? ReqOp::Simulate : ReqOp::Lint;
    };
    Sequence.clear();
    for (size_t Block = 0; Sequence.size() < PrefixRequests + TimedRequests;
         ++Block) {
      std::vector<uint64_t> Deck(CorpusSize);
      for (uint64_t Id = 0; Id < CorpusSize; ++Id)
        Deck[Id] = Id;
      for (size_t I = Deck.size(); I > 1; --I)
        std::swap(Deck[I - 1], Deck[Rng.below(I)]);
      for (const uint64_t Uniform : Deck) {
        Req Hot;
        const size_t HotIndex = Sequence.size() / 2;
        if (HotIndex < HotPairs.size()) {
          Hot.Op = ReqOp::Simulate;
          Hot.Kernel = HotPairs[HotIndex].first;
          Hot.SimSeed = HotPairs[HotIndex].second;
        } else {
          Hot.Op = OpFor(Rng.below(10));
          Hot.Kernel = HotSet[Rng.below(HotSetSize)];
          if (Hot.Op == ReqOp::Simulate)
            Hot.SimSeed = Seed + Rng.below(SimulateSeeds);
        }
        Req Spread;
        // 7 is coprime to 10 and CorpusSize is a multiple of 10, so every
        // block holds exactly the 60/30/10 op mix.
        Spread.Op = OpFor((Uniform * 7 + Block * 3) % 10);
        Spread.Kernel = Uniform;
        if (Spread.Op == ReqOp::Simulate)
          Spread.SimSeed = Seed + Rng.below(SimulateSeeds);
        for (Req *R : {&Hot, &Spread}) {
          R->Line = requestLine(Sequence.size(), *R, Sources[R->Kernel]);
          Sequence.push_back(std::move(*R));
        }
      }
    }
    Spec = catalogSpec(ServePipeline);
    Server = std::make_unique<serve::Server>(); // For the first round.
    Canonical.clear();
  }

  size_t roundSize() const override { return PrefixRequests + TimedRequests; }
  size_t untimedPrefix() const override { return PrefixRequests; }

  void beginRound(bool Traced) override {
    (void)Traced;
    if (!Server)
      Server = std::make_unique<serve::Server>();
  }

  void runOp(size_t I, SpanRecorder *Spans) override {
    ScopedSpan S(Spans, "serve.request");
    Response = Server->handle(Sequence[I].Line);
    LastSpans = Spans;
    LastSpan = S.index();
  }

  bool checkOp(size_t I, bool Traced, std::string &Why) override {
    (void)Traced;
    const bool Ok = checkResponse(I, Why);
    if (LastSpans) {
      LastSpans->rename(LastSpan, LastClass);
      LastSpans = nullptr;
    }
    if (I + 1 == PrefixRequests)
      Before = Server->statsSnapshot(); // Counts cover the timed part only.
    if (I >= PrefixRequests) {
      Counts.Values[std::string("serve.requests.") + (LastClass + 6)] += 1;
      Counts.Digest = fnv1aMix(Counts.Digest, fnv1a(normalized(Response)));
    }
    return Ok;
  }

  RoundCounts endRound() override {
    const serve::StatsSnapshot After = Server->statsSnapshot();
    const auto Ratio = [](uint64_t Hits, uint64_t Misses) {
      return Hits + Misses == 0 ? 0.0
                                : static_cast<double>(Hits) /
                                      static_cast<double>(Hits + Misses);
    };
    Counts.Values["serve.compile_hit_ratio"] =
        Ratio(After.Compile.Hits - Before.Compile.Hits,
              After.Compile.Misses - Before.Compile.Misses);
    Counts.Values["serve.sim_hit_ratio"] =
        Ratio(After.Sim.Hits - Before.Sim.Hits,
              After.Sim.Misses - Before.Sim.Misses);
    Counts.Values["serve.compile_evictions"] =
        static_cast<double>(After.Compile.Evictions - Before.Compile.Evictions);
    Server.reset(); // Every round starts from a fresh server.
    RoundCounts Out = std::move(Counts);
    Counts = RoundCounts();
    return Out;
  }

  /// Every distinct simulate request recomputed directly (parse,
  /// runSyncPipeline, runGrid) against the served response.
  uint64_t finalChecks(std::vector<std::string> &Why) override {
    uint64_t Failures = 0;
    std::set<uint64_t> Done;
    for (const Req &R : Sequence) {
      if (R.Op != ReqOp::Simulate || !Done.insert(R.key()).second)
        continue;
      std::string Message;
      if (!recompute(R, Message)) {
        ++Failures;
        Why.push_back(Message);
      }
    }
    return Failures;
  }

private:
  /// Checks the response to request \p Pos and classifies it into
  /// LastClass.
  bool checkResponse(size_t Pos, std::string &Why) {
    const Req &R = Sequence[Pos];
    const JsonParseResult J = parseJson(Response);
    const JsonValue *Cached =
        J.ok() && J.Value.isObject() ? J.Value.field("cached") : nullptr;
    const bool Hit = Cached && Cached->asBool();
    LastClass = R.Op == ReqOp::Compile    ? (Hit ? "serve.compile_hit"
                                                 : "serve.compile_miss")
                : R.Op == ReqOp::Simulate ? (Hit ? "serve.simulate_hit"
                                                 : "serve.simulate_miss")
                                          : "serve.lint";
    const std::string Name = "request " + std::to_string(Pos);
    if (!J.ok() || !J.Value.isObject() || J.Value.field("error") ||
        !J.Value.field("ok") || !J.Value.field("ok")->asBool()) {
      Why = Name + ": error response: " + Response.substr(0, 200);
      return false;
    }
    if (R.Op == ReqOp::Simulate) {
      const JsonValue *Status = J.Value.field("status");
      if (!Status || Status->asString() != "finished") {
        Why = Name + ": simulation did not finish";
        return false;
      }
    }
    // The first response for a key is canonical; hits and later rounds
    // must repeat it up to the id and the cache flags.
    auto [It, Inserted] = Canonical.try_emplace(R.key(), Response);
    if (!Inserted && normalized(It->second) != normalized(Response)) {
      Why = Name + ": response differs from the first one for its key";
      return false;
    }
    return true;
  }

  bool recompute(const Req &R, std::string &Why) {
    const std::string Name = "corpus kernel " + std::to_string(R.Kernel) +
                             " seed " + std::to_string(R.SimSeed);
    const auto Served = Canonical.find(R.key());
    if (Served == Canonical.end()) {
      Why = Name + ": never served successfully";
      return false;
    }
    const JsonParseResult J = parseJson(Served->second);
    ParseResult P = parseModule(Sources[R.Kernel]);
    if (!J.ok() || !P.ok()) {
      Why = Name + ": recompute could not start";
      return false;
    }
    runSyncPipeline(*P.M, Spec);
    const LaunchVerification V = verifyLaunchModule(*P.M);
    LaunchConfig Config;
    Config.Seed = R.SimSeed;
    Config.CollectTraceDigest = true;
    Config.Verified = &V;
    const GridResult G =
        runGrid(*P.M, P.M->function(0), Config, SimulateWarps);
    const auto Str = [&](const char *Key) {
      const JsonValue *F = J.Value.field(Key);
      return F ? F->asString() : std::string();
    };
    const auto Int = [&](const char *Key) {
      const JsonValue *F = J.Value.field(Key);
      return F ? F->asInt() : -1;
    };
    if (!G.Ok || Str("post_digest") != jsonHex64(fnv1a(printModule(*P.M))) ||
        Str("checksum") != jsonHex64(G.CombinedChecksum) ||
        Str("trace_digest") != jsonHex64(G.TraceDigest) ||
        Int("cycles") != static_cast<int64_t>(G.TotalCycles) ||
        Int("issue_slots") != static_cast<int64_t>(G.TotalIssueSlots)) {
      Why = Name + ": served simulate result differs from a direct run";
      return false;
    }
    return true;
  }

  std::vector<std::string> Sources;
  std::vector<Req> Sequence;
  PipelineSpec Spec;
  std::unique_ptr<serve::Server> Server;
  serve::StatsSnapshot Before;
  std::map<uint64_t, std::string> Canonical; ///< First response per key.
  std::string Response;
  const char *LastClass = "";
  SpanRecorder *LastSpans = nullptr;
  uint32_t LastSpan = 0;
  RoundCounts Counts;
};

} // namespace

std::unique_ptr<BenchWorkload> makeServeMix() {
  return std::make_unique<ServeMix>();
}

} // namespace perfbench
