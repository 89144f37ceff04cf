//===- Bench.cpp - Span recorder and shared helpers -------------------------===//

#include "Bench.h"

#include "transform/PassStage.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>

using namespace perfbench;

uint32_t SpanRecorder::begin(const char *Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : static_cast<int32_t>(Open.back());
  S.StartNs = nowNs();
  Spans.push_back(std::move(S));
  const uint32_t Index = static_cast<uint32_t>(Spans.size() - 1);
  Open.push_back(Index);
  return Index;
}

void SpanRecorder::end(uint32_t Index) {
  Spans[Index].EndNs = nowNs();
  // Spans close in LIFO order (they are scoped).
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, SpanRecorder::SelfTime>
SpanRecorder::selfTimes() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, SelfTime> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    SelfTime &T = Out[Spans[I].Name];
    ++T.Count;
    T.Ns += Spans[I].EndNs - Spans[I].StartNs - ChildNs[I];
  }
  return Out;
}

bool SpanRecorder::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  const int64_t Base = Spans.empty() ? 0 : Spans.front().StartNs;
  Out << "index\tparent\tname\tstart_ns\tend_ns\n";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    Out << I << '\t' << S.Parent << '\t' << S.Name << '\t'
        << S.StartNs - Base << '\t' << S.EndNs - Base << '\n';
  }
  return static_cast<bool>(Out.flush());
}

simtsr::PipelineSpec perfbench::catalogSpec(const char *Name) {
  std::optional<simtsr::PipelineSpec> Spec = simtsr::standardPipelineSpec(Name);
  if (!Spec) {
    std::fprintf(stderr, "pipeline '%s' is not in the catalog\n", Name);
    std::exit(2);
  }
  return *Spec;
}
