//===- Reference.h - Known-good outputs at the default seed ----*- C++ -*-===//
///
/// \file
/// Outputs the benchmark checks against when it runs at the default
/// workload seed (2020). The sim-suite rows are the pdom rows of the
/// repository's BENCH_baseline.json (simtsr-bench: pdom pipeline, seed
/// 2020, 8 warps, scale 1), copied here so the benchmark does not depend
/// on that file's schema. The compile-gen digest was recorded from this
/// benchmark on the commit that added it.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REFERENCE_H
#define PERFBENCH_REFERENCE_H

#include <cstdint>

namespace perfbench {

constexpr uint64_t DefaultSeed = 2020;

struct PdomReference {
  const char *Name;
  uint64_t Cycles;
  uint64_t IssueSlots;
  uint64_t Checksum;
};

inline constexpr PdomReference PdomAtDefaultSeed[] = {
    {"rsbench", 1243862ull, 677319ull, 0x110e0e0740c007a3ull},
    {"xsbench", 1273402ull, 62042ull, 0x3a64b6f74e3b8039ull},
    {"mcb", 104611ull, 43352ull, 0x01fb7e1f850124b6ull},
    {"pathtracer", 114846ull, 57953ull, 0xe478afa88c3b8e02ull},
    {"mc-gpu", 172725ull, 86021ull, 0x06364883e8437d3cull},
    {"mummer", 677576ull, 62746ull, 0x5494a79016119c6full},
    {"meiyamd5", 301956ull, 162970ull, 0x93d8f04bb683fa40ull},
    {"optix", 138840ull, 53868ull, 0x23a5af3ce6a02333ull},
    {"gpu-mcml", 324343ull, 143890ull, 0x1fd2b4d50c5c6e0dull},
    {"micro-commoncall", 52404ull, 26362ull, 0x0000000000000018ull},
};

/// compile-gen's round output digest (the post-pipeline module digests of
/// its 1024 modules, folded in order) at the default seed.
inline constexpr uint64_t CompileGenDigestAtDefaultSeed = 0x6d68653ca7c749d9ull;

} // namespace perfbench

#endif // PERFBENCH_REFERENCE_H
