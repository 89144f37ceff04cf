#!/usr/bin/env python3
"""Self-test of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload it checks, through perfbench/run.py:
  1. two short traced runs at the default seed pass every output check and
     report identical exact counts;
  2. a traced run at a held-out seed passes every check, and the exact
     counts the workload produces differ from the default seed's;
  3. the result lines carry exactly the metrics BENCHMARK.json declares
     (per-layer when traced, end-to-end when not).
Exits 0 when all of that holds, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 2020
HELD_OUT_SEED = 917
SECONDS = 1


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = spec["per_layer"]
    # Exact counts: everything per-layer that is not a time or the
    # traced/untraced throughput ratio.
    exact = [m["name"] for m in per_layer
             if m["unit"] in ("count", "ratio")
             and m["name"] != "trace_overhead_ratio"]
    problems = []

    def expect(cond, what):
        if not cond:
            problems.append(what)
        print(("ok   " if cond else "FAIL ") + what, flush=True)

    for w in (x["name"] for x in spec["workloads"]):
        first = run(w, DEFAULT_SEED, 1)
        second = run(w, DEFAULT_SEED, 1)
        held_out = run(w, HELD_OUT_SEED, 1)
        untraced = run(w, DEFAULT_SEED, 0)
        for name, result in (("default seed, run 1", first),
                             ("default seed, run 2", second),
                             (f"seed {HELD_OUT_SEED}", held_out),
                             ("untraced", untraced)):
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{w} {name}: every output check passes")
        expect(set(first["metrics"]) == {m["name"] for m in per_layer},
               f"{w}: traced result carries exactly the per-layer metrics")
        expect(set(untraced["metrics"]) == end_to_end,
               f"{w}: untraced result carries exactly the end-to-end metrics")
        counts = {k: first["metrics"][k]["value"] for k in exact}
        again = {k: second["metrics"][k]["value"] for k in exact}
        expect(counts == again, f"{w}: exact counts repeat across runs")
        own = [k for k, v in counts.items() if v != 0]
        expect(bool(own) and any(
            held_out["metrics"][k]["value"] != counts[k] for k in own),
            f"{w}: a held-out seed changes the exact counts")
    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
