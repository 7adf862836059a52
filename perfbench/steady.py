"""Steadiness of the benchmark: spread of each end-to-end metric.

    python3 perfbench/steady.py [--workloads fine-1d,battery] [--sets 2]

Runs run.py ten times per workload and set, each with another seed, and
reports for every end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  A
spread above the bound, or above a third of it, is marked.  With
--sets 2 the second set's median is compared with the first's, as is
the share of failed operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    args = ap.parse_args()

    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            seeds = [1 + s * RUNS + k for k in range(RUNS)]
            results = []
            for seed in seeds:
                results.append(run_once(workload, seed, spec["run_seconds"]))
                print(f"{workload} seed {seed}: wall_s "
                      f"{results[-1]['metrics']['wall_s']['value']:.3f}", flush=True)
            sets.append(results)
        print(f"\n{workload}: {RUNS} runs per set, {args.sets} set(s)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for k, results in enumerate(sets):
                med, q1, q3, sp = spread([r["metrics"][name]["value"] for r in results])
                meds.append(med)
                mark = ""
                if sp > bound:
                    mark, steady = "  ABOVE BOUND", False
                elif sp > bound / 3:
                    mark = "  above bound/3"
                print(f"  set {k + 1} {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                      f"q3 {q3:10.4f}  spread {sp:6.3f}  bound {bound}{mark}")
            if len(meds) == 2:
                drift = (meds[1] - meds[0]) / meds[0]
                worse = drift if metric["better"] == "lower" else -drift
                flag = "  WORSE THAN BOUND" if worse > bound else ""
                steady = steady and not flag
                print(f"        {name:12s} second median vs first {drift:+.3f}{flag}")
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        print(f"  failed share per run: {sorted(shares)}"
              + ("" if len(shares) == 1 else "  NOT CONSTANT"))
        steady = steady and len(shares) == 1
        if not all(r["correct"] for results in sets for r in results):
            print("  some run reported correct=false")
            steady = False
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
