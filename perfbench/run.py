"""nlsground benchmark: one run of one workload.

    python3 perfbench/run.py --workload battery --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  A run repeats the workload, each
repetition in a fresh interpreter so the eigen and solver caches start
cold, until --seconds have passed (whole repetitions only); every
repetition gets --seed.

With --trace 0 the last line of output holds the end-to-end metrics of
BENCHMARK.json (medians over repetitions); with --trace 1, the
per-layer metrics of a traced run.  Lines before it list the operations
attempted and every failed check with its measured value.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import TASK_KINDS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_LIMIT_S = 170.0  # every run must end within 180 s


class RepFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, trace: int, scratch: Path, deadline: float,
           spans: Path | None = None) -> dict:
    """Run rep.py once; returns its result with `setup_s` filled in."""
    env = dict(os.environ)
    env.pop("NLSGROUND_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--scratch", str(scratch)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - spawned, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RepFailed(f"repetition (seed {seed}) passed the run's time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RepFailed(f"repetition (seed {seed}) exited with {proc.returncode}:\n"
                        + proc.stderr[-3000:])
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "nlsground").is_dir():
        print(f"benchmark error: no package source at {ROOT / 'src' / 'nlsground'}",
              file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    group = spec["per_layer"] if args.trace else spec["end_to_end"]
    tmp = ROOT / ".perfbench_tmp"
    scratch = tmp / args.workload
    spans = tmp / f"{args.workload}.spans.json" if args.trace else None

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    reps = []
    try:
        while True:
            reps.append(_child(args.workload, args.seed, args.trace, scratch, deadline,
                               spans=spans))
            rep = reps[-1]
            print(f"rep {len(reps)}: wall {rep['wall_s']:.3f} s, set-up {rep['setup_s']:.3f} s, "
                  + ", ".join(f"{kind} {rep[kind + '_s']:.3f} s" for kind in TASK_KINDS),
                  flush=True)
            if time.monotonic() - start >= args.seconds:
                break
    except RepFailed as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = failed = 0
    unexpected = False
    tally: dict = {}
    for k, rep in enumerate(reps, start=1):
        for op in rep["ops"]:
            attempted += 1
            seen = tally.setdefault(op["name"], [0, 0])
            seen[0] += 1
            if not op["failed"]:
                continue
            failed += 1
            seen[1] += 1
            unexpected = unexpected or not op["known"]
            note = "known fault" if op["known"] else "UNEXPECTED"
            for f in op["failures"]:
                print(f"FAILED rep {k} {op['name']}: {f['check']} = {f['value']} "
                      f"(limit {f['limit']}) [{note}]")
    print(f"operations on {args.workload}: {attempted} attempted, {failed} failed "
          f"in {len(reps)} repetitions")
    for name, (n_att, n_fail) in tally.items():
        print(f"  {name}: {n_att} attempted, {n_fail} failed")

    if args.trace:
        values = {m["name"]: statistics.median([rep["layers"][m["name"]] for rep in reps])
                  for m in group}
    else:
        values = {m["name"]: statistics.median([rep[m["name"]] for rep in reps]) for m in group}
        eig = statistics.median([rep["eig_s"] for rep in reps])
        print(f"  eig_s = {eig:.6g} s (median; reported, not bounded)")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
