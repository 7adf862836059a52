"""One repetition of a workload in a fresh interpreter.

Started by run.py with the package source on PYTHONPATH.  Set-up imports
nlsground (with numpy and scipy) and builds the workload's inputs; the
timed section runs its tasks from cold caches.  Prints one JSON line:
the monotonic time at which set-up ended, timings, peak memory, the
operations with their failed checks and, when traced, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scratch", required=True, type=Path)
    ap.add_argument("--spans", type=Path, default=None,
                    help="where a traced repetition writes its spans")
    args = ap.parse_args()

    import nlsground  # noqa: F401  (set-up cost: package, numpy, scipy)
    from workloads import WORKLOADS, Clock

    clock = Clock()
    workload = WORKLOADS[args.workload](args.seed, args.scratch, clock)
    ready = time.monotonic()

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()

    cpu0 = time.process_time()
    t0 = time.perf_counter()
    workload.run(clock)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "ready": ready,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_mib,
        **{f"{kind}_s": t for kind, t in clock.times.items()},
        "ops": [op.record() for op in workload.check()],
    }
    if tracer is not None:
        result["layers"] = {**tracer.layer_metrics(), "trace.wall_s": wall}
        if args.spans is not None:
            tracer.write(args.spans)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
