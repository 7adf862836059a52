"""Every benchmark workload passes its own oracle checks.

perfbench/workloads.py builds each workload's inputs, runs its tasks
and turns their outputs into operations checked against closed forms
and independent stencils.  A failed operation there is a solver fault
that only a benchmark run would show, so each workload runs once here,
in a fresh interpreter as a benchmark repetition does (the battery
rebinds the CLI's check table).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
from pathlib import Path
from workloads import WORKLOADS, Clock

clock = Clock()
workload = WORKLOADS[sys.argv[1]](0, Path(sys.argv[2]), clock)
workload.run(clock)
print(json.dumps([op.record() for op in workload.check()]))
"""


@pytest.mark.parametrize("name", ["battery", "fine-1d", "square-2d"])
def test_workload_operations_pass_their_checks(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = subprocess.run([sys.executable, "-c", SCRIPT, name, str(tmp_path)],
                         cwd=tmp_path, env=env, capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
    ops = json.loads(out.stdout.strip().splitlines()[-1])
    assert ops
    failed = [op for op in ops if op["failed"]]
    assert not failed, failed
