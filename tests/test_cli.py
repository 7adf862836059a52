import json
import math

import pytest

from nlsground import InvalidSpec, RunConfig, load_field
from nlsground.cli import EIG_HEADER, SWEEP_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_eig_csv(capsys):
    code, out = run_cli(capsys, "eig", "--n", "255", "--k", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == EIG_HEADER
    idx, value, residual = lines[1].split(",")
    assert idx == "1"
    assert float(value) == pytest.approx(math.pi**2, rel=1e-4)
    assert float(residual) < 1e-9


def test_ground_json_and_dump_roundtrip(tmp_path, capsys):
    dump = tmp_path / "u.field"
    code, out = run_cli(capsys, "ground", "--p", "4", "--lambda", "10",
                        "--n", "255", "--out", str(tmp_path / "g.json"),
                        "--dump", str(dump))
    assert code == 0
    rec = json.loads((tmp_path / "g.json").read_text())
    assert rec["p"] == 4.0 and rec["lambda"] == 10.0
    assert rec["residual"] <= 1e-8
    assert rec["node_count"] == 0
    field = load_field(dump)
    assert field.grid.l2_sq(field.values) == pytest.approx(rec["mass"], rel=1e-12)
    # the dump feeds the boundary-identity checker
    code, out = run_cli(capsys, "pohozaev", "--in", str(dump),
                        "--p", "4", "--lambda", "10")
    assert code == 0
    rep = json.loads(out)
    assert rep["identity_residual"] <= 1e-2


def test_nodal_json_has_parts(capsys):
    code, out = run_cli(capsys, "nodal", "--p", "4", "--lambda", "10",
                        "--n", "255")
    assert code == 0
    rec = json.loads(out)
    assert rec["node_count"] >= 1
    assert len(rec["part_masses"]) == 2
    assert sum(rec["part_masses"]) == pytest.approx(rec["mass"], rel=1e-12)
    assert len(rec["multistart"]) == 3


def test_sweep_csv_header(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _ = run_cli(capsys, "sweep", "--p", "4", "--kind", "signed",
                      "--lambda-min", "1.0", "--lambda-max", "40.0",
                      "--samples", "20", "--n", "127", "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == SWEEP_HEADER == "lambda,J,mass,dJ_central,flag"
    assert len(lines) == 21
    assert all(line.endswith(",ok") for line in lines[1:])


def test_mu_n_subcommand(capsys):
    code, out = run_cli(capsys, "mu-n", "--dim", "1", "--boxes", "8,16")
    assert code == 0
    rec = json.loads(out)
    assert rec["mu_N"] == pytest.approx(math.sqrt(3) * math.pi / 2, rel=0.02)
    assert rec["scaling_ok"]


def test_normalized_exit_codes(capsys):
    code, out = run_cli(capsys, "normalized", "--p", "4", "--mu", "1.0",
                        "--n", "127", "--lambda-max", "60", "--samples", "60")
    assert code == 0
    rec = json.loads(out)
    assert abs(rec["mu"] - 1.0) <= 1e-12
    # a mass far above the supercritical threshold is a gate failure: exit 3
    code, _ = run_cli(capsys, "normalized", "--p", "8", "--mu", "50.0",
                      "--n", "127", "--lambda-max", "150", "--samples", "60")
    assert code == 3


def test_exhaustion_subcommand(capsys):
    code, out = run_cli(capsys, "exhaustion", "--p", "4", "--lambda", "100",
                        "--shrinks", "0.05,0.02,0.005", "--n", "255")
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] and rec["monotone"]


def test_usage_errors_exit_1(capsys):
    code, _ = run_cli(capsys, "sweep", "--p", "4", "--lambda-min", "5",
                      "--lambda-max", "1", "--n", "63")  # descending range
    assert code == 1
    code, _ = run_cli(capsys, "ground", "--p", "4")  # missing --lambda
    assert code == 1
    code, _ = run_cli(capsys, "eig", "--n", "2")
    assert code == 1
    code, _ = run_cli(capsys, "eig", "--seed", "3")  # eig has no solver flags
    assert code == 1
    for bad in (("--tol", "nan"), ("--tol", "-1"), ("--tol", "0"),
                ("--tol", "inf"), ("--p", "inf"), ("--p", "nan")):
        args = {"--p": "4", "--lambda": "10", "--n": "63"}
        args.update([bad])
        code, _ = run_cli(capsys, "ground", *[v for kv in args.items() for v in kv])
        assert code == 1, bad
    for argv in (("sweep", "--p", "inf", "--n", "63", "--samples", "5"),
                 ("normalized", "--p", "4", "--mu", "nan", "--n", "63"),
                 ("bound", "--p", "8", "--mu", "inf", "--n", "63")):
        code, _ = run_cli(capsys, *argv)
        assert code == 1, argv


def test_truncated_dump_is_invalid(tmp_path, capsys):
    dump = tmp_path / "u.field"
    code, _ = run_cli(capsys, "ground", "--p", "4", "--lambda", "10",
                      "--n", "63", "--out", str(tmp_path / "g.json"),
                      "--dump", str(dump))
    assert code == 0
    lines = dump.read_text().splitlines()
    broken = [lines[:k] for k in range(7)]
    broken += [lines[:3] + ["n x"] + lines[4:],
               lines[:2] + ["bounds 0.0"] + lines[3:],
               lines[:4] + ["n 62"] + lines[5:]]
    for i, rows in enumerate(broken):
        path = tmp_path / f"broken{i}.field"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidSpec):
            load_field(path)
        code, _ = run_cli(capsys, "pohozaev", "--in", str(path),
                          "--p", "4", "--lambda", "10")
        assert code == 1, rows[:6]


def test_config_roundtrip(tmp_path):
    cfg = RunConfig(dimension=1, bounds=(0.0, 2.5), n=127, p=6.0,
                    kind="nodal", lambda_min=None, lambda_max=321.0,
                    samples=50, mu=(0.5, 1.5), seed=11, tol=1e-9,
                    out_dir="artifacts")
    path = tmp_path / "run.cfg"
    cfg.to_file(path)
    back = RunConfig.from_file(path)
    assert back == cfg
    # second trip is bitwise identical
    path2 = tmp_path / "run2.cfg"
    back.to_file(path2)
    assert path.read_text() == path2.read_text()


def test_config_validation(tmp_path):
    with pytest.raises(InvalidSpec):
        RunConfig(kind="weird")
    with pytest.raises(InvalidSpec):
        RunConfig(mu=(0.0,))
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 3\n")
    with pytest.raises(InvalidSpec):
        RunConfig.from_file(bad)


def test_check_all_runs_clean(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out = run_cli(capsys, "check-all", "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert "normalized-certified" in names
    assert all(c["status"] == "pass" for c in summary["checks"])
    assert (out_dir / "sweep_signed_p4.csv").exists()
