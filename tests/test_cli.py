import json
import math
import shlex
import warnings
from pathlib import Path

import pytest

from nlsground import (InvalidSpec, MassOutOfRange, NoConvergence,
                       SolverOptions, load_field)
from nlsground import cli
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
    assert [label for label, _ in rec["multistart"]] == ["midpoint"]


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
    assert sorted(rec) == ["box_lengths", "box_values", "error_bar", "mu_N",
                           "scaling_expected", "scaling_ok", "scaling_ratio"]
    assert rec["mu_N"] == pytest.approx(math.sqrt(3) * math.pi / 2, rel=0.02)
    assert rec["scaling_ok"]


def test_bound_subcommand(capsys):
    code, out = run_cli(capsys, "bound", "--p", "8", "--mu", "1.0",
                        "--n", "127")
    assert code == 0
    rec = json.loads(out)
    assert sorted(rec) == ["energy", "energy_cap", "energy_ok", "lambda",
                           "lambda_bar", "lambda_ok", "mu_bar", "passed"]
    assert rec["passed"] and rec["lambda_ok"] and rec["energy_ok"]
    assert rec["lambda"] < rec["lambda_bar"]
    assert rec["energy"] < rec["energy_cap"]
    assert rec["mu_bar"] > 1.0


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


def test_normalized_mass_between_samples_and_threshold(capsys):
    # above all 40 sampled masses, below the refined mass peak 1.25959438
    mu = 1.2595513836794865
    code, out = run_cli(capsys, "normalized", "--p", "8", "--n", "255",
                        "--samples", "40", "--mu", repr(mu))
    assert code == 0
    rec = json.loads(out)
    assert len(rec["branches"]) == 2
    assert all(abs(b[2] - mu) <= 1e-6 * mu for b in rec["branches"])


def test_exhaustion_subcommand(capsys):
    code, out = run_cli(capsys, "exhaustion", "--p", "4", "--lambda", "100",
                        "--shrinks", "0.05,0.02,0.005", "--n", "255")
    assert code == 0
    rec = json.loads(out)
    assert rec["passed"] and rec["monotone"]


def test_usage_errors_exit_1(tmp_path, capsys):
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
                 ("bound", "--p", "8", "--mu", "inf", "--n", "63"),
                 ("pohozaev", "--in", str(tmp_path / "missing.field"),
                  "--p", "4", "--lambda", "10")):
        code, _ = run_cli(capsys, *argv)
        assert code == 1, argv


@pytest.mark.parametrize("argv", [
    ("ground", "--p", "4", "--lambda", "10", "--n", "15", "--seed", "3"),
    ("nodal", "--p", "4", "--lambda", "10", "--n", "15", "--seed", "3"),
    ("sweep", "--p", "4", "--n", "15", "--samples", "3", "--seed", "3"),
    ("mu-n", "--boxes", "8,16", "--seed", "3"),
    ("normalized", "--p", "4", "--mu", "1", "--n", "15", "--seed", "3"),
    ("bound", "--p", "8", "--mu", "1", "--n", "15", "--seed", "3"),
    ("exhaustion", "--p", "4", "--lambda", "100", "--n", "15", "--seed", "3"),
    ("mu-n", "--boxes", "8,16", "--p", "3"),
    ("check-all", "--config", "f"),
])
def test_removed_inputs_are_usage_errors(capsys, argv):
    # the seed of the solving subcommands, mu-n's exponent and check-all's
    # config file reached no solver and are gone
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code == 1
    assert "unrecognized arguments" in err, err


def test_readme_cli_lines_parse():
    # every command of the README's CLI block parses, so a removed flag
    # left in the docs fails here
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    commands = [shlex.split(line, comments=True)
                for line in block.splitlines() if line.startswith("nlsground ")]
    assert len(commands) == 10
    for words in commands:
        assert words[0] == "nlsground"
        cli.build_parser().parse_args(words[1:])


def test_huge_exponent_or_frequency_is_a_solver_failure(capsys):
    # the overflow of the quadrature is one NoConvergence naming it, with
    # no RuntimeWarning on the way
    cases = [("ground", "--p", "1e308", "--lambda", "10", "--n", "15"),
             ("sweep", "--p", "4", "--n", "15", "--lambda-max", "1e200",
              "--samples", "3"),
             ("normalized", "--p", "4", "--mu", "1", "--n", "15",
              "--lambda-max", "1e308")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in cases:
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code == 2, argv
            assert err.startswith("NoConvergence") and "overflow" in err, err


@pytest.mark.parametrize("boxes", ["1,inf", "1,nan", "-2,4", "0,4"])
def test_mu_n_rejects_bad_box_sizes(capsys, boxes):
    code = main(["mu-n", f"--boxes={boxes}"])
    err = capsys.readouterr().err
    assert code == 1
    assert "box size" in err and "Traceback" not in err


def test_mu_n_huge_box_is_a_solver_failure(capsys):
    # finite, but box / resolution overflows: the node count is capped
    # before it is rounded, and the degenerate solve fails with exit 2
    code = main(["mu-n", "--boxes", "1,1e308"])
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--dim", "2", "--domain", "0,1"),
                                  ("--dim", "1", "--domain", "0,1,0,1")])
def test_dim_and_domain_must_agree(capsys, argv):
    code = main(["ground", "--p", "4", "--lambda", "10", "--n", "15", *argv])
    assert code == 1
    assert "disagrees" in capsys.readouterr().err


@pytest.mark.parametrize("argv, dimension", [(("--domain", "0,1,0,2"), 2),
                                             (("--domain", "0,2"), 1),
                                             (("--dim", "2"), 2),
                                             ((), 1)])
def test_dim_follows_domain(capsys, argv, dimension):
    code, out = run_cli(capsys, "ground", "--p", "4", "--lambda", "10",
                        "--n", "15", *argv)
    assert code == 0
    assert json.loads(out)["domain"]["dimension"] == dimension


def test_normalized_needs_two_samples(capsys):
    code = main(["normalized", "--p", "4", "--mu", "1", "--n", "63",
                 "--samples", "1"])
    assert code == 1
    assert "samples" in capsys.readouterr().err


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
               lines[:4] + ["n 62"] + lines[5:],
               lines[:9] + ["nan"] + lines[10:],
               lines[:9] + ["-inf"] + lines[10:]]
    for i, rows in enumerate(broken):
        path = tmp_path / f"broken{i}.field"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(InvalidSpec):
            load_field(path)
        code, _ = run_cli(capsys, "pohozaev", "--in", str(path),
                          "--p", "4", "--lambda", "10")
        assert code == 1, rows[:6]


def test_non_finite_frequencies_exit_1_without_warnings(capsys):
    # an infinite or NaN frequency bound is rejected before any numpy
    # arithmetic on it, so no RuntimeWarning is raised on the way
    cases = [("sweep", "--p", "4", "--n", "15", "--lambda-max", "inf"),
             ("sweep", "--p", "4", "--n", "15", "--lambda-min", "nan"),
             ("normalized", "--p", "4", "--mu", "1", "--n", "15",
              "--lambda-max", "inf")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in cases:
            code = main(list(argv))
            err = capsys.readouterr().err
            assert code == 1, argv
            assert err.startswith("invalid configuration"), err


@pytest.mark.parametrize("argv", [
    ("ground", "--p", "4", "--lambda", "10", "--n", "15",
     "--out", "{missing}/x.json"),
    ("ground", "--p", "4", "--lambda", "10", "--n", "15",
     "--dump", "{missing}/x"),
    ("check-all", "--out-dir", "{file}/x"),
    ("ground", "--p", "4", "--lambda", "10", "--n", "100000000000"),
    ("ground", "--p", "4", "--lambda", "10", "--dim", "2", "--n", "3000000"),
])
def test_unwritable_output_exits_1(tmp_path, capsys, argv):
    # an output under a missing directory or under a file, or a grid too
    # large to allocate, is a bad argument: exit 1 with one line on
    # stderr, not a traceback
    (tmp_path / "file").write_text("")
    code = main([a.format(missing=tmp_path / "missing", file=tmp_path / "file")
                 for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("nodal", "--p", "4", "--lambda", "10"),
    ("sweep", "--p", "4", "--kind", "nodal", "--samples", "5"),
    ("normalized", "--p", "4", "--mu", "1", "--kind", "nodal"),
])
def test_nodal_subcommands_on_three_nodes(capsys, argv):
    # n = 3, the smallest grid, leaves one node on each side of the
    # midpoint flip
    code = main([*argv, "--n", "3"])
    assert code == 0, capsys.readouterr().err


@pytest.mark.parametrize("line", ["n = 1023", "dimension = 2", "kind = nodal",
                                  "bounds = 0.0,1.0,0.0,1.0", "out_dir = elsewhere"])
def test_check_all_refuses_removed_config_keys(tmp_path, capsys, line):
    # check-all reads no config file: whatever it holds, --config is a
    # usage error before any artifact is written
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"seed = 0\n{line}\n")
    out_dir = tmp_path / "artifacts"
    code = main(["check-all", "--config", str(cfg), "--out-dir", str(out_dir)])
    assert code == 1
    assert "unrecognized arguments: --config" in capsys.readouterr().err
    assert not out_dir.exists()


def test_check_all_runs_clean(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out = run_cli(capsys, "check-all", "--out-dir", str(out_dir))
    assert code == 0
    summary = json.loads((out_dir / "summary.json").read_text())
    names = {c["name"] for c in summary["checks"]}
    assert "normalized-certified" in names
    assert all(c["status"] == "pass" for c in summary["checks"])
    assert (out_dir / "sweep_signed_p4.csv").exists()


def test_check_all_artifacts_independent_of_seed(tmp_path, capsys):
    outs = []
    for seed in ("0", "5"):
        out_dir = tmp_path / f"seed{seed}"
        code, _ = run_cli(capsys, "check-all", "--out-dir", str(out_dir),
                          "--seed", seed)
        assert code == 0
        outs.append(out_dir)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        a, b = ((out / name).read_bytes() for out in outs)
        if name == "summary.json":
            a, b = (json.loads(x) for x in (a, b))
            assert (a.pop("seed"), b.pop("seed")) == (0, 5)
        assert a == b, name


def test_mass_threshold_check_needs_rising_p4_masses(tmp_path, monkeypatch):
    # p=4 is subcritical, so its sampled masses must rise strictly; one
    # flat step fails the check though mass_threshold never reads them
    sweep = cli.sweep

    def flattened(grid, p, lams, kind, opts):
        curve = sweep(grid, p, lams, kind, opts)
        if p == 4.0:
            curve.mass[-1] = curve.mass[-2]
        return curve

    monkeypatch.setattr(cli, "sweep", flattened)
    ok, detail, _ = cli._check_threshold(SolverOptions(), tmp_path)
    assert not ok
    assert "p=4 unbounded=True" in detail


def _passing(name):
    def check(opts, outdir):
        return True, "fine", {outdir / f"{name}.csv": ["x", "1.0"]}
    return check


def _raising(exc_type):
    def check(opts, outdir):
        raise exc_type("broke")
    return check


@pytest.mark.parametrize("check, status, code", [
    (_raising(NoConvergence), "error:NoConvergence", 2),
    (_raising(MassOutOfRange), "fail:MassOutOfRange", 3),
    (lambda opts, outdir: (False, "off", {}), "fail", 3),
])
def test_check_all_failure_contract(tmp_path, capsys, monkeypatch, check,
                                    status, code):
    # a solver breakdown is an error (exit 2); a failed gate or check is a
    # failure (exit 3); the other checks still run and write artifacts
    monkeypatch.setattr(cli, "_CHECKS", [("first", _passing("first")),
                                         ("broken", check),
                                         ("last", _passing("last"))])
    assert run_cli(capsys, "check-all", "--out-dir", str(tmp_path))[0] == code
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert [(c["name"], c["status"]) for c in summary["checks"]] == [
        ("first", "pass"), ("broken", status), ("last", "pass")]
    for name in ("first", "last"):
        assert (tmp_path / f"{name}.csv").read_text() == "x\n1.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "first.csv", "last.csv", "summary.json"]
