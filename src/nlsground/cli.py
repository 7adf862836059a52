"""Command-line drivers: deterministic CSV/JSON artifacts per subcommand.

Exit codes: 0 success, 1 invalid configuration or arguments, 2 solver
failure, 3 a numerical check or certification failed (the summary names
the failing check).  Identical configuration and seed produce bitwise
identical artifacts: floats are serialized with repr, JSON keys are
sorted, and nothing time- or host-dependent is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import spectral
from .action import ActionParams, SolverOptions, ground_state, kappa
from .config import RunConfig
from .curves import (derivative_mass_check, exhaustion_test, estimate_mu_N,
                     mass_threshold, sweep, threshold_eigenvalue)
from .errors import (CertificationFailed, InvalidSpec, MassAboveBarMu,
                     MassOutOfRange, NlsgroundError, NoConvergence)
from .grid import DomainSpec, Field, Grid, load_field, norms, save_field, split
from .nodal import nodal_ground_state
from .normalized import (least_energy_certify, pohozaev_check,
                         solve_normalized, supercritical_lambda_bound)

SWEEP_HEADER = "lambda,J,mass,dJ_central,flag"
EIG_HEADER = "index,value,residual"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; the contract reserves 2 for
    # solver failures, so usage errors are remapped to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _fmt(x: float) -> str:
    return repr(float(x))


def _dump_json(record: dict, path: str | None) -> None:
    text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _dump_lines(lines: list[str], path: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_domain(text: str | None, dim: int | None) -> DomainSpec:
    """The box of --domain, or the unit box of --dim (default 1)."""
    if text is None:
        return (DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0) if dim == 2
                else DomainSpec.interval(0.0, 1.0))
    vals = [float(v) for v in text.split(",")]
    if len(vals) not in (2, 4):
        raise InvalidSpec(f"domain must have 2 or 4 bounds, got {text!r}")
    if dim not in (None, len(vals) // 2):
        raise InvalidSpec(f"--dim {dim} disagrees with the "
                          f"{len(vals) // 2}D domain {text!r}")
    return (DomainSpec.interval(*vals) if len(vals) == 2
            else DomainSpec.rectangle(*vals))


def _solver_options(args) -> SolverOptions:
    return SolverOptions(tol=args.tol, seed=args.seed)


def _add_common(sp, solver=True):
    sp.add_argument("--n", type=int, default=511,
                    help="interior nodes per axis")
    sp.add_argument("--domain", default=None,
                    help="bounds a,b (1D) or ax,bx,ay,by (2D)")
    sp.add_argument("--dim", type=int, default=None, choices=(1, 2),
                    help="default: that of --domain, else 1")
    if solver:
        sp.add_argument("--tol", type=float, default=1e-8)
        sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output file (default stdout)")


def sweep_csv_lines(curve) -> list[str]:
    lines = [SWEEP_HEADER]
    for i in range(curve.lambdas.size):
        lines.append(",".join([
            _fmt(curve.lambdas[i]), _fmt(curve.J[i]), _fmt(curve.mass[i]),
            _fmt(curve.dJ[i]), curve.flags[i]]))
    return lines


# -- subcommand handlers -----------------------------------------------


def _cmd_eig(args) -> int:
    grid = Grid(_parse_domain(args.domain, args.dim), args.n)
    pairs = spectral.dirichlet_eigenpairs(grid, args.k)
    lines = [EIG_HEADER]
    for i, pr in enumerate(pairs, start=1):
        lines.append(f"{i},{_fmt(pr.value)},{_fmt(pr.residual)}")
    _dump_lines(lines, args.out)
    return 0


def _cmd_ground(args, kind: str) -> int:
    grid = Grid(_parse_domain(args.domain, args.dim), args.n)
    params = ActionParams(args.p, getattr(args, "lambda"))
    opts = _solver_options(args)
    if kind == "signed":
        state = ground_state(grid, params, opts)
    else:
        state = nodal_ground_state(grid, params, opts)
    _dump_json(state.to_record(), args.out)
    if args.dump:
        save_field(state.u, args.dump)
    return 0


def _cmd_sweep(args) -> int:
    grid = Grid(_parse_domain(args.domain, args.dim), args.n)
    opts = _solver_options(args)
    lo = args.lambda_min
    if lo is None:
        lo = -threshold_eigenvalue(grid, args.kind) + 0.5
    if not (np.isfinite(lo) and np.isfinite(args.lambda_max)):
        raise InvalidSpec("the frequency range must be finite")
    lams = np.linspace(lo, args.lambda_max, args.samples)
    curve = sweep(grid, args.p, lams, args.kind, opts)
    _dump_lines(sweep_csv_lines(curve), args.out)
    return 0


def _cmd_mu_n(args) -> int:
    boxes = [float(v) for v in args.boxes.split(",")]
    report = estimate_mu_N(args.dim, boxes, p=args.p,
                           opts=_solver_options(args))
    rec = dataclasses.asdict(report)
    rec["mu_N"] = rec.pop("value")
    _dump_json(rec, args.out)
    return 0


def _cmd_normalized(args) -> int:
    grid = Grid(_parse_domain(args.domain, args.dim), args.n)
    opts = _solver_options(args)
    sol = solve_normalized(grid, args.p, args.mu, args.kind, opts=opts,
                           lambda_max=args.lambda_max, samples=args.samples)
    _dump_json(sol.to_record(), args.out)
    if args.dump:
        save_field(sol.u, args.dump)
    return 0


def _cmd_pohozaev(args) -> int:
    u = load_field(getattr(args, "in"))
    params = ActionParams(args.p, getattr(args, "lambda"))
    _dump_json(dataclasses.asdict(pohozaev_check(u, params)), args.out)
    return 0


def _cmd_bound(args) -> int:
    grid = Grid(_parse_domain(args.domain, args.dim), args.n)
    opts = _solver_options(args)
    report = supercritical_lambda_bound(grid, args.p, args.mu, opts=opts)
    rec = dataclasses.asdict(report)
    rec["lambda"] = rec.pop("lam")
    _dump_json(rec, args.out)
    return 0 if report.passed else 3


def _cmd_exhaustion(args) -> int:
    spec = _parse_domain(args.domain, args.dim)
    shrinks = [float(v) for v in args.shrinks.split(",")]
    params = ActionParams(args.p, getattr(args, "lambda"))
    opts = _solver_options(args)
    report = exhaustion_test(spec, shrinks, params, args.n, opts)
    _dump_json(dataclasses.asdict(report), args.out)
    return 0 if report.passed else 3


# -- check-all ----------------------------------------------------------


def _check_eig_1d(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 511)
    pairs = spectral.dirichlet_eigenpairs(grid, 2)
    h = grid.h[0]
    lines = [EIG_HEADER]
    worst = 0.0
    for j, pr in enumerate(pairs, start=1):
        exact = 2.0 / h ** 2 * (1.0 - np.cos(j * np.pi * h))
        worst = max(worst, abs(pr.value - exact) / exact)
        lines.append(f"{j},{_fmt(pr.value)},{_fmt(pr.residual)}")
    artifacts = {outdir / "eig_1d.csv": lines}
    ok = worst <= 1e-10
    return ok, f"max relative gap to the closed-form stencil values {worst:.2e}", artifacts


def _check_eig_2d(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0), 63)
    pairs = spectral.dirichlet_eigenpairs(grid, 2)
    rel1 = abs(pairs[0].value - 2.0 * np.pi ** 2) / (2.0 * np.pi ** 2)
    rel2 = abs(pairs[1].value - 5.0 * np.pi ** 2) / (5.0 * np.pi ** 2)
    lines = [EIG_HEADER]
    for j, pr in enumerate(pairs, start=1):
        lines.append(f"{j},{_fmt(pr.value)},{_fmt(pr.residual)}")
    ok = rel1 <= 5e-3 and rel2 <= 5e-3
    return ok, f"square eigenvalues within {max(rel1, rel2):.2e} of separable values", {
        outdir / "eig_2d.csv": lines}


def _check_ground(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 511)
    artifacts = {}
    worst = []
    for p in (4.0, 6.0):
        for lam in (1.0, 10.0):
            st = ground_state(grid, ActionParams(p, lam), opts)
            l2s, lpp, grs = norms(st.u, p)
            nehari = abs(grs + lam * l2s - lpp) / lpp
            jk = abs(st.action_value - kappa(p) * lpp) / abs(st.action_value)
            worst.append((st.residual <= opts.tol and nehari <= 1e-10
                          and jk <= 1e-12 and st.node_count == 0,
                          f"p={p} lam={lam}: res={st.residual:.1e} "
                          f"nehari={nehari:.1e}"))
            name = f"ground_p{int(p)}_lam{int(lam)}.json"
            artifacts[outdir / name] = [json.dumps(st.to_record(),
                                                   sort_keys=True, indent=2)]
            if p == 4.0 and lam == 10.0:
                artifacts[outdir / "ground_p4_lam10.field"] = st.u
    ok = all(flag for flag, _ in worst)
    detail = "; ".join(msg for _, msg in worst)
    return ok, detail, artifacts


def _check_nodal(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 511)
    p, lam = 4.0, 10.0
    st = nodal_ground_state(grid, ActionParams(p, lam), opts)
    signed = ground_state(grid, ActionParams(p, lam), opts)
    checks = []
    for part in split(st.u):
        l2s, lpp, grs = norms(part, p)
        q = grs + lam * l2s
        checks.append(abs(q - lpp) <= 1e-10 * lpp)
    sandwich = st.action_value >= 2.0 * signed.action_value - 1e-8
    ok = all(checks) and sandwich and st.node_count >= 1
    artifacts = {outdir / "nodal_p4_lam10.json":
                 [json.dumps(st.to_record(), sort_keys=True, indent=2)]}
    return ok, (f"partwise identity {'ok' if all(checks) else 'violated'}, "
                f"J_nod={st.action_value:.6f} vs 2J={2 * signed.action_value:.6f}"), artifacts


def _check_sweeps(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 255)
    details = []
    ok = True
    artifacts = {}
    for kind in ("signed", "nodal"):
        thr = threshold_eigenvalue(grid, kind)
        lams = np.linspace(-thr + 0.5, 120.0, 60)
        curve = sweep(grid, 4.0, lams, kind, opts)
        rep = derivative_mass_check(curve)
        idx = curve.ok_indices()
        monotone = bool(np.all(np.diff(curve.J[idx]) > 0))
        positive = bool(np.all(curve.J[idx] > 0))
        ok = ok and monotone and positive and rep.median_rel_error <= 1e-2
        details.append(f"{kind}: median |2dJ-m|/m = {rep.median_rel_error:.1e}")
        artifacts[outdir / f"sweep_{kind}_p4.csv"] = sweep_csv_lines(curve)
    return ok, "; ".join(details), artifacts


def _check_threshold(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 255)
    lam1 = spectral.lambda1(grid)
    lams = np.linspace(-lam1 + 0.5, 150.0, 80)
    c8 = sweep(grid, 8.0, lams, "signed", opts)
    t8 = mass_threshold(c8, opts)
    c4 = sweep(grid, 4.0, lams, "signed", opts)
    t4 = mass_threshold(c4, opts)
    interior = (c8.lambdas[2] < t8.argmax_lambda < c8.lambdas[-3])
    # subcritical: the masses of action ground states fill (0, inf)
    rising = bool(np.all(np.diff(c4.mass[c4.ok_indices()]) > 0))
    ok = (not t8.unbounded and t8.attained == "yes" and interior
          and t4.unbounded and t4.mu_p == float("inf") and rising)
    detail = (f"p=8: mu_p={t8.mu_p:.6f} at lambda={t8.argmax_lambda:.3f}; "
              f"p=4 unbounded={t4.unbounded}")
    lines = ["p,mu_p,argmax_lambda,attained,unbounded",
             f"8,{_fmt(t8.mu_p)},{_fmt(t8.argmax_lambda)},{t8.attained},{t8.unbounded}",
             f"4,inf,nan,{t4.attained},{t4.unbounded}"]
    return ok, detail, {outdir / "mass_thresholds.csv": lines}


def _check_normalized(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 255)
    curve = sweep(grid, 4.0,
                  np.linspace(-threshold_eigenvalue(grid, "signed") + 0.5,
                              60.0, 80), "signed", opts)
    sol = solve_normalized(grid, 4.0, 1.0, "signed", opts=opts, curve=curve)
    cert = least_energy_certify(sol, curve, opts)
    mass = sol.u.grid.l2_sq(sol.u.values)
    ok = (abs(mass - sol.mu) <= 1e-6 * sol.mu and cert.passed
          and sol.certification.is_least_among_found)
    artifacts = {outdir / "normalized_p4_mu1.json":
                 [json.dumps(sol.to_record(), sort_keys=True, indent=2)],
                 outdir / "normalized_p4_mu1.field": sol.u}
    return ok, (f"lambda={sol.lam:.6f}, |mass-mu|/mu="
                f"{abs(mass - sol.mu) / sol.mu:.1e}, "
                f"energy gap {cert.energy_gap:.1e}"), artifacts


def _check_pohozaev(opts: SolverOptions, outdir: Path):
    grid = Grid(DomainSpec.interval(0.0, 1.0), 1023)
    params = ActionParams(8.0, 10.0)
    st = ground_state(grid, params, opts)
    rep = pohozaev_check(st.u, params)
    ok = rep.identity_residual <= 1e-3 and rep.energy_bound_ok
    lines = [json.dumps({
        "identity_residual": rep.identity_residual,
        "boundary_term": rep.boundary_term,
        "bound_coefficient": rep.bound_coefficient,
        "energy_bound_ok": rep.energy_bound_ok}, sort_keys=True, indent=2)]
    return ok, f"identity residual {rep.identity_residual:.2e}", {
        outdir / "pohozaev_p8.json": lines}


def _check_exhaustion(opts: SolverOptions, outdir: Path):
    report = exhaustion_test(DomainSpec.interval(0.0, 1.0),
                             [0.05, 0.02, 0.005], ActionParams(4.0, 100.0),
                             511, opts)
    lines = ["epsilon,level,gap"]
    for eps, lv, gap in zip(report.epsilons, report.levels, report.gaps):
        lines.append(f"{_fmt(eps)},{_fmt(lv)},{_fmt(gap)}")
    lines.append(f"base,{_fmt(report.base_level)},0.0")
    return report.passed, (f"final gap {report.final_gap:.2e}, "
                           f"monotone={report.monotone}"), {
        outdir / "exhaustion.csv": lines}


_CHECKS = [
    ("eigenvalues-1d", _check_eig_1d),
    ("eigenvalues-2d", _check_eig_2d),
    ("ground-contracts", _check_ground),
    ("nodal-contracts", _check_nodal),
    ("sweep-derivative-mass", _check_sweeps),
    ("mass-thresholds", _check_threshold),
    ("normalized-certified", _check_normalized),
    ("pohozaev-identity", _check_pohozaev),
    ("exhaustion-diagnostic", _check_exhaustion),
]


def _cmd_check_all(args) -> int:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    # a seed given on the command line wins over the config file
    seed = cfg.seed if args.seed is None else args.seed
    opts = SolverOptions(tol=cfg.tol, seed=seed)
    outdir = Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)

    def run_one(item):
        name, fn = item
        try:
            ok, detail, artifacts = fn(opts, outdir)
            return name, ("pass" if ok else "fail"), detail, artifacts
        except NoConvergence as exc:
            return name, "error:NoConvergence", str(exc), {}
        except NlsgroundError as exc:
            # domain gates (mass out of range, certification, ...) are
            # check failures, not solver breakdowns
            return name, f"fail:{type(exc).__name__}", str(exc), {}

    results = [run_one(item) for item in _CHECKS]

    # artifacts are written after the battery, in deterministic order
    for _, _, _, artifacts in results:
        for path, payload in sorted(artifacts.items(), key=lambda kv: str(kv[0])):
            if isinstance(payload, Field):
                save_field(payload, path)
            else:
                _dump_lines(payload, str(path))

    summary = {
        "seed": seed,
        "checks": [{"name": name, "status": status, "detail": detail}
                   for name, status, detail, _ in results],
    }
    _dump_lines([json.dumps(summary, sort_keys=True, indent=2)],
                str(outdir / "summary.json"))
    statuses = [status for _, status, _, _ in results]
    for name, status, detail, _ in results:
        sys.stdout.write(f"{status:>18}  {name}: {detail}\n")
    if any(s.startswith("error") for s in statuses):
        return 2
    if any(s.startswith("fail") for s in statuses):
        return 3
    return 0


# -- entry point ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nlsground",
                     description="Ground states and prescribed-mass solutions "
                                 "of the focusing NLS equation on boxes")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eig", help="lowest Dirichlet eigenvalues")
    _add_common(sp, solver=False)
    sp.add_argument("--k", type=int, default=2)
    sp.set_defaults(fn=_cmd_eig)

    for name, kind in (("ground", "signed"), ("nodal", "nodal")):
        sp = sub.add_parser(name, help=f"{kind} ground state at fixed frequency")
        _add_common(sp)
        sp.add_argument("--p", type=float, required=True)
        sp.add_argument("--lambda", type=float, required=True)
        sp.add_argument("--dump", default=None, help="write the field dump here")
        sp.set_defaults(fn=lambda a, _kind=kind: _cmd_ground(a, _kind))

    sp = sub.add_parser("sweep", help="level curve over a frequency range")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--kind", default="signed", choices=("signed", "nodal"))
    sp.add_argument("--lambda-min", dest="lambda_min", type=float, default=None)
    sp.add_argument("--lambda-max", dest="lambda_max", type=float, default=100.0)
    sp.add_argument("--samples", type=int, default=100)
    sp.set_defaults(fn=_cmd_sweep)

    sp = sub.add_parser("mu-n", help="critical mass constant from box exhaustion")
    sp.add_argument("--dim", type=int, default=1, choices=(1, 2))
    sp.add_argument("--boxes", required=True, help="comma-separated box sides")
    sp.add_argument("--p", type=float, default=None)
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_mu_n)

    sp = sub.add_parser("normalized", help="prescribed-mass solution")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--kind", default="signed", choices=("signed", "nodal"))
    sp.add_argument("--lambda-max", dest="lambda_max", type=float, default=None)
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--dump", default=None)
    sp.set_defaults(fn=_cmd_normalized)

    sp = sub.add_parser("pohozaev", help="boundary identity check on a field dump")
    sp.add_argument("--in", required=True, help="field dump path")
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", type=float, required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=_cmd_pohozaev)

    sp = sub.add_parser("bound", help="supercritical frequency bound check")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--mu", type=float, required=True)
    sp.set_defaults(fn=_cmd_bound)

    sp = sub.add_parser("exhaustion", help="shrunken-domain level diagnostic")
    _add_common(sp)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--lambda", type=float, required=True)
    sp.add_argument("--shrinks", default="0.05,0.02,0.005")
    sp.set_defaults(fn=_cmd_exhaustion)

    sp = sub.add_parser("check-all", help="run the full verification battery")
    sp.add_argument("--out-dir", default="out")
    sp.add_argument("--seed", type=int, default=None, help="overrides the config")
    sp.add_argument("--config", default=None, help="file setting seed and tol")
    sp.set_defaults(fn=_cmd_check_all)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (InvalidSpec, ValueError) as exc:
        sys.stderr.write(f"invalid configuration: {exc}\n")
        return 1
    # an unreadable input, an unwritable output or a grid too large to
    # allocate
    except (OSError, MemoryError) as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 1
    except (CertificationFailed, MassAboveBarMu, MassOutOfRange) as exc:
        # failed gates are verdicts, distinct from solver breakdowns
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 3
    except NlsgroundError as exc:
        sys.stderr.write(f"{type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
