"""The workloads: inputs built from a seed, the timed tasks, the checks.

Each workload object is built during set-up (inputs only), runs its
tasks once in `run` and afterwards turns their outputs into operations
with checks.  Checks compare against `oracles`, never against recorded
output of the program.  A task that raises is a failed operation; no
failure stops the run.

Every nlsground call goes through the package namespace at call time,
so traced runs see the wrappers bound by `spans.Tracer.install`.
"""

from __future__ import annotations

import contextlib
import io
import json
import statistics
import time
from pathlib import Path

import numpy as np

import oracles

# (operation, check) pairs that fail because of a known program fault.
# nodal_ground_state in 2D returns above tol without raising: _descend in
# nodal.py stops silently at max_iter or on a stall.
KNOWN_FAULTS = {("nodal p=4 n=63", "partwise residual")}

TASK_KINDS = ("eig", "signed", "nodal")


class Clock:
    """Wall time per task kind inside the timed section."""

    def __init__(self):
        self.times = dict.fromkeys(TASK_KINDS, 0.0)

    @contextlib.contextmanager
    def task(self, kind):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.times[kind] += time.perf_counter() - t0


class Op:
    """One operation: a task output and the checks made on it."""

    def __init__(self, name: str, outcome=None):
        self.name = name
        self.checks: list[dict] = []
        self.error = repr(outcome) if isinstance(outcome, Exception) else None

    def check(self, label: str, value, ok: bool, limit) -> None:
        self.checks.append({"check": label, "value": value, "limit": limit, "ok": bool(ok)})

    def failures(self) -> list[dict]:
        out = [c for c in self.checks if not c["ok"]]
        if self.error is not None:
            out.append({"check": "raised", "value": self.error, "limit": None, "ok": False})
        return out

    def record(self) -> dict:
        fails = self.failures()
        return {"name": self.name, "failed": bool(fails),
                "known": bool(fails) and all((self.name, f["check"]) in KNOWN_FAULTS
                                             for f in fails),
                "failures": fails}


def attempt(clock: Clock, kind: str, fn):
    """Run one task under its timer; an exception becomes its outcome."""
    with clock.task(kind):
        try:
            return fn()
        except Exception as exc:  # recorded as a failed operation
            return exc


def _ok(outcome) -> bool:
    return not isinstance(outcome, Exception)


def _check_eigenpairs(op: Op, pairs, exact: list[float]) -> None:
    for j, (pair, value) in enumerate(zip(pairs, exact), start=1):
        gap = abs(pair.value - value)
        op.check(f"lambda_{j} within residual of closed form", gap,
                 gap <= pair.residual, float(pair.residual))


def _check_signed(op: Op, vals: np.ndarray, h: tuple, p: float, lam: float,
                  tol: float) -> None:
    res = oracles.pde_residual(vals, h, p, lam)
    op.check("residual", res, res <= tol, tol)
    gap = oracles.nehari_gap(vals, h, p, lam)
    op.check("nehari identity", gap, gap <= 1e-10, 1e-10)
    low = float(np.min(vals))
    op.check("positive", low, low > 0.0, 0.0)


def _check_parts(op: Op, vals: np.ndarray, h: tuple, p: float, lam: float) -> None:
    for label, part in (("plus", np.maximum(vals, 0.0)), ("minus", np.minimum(vals, 0.0))):
        gap = oracles.nehari_gap(part, h, p, lam)
        op.check(f"nehari identity ({label} part)", gap, gap <= 1e-10, 1e-10)


class Battery:
    """One `check-all` through nlsground.cli.main into a scratch directory."""

    name = "battery"
    # check-all checks by the kind of solve they make; the sweep check
    # makes both kinds and counts for neither
    KIND_OF_CHECK = {"eigenvalues-1d": "eig", "eigenvalues-2d": "eig",
                     "ground-contracts": "signed", "mass-thresholds": "signed",
                     "normalized-certified": "signed", "pohozaev-identity": "signed",
                     "nodal-contracts": "nodal", "exhaustion-diagnostic": "nodal"}
    CHECK_NAMES = ["eigenvalues-1d", "eigenvalues-2d", "ground-contracts",
                   "nodal-contracts", "sweep-derivative-mass", "mass-thresholds",
                   "normalized-certified", "pohozaev-identity",
                   "exhaustion-diagnostic"]

    def __init__(self, seed: int, scratch: Path, clock: Clock):
        import nlsground.cli

        self.out = scratch / "check-all"
        # check-all's seed picks the random interface starts of its eleven
        # cold 1D nodal solves; with seeds 1-6 one battery took 4.0 to 7.4 s,
        # so the battery runs with the default seed
        self.argv = ["check-all", "--out-dir", str(self.out), "--seed", "0"]
        self.clock = clock
        cli = nlsground.cli
        cli._CHECKS[:] = [(name, self._timed(name, fn)) for name, fn in cli._CHECKS]

    def _timed(self, name, fn):
        kind = self.KIND_OF_CHECK.get(name)
        if kind is None:
            return fn

        def run(*args):
            with self.clock.task(kind):
                return fn(*args)

        return run

    def run(self, clock: Clock) -> None:
        import nlsground.cli

        with contextlib.redirect_stdout(io.StringIO()):
            try:
                self.rc = nlsground.cli.main(self.argv)
            except Exception as exc:  # recorded as a failed operation
                self.rc = exc

    def check(self) -> list[Op]:
        op = Op("check-all", self.rc)
        status = {}
        if _ok(self.rc):
            op.check("exit code", self.rc, self.rc == 0, 0)
            try:
                summary = json.loads((self.out / "summary.json").read_text())
                status = {c["name"]: c["status"] for c in summary["checks"]}
            except (OSError, ValueError, KeyError, TypeError) as exc:
                op.check("summary.json readable", repr(exc), False, None)
            names = list(status)
            op.check("nine checks in summary.json", names, names == self.CHECK_NAMES,
                     self.CHECK_NAMES)
        ops = [op]
        for name in self.CHECK_NAMES:
            cop = Op(f"check {name}")
            cop.check("status", status.get(name), status.get(name) == "pass", "pass")
            if status.get(name) == "pass":
                try:
                    self._artifacts(name, cop)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    cop.check("artifacts readable", repr(exc), False, None)
            ops.append(cop)
        return ops

    def _artifacts(self, name: str, op: Op) -> None:
        out = self.out
        if name == "eigenvalues-1d":
            rows = _csv(out / "eig_1d.csv")
            _check_eig_rows(op, rows, [oracles.dirichlet_eigenvalue_1d(j, 511)
                                       for j in range(1, len(rows) + 1)])
        elif name == "eigenvalues-2d":
            rows = _csv(out / "eig_2d.csv")
            _check_eig_rows(op, rows, oracles.dirichlet_eigenvalues_2d(len(rows), 63))
        elif name == "ground-contracts":
            vals, h = _load_dump(out / "ground_p4_lam10.field")
            _check_signed(op, vals, h, 4.0, 10.0, 1e-8)
        elif name == "sweep-derivative-mass":
            for kind in ("signed", "nodal"):
                _check_sweep(op, kind, _csv(out / f"sweep_{kind}_p4.csv"))
        elif name == "normalized-certified":
            vals, h = _load_dump(out / "normalized_p4_mu1.field")
            rec = json.loads((out / "normalized_p4_mu1.json").read_text())
            _, mass, _ = oracles.nehari_sums(vals, h, 4.0)
            gap = abs(mass - rec["mu"]) / rec["mu"]
            op.check("mass of the normalized field", gap, gap <= 1e-6, 1e-6)
            res = oracles.pde_residual(vals, h, 4.0, rec["lambda"])
            op.check("residual at the reported frequency", res, res <= 1e-8, 1e-8)


def _csv(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    keys = lines[0].split(",")
    return [dict(zip(keys, line.split(","))) for line in lines[1:]]


def _check_eig_rows(op: Op, rows: list[dict], exact: list[float]) -> None:
    for j, (row, value) in enumerate(zip(rows, exact), start=1):
        gap = abs(float(row["value"]) - value)
        op.check(f"lambda_{j} within residual of closed form", gap,
                 gap <= float(row["residual"]), float(row["residual"]))


def _check_sweep(op: Op, kind: str, rows: list[dict]) -> None:
    ok = [not r["flag"].startswith("failed") for r in rows]
    lam = [float(r["lambda"]) for r in rows]
    J = [float(r["J"]) for r in rows]
    mass = [float(r["mass"]) for r in rows]
    errs = [abs(2.0 * (J[i + 1] - J[i - 1]) / (lam[i + 1] - lam[i - 1]) - mass[i]) / mass[i]
            for i in range(1, len(rows) - 1) if ok[i - 1] and ok[i] and ok[i + 1]]
    med = statistics.median(errs)
    op.check(f"{kind} sweep: median |2dJ-mass|/mass", med, med <= 1e-2, 1e-2)
    Jok = [j for j, good in zip(J, ok) if good]
    rising = all(b > a for a, b in zip(Jok, Jok[1:]))
    op.check(f"{kind} sweep: J increases", rising, rising, True)


def _load_dump(path: Path) -> tuple[np.ndarray, tuple]:
    """Parse a field dump: six header lines, then one value per line."""
    lines = path.read_text().splitlines()
    meta = dict(line.split(" ", 1) for line in lines[1:6])
    dim = int(meta["dimension"])
    bounds = [float(v) for v in meta["bounds"].split()]
    n = int(meta["n"])
    vals = np.array([float(v) for v in lines[6:6 + int(meta["values"])]])
    h = tuple((bounds[2 * i + 1] - bounds[2 * i]) / (n + 1) for i in range(dim))
    return vals.reshape((n,) * dim), h


class Fine1D:
    """Few large 1D grids: eigenpairs, signed and nodal states at n=32767."""

    name = "fine-1d"
    N = 32767
    SIGNED = (6.0, 2500.0)
    # at n=32767 the fixed point for p=4, lam=10 stalls at a residual of
    # 7.7e-7, the double-precision Newton polish reaches 4.5e-7 and the
    # long-double rounding polish 2.6e-7: a tolerance between the last
    # two makes the solve go through both polish stages, with the same
    # outcome under one or two BLAS threads (for p=6, lam=2500 the
    # rounding polish helps with one thread and not with two)
    POLISHED = (4.0, 10.0)
    POLISHED_TOL = 3.5e-7
    P8 = (8.0, 10.0)
    P8_SIZES = (4096, 8192)

    def __init__(self, seed: int, scratch: Path, clock: Clock):
        import nlsground as nls

        spec = nls.DomainSpec.interval(0.0, 1.0)
        self.fine = nls.Grid(spec, self.N)
        self.p8_grids = [nls.Grid(spec, n) for n in self.P8_SIZES]
        self.opts_fine = nls.SolverOptions(tol=1e-6, seed=seed)
        self.opts_polished = nls.SolverOptions(tol=self.POLISHED_TOL, seed=seed)
        self.opts = nls.SolverOptions(seed=seed)
        # the seed picks the nodal multistart's random interface start, and
        # with it the solve evaluates 27 to 61 interface positions (seeds
        # 0-39): a 1.5x spread of nodal_s that the few repetitions of a run
        # cannot average out, so the nodal task runs with the default seed
        self.nodal_opts = nls.SolverOptions(tol=1e-6)
        self.signed_params = nls.ActionParams(*self.SIGNED)
        self.polished_params = nls.ActionParams(*self.POLISHED)
        self.p8_params = nls.ActionParams(*self.P8)

    def run(self, clock: Clock) -> None:
        import nlsground as nls

        self.eig = attempt(clock, "eig", lambda: nls.dirichlet_eigenpairs(self.fine, 2))
        self.signed = attempt(clock, "signed", lambda: nls.ground_state(
            self.fine, self.signed_params, self.opts_fine))
        self.polished = attempt(clock, "signed", lambda: nls.ground_state(
            self.fine, self.polished_params, self.opts_polished))
        self.p8 = []
        for grid in self.p8_grids:
            def task(grid=grid):
                st = nls.ground_state(grid, self.p8_params, self.opts)
                return st, nls.pohozaev_check(st.u, self.p8_params)
            self.p8.append(attempt(clock, "signed", task))
        self.nodal = attempt(clock, "nodal", lambda: nls.nodal_ground_state(
            self.fine, self.signed_params, self.nodal_opts))

    def check(self) -> list[Op]:
        n = self.N
        h = (1.0 / (n + 1),)
        p, lam = self.SIGNED
        mu = oracles.SOLITON_MASS_1D
        ops = []

        op = Op(f"eigenpairs n={n}", self.eig)
        if _ok(self.eig):
            _check_eigenpairs(op, self.eig, [oracles.dirichlet_eigenvalue_1d(j, n)
                                             for j in (1, 2)])
        ops.append(op)

        op = Op(f"signed p=6 n={n}", self.signed)
        j_signed = None
        if _ok(self.signed):
            vals = self.signed.u.values
            _check_signed(op, vals, h, p, lam, self.opts_fine.tol)
            j_signed = oracles.action(vals, h, p, lam)
            gap = abs(j_signed / lam - mu / 2.0)
            op.check("J/lambda against mu_N/2", gap, gap <= 5e-2, 5e-2)
        ops.append(op)

        op = Op(f"signed p=4 n={n} tol {self.POLISHED_TOL:g}", self.polished)
        if _ok(self.polished):
            _check_signed(op, self.polished.u.values, h, *self.POLISHED, self.POLISHED_TOL)
        ops.append(op)

        own = []
        for size, out in zip(self.P8_SIZES, self.p8):
            op = Op(f"signed p=8 n={size}", out)
            if _ok(out):
                st, report = out
                hs = 1.0 / (size + 1)
                _check_signed(op, st.u.values, (hs,), *self.P8, self.opts.tol)
                own.append(oracles.pohozaev_residual_1d(st.u.values, hs, 0.0, 1.0, *self.P8))
                if size == self.P8_SIZES[0]:
                    op.check("reported pohozaev residual", report.identity_residual,
                             report.identity_residual <= 1e-3, 1e-3)
                    op.check("pohozaev residual", own[-1], own[-1] <= 1e-3, 1e-3)
                elif len(own) == 2:
                    order = oracles.observed_order(*own)
                    op.check("pohozaev observed order", order, order >= 1.0, 1.0)
            ops.append(op)

        op = Op(f"nodal p=6 n={n}", self.nodal)
        if _ok(self.nodal):
            vals = self.nodal.u.values
            res = oracles.partwise_residual(vals, h, p, lam)
            op.check("partwise residual", res, res <= self.nodal_opts.tol, self.nodal_opts.tol)
            _check_parts(op, vals, h, p, lam)
            changes = oracles.sign_changes_1d(vals)
            op.check("one sign change", changes, changes == 1, 1)
            j_nodal = oracles.action(vals, h, p, lam)
            gap = abs(j_nodal / lam - mu)
            op.check("J/lambda against mu_N", gap, gap <= 5e-2, 5e-2)
            if j_signed is not None:
                # the two levels agree to ~1e-15 at this frequency; the slack
                # covers rounding of the two sums only
                bound = 2.0 * j_signed * (1.0 - 1e-12)
                op.check("J_nodal >= 2 J_signed", j_nodal, j_nodal >= bound, bound)
        ops.append(op)
        return ops


class Square2D:
    """The 2D path on the unit square: eigenpairs, signed states, nodal."""

    name = "square-2d"
    EIG_N = 255
    SIGNED_SIZES = (63, 127, 255)
    NODAL_N = 63
    PARAMS = (4.0, 10.0)

    def __init__(self, seed: int, scratch: Path, clock: Clock):
        import nlsground as nls

        spec = nls.DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        self.eig_grid = nls.Grid(spec, self.EIG_N)
        self.signed_grids = [nls.Grid(spec, n) for n in self.SIGNED_SIZES]
        self.nodal_grid = nls.Grid(spec, self.NODAL_N)
        self.opts = nls.SolverOptions(seed=seed)
        # the nodal operation fails on every seed (KNOWN_FAULTS); its inputs
        # are kept apart from the seed so its failure is the same in every run
        self.nodal_opts = nls.SolverOptions()
        self.params = nls.ActionParams(*self.PARAMS)

    def run(self, clock: Clock) -> None:
        import nlsground as nls

        self.eig = attempt(clock, "eig", lambda: nls.dirichlet_eigenpairs(self.eig_grid, 2))
        self.signed = [attempt(clock, "signed",
                               lambda g=g: nls.ground_state(g, self.params, self.opts))
                       for g in self.signed_grids]
        self.nodal = attempt(clock, "nodal", lambda: nls.nodal_ground_state(
            self.nodal_grid, self.params, self.nodal_opts))

    def check(self) -> list[Op]:
        p, lam = self.PARAMS
        ops = []
        op = Op(f"eigenpairs n={self.EIG_N}", self.eig)
        if _ok(self.eig):
            _check_eigenpairs(op, self.eig, oracles.dirichlet_eigenvalues_2d(2, self.EIG_N))
        ops.append(op)

        levels = {}
        for n, out in zip(self.SIGNED_SIZES, self.signed):
            op = Op(f"signed p=4 n={n}", out)
            if _ok(out):
                vals = out.u.values.reshape(n, n)
                h = (1.0 / (n + 1),) * 2
                _check_signed(op, vals, h, p, lam, self.opts.tol)
                asym = float(np.max(np.abs(vals - vals.T))) / float(np.max(np.abs(vals)))
                op.check("symmetric under x<->y", asym, asym <= 1e-8, 1e-8)
                levels[n] = oracles.action(vals, h, p, lam)
            if n == self.SIGNED_SIZES[-1] and len(levels) == 3:
                ratio = oracles.richardson_ratio(*(levels[k] for k in self.SIGNED_SIZES))
                op.check("richardson ratio", ratio, 3.0 <= ratio <= 5.0, [3.0, 5.0])
            ops.append(op)

        n = self.NODAL_N
        op = Op(f"nodal p=4 n={n}", self.nodal)
        if _ok(self.nodal):
            vals = self.nodal.u.values.reshape(n, n)
            h = (1.0 / (n + 1),) * 2
            res = oracles.partwise_residual(vals, h, p, lam)
            op.check("partwise residual", res, res <= self.nodal_opts.tol, self.nodal_opts.tol)
            _check_parts(op, vals, h, p, lam)
            sign_changing = float(np.min(vals)) < 0.0 < float(np.max(vals))
            op.check("sign-changing", sign_changing, sign_changing, True)
            if n in levels:
                j_nodal = sum(oracles.action(part, h, p, lam)
                              for part in (np.maximum(vals, 0.0), np.minimum(vals, 0.0)))
                op.check("J_nodal > 2 J_signed", j_nodal, j_nodal > 2.0 * levels[n],
                         2.0 * levels[n])
        ops.append(op)
        return ops


WORKLOADS = {w.name: w for w in (Battery, Fine1D, Square2D)}

