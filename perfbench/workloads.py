"""The two workloads. Each ``*_pass`` function runs one pass of its
workload in this process, calling koopsyn's public API, and returns a
``PassResult``: the timed operations and the certificate-quality figures
read back from their outputs.

An operation is one CLI stage call or one ladder rung. Each
runs after the previous one returns (a closed loop with one caller).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from koopsyn import cli, controller, edmd, lmi, sdp, uncertainty

EXAMPLES = ("cooked_up", "cooked_up_xy", "pendulum", "pendulum_shaped")
STAGES = ("collect", "fit", "design", "verify")
# one d0 call per distinct dictionary; pendulum_shaped shares pendulum's
D0_EXAMPLES = ("cooked_up", "cooked_up_xy", "pendulum")
# MC and grid log10(d0) differ by at most 7.7e-4 on seeds 0-9, almost all of
# it the grid's discretization error; 2e-3 flags a quadrature that drifts
D0_LOG10_TOL = 2e-3
RUNGS = ((4, 2), (6, 2), (8, 2), (10, 2))
LADDER_C_R = 0.05
LADDER_RZ = 10.0


@dataclass
class Op:
    key: str                  # e.g. "pendulum/verify", "N=8,m=2"
    stage: str                # collect | fit | design | verify | d0
    seconds: float
    error: str | None = None
    digest: str | None = None  # SHA-256 over the deterministic outputs
    parts: dict = field(default_factory=dict)   # sub-stage seconds


@dataclass
class PassResult:
    ops: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)


@dataclass
class Ctx:
    out: Path                 # fresh output directory of this pass
    seed: int
    log: object               # text file that receives the program's output
    solves: SolveLog


class SolveLog:
    """Reads the status and iteration count of every ``sdp.solve`` and the
    worst margin of every ``sdp.verify``. It times nothing, so untraced passes
    can install it; it adds a few microseconds to calls that take
    milliseconds or more."""

    def __init__(self):
        self.iterations = 0
        self.statuses = []
        self.margin_min = None

    def install(self):
        solve, verify = sdp.solve, sdp.verify

        def solve_logged(*args, **kwargs):
            report = solve(*args, **kwargs)
            self.iterations += report.iterations
            self.statuses.append(report.status)
            return report

        def verify_logged(*args, **kwargs):
            report = verify(*args, **kwargs)
            worst = report.worst()
            if self.margin_min is None or worst < self.margin_min:
                self.margin_min = worst
            return report

        sdp.solve, sdp.verify = solve_logged, verify_logged

        def restore():
            sdp.solve, sdp.verify = solve, verify

        return restore


# -- deterministic outputs ------------------------------------------------


def _is_deterministic(path):
    # manifests echo the output directory, which differs between passes
    return not (path.name.startswith("manifest_") and path.suffix == ".json")


def _file_hashes(directory):
    if not directory.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(directory.iterdir())
            if p.is_file() and _is_deterministic(p)}


def _changed_digest(before, after):
    """One digest over the files an operation created or rewrote."""
    h = hashlib.sha256()
    for name in sorted(after):
        if before.get(name) != after[name]:
            h.update(f"{name} {after[name]}\n".encode())
    return h.hexdigest()


def _run_op(ctx, ops, key, stage, call, outdir=None):
    """Time one operation. It fails on a raised exception, a non-zero exit
    code or an IPM status other than feasible. Hashing happens outside the
    timed region."""
    before = _file_hashes(outdir) if outdir is not None else None
    error = None
    first_solve = len(ctx.solves.statuses)
    with contextlib.redirect_stdout(ctx.log), contextlib.redirect_stderr(ctx.log):
        t0 = time.perf_counter()
        try:
            code = call()
        except Exception:  # one failed operation must not end the run
            code = None
            error = traceback.format_exc(limit=4)
        seconds = time.perf_counter() - t0
    if error is None and code not in (0, None):
        error = f"exit code {code}"
    bad = [st for st in ctx.solves.statuses[first_solve:] if st != "feasible"]
    if error is None and bad:
        error = f"IPM status {bad[0]}"
    op = Op(key=key, stage=stage, seconds=seconds, error=error)
    if outdir is not None and error is None:
        op.digest = _changed_digest(before, _file_hashes(outdir))
    ops.append(op)
    return op


def _roa_area(path):
    return controller.polygon_area(np.loadtxt(path, ndmin=2))


# -- examples ---------------------------------------------------------------


def examples_pass(ctx):
    """collect -> fit -> design -> verify for every built-in example through
    ``cli.main``, then one Monte-Carlo d0 call per distinct dictionary,
    checked against the grid quadrature."""
    out, seed = ctx.out, ctx.seed
    res = PassResult()
    area = 0.0
    open_boundaries = converged = starts = 0
    for ex in EXAMPLES:
        exdir = out / ex
        for stage in STAGES:
            argv = [stage, "--example", ex, "--out", str(exdir)]
            op = _run_op(ctx, res.ops, f"{ex}/{stage}", stage,
                         lambda argv=argv: cli.main(argv), exdir)
            if op.error:
                break
        else:
            area += _roa_area(exdir / "roa.dat")
            design_log = json.loads((exdir / "design_log.json").read_text())
            open_boundaries += not design_log["roa_closed"]
            report = json.loads((exdir / "verify_report.json").read_text())
            converged += report["n_converged"]
            starts += len(report["trajectories"])
    for ex in D0_EXAMPLES:
        cfg = cli.example_config(ex)
        cfg["output_dir"] = str(out / f"{ex}_d0_mc")
        # the README's documented Monte-Carlo spec; only its seed varies
        cfg["d0"] = {"method": "mc", "samples": 1 << 21, "replicates": 8,
                     "seed": seed, "sobol": True}
        cfg_path = out / f"{ex}_d0_mc.json"
        cfg_path.write_text(json.dumps(cfg, indent=1, sort_keys=True))
        mc_dir, grid_dir = out / f"{ex}_d0_mc", out / f"{ex}_d0_grid"
        op = _run_op(ctx, res.ops, f"{ex}/d0", "d0",
                     lambda p=cfg_path: cli.main(["d0", "--config", str(p)]),
                     mc_dir)
        if op.error:
            continue
        grid = _run_op(ctx, [], f"{ex}/d0-grid", "check",
                       lambda ex=ex, d=grid_dir: cli.main(
                           ["d0", "--example", ex, "--out", str(d)]))
        if grid.error:
            op.error = f"grid d0 check failed: {grid.error}"
            continue
        mc = json.loads((mc_dir / "d0_report.json").read_text())["log10_d0"]
        ref = json.loads((grid_dir / "d0_report.json").read_text())["log10_d0"]
        gap = abs(mc - ref)
        res.info[f"{ex}.d0_log10_gap"] = gap
        if gap > D0_LOG10_TOL:
            op.error = (f"MC log10 d0 {mc:.6f} and grid {ref:.6f} differ by "
                        f"{gap:.2e} > {D0_LOG10_TOL:.0e}")
    res.quality = {"roa_area": area, "open_boundaries": open_boundaries,
                   "starts_converged": converged, "starts_attempted": starts}
    return res


# -- design ladder ----------------------------------------------------------


def ladder_surrogate(seed, N, m):
    """Seeded synthetic stable surrogate for one rung: random A shifted so its
    spectral abscissa is -1, random B0, small bilinear channels B_i, and
    remainder budget c_r = 0.05. Each (seed, N, m) has its own stream."""
    rng = np.random.default_rng([seed, N, m])
    A = rng.standard_normal((N, N)) / np.sqrt(N)
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(N)
    B0 = rng.standard_normal((N, m))
    B = tuple(0.1 * rng.standard_normal((N, N)) / np.sqrt(N) for _ in range(m))
    return edmd.Surrogate(A=A, B0=B0, B=B, c_r=LADDER_C_R, delta=0.05)


def ladder_pass(ctx):
    """Theorem-2 design with the ROA objective on a ball region for each
    (N, m) rung: build, solve, then the independent verifier."""
    res = PassResult()
    area = 0.0
    for N, m in RUNGS:
        surrogate = ladder_surrogate(ctx.seed, N, m)
        region = uncertainty.identity_region(N, LADDER_RZ)
        parts = {}
        state = {}

        def rung():
            t0 = time.perf_counter()
            problem = lmi.add_roa_objective(lmi.build_theorem2(surrogate, region))
            t1 = time.perf_counter()
            assignment, report = sdp.solve_problem(problem, sdp.SolverOptions())
            t2 = time.perf_counter()
            check = sdp.verify(problem, assignment)
            t3 = time.perf_counter()
            parts.update(build_s=t1 - t0, solve_s=t2 - t1, verify_s=t3 - t2)
            state.update(problem=problem, assignment=assignment, report=report,
                         check=check)
            if not check.ok:
                raise RuntimeError(f"sdp.verify rejected the design "
                                   f"(worst slack {check.worst():.3e})")

        op = _run_op(ctx, res.ops, f"N={N},m={m}", "design", rung)
        op.parts = parts
        if op.error:
            continue
        report, problem = state["report"], state["problem"]
        op.digest = hashlib.sha256(report.z.tobytes()).hexdigest()
        # section of the certified set {z : z' inv(P) z <= 1} in the plane
        # of the first two lifted coordinates
        P_inv = np.linalg.inv(state["assignment"]["P"])
        area += np.pi / np.sqrt(np.linalg.det(P_inv[:2, :2]))
        res.info[f"N={N},m={m}"] = {
            "vars": int(report.z.size),
            "largest_block": max(c.expr.dim for c in problem.constraints),
            "iterations": report.iterations,
            "margin_min": state["check"].worst(),
        }
    res.quality = {"roa_area": area}
    return res


PASSES = {"examples": examples_pass, "design_ladder": ladder_pass}
