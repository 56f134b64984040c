"""Pipeline driver: collect -> fit -> d0 -> design -> verify, plus figure
data reproduction.

A single JSON config drives every stage.  ``STAGES`` names the files each
stage reads from the output directory, and ``run_stage`` writes the stage's
manifest: the config as loaded (command-line overrides applied, defaults not
filled in, no ``output_dir``), its inputs' SHA-256 and its outputs, by name.
Exit codes, picked by ``main`` alone: 0 success, 2 infeasible design, 3
verification failure, 4 bad input (including a bad command line, a missing
input, an unknown config key and a solver backend other than ``ipm``).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import numbers
import os
import shutil
import sys
from pathlib import Path

import numpy as np

from . import bounds, controller, edmd, lmi, plants, sdp, uncertainty, verify
from .lifting import Lifting, observable
from .matops import write_json, write_table

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_BAD_INPUT = 4
EXIT_CODES = {sdp.InfeasibleError: EXIT_INFEASIBLE,     # main's exit code per error
              sdp.VerificationError: EXIT_VERIFICATION,
              ValueError: EXIT_BAD_INPUT, KeyError: EXIT_BAD_INPUT,
              FileNotFoundError: EXIT_BAD_INPUT}

OBJECTIVES = ("feasibility", "maximize_roa")


# -- configuration ----------------------------------------------------------


def _integer(v):
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _finite(v):
    return _integer(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                           and math.isfinite(v))


# a check: a test of a config value, and what a value must be to pass it
_AT_LEAST_0 = (lambda v: _integer(v) and v >= 0, "an integer of at least 0")
_AT_LEAST_1 = (lambda v: _integer(v) and v >= 1, "an integer of at least 1")
_POSITIVE = (lambda v: _finite(v) and v > 0, "a positive finite number")
_BOOLEAN = (lambda v: isinstance(v, bool), "true or false")
_STRING = (lambda v: isinstance(v, str), "a string")
_OBJECT = (lambda v: isinstance(v, dict), "an object")
_THEOREM = (lambda v: _integer(v) and v in (1, 2), "1 or 2")
REQUIRED = "required"      # the default of a key that a config must set

# Every key a config may hold, with its default and its check.  region.Qz,
# Sz and Rz are required unless the region is heuristic; None defaults fall
# back to region.rz (rz_step1) and the design's theorem (region.theorem).
# The plant checks plant.params, and bounds.QuadratureSpec the d0 keys.
CONFIG = {
    "output_dir": (REQUIRED, _STRING),
    "plant.id": (REQUIRED, _STRING),
    "plant.params": ({}, _OBJECT),
    "lifting.extras": (REQUIRED, (lambda v: isinstance(v, list), "a list")),
    "sampling.d": (REQUIRED, _AT_LEAST_1),
    "sampling.seed": (0, _AT_LEAST_0),
    "sampling.noise_bound": (0.0, (lambda v: _finite(v) and v >= 0,
                                   "a non-negative finite number")),
    "error_bound.c_r": (REQUIRED, _POSITIVE),
    "error_bound.delta": (REQUIRED, (lambda v: _finite(v) and 0 < v < 1,
                                     "a number in (0, 1)")),
    "region.heuristic": (False, _BOOLEAN),    # checked before Qz, Sz and Rz
    "region.Qz": (REQUIRED, (lambda v: isinstance(v, list) and all(
        isinstance(row, list) and all(map(_finite, row)) for row in v),
        "a list of rows of finite numbers")),
    "region.Sz": (REQUIRED, (lambda v: isinstance(v, list) and all(map(_finite, v)),
                             "a list of finite numbers")),
    "region.Rz": (REQUIRED, _POSITIVE),
    "region.rz": (1.0, _POSITIVE),
    "region.rz_step1": (None, _POSITIVE),
    "region.theorem": (None, _THEOREM),
    "theorem": (1, _THEOREM),
    "solver.tol": (1e-8, _POSITIVE),
    "solver.max_iters": (200, _AT_LEAST_1),
    "solver.epsilon": (1e-6, _POSITIVE),
    "solver.t_cap": (1.0, _POSITIVE),
    "solver.objective": ("feasibility", (lambda v: v in OBJECTIVES,
                                         " or ".join(map(json.dumps, OBJECTIVES)))),
    "solver.backend": ("ipm", (lambda v: v == "ipm", '"ipm"')),   # the only solver
    "verify.n_starts": (20, _AT_LEAST_1),
    "verify.seed": (123, _AT_LEAST_0),
    "verify.horizon": (50.0, _POSITIVE),
    "verify.rtol": (1e-8, _POSITIVE),
    "verify.lqr": (False, _BOOLEAN),
    "verify.lqr_weights": ((0.01, 0.1, 1.0, 10.0), (
        lambda v: isinstance(v, list) and all(_finite(w) and w > 0 for w in v),
        "a list of positive finite numbers")),
    "resolution": (360, _AT_LEAST_1),
    **{f"d0.{f.name}": (f.default, None)
       for f in dataclasses.fields(bounds.QuadratureSpec)},
}
_SECTIONS = {key.partition(".")[0] for key in CONFIG if "." in key}


def _check(key, value, check):
    test, what = check
    if not test(value):
        raise ValueError(f"{key} must be {what}")


def _setting(cfg, key):
    """The config's value of ``key``, else the table's default; writes nothing."""
    head, _, leaf = key.rpartition(".")
    section = cfg.get(head, {}) if head else cfg
    default = CONFIG[key][0]
    return section[leaf] if default is REQUIRED else section.get(leaf, default)


def example_config(name):
    """Built-in end-to-end configurations for the benchmark plants."""
    if name == "cooked_up":
        return {
            "plant": {"id": "cooked_up", "params": {"rho": -2.0, "lam": 1.0}},
            "lifting": {"extras": [
                {"kind": "poly", "params": {"terms": [[1.0, [0, 1]], [-0.2, [2, 0]]]}},
            ]},
            "sampling": {"d": 5000, "seed": 7, "noise_bound": 0.0},
            "error_bound": {"c_r": 0.1, "delta": 0.05},
            "region": {"Qz": (-np.eye(3)).tolist(), "Sz": [0.0, 0.0, 0.0], "Rz": 500.0},
            "theorem": 1,
            "solver": {"tol": 1e-8, "max_iters": 200, "epsilon": 1e-6,
                       "objective": "maximize_roa"},
            "verify": {"n_starts": 20, "seed": 123, "horizon": 50.0,
                       "rtol": 1e-8, "lqr": False},
            "output_dir": "out_cooked_up",
        }
    if name == "cooked_up_xy":
        cfg = example_config("cooked_up")
        cfg["plant"]["id"] = "cooked_up_xy"
        cfg["lifting"]["extras"].append(
            {"kind": "poly", "params": {"terms": [[1.0, [1, 1]]]}})
        cfg["sampling"]["noise_bound"] = 0.05
        cfg["error_bound"]["c_r"] = 0.01
        cfg["region"] = {"Qz": (-np.eye(4)).tolist(), "Sz": [0.0] * 4, "Rz": 1000.0}
        cfg["theorem"] = 2
        cfg["output_dir"] = "out_cooked_up_xy"
        return cfg
    if name == "pendulum":
        return {
            "plant": {"id": "pendulum", "params": {}},
            "lifting": {"extras": [{"kind": "sine", "params": {"index": 0}}]},
            "sampling": {"d": 15000, "seed": 7, "noise_bound": 0.0},
            "error_bound": {"c_r": 0.02, "delta": 0.05},
            "region": {"Qz": (-np.eye(3)).tolist(), "Sz": [0.0] * 3, "Rz": 12.0},
            "theorem": 1,
            "solver": {"tol": 1e-8, "max_iters": 200, "epsilon": 1e-6,
                       "objective": "maximize_roa"},
            "verify": {"n_starts": 20, "seed": 123, "horizon": 50.0,
                       "rtol": 1e-8, "lqr": True,
                       "lqr_weights": [0.01, 0.1, 1.0, 10.0]},
            "output_dir": "out_pendulum",
        }
    if name == "pendulum_shaped":
        cfg = example_config("pendulum")
        cfg["region"] = {"heuristic": True, "rz": 5.0, "rz_step1": 12.0,
                         "theorem": 2}
        cfg["output_dir"] = "out_pendulum_shaped"
        return cfg
    raise ValueError(f"unknown example config '{name}'")


def _theorems(cfg):
    """The design's theorem and that of the region heuristic's pilot."""
    design, pilot = _setting(cfg, "theorem"), _setting(cfg, "region.theorem")
    return design, design if pilot is None else pilot


def _check_keys(cfg):
    """Refuse a config or section that is not an object, or a key not in CONFIG."""
    if not isinstance(cfg, dict):
        raise ValueError("a config must be a JSON object")
    for name, value in cfg.items():
        if name in _SECTIONS:
            _check(f"config section '{name}'", value, _OBJECT)
        for key in [f"{name}.{sub}" for sub in value] if name in _SECTIONS else [name]:
            if key not in CONFIG:
                raise ValueError(f"unknown config key '{key}'")


def validate_config(cfg):
    """Refuse, before any stage writes, a key outside ``CONFIG``, a missing
    required key, a value its check refuses, or a broken cross-key rule."""
    _check_keys(cfg)
    heuristic = _setting(cfg, "region.heuristic") is True
    for key, (default, check) in CONFIG.items():
        head, _, leaf = key.rpartition(".")
        section = cfg.get(head, {}) if head else cfg
        fixed_only = heuristic and key in ("region.Qz", "region.Sz", "region.Rz")
        if leaf in section and fixed_only:
            raise ValueError(f"a heuristic region builds its own Qz, Sz and Rz; "
                             f"drop {key} (its radius is region.rz)")
        if leaf in section and check is not None:
            _check(key, section[leaf], check)
        elif leaf not in section and default is REQUIRED and not fixed_only:
            missing = head if head and head not in cfg else key
            raise ValueError(f"missing config key '{missing}'")
    quad = bounds.QuadratureSpec(**cfg.get("d0", {}))    # refuses a bad d0 spec
    n = _plant(cfg).n                             # refuses an unknown plant
    if quad.method == "mc" and quad.sobol and n > bounds._SOBOL_DIMS:
        raise ValueError(f"the bundled Sobol generator draws at most "
                         f"{bounds._SOBOL_DIMS} dimensions, but the plant has "
                         f"{n} states; set d0 \"sobol\": false for plain "
                         "Monte Carlo")
    extras = _extras(cfg)                         # refuses an unknown observable
    Lifting(n, extras)                            # and a bad or implied one
    if not heuristic:                             # a fixed region of the lift's size
        N, region = n + len(extras), cfg["region"]
        if {len(region["Sz"]), len(region["Qz"]), *map(len, region["Qz"])} != {N}:
            raise ValueError(f"region.Qz must be {N}x{N} and region.Sz of length {N}, "
                             f"N = n + len(lifting.extras) = {n} + {len(extras)}")
        _resolve_region(cfg, None)                # refuses Qz not negative definite
    return cfg


def load_config(path=None, example=None, overrides=None):
    if (path is None) == (example is None):
        raise ValueError("give exactly one of --config or --example")
    if path is not None:
        with open(path) as fh:
            cfg = json.load(fh)
    else:
        cfg = example_config(example)
    _check_keys(cfg)
    for key, value in (overrides or {}).items():
        if key == "region.Rz" and _setting(cfg, "region.heuristic") is True:
            key = "region.rz"     # the radius parameter of a heuristic region
        head, _, leaf = key.rpartition(".")
        (cfg.setdefault(head, {}) if head else cfg)[leaf] = value
    return validate_config(cfg)


def _outdir(cfg):
    """``output_dir``, under ``KOOPSYN_OUT`` when relative; not created here."""
    out = Path(cfg["output_dir"])
    root = os.environ.get("KOOPSYN_OUT")
    if root and not out.is_absolute():
        out = Path(root) / out
    return out


def _plant(cfg):
    return plants.make_example(_setting(cfg, "plant.id"),
                               **_setting(cfg, "plant.params"))


def _extras(cfg):
    """The extra observables of ``lifting.extras``, decoded by the catalog."""
    extras = []
    for i, item in enumerate(_setting(cfg, "lifting.extras")):
        key = f"lifting.extras[{i}]"
        _check(key, item, _OBJECT)
        unknown = sorted(set(item) - {"kind", "params"})
        if unknown:
            raise ValueError(f"unknown config key '{key}.{unknown[0]}'")
        if "kind" not in item:
            raise ValueError(f"missing config key '{key}.kind'")
        params = item.get("params", {})
        _check(f"{key}.params", params, _OBJECT)
        extras.append(observable(item["kind"], params))
    return extras


def _solver_options(cfg):
    return sdp.SolverOptions(tol=_setting(cfg, "solver.tol"),
                             max_iters=_setting(cfg, "solver.max_iters"),
                             t_cap=_setting(cfg, "solver.t_cap"))


# -- subcommands ------------------------------------------------------------


def cmd_collect(cfg, outdir):
    plant = _plant(cfg)
    samples = plants.collect_samples(
        plant, _setting(cfg, "sampling.d"), _setting(cfg, "sampling.seed"),
        noise_bound=_setting(cfg, "sampling.noise_bound"))
    meta = plants.save_samples(samples, outdir, plant=plant)
    print(f"collect: wrote {len(meta['files'])} batches of "
          f"{cfg['sampling']['d']} samples to {outdir}")
    return [], meta["files"] + ["samples_meta.json"]


def cmd_fit(cfg, outdir):
    samples = plants.load_samples(outdir)
    lifting = Lifting(samples.batches[0].states.shape[1], _extras(cfg))
    eb = cfg["error_bound"]
    surrogate, report = edmd.fit(edmd.build_data_matrices(lifting, samples),
                                 lifting=lifting, c_r=eb["c_r"], delta=eb["delta"])
    (outdir / "surrogate.json").write_text(surrogate.to_json() + "\n")
    write_json(outdir / "fit_report.json",
               {"batches": {str(k): v for k, v in report.batches.items()}})
    worst = report.worst_relative_residual()
    print(f"fit: surrogate written (worst relative residual {worst:.3e})")
    meta = json.loads((outdir / "samples_meta.json").read_text())
    return ["samples_meta.json"] + meta["files"], ["surrogate.json", "fit_report.json"]


def cmd_d0(cfg, outdir):
    plant = _plant(cfg)
    lifting = Lifting(plant.n, _extras(cfg))
    eb = cfg["error_bound"]
    quad = bounds.QuadratureSpec(**cfg.get("d0", {}))
    req = bounds.compute_d0(plant, lifting, eb["c_r"], eb["delta"], quad)
    (outdir / "d0_report.json").write_text(req.to_json() + "\n")
    print(f"d0: {req.d0_float:.4e} (log10 = {req.log10_d0:.3f})")
    return [], ["d0_report.json"]


def _resolve_region(cfg, surrogate):
    """(region, log entries): a heuristic region's entries are the pilot's
    ``solves`` record and the ``heuristic`` record of ``design_log.json``."""
    if _setting(cfg, "region.heuristic"):
        region, record, report = uncertainty.procedure1_qz(
            surrogate, theorem=_theorems(cfg)[1],
            rz=_setting(cfg, "region.rz"), rz_step1=_setting(cfg, "region.rz_step1"),
            epsilon=_setting(cfg, "solver.epsilon"),
            solver_options=_solver_options(cfg))
        return region, {"solves": [_solve_entry("region", report)],
                        "heuristic": record}
    return uncertainty.UncertaintyRegion.from_json_dict(cfg["region"]), {}


def _solve_entry(stage, report):
    """The design_log.json record of one ``sdp.solve``: status, iterations
    and the report's diagnostics (final residuals, program size and, for a
    phase-I solve, t*).  It holds no wall time, so the log stays
    byte-deterministic."""
    return {"stage": stage, "status": report.status,
            "iterations": report.iterations, **report.diagnostics}


def _design(cfg, surrogate, region):
    """Pose, solve and independently verify the design SDP of ``cfg``.

    With the ``maximize_roa`` objective the objective problem is solved
    first; the feasibility problem is solved only when that solve is not
    feasible, so it either rescues the design or names the most violated
    constraint.  Raises ``sdp.InfeasibleError`` when no solve is feasible and
    ``sdp.VerificationError`` when the verifier rejects the solution.
    Returns (problem, solves, check, design): ``solves`` lists the
    ``_solve_entry`` of every solve in order, the last one that of the kept
    ``problem``.
    """
    options = _solver_options(cfg)
    problem = lmi.build_problem(_theorems(cfg)[0], surrogate, region,
                                _setting(cfg, "solver.epsilon"))
    report = None
    solves = []
    if _setting(cfg, "solver.objective") == "maximize_roa":
        with_objective = lmi.add_roa_objective(problem)
        assignment, report = sdp.solve_problem(with_objective, options)
        solves.append(_solve_entry("objective", report))
        if report.status == "feasible":
            problem = with_objective
    if report is None or report.status != "feasible":
        assignment, report = sdp.solve_problem(problem, options)
        solves.append(_solve_entry("feasibility", report))
    check = sdp.verify(problem, assignment)
    if report.status != "feasible":
        name, (eig, req) = min(check.margins.items(),
                               key=lambda kv: kv[1][0] - kv[1][1])
        raise sdp.InfeasibleError(
            f"design infeasible (status {report.status}); most violated "
            f"constraint '{name}' with margin {eig - req:.3e}")
    if not check.ok:
        raise sdp.VerificationError(
            "solver reported feasible but the independent verifier rejected "
            f"the solution (worst slack {check.worst():.3e})")
    design = controller.DesignResult.from_assignment(assignment, margins=check.margins)
    return problem, solves, check, design


def cmd_design(cfg, outdir):
    surrogate = edmd.Surrogate.from_json((outdir / "surrogate.json").read_text())
    region, log = _resolve_region(cfg, surrogate)
    problem, solves, check, design = _design(cfg, surrogate, region)
    kept = solves[-1]
    # the one writer of the design's files; roa.dat is swept at the
    # config's resolution
    boundary = controller.roa_boundary_2d(design, surrogate.lifting,
                                          _setting(cfg, "resolution"))
    controller.export_boundary_dat(boundary, outdir / "roa.dat")
    (outdir / "design.json").write_text(design.to_json() + "\n")
    write_json(outdir / "region.json", region.to_json_dict(), indent=None)
    log.update({
        "status": kept["status"],
        "iterations": kept["iterations"],
        "solves": log.get("solves", []) + solves,
        "constraint_manifest": problem.manifest(),
        "verification": {k: list(v) for k, v in check.margins.items()},
        "roa_closed": boundary.closed,
        "state_box": controller.certified_box(design, surrogate.lifting).tolist(),
    })
    write_json(outdir / "design_log.json", log)
    print(f"design: feasible ({kept['iterations']} iterations); "
          f"K = {np.array2string(design.K, precision=4)}")
    return ["surrogate.json"], ["roa.dat", "design.json", "region.json", "design_log.json"]


def _run_record(x0, traj):
    """The report entry of one closed-loop run from ``x0``: its start, why it
    stopped and the norm of its final state."""
    return {"x0": np.asarray(x0).tolist(), "reason": traj.reason,
            "final_norm": float(np.linalg.norm(traj.final_state))}


def _lqr_grid(surrogate, starts, weights):
    """CARE/LQR baseline with R = w I for each weight, over every (weight,
    start) row: the starts (rows, n) and gains (rows, m, N) of the rows,
    weight by weight, with u = -K_lqr z, and the function that takes the
    rows' trajectories to the report entry of each weight and its
    trajectories."""
    X0 = np.reshape(starts, (-1, surrogate.lifting.n))
    solved = [verify.lqr_baseline(surrogate, R=w * np.eye(surrogate.m))
              for w in weights]
    gains = np.repeat(np.reshape([-K_lqr for K_lqr, _, _ in solved],
                                 (-1, surrogate.m, surrogate.N)), len(X0), axis=0)

    def report(runs_all):
        entries, trajectories = [], []
        for j, (w, (K_lqr, _, info)) in enumerate(zip(weights, solved)):
            trajs = runs_all[j * len(X0):(j + 1) * len(X0)]
            runs = [_run_record(x0, traj) for x0, traj in zip(starts, trajs)]
            entries.append({"R": w, "K": K_lqr.ravel().tolist(),
                            "care_relative_residual": info["relative_residual"],
                            "trajectories": runs,
                            "n_failed": sum(r["final_norm"] > 1e-6 for r in runs)})
            trajectories.append(trajs)
        return entries, trajectories

    return np.tile(X0, (len(weights), 1)), gains, report


def _certified_starts(design, lifting, n_starts, seed):
    """Up to ``n_starts`` states with V <= 0.99, rejection-sampled (at most
    100000 tries) from ``controller.certified_box``, which holds the whole
    certified set in any n.  Returns the starts and the ``start_sampling``
    record of ``verify_report.json``: the box, the tries and ``n_starts``."""
    rng = np.random.default_rng(seed)
    box = controller.certified_box(design, lifting)
    value_many = controller.ClosedLoop.of(design, lifting).value_many
    # rejection sampling in blocks of tries; a block of k draws is the same
    # stream as k single draws, so the starts do not depend on the block size
    starts, tries = [], 0
    while len(starts) < n_starts and tries < 100000:
        X = rng.uniform(box[:, 0], box[:, 1],
                        size=(min(1000, 100000 - tries), lifting.n))
        tries += len(X)
        starts.extend(X[value_many(X) <= 0.99][:n_starts - len(starts)])
    return starts, {"box": box.tolist(), "tries": tries, "requested": n_starts}


def cmd_verify(cfg, outdir):
    surrogate = edmd.Surrogate.from_json((outdir / "surrogate.json").read_text())
    design = controller.DesignResult.from_json((outdir / "design.json").read_text())
    if (design.P.shape[0], design.L.shape[0]) != (surrogate.N, surrogate.m):
        raise ValueError(f"design.json has N = {design.P.shape[0]} and m = "
                         f"{design.L.shape[0]}, but surrogate.json has N = {surrogate.N} "
                         f"and m = {surrogate.m}; re-run design")
    lifting = surrogate.lifting
    plant = _plant(cfg)
    horizon, rtol = _setting(cfg, "verify.horizon"), _setting(cfg, "verify.rtol")
    starts, sampling = _certified_starts(design, lifting, _setting(cfg, "verify.n_starts"),
                                         _setting(cfg, "verify.seed"))
    # no trajectory (nor, without starts, manifest) of an earlier run stays
    # beside this run's report
    for path in outdir.glob("traj_*.dat"):
        path.unlink()
    if not starts:
        # nothing to verify; the report keeps the draw that found no start
        (outdir / "manifest_verify.json").unlink(missing_ok=True)
        write_json(outdir / "verify_report.json",
                   {"trajectories": [], "n_converged": 0, "start_sampling": sampling})
        raise sdp.VerificationError(
            f"no start with V <= 0.99 in {sampling['tries']} draws from the "
            "certified box; nothing was verified")
    if len(starts) < sampling["requested"]:
        print(f"warning: found {len(starts)} of {sampling['requested']} starts "
              f"with V <= 0.99 in {sampling['tries']} draws", file=sys.stderr)
    # one batch: the certified starts under the design's gains, then, with
    # verify.lqr, every (weight, start) row of the LQR grid under -K_lqr(w)
    # with a zero scheduling gain (u = -K_lqr z); P_inv is the design's
    X0 = np.reshape(starts, (-1, plant.n))
    gains = np.repeat(design.K[None], len(X0), axis=0)
    Kw = None if design.Kw is None else np.repeat(design.Kw[None], len(X0), axis=0)
    if _setting(cfg, "verify.lqr"):
        X_lqr, K_lqr, lqr_report = _lqr_grid(surrogate, starts[:8],
                                             _setting(cfg, "verify.lqr_weights"))
        X0, gains = np.concatenate([X0, X_lqr]), np.concatenate([gains, K_lqr])
        if Kw is not None:
            Kw = np.concatenate([Kw, np.zeros((len(X_lqr),) + design.Kw.shape)])
    runs = verify.simulate_many(
        plant, controller.ClosedLoop(lifting, gains, Kw, design.P_inv), X0,
        horizon=horizon, rtol=rtol, atol=rtol)
    trajs = runs[:len(starts)]
    results, outputs = [], []
    for i, (x0, traj) in enumerate(zip(starts, trajs)):
        audit = verify.lyapunov_audit(traj)
        outputs.append(f"traj_{i:03d}.dat")
        verify.export_trajectory_dat(traj, outdir / outputs[-1])
        results.append({
            **_run_record(x0, traj),
            "V_max": float(np.nanmax(traj.V)),
            "audit_ok": audit.ok,
            "max_V_increase": audit.max_increase,
        })
    report = {"trajectories": results,
              "n_converged": sum(r["reason"] == "converged" for r in results),
              "start_sampling": sampling}
    if _setting(cfg, "verify.lqr"):
        report["lqr_grid"], _ = lqr_report(runs[len(starts):])
    write_json(outdir / "verify_report.json", report)
    print(f"verify: {report['n_converged']}/{len(results)} converged")
    return ["surrogate.json", "design.json"], outputs + ["verify_report.json"]


# Each stage's handler and the files it reads, each by the stage that writes
# it.  A handler runs in the existing output directory and returns the names,
# relative to that directory, of the files it read and of those it wrote.
STAGES = {
    "collect": (cmd_collect, {}),
    "fit": (cmd_fit, {"samples_meta.json": "collect"}),
    "d0": (cmd_d0, {}),
    "design": (cmd_design, {"surrogate.json": "fit"}),
    "verify": (cmd_verify, {"surrogate.json": "fit", "design.json": "design"}),
}


def run_stage(name, cfg):
    """Refuse a missing input before the output directory is made, run the
    handler there, then write ``manifest_<name>.json``, which names no path."""
    handler, reads = STAGES[name]
    outdir = _outdir(cfg)
    for file, stage in reads.items():
        if not (outdir / file).exists():
            raise FileNotFoundError(f"missing {file} in {outdir}; run {stage} first")
    outdir.mkdir(parents=True, exist_ok=True)
    inputs, outputs = handler(cfg, outdir)
    write_json(outdir / f"manifest_{name}.json", {
        "command": name,
        "config": {key: v for key, v in cfg.items() if key != "output_dir"},
        "inputs": {file: hashlib.sha256((outdir / file).read_bytes()).hexdigest()
                   for file in inputs},
        "outputs": sorted(outputs)})


# -- figure reproduction ----------------------------------------------------


def _fig1(outdir):
    xs = np.linspace(-5.0, 5.0, 401)
    parabola = np.column_stack([xs, xs * xs])
    th = np.linspace(0.0, 2.0 * np.pi, 361)
    circle = np.sqrt(650.0) * np.column_stack([np.cos(th), np.sin(th)])
    ellipse = np.column_stack([np.sqrt(50.0) * np.cos(th),
                               np.sqrt(1250.0) * np.sin(th)])
    files = []
    for name, pts in (("parabola", parabola), ("circle", circle),
                      ("ellipse", ellipse)):
        path = outdir / f"fig1_{name}.dat"
        write_table(path, pts)
        files.append(path)
    return files


# Each figure's example and, by the stem of its files, the config change of
# each design it shows; fig3_tuned's region is the paper's hand-weighted one.
FIGURES = {
    "fig2": ("cooked_up", {"fig2": {}}),
    "fig3": ("cooked_up_xy", {"fig3_ball": {}, "fig3_tuned": {"region": {
        "Qz": (-np.diag([2.5, 2.5, 1.25, 0.005])).tolist(), "Sz": [0.0] * 4,
        "Rz": 1000.0}}}),
    "fig4": ("pendulum", {"fig4_thm1": {"theorem": 1}, "fig4_thm2": {"theorem": 2}}),
    "fig5": ("pendulum_shaped", {"fig5_thm1": {"theorem": 1},
                                 "fig5_thm2": {"theorem": 2}}),
}


def cmd_reproduce(figure, out):
    """Figure data.  Each design of fig2..fig5 is a run of the stages
    collect, fit and design in ``<out>/<stem>/``; its ``roa.dat``,
    ``design.json`` and ``region.json`` are copied as ``<stem>_*`` and the
    shared ``surrogate.json`` as ``<figure>_surrogate.json``, and the other
    plots are made from those files."""
    if figure != "fig1" and figure not in FIGURES:
        raise ValueError(f"unknown figure id '{figure}' (use fig1..fig5)")
    outdir = _outdir({"output_dir": str(out)})
    outdir.mkdir(parents=True, exist_ok=True)
    if figure == "fig1":
        files = _fig1(outdir)
    else:
        example, changes = FIGURES[figure]
        files = []
        for stem, change in changes.items():
            # relative when out is, so each stage's _outdir puts it under outdir
            cfg = validate_config({**example_config(example), **change,
                                   "output_dir": str(Path(out) / stem)})
            for stage in ("collect", "fit", "design"):
                run_stage(stage, cfg)
            for name in ("roa.dat", "design.json", "region.json"):
                files.append(outdir / f"{stem}_{name}")
                shutil.copyfile(_outdir(cfg) / name, files[-1])
        # the designs of a figure differ in region or theorem, not in data
        files.append(outdir / f"{figure}_surrogate.json")
        shutil.copyfile(_outdir(cfg) / "surrogate.json", files[-1])
        surrogate = edmd.Surrogate.from_json(files[-1].read_text())
        plant = _plant(cfg)
        # a figure of several designs plots their regions' boundaries: once
        # when they share the region (fig4, fig5), else once per design (fig3)
        regions = {(outdir / f"{stem}_region.json").read_text(): stem
                   for stem in changes} if len(changes) > 1 else {}
        for doc, stem in regions.items():
            files.append(outdir / f"{figure if len(regions) == 1 else stem}_region.dat")
            controller.export_boundary_dat(controller.region_boundary_2d(
                uncertainty.UncertaintyRegion.from_json_dict(json.loads(doc)),
                surrogate.lifting, _setting(cfg, "resolution")), files[-1])
        if figure == "fig5":
            designs = [controller.DesignResult.from_json(
                (outdir / f"{stem}_design.json").read_text()) for stem in changes]
            files += _fig5_trajectories(outdir, plant, surrogate, designs, cfg)
    manifest = {"figure": figure, "files": sorted(str(f.name) for f in files)}
    if figure != "fig1":
        # certified sets can reach far beyond the sampling box; record the
        # box so plots can show both
        manifest["sampling_box"] = plant.state_box.tolist()
    write_json(outdir / f"{figure}_manifest.json", manifest)
    print(f"reproduce {figure}: wrote {len(files)} files to {outdir}")


def fig5_start_set(boundaries):
    """Documented start set for the closed-loop comparison: four polar
    directions at 95 percent of the smallest certified radius among the
    given boundaries."""
    starts = []
    for deg in (45.0, 135.0, 225.0, 315.0):
        th = np.deg2rad(deg)
        r = min(b.radii[np.argmin(np.abs(b.angles - th))] for b in boundaries)
        starts.append(0.95 * r * np.array([np.cos(th), np.sin(th)]))
    return starts


def _fig5_trajectories(outdir, plant, surrogate, designs, cfg):
    files = []
    lifting, resolution = surrogate.lifting, _setting(cfg, "resolution")
    starts = fig5_start_set([controller.roa_boundary_2d(design, lifting, resolution)
                             for design in designs])
    horizon, rtol = _setting(cfg, "verify.horizon"), _setting(cfg, "verify.rtol")
    for design in designs:
        trajs = verify.simulate_many(
            plant, controller.ClosedLoop.of(design, lifting),
            np.array(starts), horizon=horizon, rtol=rtol, atol=rtol)
        for i, traj in enumerate(trajs):
            path = outdir / f"fig5_traj_thm{design.theorem}_{i}.dat"
            verify.export_trajectory_dat(traj, path)
            files.append(path)
    X_lqr, K_lqr, lqr_report = _lqr_grid(surrogate, starts,
                                         _setting(cfg, "verify.lqr_weights"))
    grid, trajectories = lqr_report(verify.simulate_many(
        plant, controller.ClosedLoop(lifting, K_lqr), X_lqr,
        horizon=horizon, rtol=rtol, atol=rtol))
    failing = [(e["R"], trajs) for e, trajs in zip(grid, trajectories)
               if e["n_failed"]]
    plotted_weight, plotted = failing[0] if failing else (None, [])
    for i, traj in enumerate(plotted):
        path = outdir / f"fig5_traj_lqr_{i}.dat"
        verify.export_trajectory_dat(traj, path)
        files.append(path)
    write_json(outdir / "fig5_lqr_report.json",
               {"weight_grid": grid,
                "starts": [np.asarray(s).tolist() for s in starts],
                "plotted_weight": plotted_weight})
    files.append(outdir / "fig5_lqr_report.json")
    return files


# -- entry point ------------------------------------------------------------


def _add_common(sub):
    sub.add_argument("--config", help="path to a JSON run configuration")
    sub.add_argument("--example", help="built-in config name "
                     "(cooked_up, cooked_up_xy, pendulum, pendulum_shaped)")
    sub.add_argument("--out", help="override output_dir")
    sub.add_argument("--d", type=int, help="samples per batch")
    sub.add_argument("--seed", type=int, help="sampling seed")
    sub.add_argument("--noise-bound", type=float, help="derivative noise bound")
    sub.add_argument("--c-r", type=float, help="remainder bound")
    sub.add_argument("--delta", type=float, help="probabilistic tolerance")
    sub.add_argument("--rz", type=float, help="region radius parameter")
    sub.add_argument("--theorem", type=int, choices=(1, 2))
    sub.add_argument("--objective", choices=OBJECTIVES)


# the config key each flag of _add_common sets (load_config sends --rz to
# region.rz when the region is heuristic)
FLAG_KEYS = {"out": "output_dir", "d": "sampling.d", "seed": "sampling.seed",
             "noise_bound": "sampling.noise_bound", "c_r": "error_bound.c_r",
             "delta": "error_bound.delta", "rz": "region.Rz", "theorem": "theorem",
             "objective": "solver.objective"}


def _overrides(args):
    return {key: getattr(args, attr) for attr, key in FLAG_KEYS.items()
            if getattr(args, attr, None) is not None}


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as bad input (exit 4) in one ``error:``
    line, instead of argparse's usage text and exit 2."""

    def error(self, message):
        raise ValueError(message)


def main(argv=None):
    parser = _Parser(
        prog="koopsyn",
        description="Bilinear Koopman surrogates with certified feedback synthesis")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in STAGES:
        _add_common(subs.add_parser(name))
    rep = subs.add_parser("reproduce")
    rep.add_argument("figure", help="fig1 | fig2 | fig3 | fig4 | fig5")
    rep.add_argument("--out", default="figures")
    exa = subs.add_parser("example-config")
    exa.add_argument("name")
    try:
        args = parser.parse_args(argv)
        if args.command == "reproduce":
            cmd_reproduce(args.figure, args.out)
        elif args.command == "example-config":
            print(json.dumps(example_config(args.name), indent=1, sort_keys=True))
        else:
            run_stage(args.command, load_config(args.config, args.example,
                                                _overrides(args)))
        return EXIT_OK
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
