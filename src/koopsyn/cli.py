"""Pipeline driver: collect -> fit -> d0 -> design -> verify, plus figure
data reproduction.

A single JSON config drives every stage; each stage reads the previous
stage's artifacts from the output directory and writes a manifest with the
input hashes and the effective config.  Exit codes: 0 success, 2 infeasible
design, 3 verification failure, 4 bad input (including a solver backend
that is unknown or not installed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import bounds, controller, edmd, lmi, plants, sdp, uncertainty, verify
from .lifting import make_lifting, poly, sine

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_VERIFICATION = 3
EXIT_BAD_INPUT = 4


# -- configuration ----------------------------------------------------------


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
            "solver": {"backend": "ipm", "tol": 1e-8, "max_iters": 200,
                       "epsilon": 1e-6, "objective": "maximize_roa"},
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
            "solver": {"backend": "ipm", "tol": 1e-8, "max_iters": 200,
                       "epsilon": 1e-6, "objective": "maximize_roa"},
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


def validate_config(cfg):
    eb = cfg["error_bound"]
    if eb["c_r"] <= 0:
        raise ValueError("c_r must be positive")
    if not (0.0 < eb["delta"] < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if cfg["sampling"]["d"] < 1:
        raise ValueError("need at least one sample per batch")
    if cfg.get("theorem", 1) not in (1, 2):
        raise ValueError("theorem must be 1 or 2")
    return cfg


def load_config(path=None, example=None, overrides=None):
    if (path is None) == (example is None):
        raise ValueError("give exactly one of --config or --example")
    if path is not None:
        with open(path) as fh:
            cfg = json.load(fh)
    else:
        cfg = example_config(example)
    for key, value in (overrides or {}).items():
        section = cfg
        *parents, leaf = key.split(".")
        for p in parents:
            section = section.setdefault(p, {})
        section[leaf] = value
    return validate_config(cfg)


def _outdir(cfg):
    out = Path(cfg["output_dir"])
    root = os.environ.get("KOOPSYN_OUT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _plant(cfg):
    spec = cfg["plant"]
    return plants.make_example(spec["id"], **spec.get("params", {}))


def _lifting(cfg, n):
    extras = []
    for item in cfg["lifting"]["extras"]:
        kind = item["kind"]
        params = item.get("params", {})
        if kind == "poly":
            extras.append(poly(params["terms"]))
        elif kind == "sine":
            extras.append(sine(params["index"]))
        elif kind in ("coordinate", "constant"):
            raise ValueError("constant and coordinates are implied, not extras")
        else:
            raise ValueError(f"unsupported extra observable kind '{kind}'")
    return make_lifting(n, extras)


def _sha256(path):
    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()


def _write_manifest(outdir, command, cfg, inputs, outputs):
    doc = {
        "command": command,
        "config": cfg,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(str(o) for o in outputs),
    }
    path = outdir / f"manifest_{command}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _solver_options(cfg):
    s = cfg.get("solver", {})
    return sdp.SolverOptions(backend=s.get("backend", "ipm"),
                             tol=s.get("tol", 1e-8),
                             max_iters=s.get("max_iters", 200),
                             t_cap=s.get("t_cap", 1.0))


# -- subcommands ------------------------------------------------------------


def _collect(cfg, plant):
    samp = cfg["sampling"]
    return plants.collect_samples(plant, samp["d"], samp["seed"],
                                  noise_bound=samp.get("noise_bound", 0.0))


def _fit(cfg, lifting, samples):
    eb = cfg["error_bound"]
    return edmd.fit(edmd.build_data_matrices(lifting, samples), lifting=lifting,
                    c_r=eb["c_r"], delta=eb["delta"])


def cmd_collect(cfg):
    outdir = _outdir(cfg)
    plant = _plant(cfg)
    meta = plants.save_samples(_collect(cfg, plant), outdir, plant=plant)
    outputs = [outdir / f for f in meta["files"]] + [outdir / "samples_meta.json"]
    _write_manifest(outdir, "collect", cfg, [], outputs)
    print(f"collect: wrote {len(meta['files'])} batches of "
          f"{cfg['sampling']['d']} samples to {outdir}")
    return EXIT_OK


def cmd_fit(cfg):
    outdir = _outdir(cfg)
    meta_path = outdir / "samples_meta.json"
    if not meta_path.exists():
        raise FileNotFoundError(f"no sample files in {outdir}; run collect first")
    samples = plants.load_samples(outdir)
    lifting = _lifting(cfg, samples.batches[0].states.shape[1])
    surrogate, report = _fit(cfg, lifting, samples)
    (outdir / "surrogate.json").write_text(surrogate.to_json() + "\n")
    with open(outdir / "fit_report.json", "w") as fh:
        json.dump({"batches": {str(k): v for k, v in report.batches.items()}},
                  fh, indent=1, sort_keys=True)
        fh.write("\n")
    inputs = [meta_path] + [outdir / f for f in json.loads(meta_path.read_text())["files"]]
    _write_manifest(outdir, "fit", cfg, inputs,
                    [outdir / "surrogate.json", outdir / "fit_report.json"])
    worst = report.worst_relative_residual()
    print(f"fit: surrogate written (worst relative residual {worst:.3e})")
    return EXIT_OK


def cmd_d0(cfg):
    outdir = _outdir(cfg)
    plant = _plant(cfg)
    lifting = _lifting(cfg, plant.n)
    eb = cfg["error_bound"]
    qcfg = cfg.get("d0", {})
    quad = bounds.QuadratureSpec(**qcfg) if qcfg else bounds.QuadratureSpec()
    req = bounds.compute_d0(plant, lifting, eb["c_r"], eb["delta"], quad)
    (outdir / "d0_report.json").write_text(req.to_json() + "\n")
    _write_manifest(outdir, "d0", cfg, [], [outdir / "d0_report.json"])
    print(f"d0: {req.d0_float:.4e} (log10 = {req.log10_d0:.3f})")
    return EXIT_OK


def _resolve_region(cfg, surrogate, log_sink=None):
    rcfg = cfg["region"]
    if rcfg.get("heuristic"):
        region, log = uncertainty.procedure1_qz(
            surrogate, theorem=rcfg.get("theorem", cfg.get("theorem", 2)),
            rz=rcfg.get("rz", 1.0), rz_step1=rcfg.get("rz_step1"),
            epsilon=cfg.get("solver", {}).get("epsilon", 1e-6),
            solver_options=_solver_options(cfg))
        if log_sink is not None:
            log_sink["heuristic"] = {
                "P_hat": log.P_hat.tolist(),
                "Qz": log.Qz.tolist(),
                "rz_step1": log.rz_step1,
                "rz": log.rz,
                "trace_cap": log.trace_cap,
                "step1_constraints": list(log.step1_constraints),
            }
        return region
    return uncertainty.UncertaintyRegion(Qz=np.asarray(rcfg["Qz"], dtype=float),
                                         Sz=np.asarray(rcfg["Sz"], dtype=float),
                                         Rz=float(rcfg["Rz"]))


def _design(cfg, surrogate, region):
    """Pose, solve and independently verify the design SDP of ``cfg``.

    With the ``maximize_roa`` objective the objective problem is solved
    first; the feasibility problem is solved only when that solve is not
    feasible, so it either rescues the design or names the most violated
    constraint.  Raises ``sdp.InfeasibleError`` when no solve is feasible and
    ``sdp.VerificationError`` when the verifier rejects the solution.
    Returns (problem, report, check, design) for the problem that was kept.
    """
    theorem = cfg.get("theorem", 1)
    scfg = cfg.get("solver", {})
    options = _solver_options(cfg)
    build = lmi.build_theorem1 if theorem == 1 else lmi.build_theorem2
    problem = build(surrogate, region, epsilon=scfg.get("epsilon", 1e-6))
    report = None
    if scfg.get("objective", "feasibility") == "maximize_roa":
        with_objective = lmi.add_roa_objective(problem)
        assignment, report = sdp.solve_problem(with_objective, options)
        if report.status == "feasible":
            problem = with_objective
    if report is None or report.status != "feasible":
        assignment, report = sdp.solve_problem(problem, options)
    if report.status != "feasible":
        name, margin = min(report.block_min_eigs.items(), key=lambda kv: kv[1])
        raise sdp.InfeasibleError(
            f"design infeasible (status {report.status}); most violated "
            f"constraint '{name}' with margin {margin:.3e}")
    check = sdp.verify(problem, assignment)
    if not check.ok:
        raise sdp.VerificationError(
            "solver reported feasible but the independent verifier rejected "
            f"the solution (worst slack {check.worst():.3e})")
    design = controller.DesignResult.from_assignment(theorem, assignment,
                                                     margins=check.margins)
    return problem, report, check, design


def cmd_design(cfg):
    outdir = _outdir(cfg)
    surrogate_path = outdir / "surrogate.json"
    if not surrogate_path.exists():
        raise FileNotFoundError(f"no surrogate in {outdir}; run fit first")
    surrogate = edmd.Surrogate.from_json(surrogate_path.read_text())
    log = {}
    region = _resolve_region(cfg, surrogate, log_sink=log)
    problem, report, check, design = _design(cfg, surrogate, region)
    (outdir / "design.json").write_text(design.to_json() + "\n")
    with open(outdir / "region.json", "w") as fh:
        json.dump(region.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")
    boundary = controller.roa_boundary_2d(design, surrogate.lifting,
                                          resolution=cfg.get("resolution", 360))
    controller.export_boundary_dat(boundary, outdir / "roa.dat")
    log.update({
        "status": report.status,
        "iterations": report.iterations,
        "constraint_manifest": problem.manifest(),
        "verification": {k: list(v) for k, v in check.margins.items()},
        "roa_closed": boundary.closed,
    })
    with open(outdir / "design_log.json", "w") as fh:
        json.dump(log, fh, indent=1, sort_keys=True)
        fh.write("\n")
    _write_manifest(outdir, "design", cfg, [surrogate_path],
                    [outdir / "design.json", outdir / "region.json",
                     outdir / "roa.dat", outdir / "design_log.json"])
    print(f"design: feasible ({report.iterations} iterations); "
          f"K = {np.array2string(design.K, precision=4)}")
    return EXIT_OK


def _lqr_grid(plant, surrogate, starts, weights, horizon, rtol):
    """CARE/LQR baseline with R = w I for each weight, simulated from every
    start.  Returns the report entry of each weight and its trajectories."""
    entries, trajectories = [], []
    for w in weights:
        K_lqr, _, info = verify.lqr_baseline(surrogate, R=w * np.eye(surrogate.m))
        ufn = verify.lqr_feedback(surrogate, surrogate.lifting, K_lqr)
        trajs = [verify.simulate_feedback(plant, ufn, x0, horizon=horizon,
                                          rtol=rtol, atol=rtol) for x0 in starts]
        runs = [{"x0": np.asarray(x0).tolist(), "reason": traj.reason,
                 "final_norm": float(np.linalg.norm(traj.final_state))}
                for x0, traj in zip(starts, trajs)]
        entries.append({"R": w, "K": K_lqr.ravel().tolist(),
                        "care_relative_residual": info["relative_residual"],
                        "trajectories": runs,
                        "n_failed": sum(r["final_norm"] > 1e-6 for r in runs)})
        trajectories.append(trajs)
    return entries, trajectories


def cmd_verify(cfg):
    outdir = _outdir(cfg)
    for req in ("design.json", "surrogate.json"):
        if not (outdir / req).exists():
            raise FileNotFoundError(f"missing {req} in {outdir}; run design first")
    surrogate = edmd.Surrogate.from_json((outdir / "surrogate.json").read_text())
    design = controller.DesignResult.from_json((outdir / "design.json").read_text())
    lifting = surrogate.lifting
    plant = _plant(cfg)
    vcfg = cfg.get("verify", {})
    n_starts = int(vcfg.get("n_starts", 20))
    horizon = float(vcfg.get("horizon", 50.0))
    rtol = float(vcfg.get("rtol", 1e-8))
    rng = np.random.default_rng(int(vcfg.get("seed", 123)))
    boundary = controller.roa_boundary_2d(design, lifting, resolution=180)
    rmax = float(np.max(boundary.radii))
    value_many = controller.ClosedLoop.of(design, lifting).value_many
    # rejection sampling in blocks of tries; a block of k draws is the same
    # stream as k single draws, so the starts do not depend on the block size
    starts, tries = [], 0
    while len(starts) < n_starts and tries < 100000:
        X = rng.uniform(-rmax, rmax, size=(min(1000, 100000 - tries), plant.n))
        tries += len(X)
        starts.extend(X[value_many(X) <= 0.99][:n_starts - len(starts)])
    results = []
    outputs = []
    for i, x0 in enumerate(starts):
        traj = verify.simulate(plant, design, lifting, x0, horizon=horizon,
                               rtol=rtol, atol=rtol)
        audit = verify.lyapunov_audit(traj)
        path = outdir / f"traj_{i:03d}.dat"
        verify.export_trajectory_dat(traj, path)
        outputs.append(path)
        results.append({
            "x0": np.asarray(x0).tolist(),
            "reason": traj.reason,
            "final_norm": float(np.linalg.norm(traj.final_state)),
            "V_max": float(np.nanmax(traj.V)),
            "audit_ok": audit.ok,
            "max_V_increase": audit.max_increase,
        })
    report = {"trajectories": results,
              "n_converged": sum(r["reason"] == "converged" for r in results)}
    if vcfg.get("lqr"):
        report["lqr_grid"], _ = _lqr_grid(
            plant, surrogate, starts[:8],
            vcfg.get("lqr_weights", [0.01, 0.1, 1.0, 10.0]), horizon, rtol)
    with open(outdir / "verify_report.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    outputs.append(outdir / "verify_report.json")
    _write_manifest(outdir, "verify", cfg,
                    [outdir / "design.json", outdir / "surrogate.json"], outputs)
    print(f"verify: {report['n_converged']}/{len(results)} converged")
    return EXIT_OK


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
        np.savetxt(path, pts, fmt="%.17g")
        files.append(path)
    return files


def _save_design(outdir, stem, region, design, boundary, region_boundary=None):
    files = []
    p = outdir / f"{stem}_roa.dat"
    controller.export_boundary_dat(boundary, p)
    files.append(p)
    p = outdir / f"{stem}_design.json"
    p.write_text(design.to_json() + "\n")
    files.append(p)
    p = outdir / f"{stem}_region.json"
    with open(p, "w") as fh:
        json.dump(region.to_json_dict(), fh, sort_keys=True)
        fh.write("\n")
    files.append(p)
    if region_boundary is not None:
        p = outdir / f"{stem}_region.dat"
        controller.export_boundary_dat(region_boundary, p)
        files.append(p)
    return files


def cmd_reproduce(figure, outdir):
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    if figure == "fig1":
        files = _fig1(outdir)
    elif figure in ("fig2", "fig3", "fig4", "fig5"):
        example = {"fig2": "cooked_up", "fig3": "cooked_up_xy",
                   "fig4": "pendulum", "fig5": "pendulum_shaped"}[figure]
        cfg = example_config(example)
        plant = _plant(cfg)
        surrogate, _ = _fit(cfg, _lifting(cfg, plant.n), _collect(cfg, plant))
        files = _reproduce_designs(figure, outdir, cfg, plant, surrogate)
        p = outdir / f"{figure}_surrogate.json"
        p.write_text(surrogate.to_json() + "\n")
        files.append(p)
    else:
        raise ValueError(f"unknown figure id '{figure}' (use fig1..fig5)")
    manifest = {"figure": figure, "files": sorted(str(f.name) for f in files)}
    if figure != "fig1":
        # certified sets can reach far beyond the sampling box; record the
        # box so plots can show both
        manifest["sampling_box"] = plant.state_box.tolist()
    with open(outdir / f"{figure}_manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"reproduce {figure}: wrote {len(files)} files to {outdir}")
    return EXIT_OK


def _reproduce_designs(figure, outdir, cfg, plant, surrogate):
    """Design and boundary files of fig2..fig5 from one fitted surrogate."""
    lifting = surrogate.lifting
    region = _resolve_region(cfg, surrogate)
    if figure == "fig2":
        design = _design(cfg, surrogate, region)[3]
        boundary = controller.roa_boundary_2d(design, lifting, resolution=360)
        return _save_design(outdir, "fig2", region, design, boundary)
    if figure == "fig3":
        tuned = uncertainty.UncertaintyRegion(
            Qz=-np.diag([2.5, 2.5, 1.25, 0.005]), Sz=np.zeros(4), Rz=1000.0)
        files = []
        for stem, reg in (("fig3_ball", region), ("fig3_tuned", tuned)):
            design = _design(cfg, surrogate, reg)[3]
            boundary = controller.roa_boundary_2d(design, lifting, resolution=360)
            rb = controller.region_boundary_2d(reg, lifting, resolution=360)
            files += _save_design(outdir, stem, reg, design, boundary,
                                  region_boundary=rb)
        return files
    files, designs, boundaries = [], {}, {}
    for thm in (1, 2):
        designs[thm] = _design({**cfg, "theorem": thm}, surrogate, region)[3]
        boundaries[thm] = controller.roa_boundary_2d(designs[thm], lifting,
                                                     resolution=360)
        files += _save_design(outdir, f"{figure}_thm{thm}", region,
                              designs[thm], boundaries[thm])
    rb = controller.region_boundary_2d(region, lifting, resolution=360)
    controller.export_boundary_dat(rb, outdir / f"{figure}_region.dat")
    files.append(outdir / f"{figure}_region.dat")
    if figure == "fig5":
        files += _fig5_trajectories(outdir, plant, surrogate, designs,
                                    boundaries, cfg)
    return files


def fig5_start_set(boundaries, fraction=0.95,
                   degrees=(45.0, 135.0, 225.0, 315.0)):
    """Documented start set for the closed-loop comparison: four polar
    directions at 95 percent of the smallest certified radius among the
    given boundaries."""
    starts = []
    for deg in degrees:
        th = np.deg2rad(deg)
        r = min(b.radii[np.argmin(np.abs(b.angles - th))]
                for b in boundaries.values())
        starts.append(fraction * r * np.array([np.cos(th), np.sin(th)]))
    return starts


def _fig5_trajectories(outdir, plant, surrogate, designs, boundaries, cfg):
    files = []
    starts = fig5_start_set(boundaries)
    vcfg = cfg.get("verify", {})
    rtol = float(vcfg.get("rtol", 1e-8))
    horizon = float(vcfg.get("horizon", 50.0))
    for thm, design in designs.items():
        for i, x0 in enumerate(starts):
            traj = verify.simulate(plant, design, surrogate.lifting, x0,
                                   horizon=horizon, rtol=rtol, atol=rtol)
            path = outdir / f"fig5_traj_thm{thm}_{i}.dat"
            verify.export_trajectory_dat(traj, path)
            files.append(path)
    grid, trajectories = _lqr_grid(
        plant, surrogate, starts,
        vcfg.get("lqr_weights", [0.01, 0.1, 1.0, 10.0]), horizon, rtol)
    failing = [(e["R"], trajs) for e, trajs in zip(grid, trajectories)
               if e["n_failed"]]
    plotted_weight, plotted = failing[0] if failing else (None, [])
    for i, traj in enumerate(plotted):
        path = outdir / f"fig5_traj_lqr_{i}.dat"
        verify.export_trajectory_dat(traj, path)
        files.append(path)
    with open(outdir / "fig5_lqr_report.json", "w") as fh:
        json.dump({"weight_grid": grid,
                   "starts": [np.asarray(s).tolist() for s in starts],
                   "plotted_weight": plotted_weight}, fh, indent=1, sort_keys=True)
        fh.write("\n")
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
    sub.add_argument("--backend", choices=("ipm", "cvxopt"))
    sub.add_argument("--objective", choices=("feasibility", "maximize_roa"))


def _overrides(args):
    pairs = {
        "out": "output_dir", "d": "sampling.d", "seed": "sampling.seed",
        "noise_bound": "sampling.noise_bound", "c_r": "error_bound.c_r",
        "delta": "error_bound.delta", "rz": "region.Rz", "theorem": "theorem",
        "backend": "solver.backend", "objective": "solver.objective",
    }
    out = {}
    for attr, key in pairs.items():
        val = getattr(args, attr, None)
        if val is not None:
            out[key] = val
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="koopsyn",
        description="Bilinear Koopman surrogates with certified feedback synthesis")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("collect", "fit", "d0", "design", "verify"):
        _add_common(subs.add_parser(name))
    rep = subs.add_parser("reproduce")
    rep.add_argument("figure", help="fig1 | fig2 | fig3 | fig4 | fig5")
    rep.add_argument("--out", default="figures")
    exa = subs.add_parser("example-config")
    exa.add_argument("name")
    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return cmd_reproduce(args.figure, args.out)
        if args.command == "example-config":
            print(json.dumps(example_config(args.name), indent=1, sort_keys=True))
            return EXIT_OK
        cfg = load_config(args.config, args.example, _overrides(args))
        handler = {"collect": cmd_collect, "fit": cmd_fit, "d0": cmd_d0,
                   "design": cmd_design, "verify": cmd_verify}[args.command]
        return handler(cfg)
    except sdp.InfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except sdp.VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except (ValueError, KeyError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
