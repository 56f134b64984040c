"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import time

import numpy as np
import pytest

from koopsyn import cli, controller, edmd, lmi, plants, sdp, uncertainty, verify
from koopsyn.lifting import Lifting, poly

from conftest import (EXACT_A, EXACT_B0, containment_margins,
                      matches_theorem1_reference, multiplier_inverse_reference)


def report(num, ok, details):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {details}")
    assert ok, details


def load_stem(figdir, stem, surrogate_name):
    surrogate = edmd.Surrogate.from_json((figdir / surrogate_name).read_text())
    design = controller.DesignResult.from_json(
        (figdir / f"{stem}_design.json").read_text())
    region = uncertainty.UncertaintyRegion.from_json_dict(
        json.loads((figdir / f"{stem}_region.json").read_text()))
    return surrogate, design, region


ALL_STEMS = (
    ("fig2", "fig2_surrogate.json"),
    ("fig3_ball", "fig3_surrogate.json"),
    ("fig3_tuned", "fig3_surrogate.json"),
    ("fig4_thm1", "fig4_surrogate.json"),
    ("fig4_thm2", "fig4_surrogate.json"),
    ("fig5_thm1", "fig5_surrogate.json"),
    ("fig5_thm2", "fig5_surrogate.json"),
)


def test_criterion_01_edmd_exactness(plant_cooked, lifting_cooked):
    t0 = time.monotonic()
    samples = plants.collect_samples(plant_cooked, 5000, seed=7)
    surrogate, _ = edmd.fit(edmd.build_data_matrices(lifting_cooked, samples),
                            lifting=lifting_cooked, c_r=0.1, delta=0.05)
    elapsed = time.monotonic() - t0
    err = max(np.max(np.abs(surrogate.A - EXACT_A)),
              np.max(np.abs(surrogate.B0 - EXACT_B0)),
              np.max(np.abs(surrogate.B[0])))
    ok = err <= 1e-9 and elapsed < 5.0
    report(1, ok, f"max entry error {err:.2e} (tol 1e-9), {elapsed:.2f}s (< 5s)")


def test_criterion_02_least_squares_oracle():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        N = int(rng.integers(1, 5))
        d = int(rng.integers(N + 1, 11))
        X = rng.normal(size=(N, d))
        while np.linalg.cond(X @ X.T) > 1e8:
            X = rng.normal(size=(N, d))
        Y = rng.normal(size=(int(rng.integers(1, 5)), d))
        Theta, _ = edmd.least_squares_fit(Y, X)
        oracle = np.linalg.solve(X @ X.T, X @ Y.T).T
        rel = (np.linalg.norm(Theta - oracle, "fro")
               / max(np.linalg.norm(oracle, "fro"), 1e-30))
        worst = max(worst, rel)
    ok = worst <= 1e-9
    report(2, ok, f"worst relative Frobenius error {worst:.2e} over 50 instances")


def test_criterion_03_design_feasibility(surrogate_fitted, region_cooked):
    t0 = time.monotonic()
    problem = lmi.build_theorem1(surrogate_fitted, region_cooked)
    assignment, rep = sdp.solve_problem(problem)
    elapsed = time.monotonic() - t0
    feasible = rep.status == "feasible"
    check = sdp.verify(problem, assignment) if feasible else None
    design = controller.DesignResult.from_assignment(assignment) if feasible else None
    k1 = abs(design.K[0, 0]) if feasible else np.inf
    ok = feasible and check.ok and k1 < 0.05 and elapsed < 10.0
    report(3, ok, f"status {rep.status}, verified margins ok={bool(check and check.ok)}, "
                  f"|K1| = {k1:.2e} (< 0.05), {elapsed:.2f}s (< 10s)")


def test_criterion_04_design_reduction():
    lifting = Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])
    B1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, -0.2, 0.3]])
    surrogate = edmd.Surrogate(A=EXACT_A, B0=EXACT_B0, B=(B1,), c_r=0.1,
                               delta=0.05, lifting=lifting)
    region = uncertainty.UncertaintyRegion(Qz=-np.diag([1.0, 2.0, 3.0]),
                                           Sz=np.array([0.1, -0.2, 0.3]),
                                           Rz=50.0)
    exact = matches_theorem1_reference(surrogate, region)
    report(4, exact, "both designs' stability constraints match the paper's "
                     "single-input block formula entrywise (exact; theorem 2 "
                     "with m = 1 and the scheduling gain frozen at zero)")


def test_criterion_05_multiplier_inverse():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        N = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        Q = rng.normal(size=(N, N))
        region = uncertainty.UncertaintyRegion(
            Qz=-(Q @ Q.T + 0.3 * np.eye(N)), Sz=0.3 * rng.normal(size=N),
            Rz=float(rng.uniform(0.5, 20.0)))
        W = rng.normal(size=(m, m))
        Lam = W @ W.T + 0.2 * np.eye(m)
        Pi = uncertainty.multiplier(region, np.linalg.inv(Lam))
        Pi_inv = multiplier_inverse_reference(region, Lam)
        worst = max(worst, float(np.max(np.abs(Pi @ Pi_inv - np.eye(m * (N + 1))))))
    ok = worst <= 1e-9
    report(5, ok, f"worst |Pi * Pi^-1 - I| = {worst:.2e} over 100 instances")


def test_criterion_06_dualization(figures_dir):
    worst = np.inf
    for stem, sname in ALL_STEMS:
        surrogate, design, region = load_stem(figures_dir, stem, sname)
        _, mineig = lmi.primal_certificate(surrogate, region, design)
        worst = min(worst, mineig)
    ok = worst > 0.0
    report(6, ok, f"dualized certificate min eigenvalue {worst:.3e} > 0 over "
                  f"{len(ALL_STEMS)} solved designs")


def test_criterion_07_closed_loop_suite(plant_cooked, lifting_cooked,
                                        design_cooked, plant_pendulum,
                                        lifting_pendulum,
                                        design_pendulum_shaped):
    t0 = time.monotonic()
    cases = ((plant_cooked, lifting_cooked, design_cooked, 100, 41),
             (plant_pendulum, lifting_pendulum, design_pendulum_shaped, 100, 43))
    worst_inc, worst_final, total = -np.inf, 0.0, 0
    for plant, lifting, design, n, seed in cases:
        starts, _ = cli._certified_starts(design, lifting, n, seed)
        assert len(starts) == n
        starts = np.array(starts)
        loop = controller.ClosedLoop.of(design, lifting)
        for traj in verify.simulate_many(plant, loop, starts, horizon=50.0,
                                         rtol=1e-8, atol=1e-8):
            audit = verify.lyapunov_audit(traj)
            worst_inc = max(worst_inc, audit.max_increase)
            worst_final = max(worst_final,
                              float(np.linalg.norm(traj.final_state)))
            total += 1
    elapsed = time.monotonic() - t0
    ok = worst_inc <= 1e-6 and worst_final <= 1e-6 and elapsed < 60.0
    report(7, ok, f"{total} runs: worst V increase {worst_inc:.2e} (<= 1e-6), "
                  f"worst final norm {worst_final:.2e} (<= 1e-6), "
                  f"{elapsed:.1f}s (< 60s)")


def test_criterion_08_containment(figures_dir):
    worst = np.inf
    for stem, sname in ALL_STEMS:
        surrogate, design, region = load_stem(figures_dir, stem, sname)
        margin = containment_margins(design, region, surrogate.lifting,
                                     resolution=120, radial=8)
        worst = min(worst, float(np.min(margin)))
    ok = worst >= -1e-8
    report(8, ok, f"worst lifted membership margin {worst:.3e} (>= -1e-8) over "
                  f"{len(ALL_STEMS)} designs")


def test_criterion_09_d0(d0_cooked):
    grid, mc = d0_cooked
    in_band = 6.9e16 <= grid.d0_float <= 6.9e18
    agree = abs(mc.d0_float - grid.d0_float) <= 0.05 * grid.d0_float
    ok = in_band and agree
    report(9, ok, f"grid d0 = {grid.d0_float:.3e} (band [6.9e16, 6.9e18]), "
                  f"mc/grid = {mc.d0_float / grid.d0_float:.4f} (within 5%)")


def test_criterion_10_figures(figures_dir):
    xs = np.loadtxt(figures_dir / "fig1_parabola.dat")
    parabola_res = float(np.max(np.abs(xs[:, 1] - xs[:, 0] ** 2)))
    circ = np.loadtxt(figures_dir / "fig1_circle.dat")
    circle_res = float(np.max(np.abs(circ[:, 0] ** 2 + circ[:, 1] ** 2 - 650.0)))
    ell = np.loadtxt(figures_dir / "fig1_ellipse.dat")
    ellipse_res = float(np.max(np.abs(0.5 * (ell[:, 0] ** 2 / 25.0
                                             + ell[:, 1] ** 2 / 625.0) - 1.0)))
    fig1_ok = parabola_res == 0.0 and circle_res <= 1e-9 * 650.0 \
        and ellipse_res <= 1e-9

    worst_V_dev = 0.0
    for stem, sname in ALL_STEMS:
        surrogate, design, _ = load_stem(figures_dir, stem, sname)
        pts = np.loadtxt(figures_dir / f"{stem}_roa.dat")
        for x in pts:
            _, V = controller.roa_membership(design, surrogate.lifting, x)
            worst_V_dev = max(worst_V_dev, abs(V - 1.0))
    polylines_ok = worst_V_dev <= 1e-6

    areas = {}
    for stem in ("fig4_thm1", "fig4_thm2", "fig5_thm1", "fig5_thm2"):
        areas[stem] = controller.polygon_area(
            np.loadtxt(figures_dir / f"{stem}_roa.dat"))
    area_ok = (areas["fig5_thm1"] > areas["fig4_thm1"]
               and areas["fig5_thm2"] > areas["fig4_thm2"])
    ok = fig1_ok and polylines_ok and area_ok
    report(10, ok,
           f"fig1 residuals ({parabola_res:.1e}, {circle_res:.1e}, "
           f"{ellipse_res:.1e}); boundary |V-1| <= {worst_V_dev:.2e}; "
           f"areas fig5 vs fig4: {areas['fig5_thm1']:.1f} > {areas['fig4_thm1']:.1f}, "
           f"{areas['fig5_thm2']:.1f} > {areas['fig4_thm2']:.1f}")


def test_cli_design_matches_figure_design(figures_dir, tmp_path):
    """The CLI stages and ``reproduce fig2`` share one design routine, so the
    same config gives byte-identical artifacts."""
    for cmd in ("collect", "fit", "design"):
        assert cli.main([cmd, "--example", "cooked_up", "--out", str(tmp_path)]) == 0
    for name in ("design.json", "roa.dat", "surrogate.json", "region.json"):
        assert (tmp_path / name).read_bytes() == \
            (figures_dir / f"fig2_{name}").read_bytes(), name


def test_criterion_11_lqr_contrast(figures_dir):
    doc = json.loads((figures_dir / "fig5_lqr_report.json").read_text())
    grid = doc["weight_grid"]
    lqr_failures = sum(entry["n_failed"] for entry in grid)
    thm_ok = True
    for thm in (1, 2):
        for i in range(len(doc["starts"])):
            data = np.loadtxt(figures_dir / f"fig5_traj_thm{thm}_{i}.dat",
                              ndmin=2)
            final = np.linalg.norm(data[-1, 1:3])
            thm_ok = thm_ok and final <= 1e-6
    ok = lqr_failures >= 1 and thm_ok
    weights = [entry["R"] for entry in grid]
    fails = {entry["R"]: entry["n_failed"] for entry in grid}
    report(11, ok, f"LQR weight grid R={weights}: failures per weight {fails}; "
                   f"certified designs converge from all starts: {thm_ok}")
