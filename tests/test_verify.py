import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from koopsyn import cli, edmd, plants, verify
from koopsyn.controller import (ClosedLoop, DesignResult, FeedbackSingularError,
                                feedback)
from koopsyn.lifting import Lifting

from conftest import outside_catalog


@pytest.fixture(scope="module")
def scalar_plant():
    def f(x):
        return -np.asarray(x, dtype=float)

    def g(x):
        return np.zeros(np.shape(x))

    return plants.Plant(name="decay", n=1, m=1, f=f, g=(g,),
                        state_box=[[-1.0, 1.0]], input_box=[[-1.0, 1.0]])


def zero_design(n):
    return DesignResult(P=np.eye(n), L=np.zeros((1, n)), tau=1.0, nu=1.0,
                        Lam=[[1.0]])


def simulate_one(plant, design, lifting, x0, **options):
    """The run from one start: a one-row batch of ``verify.simulate_many``."""
    return verify.simulate_many(plant, ClosedLoop.of(design, lifting),
                                np.asarray(x0, dtype=float)[None], **options)[0]


class TestSimulate:
    def test_equilibrium_stays(self, plant_cooked, design_cooked, lifting_cooked):
        traj = simulate_one(plant_cooked, design_cooked, lifting_cooked,
                            np.zeros(2), horizon=1.0)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_linear_decay_closed_form(self, scalar_plant):
        L = Lifting(1)
        traj = simulate_one(scalar_plant, zero_design(1), L, np.array([1.0]),
                            horizon=1.0)
        idx = np.argmin(np.abs(traj.t - 1.0))
        assert traj.t[-1] >= 1.0 - 1e-9
        assert abs(traj.states[-1, 0] - np.exp(-traj.t[-1])) < 1e-6
        assert abs(traj.states[idx, 0] - np.exp(-traj.t[idx])) < 1e-6

    def test_converged_status(self, scalar_plant):
        L = Lifting(1)
        traj = simulate_one(scalar_plant, zero_design(1), L, np.array([1.0]),
                            horizon=50.0)
        assert traj.reason == "converged"
        assert np.linalg.norm(traj.final_state) <= 1.1e-8

    def test_certified_start_converges(self, plant_pendulum,
                                       design_pendulum_shaped, lifting_pendulum):
        traj = simulate_one(plant_pendulum, design_pendulum_shaped,
                            lifting_pendulum, np.array([1.0, -1.0]),
                            rtol=1e-8, atol=1e-8)
        assert traj.reason == "converged"
        audit = verify.lyapunov_audit(traj)
        assert audit.ok

    def test_escape_status(self, scalar_plant):
        grow = plants.Plant(name="grow", n=1, m=1,
                            f=lambda x: np.asarray(x, dtype=float),
                            g=scalar_plant.g, state_box=[[-1.0, 1.0]],
                            input_box=[[-1.0, 1.0]])
        L = Lifting(1)
        traj = simulate_one(grow, zero_design(1), L, np.array([1.0]),
                            horizon=50.0, escape_radius=100.0)
        assert traj.reason == "left_domain"

    def test_integrator_order(self, scalar_plant):
        # fixed-step reading: halving the step cuts the error by >= 4x
        L = Lifting(1)
        errs = []
        for h in (0.5, 0.25):
            traj = simulate_one(scalar_plant, zero_design(1), L,
                                np.array([1.0]), horizon=4.0, rtol=10.0,
                                atol=10.0, max_step=h, converged_tol=0.0)
            errs.append(abs(traj.states[-1, 0] - np.exp(-traj.t[-1])))
        assert errs[1] > 0.0
        assert errs[1] <= errs[0] / 4.0

    def test_tolerance_scaling(self, scalar_plant):
        L = Lifting(1)
        errs = []
        for rtol in (1.6e-6, 1e-7):
            traj = simulate_one(scalar_plant, zero_design(1), L,
                                np.array([1.0]), horizon=1.0, rtol=rtol,
                                atol=rtol)
            errs.append(abs(traj.states[-1, 0] - np.exp(-traj.t[-1])))
        assert errs[1] <= errs[0] / 4.0

    def test_scheduling_turns_singular(self):
        # the m = 2 scheduling matrix [[1, -1e4 x1], [0, 1]] has condition
        # about (1e4 x1)^2, past the 1e12 limit once the unstable x1 = 0.5 e^t
        # passes 100 (t = 5.3), well inside the escape radius
        zero = lambda x: np.zeros(np.shape(x))  # noqa: E731
        plant = plants.Plant(
            name="unstable", n=2, m=2,
            f=lambda x: np.asarray(x, dtype=float) * np.array([1.0, -1.0]),
            g=(zero, zero), state_box=[[-1.0, 1.0]] * 2,
            input_box=[[-1.0, 1.0]] * 2)
        Lw = np.zeros((2, 4))
        Lw[0, 2] = 1.0e4
        design = DesignResult(P=np.eye(2), L=np.zeros((2, 2)),
                              tau=1.0, nu=1.0, Lam=np.eye(2), Lw=Lw)
        traj = simulate_one(plant, design, Lifting(2),
                            np.array([0.5, 0.5]), horizon=50.0)
        assert traj.reason == "singular_feedback"

    def test_non_finite_lift_is_numerical_failure(self, scalar_plant):
        # an observable that is NaN on (0, 0.5): x(t) = exp(-t) reaches it
        # at t = ln 2, where the run ends with a reason rather than an error
        hole = outside_catalog(
            lambda X: np.where((0.0 < X[..., 0]) & (X[..., 0] < 0.5), np.nan, 0.0))
        L = Lifting(1, [hole])
        traj = simulate_one(scalar_plant, zero_design(2), L, np.array([1.0]))
        assert traj.reason == "numerical_failure"
        assert abs(traj.t[-1] - np.log(2.0)) < 1e-6
        assert np.all(np.isfinite(traj.states)) and np.all(traj.states > 0.5)
        start = simulate_one(scalar_plant, zero_design(2), L, np.array([0.25]))
        assert start.reason == "numerical_failure"
        assert np.array_equal(start.t, [0.0])

    def test_m1_near_singular_scheduling(self, scalar_plant):
        # the 1 x 1 scheduling matrix W = 1 + x has condition 1 wherever it
        # is nonzero, so its size is what must refuse it: 1e-13 at the
        # start -1 + 1e-13, from where the plant decays to the origin
        design = DesignResult(P=np.eye(1), L=np.zeros((1, 1)),
                              tau=1.0, nu=1.0, Lam=np.eye(1),
                              Lw=np.array([[-1.0]]))
        lifting = Lifting(1)
        traj = simulate_one(scalar_plant, design, lifting,
                            np.array([-1.0 + 1e-13]))
        assert traj.reason == "singular_feedback"
        assert np.array_equal(traj.t, [0.0])
        ok = simulate_one(scalar_plant, design, lifting,
                          np.array([-1.0 + 1e-11]))
        assert ok.reason == "converged"
        feedback(design, lifting, np.array([-1.0 + 1e-11]))
        with pytest.raises(FeedbackSingularError):
            feedback(design, lifting, np.array([-1.0 + 1e-13]))


def _subprocess_modules(code):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


SCIPY_LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_cli_import_leaves_scipy_integrate_out():
    # no scipy module at all: no stage imports scipy (the LQR baseline solves
    # its CARE with numpy, the Sobol d0 draws with the bundled generator)
    code = f"import sys, koopsyn.cli; print({SCIPY_LOADED})"
    assert _subprocess_modules(code) == "[]"
    # nor any other third-party package: the import brings in numpy alone
    # (what the interpreter loaded at start-up is left out)
    code = ("import sys\nbefore = set(sys.modules)\nimport koopsyn.cli\n"
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    assert _subprocess_modules(code) == "koopsyn numpy"


@pytest.mark.parametrize("example", ["cooked_up", "pendulum"])
def test_no_stage_loads_scipy(tmp_path, example):
    """Each stage in one fresh interpreter: collect, fit, grid d0, design and
    verify (with the LQR baseline on pendulum) load no scipy module."""
    code = ("import sys\nfrom koopsyn import cli\n"
            "for cmd in ('collect', 'fit', 'd0', 'design', 'verify'):\n"
            f"    argv = [cmd, '--example', {example!r}, '--out', {str(tmp_path)!r},"
            " '--d', '400']\n"
            "    assert cli.main(argv) == 0, cmd\n"
            f"    print('loaded', cmd, *{SCIPY_LOADED})\n")
    loaded = {cmd: mods for _, cmd, *mods in
              (line.split() for line in _subprocess_modules(code).splitlines()
               if line.startswith("loaded "))}
    assert loaded == {cmd: [] for cmd in ("collect", "fit", "d0", "design", "verify")}
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert ("lqr_grid" in report) == cli.example_config(example)["verify"]["lqr"]


def test_stages_run_with_scipy_blocked(tmp_path):
    """With every scipy import refused, the pendulum stages (verify with its
    LQR baseline) and ``reproduce fig5`` all exit 0."""
    code = ("import sys\n"
            "class NoScipy:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name.split('.')[0] == 'scipy':\n"
            "            raise ImportError(f'{name} is blocked')\n"
            "sys.meta_path.insert(0, NoScipy())\n"
            "from koopsyn import cli\n"
            "for cmd in ('collect', 'fit', 'd0', 'design', 'verify'):\n"
            f"    argv = [cmd, '--example', 'pendulum', '--out', {str(tmp_path)!r},"
            " '--d', '400']\n"
            "    assert cli.main(argv) == 0, cmd\n"
            f"assert cli.main(['reproduce', 'fig5', '--out', {str(tmp_path / 'fig5')!r}]) == 0\n"
            "print('ok')\n")
    assert _subprocess_modules(code).splitlines()[-1] == "ok"
    assert (tmp_path / "fig5" / "fig5_lqr_report.json").exists()


def test_sobol_d0_loads_no_scipy(tmp_path):
    """d0 with the Monte-Carlo Sobol spec, in a fresh interpreter, draws its
    points with the bundled generator and loads no scipy module."""
    cfg = cli.example_config("cooked_up")
    cfg["output_dir"] = str(tmp_path)
    cfg["d0"] = {"method": "mc", "samples": 1 << 12, "replicates": 2,
                 "sobol": True}
    path = tmp_path / "sobol.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys\nfrom koopsyn import cli\n"
            f"assert cli.main(['d0', '--config', {str(path)!r}]) == 0\n"
            f"print('loaded', *{SCIPY_LOADED})\n")
    assert _subprocess_modules(code).splitlines()[-1] == "loaded"
    assert (tmp_path / "d0_report.json").exists()


def test_simulate_leaves_scipy_integrate_out():
    code = ("import sys, numpy as np\n"
            "from koopsyn import controller, plants, verify\n"
            "from koopsyn.lifting import Lifting, sine\n"
            "design = controller.DesignResult(P=np.eye(3),\n"
            "    L=np.array([[-20.0, -5.0, 0.0]]), tau=1.0, nu=1.0, Lam=[[1.0]])\n"
            "loop = controller.ClosedLoop.of(design, Lifting(2, [sine(0)]))\n"
            "traj = verify.simulate_many(plants.make_example('pendulum'), loop,\n"
            "    np.array([[0.3, -0.2]]))[0]\n"
            "print(traj.reason, 'scipy.integrate' in sys.modules)")
    assert _subprocess_modules(code) == "converged False"


# the designs of the four built-in examples among the figure outputs
EXAMPLE_STEMS = (("cooked_up", "fig2", "fig2"),
                 ("cooked_up_xy", "fig3_ball", "fig3"),
                 ("pendulum", "fig4_thm1", "fig4"),
                 ("pendulum_shaped", "fig5_thm1", "fig5"))


def example_case(figures_dir, example):
    _, stem, fig = next(s for s in EXAMPLE_STEMS if s[0] == example)
    surrogate = edmd.Surrogate.from_json(
        (figures_dir / f"{fig}_surrogate.json").read_text())
    design = DesignResult.from_json(
        (figures_dir / f"{stem}_design.json").read_text())
    cfg = cli.example_config(example)
    starts, _ = cli._certified_starts(design, surrogate.lifting,
                                      cfg["verify"]["n_starts"],
                                      cfg["verify"]["seed"])
    return (plants.make_example(cfg["plant"]["id"]),
            ClosedLoop.of(design, surrogate.lifting), np.array(starts))


def scipy_reference(plant, loop, x0, horizon, tol):
    """The single-start integration with scipy's RK45 and terminal events."""
    from scipy.integrate import solve_ivp

    def converged(_, x):
        return np.linalg.norm(x) - 1e-8

    def escaped(_, x):
        return np.linalg.norm(x) - 1e6

    converged.terminal, converged.direction = True, -1.0
    escaped.terminal, escaped.direction = True, 1.0
    def u(x):
        return loop.feedback_of_lifts(loop.lift_many(x[None]))[0][0]

    sol = solve_ivp(lambda _, x: plant.vector_field(x, u(x)),
                    (0.0, horizon), x0, method="RK45", rtol=tol, atol=tol,
                    events=(converged, escaped))
    if sol.status == 1:
        reason = "converged" if sol.t_events[0].size else "left_domain"
    else:
        reason = {0: "horizon", -1: "numerical_failure"}[sol.status]
    return reason, sol.y.T


class TestSimulateMany:
    @pytest.mark.parametrize("example", [s[0] for s in EXAMPLE_STEMS])
    def test_matches_scipy_rk45(self, figures_dir, example):
        # the first 5 of the 20 certified starts of `verify`, to bound the
        # time the scalar reference takes
        plant, loop, starts = example_case(figures_dir, example)
        tol = cli.example_config(example)["verify"]["rtol"]
        for x0, traj in zip(starts[:5], verify.simulate_many(
                plant, loop, starts[:5], horizon=50.0, rtol=tol, atol=tol)):
            reason, states = scipy_reference(plant, loop, x0, 50.0, tol)
            assert traj.reason == reason
            assert traj.states.shape == states.shape
            assert np.all(np.abs(traj.states - states)
                          <= 10 * (tol + tol * np.abs(states)))

    @pytest.mark.parametrize("example", ["cooked_up_xy", "pendulum_shaped"])
    def test_row_independent_of_batch(self, figures_dir, example):
        plant, loop, starts = example_case(figures_dir, example)
        assert len(starts) == 20
        batch = verify.simulate_many(plant, loop, starts, rtol=1e-8, atol=1e-8)
        for i in (0, 11, 19):
            alone = verify.simulate_many(plant, loop, starts[i:i + 1],
                                         rtol=1e-8, atol=1e-8)[0]
            assert alone.reason == batch[i].reason
            for field in ("t", "states", "inputs", "V"):
                np.testing.assert_array_equal(getattr(alone, field),
                                              getattr(batch[i], field))

    @pytest.mark.parametrize("terms", range(1, 8))
    def test_stage_sum_equals_fixed_order_sum(self, terms):
        # the sum over the stage axis is terms[0] + terms[1] + ... bit for
        # bit, the sign of an all -0.0 sum included
        rng = np.random.default_rng(terms)
        for d in (1, 20, 52, 9000):
            for n in (1, 2, 3):
                T = rng.normal(size=(terms, d, n)) * 10.0 ** rng.integers(
                    -8, 9, size=(terms, d, n))
                T[:, 0, 0] = -0.0
                expected = T[0]
                for k in T[1:]:
                    expected = expected + k
                assert verify._stage_sum(T).tobytes() == expected.tobytes(), (d, n)

    def test_brentq_matches_scipy(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(400):
            c = rng.normal(size=4)
            t0, t1 = np.sort(rng.uniform(0.0, 2.0, size=2))
            fn = lambda t: float(np.hypot(c[0] + c[1] * t, c[2] * t * t)  # noqa: E731
                                 + c[3] * t - 0.5)
            if np.sign(fn(t0)) == np.sign(fn(t1)):
                continue
            checked += 1
            eps4 = 4 * np.finfo(float).eps
            assert verify._brentq(fn, t0, t1) == brentq(fn, t0, t1, xtol=eps4,
                                                        rtol=eps4)
        assert checked > 50

    def test_each_row_keeps_its_reason(self):
        # xdot = x^3 - x: starts inside (-1, 1) converge, outside escape.
        # u = K z = hole(x) is NaN on (3, 4), which the escaping start 1.5
        # crosses; W = 1 - plateau(x) is 0 on (-0.8, -0.7), which the
        # converging start -0.9 crosses
        hole = outside_catalog(
            lambda X: np.where((3.0 < X[..., 0]) & (X[..., 0] < 4.0), np.nan, 0.0))
        plateau = outside_catalog(
            lambda X: np.where((-0.8 < X[..., 0]) & (X[..., 0] < -0.7), 1.0, 0.0))
        lifting = Lifting(1, [hole, plateau])
        design = DesignResult(P=np.eye(3),
                              L=np.array([[0.0, 1.0, 0.0]]), tau=1.0, nu=1.0,
                              Lam=np.eye(1), Lw=np.array([[0.0, 0.0, 1.0]]))
        loop = ClosedLoop.of(design, lifting)
        plant = plants.Plant(name="cubic", n=1, m=1,
                             f=lambda x: np.asarray(x) ** 3 - np.asarray(x),
                             g=(lambda x: np.zeros(np.shape(x)),),
                             state_box=[[-1.0, 1.0]], input_box=[[-1.0, 1.0]])
        starts = np.array([[0.5], [-1.5], [-0.9], [1.5]])
        trajs = verify.simulate_many(plant, loop, starts, escape_radius=100.0)
        assert [t.reason for t in trajs] == ["converged", "left_domain",
                                             "singular_feedback",
                                             "numerical_failure"]
        assert np.array_equal(trajs[2].t, [0.0])
        assert 1.5 <= trajs[3].states[-1, 0] <= 3.0
        for x0, traj in zip(starts, trajs):
            alone = verify.simulate_many(plant, loop, x0[None, :],
                                         escape_radius=100.0)[0]
            np.testing.assert_array_equal(alone.states, traj.states)


    def test_gain_stack_must_match_starts(self, scalar_plant):
        loop = ClosedLoop(Lifting(1), np.zeros((3, 1, 1)))
        for d in (1, 2, 4):
            with pytest.raises(ValueError, match="one gain per start"):
                verify.simulate_many(scalar_plant, loop, np.ones((d, 1)))


def test_export_trajectory_dat_equals_savetxt(tmp_path):
    t = np.array([0.0, 5e-324, 0.1, 50.0])
    states = np.array([[-0.0, 1e-05], [1.7976931348623157e308, 2.0],
                       [np.inf, -np.inf], [1e+16, -3.0]])
    inputs = np.array([[np.nan], [0.5], [-1e-300], [np.nan]])
    traj = verify.Trajectory(t=t, states=states, inputs=inputs,
                             V=np.full(4, np.nan), reason="horizon")
    verify.export_trajectory_dat(traj, tmp_path / "traj.dat")
    np.savetxt(tmp_path / "ref.dat", np.column_stack([t, states, inputs, traj.V]),
               fmt="%.17g")
    assert (tmp_path / "traj.dat").read_bytes() == \
        (tmp_path / "ref.dat").read_bytes()


class TestLyapunovAudit:
    def test_equilibrium_zero_increase(self, plant_cooked, design_cooked,
                                       lifting_cooked):
        traj = simulate_one(plant_cooked, design_cooked, lifting_cooked,
                            np.zeros(2), horizon=1.0)
        rep = verify.lyapunov_audit(traj)
        assert rep.ok and rep.max_increase == 0.0

    def test_certified_design_passes(self, plant_cooked, design_cooked,
                                     lifting_cooked):
        traj = simulate_one(plant_cooked, design_cooked, lifting_cooked,
                            np.array([5.0, 5.0]), rtol=1e-8, atol=1e-8)
        assert verify.lyapunov_audit(traj).ok

    def test_destabilizing_gain_fails(self, plant_cooked, design_cooked,
                                      lifting_cooked):
        import dataclasses

        flipped = dataclasses.replace(design_cooked, L=-design_cooked.L)
        traj = simulate_one(plant_cooked, flipped, lifting_cooked,
                            np.array([0.1, 0.1]), horizon=5.0,
                            escape_radius=1e3)
        assert not verify.lyapunov_audit(traj).ok

    def test_requires_in_roa_start(self, plant_cooked, design_cooked,
                                   lifting_cooked):
        traj = simulate_one(plant_cooked, design_cooked, lifting_cooked,
                            np.array([100.0, 100.0]), horizon=0.1,
                            escape_radius=1e9)
        with pytest.raises(ValueError):
            verify.lyapunov_audit(traj)


def linear_surrogate(A, B0):
    """A surrogate with linear part (A, B0) and zero bilinear channels."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B0 = np.reshape(np.asarray(B0, dtype=float), (len(A), -1))
    return edmd.Surrogate(A=A, B0=B0,
                          B=tuple(np.zeros_like(A) for _ in range(B0.shape[1])))


def assert_matches_scipy_care(surrogate, R):
    """K of ``verify.lqr_baseline`` within 1e-10 relative of scipy's
    ``solve_continuous_are`` gain, and A - B0 K Hurwitz."""
    from scipy.linalg import solve_continuous_are

    A, B0 = surrogate.A, surrogate.B0
    K, _, _ = verify.lqr_baseline(surrogate, R)
    P_ref = solve_continuous_are(A, B0, np.eye(len(A)), R, balanced=False)
    K_ref = np.linalg.solve(R, B0.T @ P_ref)
    assert np.max(np.abs(K - K_ref)) <= 1e-10 * np.max(np.abs(K_ref))
    assert np.max(np.linalg.eigvals(A - B0 @ K).real) < 0.0


class TestCARE:
    def test_scalar_closed_form(self):
        # A = -1, B = Q = R = 1: P^2 + 2P - 1 = 0, P = sqrt(2) - 1
        K, P, info = verify.lqr_baseline(linear_surrogate(-1.0, 1.0), np.eye(1))
        assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)
        assert K[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)

    def test_scalar_integrator(self):
        K, P, _ = verify.lqr_baseline(linear_surrogate(0.0, 1.0), np.eye(1))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert K[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound(self, surrogate_pendulum):
        m = surrogate_pendulum.m
        for w in cli.example_config("pendulum")["verify"]["lqr_weights"]:
            _, _, info = verify.lqr_baseline(surrogate_pendulum, w * np.eye(m))
            assert info["relative_residual"] <= 1e-13, w

    def test_unstabilizable_rejected(self):
        # the unstable mode x_1 is not reached by the input
        surrogate = linear_surrogate(np.diag([1.0, -1.0]), [0.0, 1.0])
        with pytest.raises(ValueError, match="no stabilizing CARE solution"):
            verify.lqr_baseline(surrogate, np.eye(1))

    def test_closed_loop_stable(self, surrogate_pendulum):
        K, _, _ = verify.lqr_baseline(surrogate_pendulum, np.eye(1))
        Acl = surrogate_pendulum.A - surrogate_pendulum.B0 @ K
        assert np.max(np.linalg.eigvals(Acl).real) < 0.0

    @pytest.mark.parametrize("fig", ["fig2", "fig3", "fig4", "fig5"])
    def test_matches_scipy_on_examples(self, figures_dir, fig):
        surrogate = edmd.Surrogate.from_json(
            (figures_dir / f"{fig}_surrogate.json").read_text())
        for w in cli.example_config("pendulum")["verify"]["lqr_weights"]:
            assert_matches_scipy_care(surrogate, w * np.eye(surrogate.m))

    @pytest.mark.parametrize("N,m", [(3, 1), (10, 2), (20, 3)])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_scipy_on_random_pairs(self, N, m, seed):
        # A ~ N(0, 1/N) puts eigenvalues on both sides of the axis; rare draws
        # with a nearly unreachable unstable mode (|P| > 3e4) make scipy's
        # residual the larger one, and the gains then part beyond 1e-10
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((N, N)) / np.sqrt(N)
        B0 = rng.standard_normal((N, m))
        assert_matches_scipy_care(linear_surrogate(A, B0), np.eye(m))

    def test_imaginary_axis_rejected(self):
        # H has the double eigenvalues +-i: no stabilizing solution exists
        surrogate = linear_surrogate([[0.0, 1.0], [-1.0, 0.0]], np.zeros(2))
        with pytest.raises(ValueError, match="no stabilizing CARE solution"):
            verify.lqr_baseline(surrogate, np.eye(1))


class TestRoAInvariance:
    def test_monte_carlo_stays_inside(self, plant_cooked, design_cooked,
                                      lifting_cooked):
        starts, _ = cli._certified_starts(design_cooked, lifting_cooked, 25,
                                          seed=31)
        assert len(starts) == 25
        loop = ClosedLoop.of(design_cooked, lifting_cooked)
        for traj in verify.simulate_many(plant_cooked, loop, np.array(starts),
                                         rtol=1e-8, atol=1e-8):
            assert np.nanmax(traj.V) <= 1.0 + 1e-4
