import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_continuous_are

from koopsyn import plants, verify
from koopsyn.controller import DesignResult
from koopsyn.lifting import custom, identity_lifting, make_lifting


@pytest.fixture(scope="module")
def scalar_plant():
    def f(x):
        return -np.asarray(x, dtype=float)

    def g(x):
        return np.zeros(np.shape(x))

    return plants.Plant(name="decay", n=1, m=1, f=f, g=(g,),
                        state_box=[[-1.0, 1.0]], input_box=[[-1.0, 1.0]])


def zero_design(n):
    return DesignResult(theorem=1, P=np.eye(n), L=np.zeros((1, n)), tau=1.0,
                        nu=1.0, lam=1.0)


class TestSimulate:
    def test_equilibrium_stays(self, plant_cooked, design_cooked, lifting_cooked):
        traj = verify.simulate(plant_cooked, design_cooked, lifting_cooked,
                               np.zeros(2), horizon=1.0)
        assert np.max(np.abs(traj.states)) == 0.0

    def test_linear_decay_closed_form(self, scalar_plant):
        L = identity_lifting(1)
        traj = verify.simulate(scalar_plant, zero_design(1), L, np.array([1.0]),
                               horizon=1.0)
        idx = np.argmin(np.abs(traj.t - 1.0))
        assert traj.t[-1] >= 1.0 - 1e-9
        assert abs(traj.states[-1, 0] - np.exp(-traj.t[-1])) < 1e-6
        assert abs(traj.states[idx, 0] - np.exp(-traj.t[idx])) < 1e-6

    def test_converged_status(self, scalar_plant):
        L = identity_lifting(1)
        traj = verify.simulate(scalar_plant, zero_design(1), L, np.array([1.0]),
                               horizon=50.0)
        assert traj.reason == "converged"
        assert np.linalg.norm(traj.final_state) <= 1.1e-8

    def test_certified_start_converges(self, plant_pendulum,
                                       design_pendulum_shaped, lifting_pendulum):
        traj = verify.simulate(plant_pendulum, design_pendulum_shaped,
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
        L = identity_lifting(1)
        traj = verify.simulate(grow, zero_design(1), L, np.array([1.0]),
                               horizon=50.0, escape_radius=100.0)
        assert traj.reason == "left_domain"

    def test_integrator_order(self, scalar_plant):
        # fixed-step reading: halving the step cuts the error by >= 4x
        errs = []
        for h in (0.5, 0.25):
            traj = verify.simulate_feedback(scalar_plant,
                                            lambda x: np.zeros(1),
                                            np.array([1.0]), horizon=4.0,
                                            rtol=10.0, atol=10.0, max_step=h,
                                            converged_tol=0.0)
            errs.append(abs(traj.states[-1, 0] - np.exp(-traj.t[-1])))
        assert errs[1] > 0.0
        assert errs[1] <= errs[0] / 4.0

    def test_tolerance_scaling(self, scalar_plant):
        L = identity_lifting(1)
        errs = []
        for rtol in (1.6e-6, 1e-7):
            traj = verify.simulate(scalar_plant, zero_design(1), L,
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
        design = DesignResult(theorem=2, P=np.eye(2), L=np.zeros((2, 2)),
                              tau=1.0, nu=1.0, Lam=np.eye(2), Lw=Lw)
        traj = verify.simulate(plant, design, identity_lifting(2),
                               np.array([0.5, 0.5]), horizon=50.0)
        assert traj.reason == "singular_feedback"

    def test_non_finite_lift_is_numerical_failure(self, scalar_plant):
        # an observable that is NaN on (0, 0.5): x(t) = exp(-t) reaches it
        # at t = ln 2, where the run ends with a reason rather than an error
        hole = custom(lambda x: np.nan if 0.0 < x[0] < 0.5 else 0.0)
        L = make_lifting(1, [hole])
        traj = verify.simulate(scalar_plant, zero_design(2), L, np.array([1.0]))
        assert traj.reason == "numerical_failure"
        assert abs(traj.t[-1] - np.log(2.0)) < 1e-6
        assert np.all(np.isfinite(traj.states)) and np.all(traj.states > 0.5)
        start = verify.simulate(scalar_plant, zero_design(2), L, np.array([0.25]))
        assert start.reason == "numerical_failure"
        assert np.array_equal(start.t, [0.0])


def test_cli_import_leaves_scipy_integrate_out():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = "import sys, koopsyn.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestLyapunovAudit:
    def test_equilibrium_zero_increase(self, plant_cooked, design_cooked,
                                       lifting_cooked):
        traj = verify.simulate(plant_cooked, design_cooked, lifting_cooked,
                               np.zeros(2), horizon=1.0)
        rep = verify.lyapunov_audit(traj)
        assert rep.ok and rep.max_increase == 0.0

    def test_certified_design_passes(self, plant_cooked, design_cooked,
                                     lifting_cooked):
        traj = verify.simulate(plant_cooked, design_cooked, lifting_cooked,
                               np.array([5.0, 5.0]), rtol=1e-8, atol=1e-8)
        assert verify.lyapunov_audit(traj).ok

    def test_destabilizing_gain_fails(self, plant_cooked, design_cooked,
                                      lifting_cooked):
        import dataclasses

        flipped = dataclasses.replace(design_cooked, L=-design_cooked.L)
        traj = verify.simulate(plant_cooked, flipped, lifting_cooked,
                               np.array([0.1, 0.1]), horizon=5.0,
                               escape_radius=1e3)
        assert not verify.lyapunov_audit(traj).ok

    def test_requires_in_roa_start(self, plant_cooked, design_cooked,
                                   lifting_cooked):
        traj = verify.simulate(plant_cooked, design_cooked, lifting_cooked,
                               np.array([100.0, 100.0]), horizon=0.1,
                               escape_radius=1e9)
        with pytest.raises(ValueError):
            verify.lyapunov_audit(traj)


class TestCARE:
    def test_scalar_closed_form(self):
        P, info = verify.solve_care(np.array([[-1.0]]), np.array([[1.0]]),
                                    np.eye(1), np.eye(1))
        assert P[0, 0] == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-12)

    def test_scalar_integrator(self):
        P, _ = verify.solve_care(np.array([[0.0]]), np.array([[1.0]]),
                                 np.eye(1), np.eye(1))
        assert P[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_residual_bound(self, surrogate_pendulum):
        K, P, info = verify.lqr_baseline(surrogate_pendulum)
        assert info["relative_residual"] <= 1e-8

    def test_matches_scipy(self, surrogate_pendulum):
        A, B = surrogate_pendulum.A, surrogate_pendulum.B0
        Q = np.eye(3)
        R = np.eye(1)
        P, _ = verify.solve_care(A, B, Q, R)
        P_ref = solve_continuous_are(A, B, Q, R)
        assert np.max(np.abs(P - P_ref)) <= 1e-8 * max(1.0, np.max(np.abs(P_ref)))

    def test_unstabilizable_rejected(self):
        A = np.diag([1.0, -1.0])
        B = np.array([[0.0], [1.0]])
        assert not verify.hautus_stabilizable(A, B)
        with pytest.raises(ValueError):
            verify.solve_care(A, B, np.eye(2), np.eye(1))

    def test_closed_loop_stable(self, surrogate_pendulum):
        K, _, _ = verify.lqr_baseline(surrogate_pendulum)
        Acl = surrogate_pendulum.A - surrogate_pendulum.B0 @ K
        assert np.max(np.linalg.eigvals(Acl).real) < 0.0


class TestRoAInvariance:
    def test_monte_carlo_stays_inside(self, plant_cooked, design_cooked,
                                      lifting_cooked):
        from conftest import sample_roa_starts

        starts = sample_roa_starts(design_cooked, lifting_cooked, 25, seed=31)
        for x0 in starts:
            traj = verify.simulate(plant_cooked, design_cooked, lifting_cooked,
                                   x0, rtol=1e-8, atol=1e-8)
            assert np.nanmax(traj.V) <= 1.0 + 1e-4
