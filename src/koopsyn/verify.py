"""Closed-loop validation: ODE integration, Lyapunov auditing, LQR baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur, solve_continuous_lyapunov

from . import controller
from .matops import sym


@dataclass(frozen=True)
class Trajectory:
    t: np.ndarray
    states: np.ndarray           # (len(t), n)
    inputs: np.ndarray           # (len(t), m)
    V: np.ndarray                # NaN when no certificate is attached
    reason: str                  # converged | left_domain | singular_feedback |
    #                              horizon | numerical_failure

    @property
    def final_state(self):
        return self.states[-1]


def simulate(plant, design, lifting, x0, horizon=50.0, rtol=1e-9, atol=1e-9,
             converged_tol=1e-8, escape_radius=1e6):
    """Integrate the true plant under the synthesized feedback.

    Embedded adaptive Runge-Kutta 4(5); terminates early once the state norm
    falls below ``converged_tol`` or grows beyond ``escape_radius``.
    """
    loop = controller.ClosedLoop.of(design, lifting)
    return simulate_feedback(plant, loop.feedback, x0, horizon=horizon,
                             rtol=rtol, atol=atol, converged_tol=converged_tol,
                             escape_radius=escape_radius, V_fn=loop.value)


class _FeedbackFailure(Exception):
    pass


def simulate_feedback(plant, u_fn, x0, horizon=50.0, rtol=1e-9, atol=1e-9,
                      converged_tol=1e-8, escape_radius=1e6, V_fn=None,
                      max_step=np.inf):
    """Integrate ``plant`` under ``u_fn`` from ``x0``; see :func:`simulate`.

    A feedback that turns singular ends the run with reason
    ``singular_feedback``; a right-hand side that turns non-finite ends it
    with ``numerical_failure``, the integrator shrinking its step until it
    gives up.
    """
    from scipy.integrate import solve_ivp

    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError("initial state must be finite")

    def rhs(_, x):
        try:
            u = u_fn(x)
        except controller.FeedbackSingularError as exc:
            raise _FeedbackFailure(str(exc)) from exc
        return plant.vector_field(x, u)

    def ev_converged(_, x):
        return float(np.linalg.norm(x)) - converged_tol

    ev_converged.terminal = True
    ev_converged.direction = -1.0

    def ev_escape(_, x):
        return float(np.linalg.norm(x)) - escape_radius

    ev_escape.terminal = True
    ev_escape.direction = 1.0

    def stopped_at_start(reason):
        return Trajectory(t=np.array([0.0]), states=x0[None, :],
                          inputs=np.full((1, plant.m), np.nan),
                          V=np.array([V_fn(x0) if V_fn else np.nan]),
                          reason=reason)

    reason = "horizon"
    try:
        # from a non-finite start derivative solve_ivp picks a NaN first step
        # and never terminates
        if not np.all(np.isfinite(rhs(0.0, x0))):
            return stopped_at_start("numerical_failure")
        sol = solve_ivp(rhs, (0.0, float(horizon)), x0, method="RK45",
                        rtol=rtol, atol=atol, events=(ev_converged, ev_escape),
                        max_step=max_step, dense_output=False)
    except _FeedbackFailure:
        return stopped_at_start("singular_feedback")
    if not sol.success:
        reason = "numerical_failure"
    elif sol.status == 1:
        reason = "converged" if sol.t_events[0].size else "left_domain"
    ts = sol.t
    xs = sol.y.T
    us = np.empty((ts.size, plant.m))
    Vs = np.full(ts.size, np.nan)
    for i, x in enumerate(xs):
        try:
            us[i] = np.atleast_1d(u_fn(x))
        except controller.FeedbackSingularError:
            us[i] = np.nan
        if V_fn is not None:
            Vs[i] = V_fn(x)
    return Trajectory(t=ts, states=xs, inputs=us, V=Vs, reason=reason)


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    max_increase: float
    worst_step: int
    V_start: float
    V_end: float


def lyapunov_audit(traj, tol=1e-6):
    """Check that the recorded certificate values never increase beyond
    ``tol * (1 + V)`` between integrator steps."""
    V = traj.V
    if np.any(np.isnan(V)):
        raise ValueError("trajectory carries no certificate samples")
    if V[0] > 1.0:
        raise ValueError("trajectory must start inside the certified region")
    dV = np.diff(V)
    allowed = tol * (1.0 + V[:-1])
    excess = dV - allowed
    worst = int(np.argmax(excess)) if excess.size else 0
    max_inc = float(np.max(dV)) if dV.size else 0.0
    return AuditReport(ok=bool(np.all(dV <= allowed)), max_increase=max_inc,
                       worst_step=worst, V_start=float(V[0]), V_end=float(V[-1]))


def hautus_stabilizable(A, B, tol=1e-9):
    """PBH test: every eigenvalue with nonnegative real part must be
    controllable."""
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real >= -tol:
            M = np.hstack([A - lam * np.eye(n), B])
            if np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, np.abs(lam))) < n:
                return False
    return True


def solve_care(A, B, Q, R, refine_steps=3, residual_tol=1e-8):
    """Continuous algebraic Riccati equation via the Hamiltonian Schur method
    with Newton-Kleinman refinement.

    Builds the Hamiltonian, extracts its stable invariant subspace through a
    real ordered Schur decomposition, forms P from the subspace basis, and
    polishes with Kleinman iterations (each solves one Lyapunov equation)
    until the residual ||A'P + PA - PBinv(R)B'P + Q|| is small.
    """
    A = np.asarray(A, dtype=float)
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.asarray(Q, dtype=float)
    R = np.atleast_2d(np.asarray(R, dtype=float))
    n = A.shape[0]
    if not hautus_stabilizable(A, B):
        raise ValueError("(A, B) is not stabilizable")
    Rinv = np.linalg.inv(R)
    H = np.block([[A, -B @ Rinv @ B.T], [-Q, -A.T]])
    _, U, k = schur(H, output="real", sort="lhp")
    if k != n:
        raise ValueError("Hamiltonian has eigenvalues on the imaginary axis")
    U11 = U[:n, :n]
    U21 = U[n:, :n]
    P = sym(U21 @ np.linalg.inv(U11))

    def residual(Pm):
        return A.T @ Pm + Pm @ A - Pm @ B @ Rinv @ B.T @ Pm + Q

    qnorm = max(np.linalg.norm(Q, "fro"), 1e-30)
    for _ in range(refine_steps):
        if np.linalg.norm(residual(P), "fro") <= residual_tol * qnorm:
            break
        K = Rinv @ B.T @ P
        Acl = A - B @ K
        P = sym(solve_continuous_lyapunov(Acl.T, -(Q + K.T @ R @ K)))
    res = float(np.linalg.norm(residual(P), "fro"))
    return P, {"residual": res, "relative_residual": res / qnorm}


def lqr_baseline(surrogate, Q=None, R=None):
    """Regulator gain for the linear part (A, B0) of the surrogate.

    Returns (K_lqr, P, info); the feedback convention is u = -K_lqr z with z
    the reduced lift.
    """
    A, B0 = surrogate.A, surrogate.B0
    N, m = surrogate.N, surrogate.m
    Q = np.eye(N) if Q is None else np.asarray(Q, dtype=float)
    R = np.eye(m) if R is None else np.atleast_2d(np.asarray(R, dtype=float))
    P, info = solve_care(A, B0, Q, R)
    K = np.linalg.inv(R) @ B0.T @ P
    return K, P, info


def lqr_feedback(surrogate, lifting, K_lqr):
    """Feedback u = -K_lqr * reduced lift, for simulate_feedback."""
    return controller.ClosedLoop(lifting, -np.atleast_2d(K_lqr)).feedback


def export_trajectory_dat(traj, path):
    """Whitespace-separated columns (t, x_1..x_n, u_1..u_m, V)."""
    cols = [traj.t[:, None], traj.states, traj.inputs, traj.V[:, None]]
    np.savetxt(path, np.hstack(cols), fmt="%.17g")
