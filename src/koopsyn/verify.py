"""Closed-loop validation: ODE integration, Lyapunov auditing, LQR baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matops import write_table


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


def simulate_feedback(plant, loop, x0, **options):
    """The run from the one state ``x0``: :func:`simulate_many` on one row."""
    return simulate_many(plant, loop, np.asarray(x0, dtype=float)[None],
                         **options)[0]


# Dormand-Prince 4(5): stage nodes are not needed for an autonomous system;
# _A row s combines stages 0..s-1, _B gives the 5th-order solution, _E the
# difference to the embedded 4th-order one (stage 6 is f at the new state),
# and _P the quartic dense output of Shampine (1986), as in scipy's RK45.
_A = ((),
      (1 / 5,),
      (3 / 40, 9 / 40),
      (44 / 45, -56 / 15, 32 / 9),
      (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
      (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656))
_B = (35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
_E = (-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525,
      1 / 40)
_P = ((1, -8048581381 / 2820520608, 8663915743 / 2820520608,
       -12715105075 / 11282082432),
      (0, 0, 0, 0),
      (0, 131558114200 / 32700410799, -68118460800 / 10900136933,
       87487479700 / 32700410799),
      (0, -1754552775 / 470086768, 14199869525 / 1410260304,
       -10690763975 / 1880347072),
      (0, 127303824393 / 49829197408, -318862633887 / 49829197408,
       701980252875 / 199316789632),
      (0, -282668133 / 205662961, 2019193451 / 616988883,
       -1453857185 / 822651844),
      (0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423))
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_REASONS = np.array(["", "converged", "left_domain", "horizon",
                     "numerical_failure", "singular_feedback"])
_CONVERGED, _LEFT, _HORIZON, _FAILURE, _SINGULAR = range(1, 6)
_ERROR_EXPONENT = -1.0 / 5.0        # the error estimate is of order 4
_EPS = np.finfo(float).eps


# each stage combination as (stages, coefficient column): the nonzero
# coefficients, picked by index from the stage axis of the (7, d, n) slopes
def _stages(coeffs):
    index = np.flatnonzero(coeffs)
    return index, np.array(coeffs)[index, None, None]


_A_COLS = [np.array(a)[:, None, None] for a in _A[1:]]
(_B_INDEX, _B_COL), (_E_INDEX, _E_COL) = _stages(_B), _stages(_E)
_P_STAGES = [_stages([row[q] for row in _P]) for q in range(4)]


def _stage_sum(terms):
    """The sum over the stage axis of ``terms`` in index order.  Numpy adds
    a non-contiguous axis of fewer than 8 terms in order, from the start
    value; -0.0 leaves every first term as it is, so the sum is bit-equal to
    ``terms[0] + terms[1] + ...``."""
    return np.add.reduce(terms, axis=0, initial=-0.0)


def _norm_rows(X):
    """Euclidean norm of every row, summed in a fixed order."""
    sq = X[:, 0] * X[:, 0]
    for j in range(1, X.shape[1]):
        sq = sq + X[:, j] * X[:, j]
    return np.sqrt(sq)


def simulate_many(plant, loop, X0, horizon=50.0, rtol=1e-9, atol=1e-9,
                  converged_tol=1e-8, escape_radius=1e6, max_step=np.inf):
    """Integrate ``plant`` under the feedback of ``loop`` from every row of
    ``X0`` (d, n); returns one :class:`Trajectory` per row.

    ``loop`` is a ``controller.ClosedLoop``; a gain stack holds one gain
    (and scheduling gain) per row of ``X0``.  All starts advance together
    as one (d, n) array with an explicit Dormand-Prince 4(5) pair, each row
    under the step control of scipy's ``RK45``: its initial-step rule, RMS
    error norm, safety factor 0.9, step factors in [0.2, 10] with no growth
    right after a rejection, ``max_step``, and a minimum step of 10 ulp of
    t.  A run ends with reason ``converged`` when the state norm falls to
    ``converged_tol`` and ``left_domain`` when it rises to ``escape_radius``
    (both located by Brent's method on the step's quartic dense output),
    ``horizon`` at t = ``horizon``, ``numerical_failure`` when the step
    falls below the minimum (a non-finite right-hand side shrinks it until
    it does) and ``singular_feedback`` when the feedback flags a state.  A
    run that ends ``singular_feedback``, or ``numerical_failure`` at its
    start, keeps only its start state, with u = NaN.

    Every operation is row-wise and every sum runs in a fixed order (the
    loop's batch methods keep the same rule), so a row's trajectory does not
    depend on the batch it is integrated in, and a row that turns singular
    or non-finite ends alone.  The seven stage slopes of a step are one
    (7, d, n) array and each stage combination one sum over its first axis.
    The stack's gains are gathered when the set of running rows changes.
    The u and V columns are evaluated in one batched pass after
    integration.
    """
    X0 = np.asarray(X0, dtype=float)
    if X0.ndim != 2 or X0.shape[1] != plant.n:
        raise ValueError(f"starts must have shape (d, {plant.n})")
    if loop.lifting.n != plant.n or loop.K.shape[-2] != plant.m:
        raise ValueError(f"the feedback must map {plant.n} states to "
                         f"{plant.m} inputs")
    if loop.K.ndim == 3 and len(loop.K) != len(X0):
        raise ValueError(f"a gain stack must hold one gain per start, "
                         f"not {len(loop.K)} for {len(X0)}")
    if not np.all(np.isfinite(X0)):
        raise ValueError("initial state must be finite")
    t_bound = float(horizon)
    if not t_bound > 0.0:
        raise ValueError("horizon must be positive")
    if not max_step > 0.0:
        raise ValueError("max_step must be positive")
    rtol = max(float(rtol), 100 * _EPS)
    if atol < 0:
        raise ValueError("atol must be nonnegative")
    d, n = X0.shape
    if d == 0:
        return []
    sqrt_n = n ** 0.5
    code = np.zeros(d, dtype=np.int8)      # index into _REASONS; 0 = running

    def rhs(X, gains):
        U, singular = gains.feedback_of_lifts(gains.lift_many(X))
        return plant.vector_field(X, U), singular

    def rms(X):
        return _norm_rows(X) / sqrt_n

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # accepted states as (row, t, x) blocks, in time order per row
        rec_rows, rec_t, rec_x = [np.arange(d)], [np.zeros(d)], [X0]
        f, singular = rhs(X0, loop)
        # from a non-finite start derivative the initial-step rule gives NaN
        at_start = ~singular & ~np.all(np.isfinite(f), axis=1)
        code[at_start] = _FAILURE
        code[singular] = _SINGULAR
        live = np.flatnonzero(code == 0)
        gains = loop.take(live)
        y, f = X0[live], f[live]
        # initial step (Hairer, Norsett & Wanner, II.4)
        scale = atol + np.abs(y) * rtol
        d0, d1 = rms(y / scale), rms(f / scale)
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        h0 = np.minimum(h0, t_bound)
        f1, singular = rhs(y + h0[:, None] * f, gains)
        d2 = rms((f1 - f) / scale) / h0
        # fmax skips a NaN d2 (non-finite f1), as Python's max does in RK45
        h1 = np.where((d1 <= 1e-15) & (d2 <= 1e-15),
                      np.maximum(1e-6, h0 * 1e-3),
                      (0.01 / np.fmax(d1, d2)) ** (1.0 / 5.0))
        h_abs = np.minimum(np.minimum(np.minimum(100 * h0, h1), t_bound),
                           max_step)
        code[live[singular]] = _SINGULAR
        keep = ~singular
        live, y, f, h_abs = live[keep], y[keep], f[keep], h_abs[keep]
        gains = loop.take(live)
        t = np.zeros(live.size)
        rejected = np.zeros(live.size, dtype=bool)
        norm = _norm_rows(y)
        g_conv, g_esc = norm - converged_tol, norm - escape_radius

        while live.size:
            min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
            # a new step starts from h_abs clipped to [min_step, max_step]
            h_abs = np.where(rejected, h_abs,
                             np.where(h_abs > max_step, max_step,
                                      np.maximum(h_abs, min_step)))
            t_new = np.minimum(t + h_abs, t_bound)
            h = (t_new - t)[:, None]
            K = np.empty((7,) + y.shape)
            K[0] = f
            singular = np.zeros(live.size, dtype=bool)
            for s, a in enumerate(_A_COLS, start=1):
                K[s], flag = rhs(y + _stage_sum(a * K[:s]) * h, gains)
                singular |= flag
            y_new = y + h * _stage_sum(_B_COL * K[_B_INDEX])
            f_new, flag = rhs(y_new, gains)
            K[6] = f_new
            singular |= flag
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            err = rms(_stage_sum(_E_COL * K[_E_INDEX]) * h / scale)
            grow = _SAFETY * err ** _ERROR_EXPONENT
            # a NaN error norm rejects the step and shrinks it by MIN_FACTOR
            factor = np.where(err == 0, _MAX_FACTOR, np.minimum(_MAX_FACTOR, grow))
            factor = np.where(err < 1, np.where(rejected, np.minimum(1.0, factor),
                                                factor),
                              np.fmax(_MIN_FACTOR, grow))
            step_code = np.where(h_abs < min_step, _FAILURE,
                                 np.where(singular, _SINGULAR, 0))
            h_abs = h[:, 0] * factor
            accepted = (err < 1) & (step_code == 0)
            rejected = ~accepted
            norm = _norm_rows(y_new)
            gc_new, ge_new = norm - converged_tol, norm - escape_radius
            hit_conv = accepted & (g_conv >= 0) & (gc_new <= 0)
            hit_esc = accepted & (g_esc <= 0) & (ge_new >= 0)
            for i in np.flatnonzero(hit_conv | hit_esc):
                t_new[i], y_new[i], step_code[i] = _locate_event(
                    t[i], t_new[i], y[i], K[:, i:i + 1],
                    (converged_tol, escape_radius), (hit_conv[i], hit_esc[i]))
            step_code[accepted & (step_code == 0) & (t_new >= t_bound)] = _HORIZON
            acc = np.flatnonzero(accepted)
            rec_rows.append(live[acc])
            rec_t.append(t_new[acc])
            rec_x.append(y_new[acc])
            t = np.where(accepted, t_new, t)
            y = np.where(accepted[:, None], y_new, y)
            f = np.where(accepted[:, None], f_new, f)
            g_conv = np.where(accepted, gc_new, g_conv)
            g_esc = np.where(accepted, ge_new, g_esc)
            done = step_code != 0
            if done.any():
                code[live[done]] = step_code[done]
                keep = ~done
                live, t, y, f, h_abs, rejected, g_conv, g_esc = (
                    a[keep] for a in (live, t, y, f, h_abs, rejected, g_conv, g_esc))
                gains = loop.take(live)
    stopped = (code == _SINGULAR) | at_start
    return _trajectories(loop, X0, _REASONS[code].tolist(), stopped, rec_rows,
                         rec_t, rec_x)


def _locate_event(t_old, t_new, y_old, K, levels, active):
    """The first terminal event inside one accepted step of one row, whose
    stage slopes ``K`` are (7, 1, n): the root of ||x(t)|| - level on the
    step's dense output.  Returns (t, x(t), reason)."""
    Q = [_stage_sum(c * K[index]) for index, c in _P_STAGES]
    h = t_new - t_old

    def sol(t):
        x = (t - t_old) / h
        p = x
        out = Q[0] * p
        for q in Q[1:]:
            p = p * x
            out = out + q * p
        return h * out + y_old

    roots = [_brentq(lambda t, lv=level: _norm_rows(sol(t))[0] - lv,
                     t_old, t_new) if on else np.inf
             for level, on in zip(levels, active)]
    first = int(np.argmin(roots))
    return roots[first], sol(roots[first])[0], (_CONVERGED, _LEFT)[first]


def _brentq(fn, xa, xb, tol=4 * _EPS, maxiter=100):
    """Root of ``fn`` bracketed by [xa, xb] with Brent's method, step for
    step as scipy.optimize.brentq with xtol = rtol = ``tol``, which the
    event location of scipy's ``solve_ivp`` uses (Brent, "Algorithms for
    Minimization without Derivatives", 1973, ch. 4)."""
    xpre, xcur = xa, xb
    fpre, fcur = fn(xpre), fn(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if np.signbit(fpre) == np.signbit(fcur):
        raise ValueError("event is not bracketed by the step")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and np.signbit(fpre) != np.signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (tol + tol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:        # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:                   # inverse quadratic interpolation
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = fn(xcur)
    raise RuntimeError("event location did not converge")


def _trajectories(loop, X0, reasons, stopped, rec_rows, rec_t, rec_x):
    """Split the recorded blocks by row and add the u and V columns,
    evaluated in one batched pass.  Rows flagged ``stopped`` keep only their
    start, with u = NaN."""
    rows = np.concatenate(rec_rows)
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    T, S = np.concatenate(rec_t)[order], np.concatenate(rec_x)[order]
    Z = loop.lift_many(S)
    U, _ = loop.take(rows).feedback_of_lifts(Z)
    V = loop.value_of_lifts(Z)
    bounds = np.searchsorted(rows, np.arange(len(X0) + 1))
    out = []
    for i, reason in enumerate(reasons):
        lo, hi = bounds[i], bounds[i + 1]
        if stopped[i]:
            hi = lo + 1
            U[lo] = np.nan
        out.append(Trajectory(t=T[lo:hi], states=S[lo:hi], inputs=U[lo:hi],
                              V=V[lo:hi], reason=reason))
    return out


@dataclass(frozen=True)
class AuditReport:
    ok: bool
    max_increase: float


def lyapunov_audit(traj):
    """Check that the recorded certificate values never increase beyond
    ``1e-6 * (1 + V)`` between integrator steps."""
    V = traj.V
    if np.any(np.isnan(V)):
        raise ValueError("trajectory carries no certificate samples")
    if V[0] > 1.0:
        raise ValueError("trajectory must start inside the certified region")
    dV = np.diff(V)
    max_inc = float(np.max(dV)) if dV.size else 0.0
    return AuditReport(ok=bool(np.all(dV <= 1e-6 * (1.0 + V[:-1]))),
                       max_increase=max_inc)


# stopping rule and iteration cap of the CARE sign-function iteration
SIGN_TOL = 1e-13
SIGN_MAX_ITERS = 100


def lqr_baseline(surrogate, R):
    """Regulator gain for the linear part (A, B0) of the surrogate with
    state weight I and input weight ``R``, from the stabilizing solution of
    the continuous algebraic Riccati equation (CARE).

    The matrix sign function of the Hamiltonian
    H = [[A, -B0 inv(R) B0'], [-I, -A']], iterated with determinant scaling
    (Byers, Linear Algebra Appl. 85, 1987), gives P from its stable
    invariant subspace; one Newton-Kleinman step (Kleinman, IEEE TAC 13,
    1968) then refines P.  That step solves its Lyapunov equation as one
    dense N^2 x N^2 system, so it holds O(N^4) floats (6.5 MB at N = 30).

    Returns (K_lqr, P, info); the feedback convention is u = -K_lqr z with z
    the reduced lift, and ``info["relative_residual"]`` is the Frobenius norm
    of A'P + PA - PB0 inv(R) B0'P + I over that of I.  Raises ``ValueError``
    when (A, B0) is not stabilizable or H has eigenvalues on the imaginary
    axis.
    """
    A, B0, N = surrogate.A, surrogate.B0, surrogate.N
    I, R = np.eye(N), np.atleast_2d(np.asarray(R, dtype=float))
    Z = np.block([[A, -B0 @ np.linalg.solve(R, B0.T)], [-I, -A.T]])
    for _ in range(SIGN_MAX_ITERS):
        sign, logdet = np.linalg.slogdet(Z)
        if sign == 0 or not np.isfinite(logdet):
            raise ValueError("no stabilizing CARE solution for (A, B0): "
                             "singular sign-function iterate")
        c = np.exp(-logdet / (2 * N))
        Z, Z_old = 0.5 * (c * Z + np.linalg.inv(Z) / c), Z
        if np.linalg.norm(Z - Z_old, 1) <= SIGN_TOL * np.linalg.norm(Z, 1):
            break
    else:
        raise ValueError("no stabilizing CARE solution for (A, B0): sign "
                         f"iteration did not converge in {SIGN_MAX_ITERS} steps")
    # the stable invariant subspace is the null space of sign(H) + I
    W = Z + np.eye(2 * N)
    P = np.linalg.lstsq(W[:, N:], -W[:, :N], rcond=None)[0]
    for newton_step in (True, False):
        P = 0.5 * (P + P.T)
        K = np.linalg.solve(R, B0.T @ P)
        Acl = A - B0 @ K
        if not (np.all(np.isfinite(P)) and np.max(np.linalg.eigvals(Acl).real) < 0):
            raise ValueError("no stabilizing CARE solution for (A, B0): "
                             "A - B0 K is not Hurwitz")
        if newton_step:
            # Acl' P + P Acl = -(I + K' R K), row-major vec
            P = np.linalg.solve(np.kron(I, Acl.T) + np.kron(Acl.T, I),
                                -(I + K.T @ R @ K).ravel()).reshape(N, N)
    res = np.linalg.norm(A.T @ P + P @ A - P @ B0 @ K + I, "fro")
    return K, P, {"relative_residual": float(res / np.linalg.norm(I, "fro"))}


def export_trajectory_dat(traj, path):
    """Whitespace-separated columns (t, x_1..x_n, u_1..u_m, V)."""
    cols = [traj.t[:, None], traj.states, traj.inputs, traj.V[:, None]]
    write_table(path, np.hstack(cols))
