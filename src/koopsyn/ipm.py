"""Dense primal-dual interior-point method for small semidefinite programs.

Solves

    minimize    c^T z
    subject to  F0_k + sum_i z_i Fi_k  >= 0   (PSD, one block per constraint)

with an infeasible-start Mehrotra predictor-corrector using the HKM scaling.
Everything is dense.  The 1x1 blocks together form one linear cone (the
nonnegative orthant), handled by elementwise vector operations as in the
LP/SDP block split of SDPT3; every larger block stays a PSD block.  Each PSD
block's coefficients are kept stacked as (p, n, n) and flattened once to
(p, n*n), so the Schur complement is built from batched matrix products: per
iteration a block of size n costs O(p*n^3 + p^2*n^2) for p scalar
variables, the linear cone O(p^2) per entry, plus one O(p^3) solve of the
Schur system.  Each PSD block factors inv(S) and inv(X) once per iteration:
inv(S) scales the Newton system, and the Cholesky factors of both inverses
give the four step lengths (predictor and corrector, primal and dual) with
one symmetric eigenvalue solve each.  The implementation follows the
standard primal/dual pair

    (P) min sum_k <C_k, X_k>   s.t.  sum_k <A_ik, X_k> = b_i,  X_k >= 0
    (D) max b^T y              s.t.  sum_i y_i A_ik + S_k = C_k,  S_k >= 0

with C_k = F0_k, A_ik = -Fi_k, b = -c, so the dual slack S_k equals the
constraint value F_k(z) and y is the decision vector z.

Memory: a solve consumes its coefficient stacks.  Each PSD block's A_k is
the caller's Fi_k scaled in place (Fi_k / -scale_k) and then left
read-only, so a stack cannot be solved twice and never holds a rescaled
problem that looks fresh.  Beyond those stacks a solve holds one product
buffer of p*n_max^2 floats (n_max the largest PSD block), which receives
X_k A_ik inv(S_k) for every i, and one chunk buffer of at most
SCHUR_CHUNK_BYTES for the intermediate X_k A_ik; everything else is of
size n_k^2, p^2 or p.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matops import sym

STEP_FRAC = 0.98    # fraction of the step to the cone boundary taken
SCHUR_CHUNK_BYTES = 1 << 18     # byte budget of one chunk of coefficient rows


@dataclass
class IPMResult:
    status: str                 # "optimal" | "iteration_limit" | "numerical_failure"
    z: np.ndarray
    iterations: int
    primal_infeas: float
    dual_infeas: float
    rel_gap: float
    primal_obj: float
    dual_obj: float
    history: list = field(default_factory=list)


def _inverse_factor(M):
    """(inv(M), G) with G M G^T = I, G the transpose of the Cholesky factor
    of inv(M); None when M is not numerically positive definite."""
    try:
        Minv = sym(np.linalg.inv(M))
        return Minv, np.linalg.cholesky(Minv).T
    except np.linalg.LinAlgError:
        return None


def _boundary_step(lam_min):
    """Largest alpha <= 1 along a direction whose smallest eigenvalue relative
    to the current point is ``lam_min`` (the step to the cone boundary is
    -1/lam_min)."""
    return 1.0 if lam_min >= -1e-14 else min(1.0, -1.0 / lam_min)


def _step_length(G, dM, v, dv):
    """Largest alpha <= 1 keeping every PSD block M_k + alpha dM_k (G_k the
    inverse factor of M_k) and the linear cone v + alpha dv positive."""
    alpha = min((_boundary_step(np.linalg.eigvalsh(sym(G_k @ dM_k @ G_k.T))[0])
                 for G_k, dM_k in zip(G, dM)), default=1.0)
    if v.size:
        alpha = min(alpha, _boundary_step(np.min(dv / v)))
    return alpha


def _regularize(M):
    """M plus the smallest diagonal jitter of 0, 1e-14 (tr(M)/n + 1), ten
    times that, ... (four tries) under which a Cholesky factorization
    succeeds; None when none does."""
    n = M.shape[0]
    jitter = 0.0
    for _ in range(4):
        Mj = M + jitter * np.eye(n)
        try:
            np.linalg.cholesky(Mj)
            return Mj
        except np.linalg.LinAlgError:
            jitter = max(1e-14 * (np.trace(M) / n + 1.0), 10.0 * jitter or 1e-14)
    return None


def _chunk_rows(width):
    """Rows of ``width`` floats that fit in SCHUR_CHUNK_BYTES (at least 1)."""
    return max(1, SCHUR_CHUNK_BYTES // (8 * max(1, width)))


def _schur(Aflat, As, X, Sinv, H, T):
    """Schur complement M_ij = sum_k <A_ik, X_k A_jk Sinv_k>, not symmetrized.

    ``As`` holds each block's (symmetric) coefficients stacked as (p, n, n)
    and ``Aflat`` the same data reshaped to (p, n*n).  ``H`` and ``T`` are
    flat float buffers: H receives the products X_k A_jk Sinv_k of a block
    (at least p*n*n floats), formed a chunk of variables at a time with the
    chunk's X_k A_jk in T (at least n*n floats).  Each product is the same
    pair of matrix products, in the same association, as X_k @ A_k @ Sinv_k
    of the whole stack, so M does not depend on the chunk length."""
    def block(Af_k, A_k, X_k, Si_k):
        p, nk = A_k.shape[:2]
        Hk = H[:p * nk * nk].reshape(p, nk, nk)
        step = T.size // (nk * nk)
        for lo in range(0, p, step):
            Tk = T[:(min(p, lo + step) - lo) * nk * nk].reshape(-1, nk, nk)
            np.matmul(X_k, A_k[lo:lo + step], out=Tk)
            np.matmul(Tk, Si_k, out=Hk[lo:lo + step])
        return Af_k @ Hk.reshape(Af_k.shape).T

    return sum(block(*k) for k in zip(Aflat, As, X, Sinv))


def _max_row_norm(Af_k):
    """np.max(np.linalg.norm(Af_k, axis=1), initial=0.0), taken a chunk of
    rows at a time so that no full-size square of Af_k is made."""
    step = _chunk_rows(Af_k.shape[1])
    return np.max([np.max(np.linalg.norm(Af_k[lo:lo + step], axis=1))
                   for lo in range(0, len(Af_k), step)], initial=0.0)


def solve_sdp(c, blocks, tol=1e-8, max_iters=200):
    """Run the interior-point iteration; ``blocks`` is a list of (F0, Fi)
    with Fi stacked as (p, nk, nk).  The 1x1 blocks are solved together as
    one linear cone.

    The solve consumes every float Fi array it is given: a PSD block's stack
    is scaled in place, and every stack is left read-only.  A read-only
    stack raises ValueError, so solving the same blocks again fails instead
    of solving the rescaled problem."""
    if not blocks:
        raise ValueError("solve_sdp needs at least one constraint block "
                         "(got an empty blocks list)")
    c = np.asarray(c, dtype=float)
    p = c.size
    # standard-form data with per-block magnitude scaling; a 1x1 block is
    # one entry of the linear cone data (cl, Al)
    Cs, As, cl, Al = [], [], [], []
    for F0, Fi in blocks:
        F0 = np.asarray(F0, dtype=float)
        nk = F0.shape[0]
        stack = np.asarray(Fi, dtype=float)
        if not stack.flags.writeable:
            raise ValueError("a coefficient stack is read-only: an earlier "
                             "solve consumed it (solve_sdp scales each stack "
                             "in place); lower the problem again")
        Fi = stack.reshape(p, nk, nk)
        scale = max(1.0, np.max(np.abs(F0)),
                    max(Fi.max(), -Fi.min()) if Fi.size else 0.0)
        if nk == 1:
            cl.append(F0[0, 0] / scale)
            Al.append(-Fi[:, 0, 0] / scale)
        else:
            Cs.append(F0 / scale)
            As.append(np.divide(Fi, -scale, out=Fi))
        stack.flags.writeable = False
    cl = np.array(cl)
    Al = np.column_stack(Al) if Al else np.zeros((p, 0))
    dims = [C_k.shape[0] for C_k in Cs]
    Af = [A_k.reshape(p, nk * nk) for A_k, nk in zip(As, dims)]
    b = -c
    ntot = sum(dims) + cl.size

    # infeasible start on the central ray
    X, S = [], []
    bmag = 1.0 + np.linalg.norm(b, np.inf)
    for C_k, Af_k, nk in zip(Cs, Af, dims):
        anorm = _max_row_norm(Af_k)
        xi = max(10.0, np.sqrt(nk), nk * bmag / (1.0 + anorm))
        eta = max(10.0, np.sqrt(nk), np.linalg.norm(C_k, "fro"), anorm)
        X.append(xi * np.eye(nk))
        S.append(eta * np.eye(nk))
    anorm = np.max(np.abs(Al), axis=0, initial=0.0)
    x = np.maximum(10.0, bmag / (1.0 + anorm))
    s = np.maximum(10.0, np.maximum(np.abs(cl), anorm))
    y = np.zeros(p)
    # the Schur buffers, allocated once per solve
    nsq = max((nk * nk for nk in dims), default=0)
    H = np.empty(p * nsq)
    T = np.empty(max(1, min(p, _chunk_rows(nsq))) * nsq)

    def residuals():
        rp = b - sum((Af_k @ X_k.ravel() for Af_k, X_k in zip(Af, X)), Al @ x)
        Rd = [C_k - (y @ Af_k).reshape(C_k.shape) - S_k
              for C_k, Af_k, S_k in zip(Cs, Af, S)]
        return rp, Rd, cl - y @ Al - s

    def measures(rp, Rd, rd):
        """(pinf, dinf, relgap, gap, pobj, dobj) at the current point."""
        gap = sum((np.vdot(X_k, S_k) for X_k, S_k in zip(X, S)), x @ s)
        pobj = sum((np.vdot(C_k, X_k) for C_k, X_k in zip(Cs, X)), cl @ x)
        dobj = float(b @ y)
        pinf = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        dinf = max(max((np.linalg.norm(R, "fro") / (1.0 + np.linalg.norm(C_k, "fro"))
                        for R, C_k in zip(Rd, Cs)), default=0.0),
                   np.max(np.abs(rd) / (1.0 + np.abs(cl)), initial=0.0))
        relgap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        return pinf, dinf, relgap, gap, pobj, dobj

    status = "iteration_limit"
    it = 0
    history = []
    for it in range(1, max_iters + 1):
        rp, Rd, rd = residuals()
        pinf, dinf, relgap, gap, _, _ = measures(rp, Rd, rd)
        mu = gap / ntot
        history.append((pinf, dinf, relgap))
        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            it -= 1
            break

        # inverse factors of every PSD block, once per iteration: inv(S)
        # scales the Newton system, both give the step lengths
        factors = [_inverse_factor(M_k) for M_k in S + X]
        if None in factors or np.any(s <= 0.0) or np.any(x <= 0.0):
            status = "numerical_failure"
            break
        Sinv = [Si_k for Si_k, _ in factors[:len(S)]]
        GS = [G_k for _, G_k in factors[:len(S)]]
        GX = [G_k for _, G_k in factors[len(S):]]
        sinv = 1.0 / s

        M = _schur(Af, As, X, Sinv, H, T) + (Al * (x * sinv)) @ Al.T
        M = _regularize(0.5 * (M + M.T))
        if M is None:
            status = "numerical_failure"
            break

        def directions(tau_c, E, e):
            h = rp + Al @ (x - tau_c * sinv + x * rd * sinv + e)
            for Af_k, X_k, Si_k, Rd_k, E_k in zip(Af, X, Sinv, Rd, E):
                T = X_k - tau_c * Si_k + X_k @ Rd_k @ Si_k + E_k
                h += Af_k @ T.ravel()
            dy = np.linalg.solve(M, h)
            dS = [Rd_k - (dy @ Af_k).reshape(Rd_k.shape) for Rd_k, Af_k in zip(Rd, Af)]
            dX = [sym(tau_c * Si_k - X_k - X_k @ dS_k @ Si_k - E_k)
                  for X_k, Si_k, dS_k, E_k in zip(X, Sinv, dS, E)]
            ds = rd - dy @ Al
            dx = tau_c * sinv - x - x * ds * sinv - e
            return dy, dX, dS, dx, ds

        _, dX_a, dS_a, dx_a, ds_a = directions(0.0, [0.0] * len(X), 0.0)
        ap = STEP_FRAC * _step_length(GX, dX_a, x, dx_a)
        ad = STEP_FRAC * _step_length(GS, dS_a, s, ds_a)
        gap_aff = sum((np.vdot(X_k + ap * dX_k, S_k + ad * dS_k)
                       for X_k, dX_k, S_k, dS_k in zip(X, dX_a, S, dS_a)),
                      (x + ap * dx_a) @ (s + ad * ds_a))
        sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3, 1e-10, 1.0))

        E = [dX_k @ dS_k @ Si_k for dX_k, dS_k, Si_k in zip(dX_a, dS_a, Sinv)]
        dy, dX, dS, dx, ds = directions(sigma * mu, E, dx_a * ds_a * sinv)
        ap = STEP_FRAC * _step_length(GX, dX, x, dx)
        ad = STEP_FRAC * _step_length(GS, dS, s, ds)
        if max(ap, ad) < 1e-10:
            status = "numerical_failure"
            break
        X = [X_k + ap * dX_k for X_k, dX_k in zip(X, dX)]
        x = x + ap * dx
        y = y + ad * dy
        S = [S_k + ad * dS_k for S_k, dS_k in zip(S, dS)]
        s = s + ad * ds

    pinf, dinf, relgap, _, pobj, dobj = measures(*residuals())
    return IPMResult(
        status=status,
        z=y,
        iterations=it,
        primal_infeas=float(pinf),
        dual_infeas=float(dinf),
        rel_gap=float(relgap),
        primal_obj=float(pobj),
        dual_obj=dobj,
        history=history,
    )
