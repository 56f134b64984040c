"""Dense primal-dual interior-point method for small semidefinite programs.

Solves

    minimize    c^T z
    subject to  F0_k + sum_i z_i Fi_k  >= 0   (PSD, one block per constraint)

with an infeasible-start Mehrotra predictor-corrector using the HKM scaling.
Everything is dense.  Each block's coefficients are kept stacked as
(p, n, n) and flattened once to (p, n*n), so the Schur complement is built
from batched matrix products: per iteration a block of size n costs
O(p*n^3 + p^2*n^2) for p scalar variables, plus one O(p^3) Cholesky of the
Schur matrix.  The implementation follows the standard primal/dual pair

    (P) min sum_k <C_k, X_k>   s.t.  sum_k <A_ik, X_k> = b_i,  X_k >= 0
    (D) max b^T y              s.t.  sum_i y_i A_ik + S_k = C_k,  S_k >= 0

with C_k = F0_k, A_ik = -Fi_k, b = -c, so the dual slack S_k equals the
constraint value F_k(z) and y is the decision vector z.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

STEP_FRAC = 0.98    # fraction of the step to the cone boundary taken


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


def _max_step(M, dM):
    """Largest alpha <= 1 with M + alpha dM still positive definite."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return 0.0
    W = np.linalg.solve(L, np.linalg.solve(L, dM).T)
    lam = np.linalg.eigvalsh(0.5 * (W + W.T))[0]
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -1.0 / lam)


def _solve_spd(M, rhs):
    n = M.shape[0]
    jitter = 0.0
    for _ in range(4):
        try:
            L = np.linalg.cholesky(M + jitter * np.eye(n))
            return np.linalg.solve(L.T, np.linalg.solve(L, rhs))
        except np.linalg.LinAlgError:
            jitter = max(1e-14 * (np.trace(M) / n + 1.0), 10.0 * jitter or 1e-14)
    return None


def _schur(Aflat, As, X, Sinv):
    """Schur complement M_ij = sum_k <A_ik, X_k A_jk Sinv_k>, not symmetrized.

    ``As`` holds each block's coefficients stacked as (p, n, n) and ``Aflat``
    the same data reshaped to (p, n*n)."""
    return sum(Af_k @ (X_k @ A_k @ Si_k).transpose(0, 2, 1).reshape(Af_k.shape).T
               for Af_k, A_k, X_k, Si_k in zip(Aflat, As, X, Sinv))


def solve_sdp(c, blocks, tol=1e-8, max_iters=200):
    """Run the interior-point iteration; ``blocks`` is a list of (F0, Fi)
    with Fi stacked as (p, nk, nk)."""
    if not blocks:
        raise ValueError("solve_sdp needs at least one constraint block "
                         "(got an empty blocks list)")
    c = np.asarray(c, dtype=float)
    p = c.size
    # standard-form data with per-block magnitude scaling
    Cs, As, dims = [], [], []
    for F0, Fi in blocks:
        F0 = np.asarray(F0, dtype=float)
        Fi = np.asarray(Fi, dtype=float).reshape(p, F0.shape[0], F0.shape[0])
        s = max(1.0, np.max(np.abs(F0)), np.max(np.abs(Fi)) if Fi.size else 0.0)
        Cs.append(F0 / s)
        As.append(-Fi / s)
        dims.append(F0.shape[0])
    Af = [A_k.reshape(p, nk * nk) for A_k, nk in zip(As, dims)]
    b = -c
    ntot = sum(dims)

    # infeasible start on the central ray
    X, S = [], []
    bmag = 1.0 + np.linalg.norm(b, np.inf)
    for C_k, A_k, nk in zip(Cs, As, dims):
        anorm = max((np.linalg.norm(A_k[i], "fro") for i in range(p)), default=0.0)
        xi = max(10.0, np.sqrt(nk), nk * bmag / (1.0 + anorm))
        eta = max(10.0, np.sqrt(nk), np.linalg.norm(C_k, "fro"), anorm)
        X.append(xi * np.eye(nk))
        S.append(eta * np.eye(nk))
    y = np.zeros(p)

    def operator_A(Ms):
        return sum(Af_k @ M_k.ravel() for Af_k, M_k in zip(Af, Ms))

    def residuals():
        rp = b - operator_A(X)
        Rd = [C_k - np.tensordot(y, A_k, axes=1) - S_k
              for C_k, A_k, S_k in zip(Cs, As, S)]
        return rp, Rd

    status = "iteration_limit"
    it = 0
    history = []
    for it in range(1, max_iters + 1):
        rp, Rd = residuals()
        gap = sum(np.tensordot(X_k, S_k, axes=2) for X_k, S_k in zip(X, S))
        mu = gap / ntot
        pobj = sum(np.tensordot(C_k, X_k, axes=2) for C_k, X_k in zip(Cs, X))
        dobj = float(b @ y)
        pinf = np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))
        dinf = max(np.linalg.norm(R, "fro") / (1.0 + np.linalg.norm(C_k, "fro"))
                   for R, C_k in zip(Rd, Cs))
        relgap = abs(gap) / (1.0 + abs(pobj) + abs(dobj))
        history.append((pinf, dinf, relgap))
        if pinf <= tol and dinf <= tol and relgap <= tol:
            status = "optimal"
            it -= 1
            break

        Sinv = []
        ok = True
        for S_k in S:
            try:
                Lk = np.linalg.cholesky(S_k)
            except np.linalg.LinAlgError:
                ok = False
                break
            Ik = np.eye(S_k.shape[0])
            Li = np.linalg.solve(Lk, Ik)
            Sinv.append(Li.T @ Li)
        if not ok:
            status = "numerical_failure"
            break

        M = _schur(Af, As, X, Sinv)
        M = 0.5 * (M + M.T)

        def rhs_vector(tau_c, E):
            h = rp.copy()
            for idx, (Af_k, X_k, Si_k, Rd_k) in enumerate(zip(Af, X, Sinv, Rd)):
                T = X_k - tau_c * Si_k + X_k @ Rd_k @ Si_k
                if E is not None:
                    T = T + E[idx]
                h += Af_k @ T.T.ravel()
            return h

        def directions(tau_c, E):
            dy = _solve_spd(M, rhs_vector(tau_c, E))
            if dy is None:
                return None
            dS = [Rd_k - np.tensordot(dy, A_k, axes=1) for Rd_k, A_k in zip(Rd, As)]
            dX = []
            for idx, (X_k, Si_k, dS_k) in enumerate(zip(X, Sinv, dS)):
                V = tau_c * Si_k - X_k - X_k @ dS_k @ Si_k
                if E is not None:
                    V = V - E[idx]
                dX.append(0.5 * (V + V.T))
            return dy, dX, dS

        pred = directions(0.0, None)
        if pred is None:
            status = "numerical_failure"
            break
        dy_a, dX_a, dS_a = pred
        ap = min((_max_step(X_k, dX_k) for X_k, dX_k in zip(X, dX_a)), default=1.0)
        ad = min((_max_step(S_k, dS_k) for S_k, dS_k in zip(S, dS_a)), default=1.0)
        ap *= STEP_FRAC
        ad *= STEP_FRAC
        gap_aff = sum(np.tensordot(X_k + ap * dX_k, S_k + ad * dS_k, axes=2)
                      for X_k, dX_k, S_k, dS_k in zip(X, dX_a, S, dS_a))
        sigma = float(np.clip((max(gap_aff, 0.0) / gap) ** 3, 1e-10, 1.0))

        E = [dX_k @ dS_k @ Si_k
             for dX_k, dS_k, Si_k in zip(dX_a, dS_a, Sinv)]
        corr = directions(sigma * mu, E)
        if corr is None:
            status = "numerical_failure"
            break
        dy, dX, dS = corr
        ap = STEP_FRAC * min((_max_step(X_k, dX_k) for X_k, dX_k in zip(X, dX)),
                             default=1.0)
        ad = STEP_FRAC * min((_max_step(S_k, dS_k) for S_k, dS_k in zip(S, dS)),
                             default=1.0)
        if max(ap, ad) < 1e-10:
            status = "numerical_failure"
            break
        X = [X_k + ap * dX_k for X_k, dX_k in zip(X, dX)]
        y = y + ad * dy
        S = [S_k + ad * dS_k for S_k, dS_k in zip(S, dS)]

    rp, Rd = residuals()
    gap = sum(np.tensordot(X_k, S_k, axes=2) for X_k, S_k in zip(X, S))
    pobj = sum(np.tensordot(C_k, X_k, axes=2) for C_k, X_k in zip(Cs, X))
    dobj = float(b @ y)
    return IPMResult(
        status=status,
        z=y,
        iterations=it,
        primal_infeas=float(np.linalg.norm(rp) / (1.0 + np.linalg.norm(b))),
        dual_infeas=float(max(np.linalg.norm(R, "fro") / (1.0 + np.linalg.norm(C_k, "fro"))
                              for R, C_k in zip(Rd, Cs))),
        rel_gap=float(abs(gap) / (1.0 + abs(pobj) + abs(dobj))),
        primal_obj=float(pobj),
        dual_obj=dobj,
        history=history,
    )
