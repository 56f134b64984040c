"""Ellipsoidal uncertainty regions for the lifted state and their
Kronecker-structured multiplier class.

A region is the set of vectors v with [v; 1]^T [[Qz, Sz], [Sz^T, Rz]] [v; 1]
>= 0, Qz negative definite, Rz > 0.  The block inverse of that matrix and the
closed-form multiplier inverse are precomputed here because the synthesis
LMIs consume them directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matops import min_eig, quadratic_rows, sym


@dataclass(frozen=True)
class UncertaintyRegion:
    Qz: np.ndarray
    Sz: np.ndarray
    Rz: float
    inv_Qz: np.ndarray = field(init=False, repr=False, compare=False)
    tQ: np.ndarray = field(init=False, repr=False, compare=False)
    tS: np.ndarray = field(init=False, repr=False, compare=False)
    tR: float = field(init=False, repr=False, compare=False)
    inv_tQ: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Qz = sym(np.asarray(self.Qz, dtype=float))
        N = Qz.shape[0]
        Sz = np.asarray(self.Sz, dtype=float).reshape(N)
        Rz = float(self.Rz)
        object.__setattr__(self, "Qz", Qz)
        object.__setattr__(self, "Sz", Sz)
        object.__setattr__(self, "Rz", Rz)
        if np.linalg.eigvalsh(Qz)[-1] >= 0.0:
            raise ValueError("Qz must be negative definite")
        if Rz <= 0.0:
            raise ValueError("Rz must be positive")
        M = self.block_matrix()
        Minv = sym(np.linalg.inv(M))
        if np.max(np.abs(M @ Minv - np.eye(N + 1))) > 1e-10:
            raise ValueError("region block matrix is numerically singular")
        object.__setattr__(self, "inv_Qz", sym(np.linalg.inv(Qz)))
        object.__setattr__(self, "tQ", sym(Minv[:N, :N]))
        object.__setattr__(self, "tS", Minv[:N, N].copy())
        object.__setattr__(self, "tR", float(Minv[N, N]))
        object.__setattr__(self, "inv_tQ", sym(np.linalg.inv(Minv[:N, :N])))

    @property
    def N(self):
        return self.Qz.shape[0]

    def block_matrix(self):
        """The (N+1) x (N+1) matrix [[Qz, Sz], [Sz^T, Rz]]."""
        N = self.N
        M = np.empty((N + 1, N + 1))
        M[:N, :N] = self.Qz
        M[:N, N] = self.Sz
        M[N, :N] = self.Sz
        M[N, N] = self.Rz
        return M

    def inverse_block_matrix(self):
        N = self.N
        M = np.empty((N + 1, N + 1))
        M[:N, :N] = self.tQ
        M[:N, N] = self.tS
        M[N, :N] = self.tS
        M[N, N] = self.tR
        return M

    def to_json_dict(self):
        return {"Qz": self.Qz.tolist(), "Sz": self.Sz.tolist(), "Rz": self.Rz}

    @staticmethod
    def from_json_dict(doc):
        return UncertaintyRegion(Qz=np.asarray(doc["Qz"], dtype=float),
                                 Sz=np.asarray(doc["Sz"], dtype=float),
                                 Rz=float(doc["Rz"]))


def identity_region(N, rz):
    """Ball region ||v||^2 <= rz (Qz = -I, Sz = 0)."""
    return UncertaintyRegion(Qz=-np.eye(N), Sz=np.zeros(N), Rz=float(rz))


def margins(region, V):
    """Quadratic-form margins of the rows of V (d, N); a row is a member when
    its margin is nonnegative."""
    V = np.asarray(V, dtype=float)
    linear = sum(V[:, k] * region.Sz[k] for k in range(region.N))
    return quadratic_rows(V, region.Qz) + 2.0 * linear + region.Rz


def membership(region, v):
    """Quadratic-form margin of v; nonnegative margin means membership."""
    v = np.asarray(v, dtype=float).reshape(1, region.N)
    margin = float(margins(region, v)[0])
    return margin >= 0.0, margin


def multiplier(region, Lambda_tilde):
    """Assemble the structured multiplier

    [[Lt kron Qz, Lt kron Sz], [Lt kron Sz^T, Lt kron Rz]]

    for a PSD parameter Lt; the result is symmetric of size m(N+1)."""
    Lt = np.atleast_2d(np.asarray(Lambda_tilde, dtype=float))
    Szc = region.Sz.reshape(-1, 1)
    top = np.hstack([np.kron(Lt, region.Qz), np.kron(Lt, Szc)])
    bot = np.hstack([np.kron(Lt, Szc.T), np.kron(Lt, np.array([[region.Rz]]))])
    return np.vstack([top, bot])


def multiplier_inverse(region, Lambda):
    """Closed-form inverse of the multiplier built with Lt = inv(Lambda):

    [[L kron tQ, L kron tS], [L kron tS^T, L kron tR]].

    ``Lambda`` must be symmetric positive definite.
    """
    L = np.atleast_2d(np.asarray(Lambda, dtype=float))
    if min_eig(L) <= 0.0:
        raise ValueError("Lambda must be symmetric positive definite")
    tSc = region.tS.reshape(-1, 1)
    top = np.hstack([np.kron(L, region.tQ), np.kron(L, tSc)])
    bot = np.hstack([np.kron(L, tSc.T), np.kron(L, np.array([[region.tR]]))])
    return np.vstack([top, bot])


def kron_delta_membership(region, Delta, rtol=1e-9):
    """True iff Delta = I_m kron v for a single region member v.

    Block extraction first checks the Kronecker structure, then tests the
    extracted vector.
    """
    D = np.asarray(Delta, dtype=float)
    N = region.N
    if D.ndim != 2 or D.shape[0] % N != 0:
        raise ValueError("Delta must have shape (m*N, m)")
    m = D.shape[0] // N
    if D.shape[1] != m:
        raise ValueError("Delta must have shape (m*N, m)")
    v = D[:N, 0]
    scale = max(1.0, float(np.max(np.abs(v))))
    rebuilt = np.kron(np.eye(m), v.reshape(N, 1))
    if np.max(np.abs(D - rebuilt)) > rtol * scale:
        return False
    inside, _ = membership(region, v)
    return inside


@dataclass(frozen=True)
class HeuristicLog:
    """Record of the two-stage region-shaping run."""

    P_hat: np.ndarray
    Qz: np.ndarray
    rz_step1: float
    rz: float
    trace_cap: float
    step1_constraints: tuple
    step1_report: object


def procedure1_qz(surrogate, theorem=2, rz=1.0, rz_step1=None, epsilon=1e-6,
                  trace_cap_scale=1e3, solver_options=None):
    """Shape the region from an unconstrained pilot synthesis.

    Step 1 solves the chosen design LMI with the ball region (Qz = -I,
    Sz = 0) while omitting the invariance constraint, so the optimizer is
    free to pick the sublevel-set shape; a trace cap trace(P) <= N * scale
    keeps that problem bounded (artifact decision, recorded in the log).
    Step 2 normalizes the resulting shape into Qz = -inv(P) / ||inv(P)||_2
    and returns the region with the user radius parameter ``rz``.
    """
    from . import lmi, sdp

    N = surrogate.N
    if rz_step1 is None:
        rz_step1 = rz
    pilot_region = identity_region(N, rz_step1)
    if theorem == 1:
        problem = lmi.build_theorem1(surrogate, pilot_region, epsilon=epsilon)
    elif theorem == 2:
        problem = lmi.build_theorem2(surrogate, pilot_region, epsilon=epsilon)
    else:
        raise ValueError("theorem must be 1 or 2")
    problem = lmi.drop_constraint(problem, "invariance")
    cap = float(trace_cap_scale) * N
    problem = lmi.add_trace_cap(problem, "P", cap)
    assignment, report = sdp.solve_problem(problem, solver_options)
    if report.status != "feasible":
        raise sdp.InfeasibleError(
            f"pilot synthesis failed with status '{report.status}'; "
            "consider adjusting c_r or the pilot radius")
    P_hat = sym(assignment["P"])
    P_hat_inv = sym(np.linalg.inv(P_hat))
    Qz = -P_hat_inv / np.linalg.norm(P_hat_inv, 2)
    region = UncertaintyRegion(Qz=Qz, Sz=np.zeros(N), Rz=float(rz))
    log = HeuristicLog(P_hat=P_hat, Qz=Qz, rz_step1=float(rz_step1),
                       rz=float(rz), trace_cap=cap,
                       step1_constraints=tuple(c.name for c in problem.constraints),
                       step1_report=report)
    return region, log
