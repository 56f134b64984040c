"""Ellipsoidal uncertainty regions for the lifted state and their
Kronecker-structured multiplier class.

A region is the set of vectors v with [v; 1]^T [[Qz, Sz], [Sz^T, Rz]] [v; 1]
>= 0, Qz negative definite, Rz > 0.  The blocks tQ, tS, tR of that matrix's
inverse are precomputed here because the synthesis LMIs consume them
directly: the multiplier built with Lt = inv(Lambda) has the closed-form
inverse [[Lambda kron tQ, Lambda kron tS], [Lambda kron tS^T, Lambda kron tR]].
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matops import quadratic_rows, sym

TRACE_CAP_SCALE = 1e3    # the pilot synthesis caps trace(P) at N times this


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
            raise ValueError("region.Qz must be negative definite")
        if Rz <= 0.0:
            raise ValueError("region.Rz must be positive")
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

    def to_doc(self):
        return {"Qz": self.Qz.tolist(), "Sz": self.Sz.tolist(), "Rz": self.Rz}

    @staticmethod
    def from_doc(doc):
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


def multiplier(region, Lambda_tilde):
    """Assemble the structured multiplier

    [[Lt kron Qz, Lt kron Sz], [Lt kron Sz^T, Lt kron Rz]]

    for a PSD parameter Lt; the result is symmetric of size m(N+1)."""
    Lt = np.atleast_2d(np.asarray(Lambda_tilde, dtype=float))
    Szc = region.Sz.reshape(-1, 1)
    top = np.hstack([np.kron(Lt, region.Qz), np.kron(Lt, Szc)])
    bot = np.hstack([np.kron(Lt, Szc.T), np.kron(Lt, np.array([[region.Rz]]))])
    return np.vstack([top, bot])


def procedure1_qz(surrogate, theorem, rz=1.0, rz_step1=None, epsilon=1e-6,
                  solver_options=None):
    """Shape the region from an unconstrained pilot synthesis.

    Step 1 solves the design LMI of ``theorem`` (1 or 2; required, so that
    the pilot poses the theorem its caller designs with) with the ball
    region (Qz = -I, Sz = 0) while omitting the invariance constraint, so
    the optimizer is free to pick the sublevel-set shape; a trace cap
    trace(P) <= N * ``TRACE_CAP_SCALE`` keeps that problem bounded (artifact
    decision, recorded in the log).
    Step 2 normalizes the resulting shape into Qz = -inv(P) / ||inv(P)||_2
    and builds the region with the user radius parameter ``rz``.
    Returns (region, record, report): ``record`` is the ``heuristic`` entry
    of ``design_log.json`` and ``report`` the pilot's ``SolveReport``.
    """
    from . import lmi, sdp

    N = surrogate.N
    if rz_step1 is None:
        rz_step1 = rz
    pilot_region = identity_region(N, rz_step1)
    problem = lmi.drop_constraint(
        lmi.build_problem(theorem, surrogate, pilot_region, epsilon), "invariance")
    cap = TRACE_CAP_SCALE * N
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
    record = {"P_hat": P_hat.tolist(), "Qz": Qz.tolist(),
              "rz_step1": float(rz_step1), "rz": float(rz), "trace_cap": cap,
              "step1_constraints": [c.name for c in problem.constraints]}
    return region, record, report
