"""Generator EDMD: data matrices, least-squares fit, bilinear surrogate.

The fit regresses the action of the lifted generator on the dictionary from
state/derivative samples, one regression per constant-input batch, and
assembles the structured bilinear surrogate

    d/dt z = A z + B0 u + sum_i u_i B_i z          (z the reduced lift)

whose first-row/first-column zero structure is enforced by construction.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .matops import decode_fields, encode_matrix, read_artifact

SVD_CUTOFF = 1e-12    # relative singular-value cutoff of the pseudo-inverse


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class DataMatrices:
    """Per-batch regression matrices.

    ``X_input[i]`` stacks full lifts (N+1 rows) for the e_i batch; ``X0`` and
    every ``Y[k]`` drop the constant row via the [0 I] selector.  ``u_scales``
    records the scaling of each basis input (alpha_i when the batch input was
    alpha_i * e_i).
    """

    N: int
    m: int
    X0: np.ndarray
    X_input: dict
    Y: dict
    u_scales: dict


def build_data_matrices(lifting, samples):
    """Arrange a SampleSet into EDMD regression matrices.

    Column j of ``Y[k]`` is the reduced vector of directional derivatives
    ``grad(phi)(x_j)^T xdot_j`` for batch k.
    """
    m = samples.m
    if m < 1:
        raise FitError("sample set must contain at least one basis-input batch")
    N = lifting.N
    X_input = {}
    Y = {}
    u_scales = {}
    X0 = None
    for k in range(m + 1):
        b = samples.batch(k)
        if b.count < 1:
            raise FitError(f"batch {k} is empty")
        if b.u_bar.shape != (m,):
            raise FitError(f"batch {k} input must have m = {m} entries")
        if b.states.shape[1] != lifting.n:
            raise FitError("lifting/plant state dimension mismatch")
        if not (np.all(np.isfinite(b.states)) and np.all(np.isfinite(b.derivs))):
            raise FitError(f"non-finite data in batch {k}")
        # row-major (d, N+1) copies: the least-squares products round
        # according to memory layout, and the fit keeps this one
        full = np.ascontiguousarray(lifting.lift_many(b.states))
        ydir = np.ascontiguousarray(lifting.lie_many(b.states, b.derivs))
        if k == 0:
            if np.any(b.u_bar != 0.0):
                raise FitError("batch 0 must use the zero input")
            X0 = full[:, 1:].T
        else:
            u = b.u_bar
            i = k - 1
            alpha = u[i]
            if alpha <= 0.0 or np.any(np.delete(u, i) != 0.0):
                raise FitError(f"batch {k} input must be a positive multiple of e_{k}")
            X_input[k] = full.T
            u_scales[k] = float(alpha)
        Y[k] = ydir[:, 1:].T
    return DataMatrices(N=N, m=m, X0=X0, X_input=X_input, Y=Y, u_scales=u_scales)


def least_squares_fit(Y, X):
    """Minimum-norm solution of min ||Y - Theta X||_F via SVD pseudo-inverse.

    Singular values below ``SVD_CUTOFF * sigma_max`` are truncated.  Returns
    the coefficient matrix and a diagnostics dict (rank, condition number,
    absolute and relative residual).
    """
    Y = np.asarray(Y, dtype=float)
    X = np.asarray(X, dtype=float)
    if np.any(~np.isfinite(Y)) or np.any(~np.isfinite(X)):
        raise FitError("non-finite entries in regression data")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    smax = s[0] if s.size else 0.0
    keep = s > SVD_CUTOFF * smax
    rank = int(np.count_nonzero(keep))
    sinv = np.zeros_like(s)
    sinv[keep] = 1.0 / s[keep]
    Theta = Y @ (Vt.T * sinv) @ U.T
    # einsum, not np.linalg.norm: the latter's BLAS dot sums in an order that
    # follows the BLAS thread count, which fit_report.json must not
    R = Y - Theta @ X
    resid = float(np.sqrt(np.einsum("ij,ij->", R, R)))
    ynorm = float(np.sqrt(np.einsum("ij,ij->", Y, Y)))
    diag = {
        "rank": rank,
        "rows": X.shape[0],
        "cond": float(smax / s[keep][-1]) if rank else np.inf,
        "residual": resid,
        "relative_residual": resid / ynorm if ynorm > 0 else 0.0,
    }
    if rank < X.shape[0]:     # below the regressor count: Theta is not unique
        warnings.warn(
            f"rank-deficient regression data (rank {rank} of {X.shape[0]} regressors, "
            f"condition {diag['cond']:.3e}); pseudo-inverse fallback used",
            RuntimeWarning,
        )
    return Theta, diag


@dataclass(frozen=True)
class Surrogate:
    """Bilinear lifted surrogate with remainder budget.

    ``B`` stores the bilinear channel matrices B_1..B_m; ``c_r`` and
    ``delta`` are the user-chosen remainder bound and probabilistic
    tolerance (they are inputs, not estimates).
    """

    A: np.ndarray
    B0: np.ndarray
    B: tuple
    c_r: float | None = None
    delta: float | None = None
    lifting: object | None = None

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        B0 = np.asarray(self.B0, dtype=float)
        B = tuple(np.asarray(Bi, dtype=float) for Bi in self.B)
        # N is the lifting's when one is given, else A's
        N = A.shape[0] if A.ndim else 0
        if self.lifting is not None:
            N = self.lifting.N
        expected = {"A": (N, N), "B0": (N, len(B))}
        expected.update((f"B[{i}]", (N, N)) for i in range(len(B)))
        for name, M in zip(expected, (A, B0, *B)):
            if M.shape != expected[name]:
                raise ValueError(f"surrogate matrix '{name}' has shape "
                                 f"{list(M.shape)}, but N = {N} and m = {len(B)} "
                                 f"need {list(expected[name])}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B0", B0)
        object.__setattr__(self, "B", B)
        if self.c_r is not None and self.c_r <= 0:
            raise ValueError("remainder bound must be positive")
        if self.delta is not None and not (0.0 < self.delta < 1.0):
            raise ValueError("probabilistic tolerance must lie in (0, 1)")

    @property
    def N(self):
        return self.A.shape[0]

    @property
    def m(self):
        return len(self.B)

    @property
    def B_tilde(self):
        """Concatenation [B_1 ... B_m], shape (N, N*m)."""
        return np.hstack(self.B)

    def to_json(self):
        doc = {
            "A": encode_matrix(self.A),
            "B0": encode_matrix(self.B0),
            "B": [encode_matrix(Bi) for Bi in self.B],
            "c_r": self.c_r,
            "delta": self.delta,
        }
        if self.lifting is not None:
            doc["lifting"] = self.lifting.descriptor()
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        from .lifting import Lifting

        doc = read_artifact(text, "surrogate.json", "fit", ("A", "B0", "B"),
                            ("c_r", "delta"))
        if not isinstance(doc.get("B"), list):
            raise ValueError("surrogate 'B' must be a list of stored matrices")
        lifting = Lifting.from_descriptor(doc["lifting"]) if "lifting" in doc else None
        A, B0, *B = decode_fields({"A": doc["A"], "B0": doc["B0"], **{
            f"B[{i}]": b for i, b in enumerate(doc["B"])}}, "surrogate.json", "fit")
        return Surrogate(A=A, B0=B0, B=tuple(B), c_r=doc.get("c_r"),
                         delta=doc.get("delta"), lifting=lifting)


@dataclass(frozen=True)
class FitReport:
    batches: dict = field(default_factory=dict)

    def worst_relative_residual(self):
        return max(d["relative_residual"] for d in self.batches.values())


def fit(data, lifting=None, c_r=None, delta=None):
    """Solve the per-batch least-squares problems and assemble the surrogate.

    The zero-input batch yields A; each basis-input batch yields
    [B_{0,i}  A + alpha_i B_i] whose columns are rescaled by the input
    scaling alpha_i.
    """
    N, m = data.N, data.m
    report = {}
    A, diag0 = least_squares_fit(data.Y[0], data.X0)
    report[0] = diag0
    B0 = np.zeros((N, m))
    Bs = []
    for k in range(1, m + 1):
        Theta, diag = least_squares_fit(data.Y[k], data.X_input[k])
        report[k] = diag
        alpha = data.u_scales[k]
        B0[:, k - 1] = Theta[:, 0] / alpha
        Bs.append((Theta[:, 1:] - A) / alpha)
    surrogate = Surrogate(A=A, B0=B0, B=tuple(Bs), c_r=c_r, delta=delta,
                          lifting=lifting)
    return surrogate, FitReport(batches=report)
