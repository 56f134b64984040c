"""Feedback laws and region-of-attraction geometry from solved designs."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .lifting import evaluate
from .matops import (decode_fields, encode_matrix, quadratic_rows, read_json, sym,
                     write_table)

COND_LIMIT = 1e12           # scheduling-matrix refusal limit, see _singular
SWEEP_TOL = 1e-8            # relative bracket width that ends a ray's bisection


class FeedbackSingularError(RuntimeError):
    """Scheduling matrix (numerically) singular: state outside the
    controller's valid region."""


@dataclass(frozen=True)
class DesignResult:
    """Solved decision variables plus the derived gains.

    ``K = L inv(P)``; a gain-scheduled design (theorem 2) also has ``Lw``,
    ``Kw = Lw (inv(Lambda) kron I_N)`` and the feedback
    ``u = inv(I - Kw (I_m kron z)) K z`` with z the reduced lift.  A
    theorem-1 design is the one without ``Lw``: m = 1 and ``Lam`` is 1x1.
    """

    P: np.ndarray
    L: np.ndarray
    tau: float
    nu: float
    Lam: np.ndarray
    Lw: np.ndarray | None = None
    margins: dict = field(default_factory=dict)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    Kw: np.ndarray | None = field(init=False, repr=False, compare=False)
    P_inv: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def theorem(self):
        return 1 if self.Lw is None else 2

    def __post_init__(self):
        P = sym(np.asarray(self.P, dtype=float))
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        Lam = sym(np.atleast_2d(np.asarray(self.Lam, dtype=float)))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "Lam", Lam)
        if np.linalg.eigvalsh(P)[0] <= 0.0:
            raise ValueError("P must be positive definite")
        P_inv = sym(np.linalg.inv(P))
        Kw = None
        if self.Lw is not None:
            Lw = np.atleast_2d(np.asarray(self.Lw, dtype=float))
            object.__setattr__(self, "Lw", Lw)
            Kw = Lw @ np.kron(np.linalg.inv(Lam), np.eye(P.shape[0]))
        object.__setattr__(self, "P_inv", P_inv)
        object.__setattr__(self, "K", L @ P_inv)
        object.__setattr__(self, "Kw", Kw)

    @staticmethod
    def from_assignment(assignment, margins=None):
        return DesignResult(P=assignment["P"], L=assignment["L"],
                            tau=float(assignment["tau"]), nu=float(assignment["nu"]),
                            Lam=assignment["Lam"], Lw=assignment.get("Lw"),
                            margins=margins or {})

    def to_doc(self):
        enc = encode_matrix
        return {"theorem": self.theorem, "P": enc(self.P), "L": enc(self.L),
                "Lw": enc(self.Lw), "Lambda": enc(self.Lam),
                "tau": self.tau, "nu": self.nu,
                "K": enc(self.K), "Kw": enc(self.Kw),
                "margins": {k: list(v) if isinstance(v, tuple) else v
                            for k, v in self.margins.items()}}

    @staticmethod
    def read(path):
        """The design ``to_doc`` stored at ``path``; refuses (re-run design) a
        file that lacks a field, holds a non-finite number or matrix entry,
        whose ``theorem`` disagrees with ``Lw`` or whose blocks do not fit
        together: ``P`` N x N, ``L`` m x N, ``Lambda`` m x m, ``Lw`` m x Nm."""
        hint = "re-run design"
        doc = read_json(path, hint, ("P", "L", "tau", "nu"), ("tau", "nu"))
        P, L, Lam, Lw = decode_fields({k: doc.get(k) for k in ("P", "L", "Lambda", "Lw")},
                                      path, hint)
        if (any(M is None for M in (P, L, Lam))
                or doc.get("theorem") != (1 if Lw is None else 2)):
            raise ValueError(f"{path} needs 'P', 'L', 'Lambda' and 'theorem' 2 with "
                             f"'Lw' or 1 without; {hint}")
        N, m = (M.shape[0] if M.ndim else 0 for M in (P, L))
        shapes = {"P": (N, N), "L": (m, N), "Lambda": (m, m), "Lw": (m, N * m)}
        for (key, shape), M in zip(shapes.items(), (P, L, Lam, Lw)):
            if M is not None and M.shape != shape:
                raise ValueError(f"{path} '{key}' has shape {list(M.shape)}, but "
                                 f"N = {N} and m = {m} need {list(shape)}; {hint}")
        return DesignResult(P=P, L=L, tau=float(doc["tau"]), nu=float(doc["nu"]),
                            Lam=Lam, Lw=Lw, margins=doc.get("margins", {}))


class ClosedLoop:
    """Feedback u(x) and certificate value V(x) of one gain set on one
    lifting, composed once.

    ``u = K z`` for a linear design; a scheduled design (nonzero ``Kw``)
    solves ``(I - Kw (I_m kron z)) u = K z`` and refuses states where that
    matrix is singular (see ``_singular``).  ``V = z' P_inv z``.  Every
    method takes a batch of rows and sums over the lift in a fixed order, as
    ``matops.quadratic_rows`` does, so that a row's values do not depend on
    its batch.

    ``K`` is one gain (m, N) or a gain stack (d, m, N), one gain per row of
    a batch; ``Kw`` is then None, one (m, m N) gain or a stack (d, m, m N)
    of its own.  Row i of a batch takes gain i of a stack, and each product
    of a row is the one its single gain makes.  A zero ``Kw`` row makes
    ``W = I`` exactly, so that row's u is the linear one bit for bit.
    """

    def __init__(self, lifting, K, Kw=None, P_inv=None):
        self.lifting = lifting
        self.K = np.atleast_2d(K)
        self.P_inv = P_inv
        self._observables = lifting.observables[1:]
        m, N = self.K.shape[-2:]
        # (..., m, m, N): [..., k] holds the coefficients of z_k in
        # Kw (I_m kron z)
        self.Kw = (np.reshape(Kw, self.K.shape[:-2] + (m, m, N))
                   if Kw is not None and np.any(Kw) else None)
        self._eye = np.eye(m)
        # per-observable coefficients of the fixed-order sums over z: (m,)
        # and (m, m), or (d, m) and (d, m, m) for a gain stack
        self._K_cols = [self.K[..., k].copy() for k in range(N)]
        if self.Kw is not None:
            self._Kw_cols = [self.Kw[..., k].copy() for k in range(N)]

    @classmethod
    def of(cls, design, lifting):
        return cls(lifting, design.K, design.Kw, design.P_inv)

    def take(self, rows):
        """The loop whose batch methods apply gains ``rows`` of this stack,
        in order, on the same path (scheduled or linear) whatever those gains
        are; a single gain serves every row, so it returns itself.  Only the
        per-observable columns are gathered: ``K`` and ``Kw`` of the copy
        stay this loop's."""
        if self.K.ndim == 2:
            return self
        loop = copy.copy(self)
        loop._K_cols = [c[rows] for c in self._K_cols]
        if self.Kw is not None:
            loop._Kw_cols = [c[rows] for c in self._Kw_cols]
        return loop

    def lift_many(self, X):
        """Reduced lift of every row of X (d, n), without the finiteness
        check of ``Lifting.lift_many``: a non-finite lift gives a non-finite
        u or V, which the caller handles.  Observable-major like
        ``Lifting.lift_many``: each column is contiguous."""
        return evaluate(self._observables, X).T

    def feedback_of_lifts(self, Z):
        """u at every row of Z (d, N), and a flag per row that is set where
        the scheduling matrix is singular; such rows get u = NaN instead of
        an exception.  A gain stack holds one gain per row of Z."""
        K_cols = self._K_cols
        if K_cols[0].ndim == 2 and len(K_cols[0]) != len(Z):
            raise ValueError(f"a gain stack of {len(K_cols[0])} gains "
                             f"cannot serve {len(Z)} rows")
        U = Z[:, :1] * K_cols[0]
        for k in range(1, Z.shape[1]):
            U = U + Z[:, k, None] * K_cols[k]
        singular = np.zeros(len(Z), dtype=bool)
        if self.Kw is None:
            return U, singular
        Kw_cols = self._Kw_cols
        KwZ = Z[:, 0, None, None] * Kw_cols[0]
        for k in range(1, Z.shape[1]):
            KwZ = KwZ + Z[:, k, None, None] * Kw_cols[k]
        W = self._eye - KwZ
        finite = np.all(np.isfinite(W), axis=(1, 2))
        singular[finite] = self._singular(W[finite])
        solve = finite & ~singular
        U[~solve] = np.nan
        U[solve] = np.linalg.solve(W[solve], U[solve, :, None])[..., 0]
        return U, singular

    def value_of_lifts(self, Z):
        """V at every row of Z (d, N); NaN when no certificate is attached."""
        if self.P_inv is None:
            return np.full(len(Z), np.nan)
        return quadratic_rows(Z, self.P_inv)

    def value_many(self, X):
        """V at every row of X (d, n), through the checked batch lift."""
        return self.value_of_lifts(self.lifting.lift_reduced_many(X))

    def _singular(self, W):
        """Per matrix of the stack W (d, m, m): whether its condition number
        exceeds ``COND_LIMIT`` or its smallest singular value falls below
        ``1 / COND_LIMIT``.  W is I at the origin, so the second test measures
        the distance to singularity on the same scale; it is the only test
        that can refuse m = 1, where the condition number is always 1."""
        s = np.linalg.svd(W, compute_uv=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            cond = s[:, 0] / s[:, -1]
        return ~(cond <= COND_LIMIT) | (s[:, -1] < 1.0 / COND_LIMIT)


def feedback(design, lifting, x):
    """The design's feedback at one state, a one-row call of ``feedback_of_lifts``;
    raises ``FeedbackSingularError`` where the scheduling matrix is singular."""
    U, singular = ClosedLoop.of(design, lifting).feedback_of_lifts(
        lifting.lift(x)[None, 1:])
    if singular[0]:
        raise FeedbackSingularError(
            f"scheduling matrix singular beyond condition {COND_LIMIT:.1e}")
    return U[0]


def roa_membership(design, lifting, x):
    """(inside?, V(x)) for the certified sublevel set V(x) <= 1: a one-row
    call of ``ClosedLoop.value_of_lifts``."""
    V = float(ClosedLoop.of(design, lifting).value_of_lifts(
        lifting.lift(x)[None, 1:])[0])
    return V <= 1.0, V


def _ellipsoid_box(M_inv, c, r, n):
    """Rows [c_i - w_i, c_i + w_i], w_i = sqrt(r (M_inv)_ii), i < n: by
    Cauchy-Schwarz the box of the ellipsoid (z - c)' M (z - c) <= r in z_1..z_n."""
    c, w = c[:n], np.sqrt(r * np.diag(M_inv)[:n])
    return np.column_stack([c - w, c + w])


def certified_box(design, lifting):
    """The box |x_i| <= sqrt(P_ii), i < n, as rows [-r_i, r_i], that holds
    the whole certified set V(x) <= 1 in any n: the reduced lift z starts
    with x_1..x_n and V = z' inv(P) z."""
    return _ellipsoid_box(design.P, np.zeros(lifting.n), 1.0, lifting.n)


@dataclass(frozen=True)
class Boundary:
    angles: np.ndarray
    radii: np.ndarray
    points: np.ndarray          # closed polyline, shape (resolution + 1, 2)
    open_rays: np.ndarray       # bool mask: ray never crossed within the cap

    @property
    def closed(self):
        return not bool(np.any(self.open_rays))


def _polar_sweep(value_many, r_max, resolution):
    """Boundary value = 1 on ``resolution`` equally spaced rays from the
    origin, all rays advanced in lockstep on batched values.

    ``value_many`` maps states (d, 2) to values (d,) and must be < 1 at the
    origin.  Each ray brackets its first crossing by growing its radius from
    1e-6 by a factor 1.6, then bisects it to |value - 1| <= 1e-9 or a bracket
    of ``SWEEP_TOL * max(1, r)``, at most 200 times.  Rays that never cross within
    ``r_max`` are flagged open and clipped at the cap rather than silently
    dropped.
    """
    angles = np.linspace(0.0, 2.0 * np.pi, int(resolution), endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    r_lo = np.zeros(angles.size)
    r_hi = np.full(angles.size, min(1e-6, r_max))
    radii = np.full(angles.size, float(r_max))
    open_rays = np.ones(angles.size, dtype=bool)
    rays = np.flatnonzero(r_hi <= r_max)
    while rays.size:
        crossed = value_many(r_hi[rays, None] * dirs[rays]) >= 1.0
        open_rays[rays[crossed]] = False
        rays = rays[~crossed]
        r_lo[rays] = r_hi[rays]
        r_hi[rays] *= 1.6
        rays = rays[r_hi[rays] <= r_max]
    on_value = np.zeros(angles.size, dtype=bool)
    rays = np.flatnonzero(~open_rays)
    for _ in range(200):
        if not rays.size:
            break
        r_mid = 0.5 * (r_lo[rays] + r_hi[rays])
        v = value_many(r_mid[:, None] * dirs[rays])
        hit = np.abs(v - 1.0) <= 1e-9
        radii[rays[hit]] = r_mid[hit]
        on_value[rays[hit]] = True
        rays, r_mid, below = rays[~hit], r_mid[~hit], v[~hit] < 1.0
        r_lo[rays[below]] = r_mid[below]
        r_hi[rays[~below]] = r_mid[~below]
        rays = rays[r_hi[rays] - r_lo[rays] > SWEEP_TOL * np.maximum(1.0, r_mid)]
    rest = ~open_rays & ~on_value
    radii[rest] = 0.5 * (r_lo[rest] + r_hi[rest])
    pts = radii[:, None] * dirs
    pts = np.vstack([pts, pts[:1]])
    return Boundary(angles=angles, radii=radii, points=pts, open_rays=open_rays)


def _sweep_cap(box):
    """Twice the corner radius R of ``box``.  Beyond R a set inside the box
    has sweep value > 1 and a ray's bracket passes R by at most x1.6, so any
    larger cap gives the same radii: an open ray means a non-finite value."""
    return 2.0 * float(np.linalg.norm(np.abs(box).max(axis=1)))


def roa_boundary_2d(design, lifting, resolution=360):
    """Polar sweep of the region-of-attraction boundary for planar states.

    For each angle the first crossing V = 1 found along the ray is bracketed
    and bisected; the certified set need not be star-shaped.  The cap comes
    from ``certified_box`` (see ``_sweep_cap``).
    """
    if lifting.n != 2:
        raise ValueError("boundary sweep requires a planar state space")
    return _polar_sweep(ClosedLoop.of(design, lifting).value_many,
                        _sweep_cap(certified_box(design, lifting)), resolution)


def region_boundary_2d(region, lifting, resolution=360):
    """Boundary of {x : lift of x lies in the uncertainty region} for planar
    states, by the same polar sweep used for the certified set.  The region
    is (z - c)' M (z - c) <= Rz + Sz' c with M = -Qz and c = inv(M) Sz."""
    from .uncertainty import margins

    if lifting.n != 2:
        raise ValueError("boundary sweep requires a planar state space")
    c = -region.inv_Qz @ region.Sz
    box = _ellipsoid_box(-region.inv_Qz, c, region.Rz + region.Sz @ c, lifting.n)

    def value_many(X):
        # the origin's margin is Rz, which the region forces positive
        return 1.0 - margins(region, lifting.lift_reduced_many(X)) / region.Rz

    return _polar_sweep(value_many, _sweep_cap(box), resolution)


def polygon_area(points):
    """Shoelace area of a closed polyline."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1])))


def export_boundary_dat(boundary, path):
    """Two whitespace-separated columns (x1 x2), one row per vertex."""
    write_table(path, boundary.points)
