"""Feedback laws and region-of-attraction geometry from solved designs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .matops import quadratic_rows, sym


class FeedbackSingularError(RuntimeError):
    """Scheduling matrix (numerically) singular: state outside the
    controller's valid region."""


@dataclass(frozen=True)
class DesignResult:
    """Solved decision variables plus the derived gains.

    ``K = L inv(P)``; for gain-scheduled designs additionally
    ``Kw = Lw (inv(Lambda) kron I_N)`` and the feedback is
    ``u = inv(I - Kw (I_m kron z)) K z`` with z the reduced lift.
    """

    theorem: int
    P: np.ndarray
    L: np.ndarray
    tau: float
    nu: float
    lam: float | None = None          # scalar multiplier (theorem 1)
    Lam: np.ndarray | None = None     # matrix multiplier (theorem 2)
    Lw: np.ndarray | None = None
    margins: dict = field(default_factory=dict)
    K: np.ndarray = field(init=False, repr=False, compare=False)
    Kw: np.ndarray | None = field(init=False, repr=False, compare=False)
    P_inv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        P = sym(np.asarray(self.P, dtype=float))
        L = np.atleast_2d(np.asarray(self.L, dtype=float))
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "L", L)
        if np.linalg.eigvalsh(P)[0] <= 0.0:
            raise ValueError("P must be positive definite")
        P_inv = sym(np.linalg.inv(P))
        K = L @ P_inv
        Kw = None
        if self.theorem == 2:
            Lam = sym(np.atleast_2d(np.asarray(self.Lam, dtype=float)))
            Lw = np.atleast_2d(np.asarray(self.Lw, dtype=float))
            object.__setattr__(self, "Lam", Lam)
            object.__setattr__(self, "Lw", Lw)
            N = P.shape[0]
            Kw = Lw @ np.kron(np.linalg.inv(Lam), np.eye(N))
        object.__setattr__(self, "P_inv", P_inv)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "Kw", Kw)

    @property
    def N(self):
        return self.P.shape[0]

    @property
    def m(self):
        return self.K.shape[0]

    @staticmethod
    def from_assignment(theorem, assignment, margins=None):
        if theorem == 1:
            return DesignResult(theorem=1, P=assignment["P"], L=assignment["L"],
                                tau=float(assignment["tau"]), nu=float(assignment["nu"]),
                                lam=float(assignment["lam"]), margins=margins or {})
        return DesignResult(theorem=2, P=assignment["P"], L=assignment["L"],
                            tau=float(assignment["tau"]), nu=float(assignment["nu"]),
                            Lam=assignment["Lam"], Lw=assignment["Lw"],
                            margins=margins or {})

    def to_json(self):
        def enc(M):
            if M is None:
                return None
            M = np.atleast_2d(np.asarray(M, dtype=float))
            return {"shape": list(M.shape), "data": M.ravel().tolist()}

        doc = {"theorem": self.theorem, "P": enc(self.P), "L": enc(self.L),
               "Lw": enc(self.Lw), "Lambda": enc(self.Lam),
               "lam": self.lam, "tau": self.tau, "nu": self.nu,
               "K": enc(self.K), "Kw": enc(self.Kw),
               "margins": {k: list(v) if isinstance(v, tuple) else v
                           for k, v in self.margins.items()}}
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(text):
        doc = json.loads(text)

        def dec(obj):
            if obj is None:
                return None
            return np.asarray(obj["data"], dtype=float).reshape(obj["shape"])

        return DesignResult(theorem=int(doc["theorem"]), P=dec(doc["P"]),
                            L=dec(doc["L"]), Lw=dec(doc["Lw"]), Lam=dec(doc["Lambda"]),
                            lam=doc.get("lam"), tau=float(doc["tau"]), nu=float(doc["nu"]),
                            margins=doc.get("margins", {}))


class ClosedLoop:
    """Feedback u(x) and certificate value V(x) of one gain set on one
    lifting, composed once.

    The reduced lift is the tuple of the observables' own evaluators, without
    the shape and finiteness checks of ``Lifting.lift``: a non-finite lift
    gives a non-finite u or V, which the caller handles.  ``u = K z`` for a
    linear design; a scheduled design (nonzero ``Kw``) solves
    ``(I - Kw (I_m kron z)) u = K z`` and refuses states where that matrix is
    singular beyond ``cond_limit``.  ``V = z' P_inv z``.
    """

    def __init__(self, lifting, K, Kw=None, P_inv=None, cond_limit=1e12):
        self.lifting = lifting
        self.K = np.atleast_2d(K)
        self.P_inv = P_inv
        self.cond_limit = cond_limit
        self._fns = tuple(ob.fn for ob in lifting.observables[1:])
        m, N = self.K.shape
        # (m, m, N) @ z is Kw (I_m kron z) without forming the Kronecker product
        self._Kw = None if Kw is None or not np.any(Kw) else Kw.reshape(m, m, N)
        self._eye = np.eye(m)

    @classmethod
    def of(cls, design, lifting, cond_limit=1e12):
        return cls(lifting, design.K, design.Kw, design.P_inv, cond_limit)

    def lift(self, x):
        """Reduced lift of a single state."""
        return np.array([fn(x) for fn in self._fns])

    def feedback(self, x):
        return self.feedback_of_lift(self.lift(x))

    def value(self, x):
        return self.value_of_lift(self.lift(x))

    def feedback_of_lift(self, z):
        u = self.K @ z
        if self._Kw is None:
            return u
        W = self._eye - self._Kw @ z
        if not np.all(np.isfinite(W)):
            # np.linalg.cond raises on a non-finite matrix; pass the
            # non-finite lift on as u, as a linear design does
            return np.full(u.shape, np.nan)
        cond = np.linalg.cond(W)
        if not np.isfinite(cond) or cond > self.cond_limit:
            raise FeedbackSingularError(
                f"scheduling matrix condition {cond:.3e} exceeds {self.cond_limit:.1e}")
        return np.linalg.solve(W, u)

    def value_of_lift(self, z):
        return float(z @ self.P_inv @ z)

    def value_many(self, X):
        """V at every row of X (d, n), through the checked batch lift.  Each
        row's value is independent of the batch it comes in, but may differ
        from ``value`` in the last bits (see ``matops.quadratic_rows``)."""
        return quadratic_rows(self.lifting.lift_reduced_many(X), self.P_inv)


def feedback(design, lifting, x, cond_limit=1e12):
    """Evaluate the feedback law at a state.

    Linear designs return K z; scheduled designs solve the m x m scheduling
    system and refuse states where it is singular beyond ``cond_limit``.
    """
    loop = ClosedLoop.of(design, lifting, cond_limit)
    return loop.feedback_of_lift(lifting.lift_reduced(x))


def roa_membership(design, lifting, x):
    """(inside?, V(x)) for the certified sublevel set V(x) <= 1."""
    V = ClosedLoop.of(design, lifting).value_of_lift(lifting.lift_reduced(x))
    return V <= 1.0, V


@dataclass(frozen=True)
class Boundary:
    angles: np.ndarray
    radii: np.ndarray
    points: np.ndarray          # closed polyline, shape (resolution + 1, 2)
    open_rays: np.ndarray       # bool mask: ray never crossed within the cap

    @property
    def closed(self):
        return not bool(np.any(self.open_rays))


def _polar_sweep(value_many, r_max, resolution, tol):
    """Boundary value = 1 on ``resolution`` equally spaced rays from the
    origin, all rays advanced in lockstep on batched values.

    ``value_many`` maps states (d, 2) to values (d,) and must be < 1 at the
    origin.  Each ray brackets its first crossing by growing its radius from
    1e-6 by a factor 1.6, then bisects it to |value - 1| <= 1e-9 or a bracket
    of ``tol * max(1, r)``, at most 200 times.  Rays that never cross within
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
        rays = rays[r_hi[rays] - r_lo[rays] > tol * np.maximum(1.0, r_mid)]
    rest = ~open_rays & ~on_value
    radii[rest] = 0.5 * (r_lo[rest] + r_hi[rest])
    pts = radii[:, None] * dirs
    pts = np.vstack([pts, pts[:1]])
    return Boundary(angles=angles, radii=radii, points=pts, open_rays=open_rays)


def roa_boundary_2d(design, lifting, resolution=360, r_max=None, tol=1e-8):
    """Polar sweep of the region-of-attraction boundary for planar states.

    For each angle the unique crossing V = 1 is bracketed and bisected.
    """
    if lifting.n != 2:
        raise ValueError("boundary sweep requires a planar state space")
    if r_max is None:
        r_max = 1e3 * max(1.0, float(np.sqrt(np.linalg.eigvalsh(design.P)[-1])))
    return _polar_sweep(ClosedLoop.of(design, lifting).value_many, r_max,
                        resolution, tol)


def region_boundary_2d(region, lifting, resolution=360, r_max=None, tol=1e-8):
    """Boundary of {x : lift of x lies in the uncertainty region} for planar
    states, by the same polar sweep used for the certified set."""
    from .uncertainty import margins, membership

    if lifting.n != 2:
        raise ValueError("boundary sweep requires a planar state space")
    margin0 = membership(region, np.zeros(region.N))[1]
    if margin0 <= 0.0:
        raise ValueError("origin must lie inside the uncertainty region")
    if r_max is None:
        r_max = 1e3 * max(1.0, float(np.sqrt(region.Rz)))

    def value_many(X):
        return 1.0 - margins(region, lifting.lift_reduced_many(X)) / margin0

    return _polar_sweep(value_many, r_max, resolution, tol)


def polygon_area(points):
    """Shoelace area of a closed polyline."""
    pts = np.asarray(points, dtype=float)
    x, y = pts[:, 0], pts[:, 1]
    return 0.5 * abs(float(np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1])))


@dataclass(frozen=True)
class ContainmentReport:
    ok: bool
    worst_margin: float
    worst_state: np.ndarray
    checked: int
    violations: tuple


def containment_check(design, region, lifting, resolution=180, radial=8,
                      slack=1e-8, boundary=None):
    """Numerically confirm that the lift of every swept region-of-attraction
    state lies in the uncertainty region (the invariance inequality's
    guarantee).  States are taken on the boundary grid and on interior rings;
    candidates that the boundary bisection left marginally outside the
    certified set (V > 1) are pulled back inside, since the guarantee only
    covers the set itself.
    """
    from .uncertainty import margins

    if boundary is None:
        boundary = roa_boundary_2d(design, lifting, resolution=resolution)
    fractions = np.linspace(1.0 / radial, 1.0, radial)
    dirs = np.column_stack([np.cos(boundary.angles), np.sin(boundary.angles)])
    X = ((boundary.radii[:, None] * fractions)[:, :, None]
         * dirs[:, None, :]).reshape(-1, lifting.n)
    value_many = ClosedLoop.of(design, lifting).value_many
    outside = np.arange(len(X))
    for _ in range(60):
        outside = outside[~(value_many(X[outside]) <= 1.0)]
        if not outside.size:
            break
        X[outside] *= 0.999999
    margin = margins(region, lifting.lift_reduced_many(X))
    worst = int(np.argmin(margin))
    violations = tuple((X[i].copy(), float(margin[i]))
                       for i in np.flatnonzero(margin < -slack))
    return ContainmentReport(ok=not violations, worst_margin=float(margin[worst]),
                             worst_state=X[worst].copy(), checked=len(X),
                             violations=violations)


def rescale_to_box(design, lifting, box, resolution=360):
    """Shrink the certified set until it fits inside a state box.

    Returns a design with P scaled by the largest feasible factor <= 1 found
    by a ray sweep (any sublevel set of the certified Lyapunov function is
    itself certified, so shrinking is sound; growing would not be).
    """
    box = np.asarray(box, dtype=float)
    angles = np.linspace(0.0, 2.0 * np.pi, int(resolution), endpoint=False)
    dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    # distance to the box boundary along each ray
    with np.errstate(divide="ignore"):
        t_hi = np.where(dirs > 0, box[:, 1] / dirs, np.inf)
        t_lo = np.where(dirs < 0, box[:, 0] / dirs, np.inf)
    r_box = np.min(np.minimum(t_hi, t_lo), axis=1)
    V = ClosedLoop.of(design, lifting).value_many(r_box[:, None] * dirs)
    beta = min(1.0, float(np.min(V)))
    if beta >= 1.0:
        return design, 1.0
    scaled = replace(design, P=beta * design.P, L=design.L * beta)
    return scaled, float(beta)


def export_boundary_dat(boundary, path):
    """Two whitespace-separated columns (x1 x2), one row per vertex."""
    np.savetxt(path, boundary.points, fmt="%.17g")
