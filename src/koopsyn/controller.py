"""Feedback laws and region-of-attraction geometry from solved designs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .matops import sym


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


def feedback(design, lifting, x, cond_limit=1e12):
    """Evaluate the feedback law at a state.

    Linear designs return K z; scheduled designs solve the m x m scheduling
    system and refuse states where it is singular beyond ``cond_limit``.
    """
    z = lifting.lift_reduced(x)
    u_lin = design.K @ z
    if design.Kw is None or not np.any(design.Kw):
        return u_lin
    m = design.m
    W = np.eye(m) - design.Kw @ np.kron(np.eye(m), z.reshape(-1, 1))
    cond = np.linalg.cond(W)
    if not np.isfinite(cond) or cond > cond_limit:
        raise FeedbackSingularError(
            f"scheduling matrix condition {cond:.3e} exceeds {cond_limit:.1e}")
    return np.linalg.solve(W, u_lin)


def roa_membership(design, lifting, x):
    """(inside?, V(x)) for the certified sublevel set V(x) <= 1."""
    z = lifting.lift_reduced(x)
    V = float(z @ design.P_inv @ z)
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


def _ray_crossing(value_fn, direction, r_max, tol=1e-8, value_tol=1e-9):
    """First radius r with value_fn(r * direction) = 1 along a ray.

    value_fn(0) must be < 1.  Returns (radius, crossed?).  Bracketing grows
    geometrically; bisection then polishes to |value - 1| <= value_tol or
    radius tolerance ``tol``.
    """
    r_lo, v_lo = 0.0, 0.0
    r_hi = min(1e-6, r_max)
    crossed = False
    while r_hi <= r_max:
        v = value_fn(r_hi * direction)
        if v >= 1.0:
            crossed = True
            break
        r_lo, v_lo = r_hi, v
        r_hi *= 1.6
    if not crossed:
        return r_max, False
    for _ in range(200):
        r_mid = 0.5 * (r_lo + r_hi)
        v = value_fn(r_mid * direction)
        if abs(v - 1.0) <= value_tol:
            return r_mid, True
        if v < 1.0:
            r_lo = r_mid
        else:
            r_hi = r_mid
        if r_hi - r_lo <= tol * max(1.0, r_mid):
            break
    return 0.5 * (r_lo + r_hi), True


def _polar_sweep(value_fn, r_max, resolution, tol):
    """Boundary value_fn = 1 on ``resolution`` equally spaced rays from the
    origin; rays that never cross within ``r_max`` are flagged open and
    clipped at the cap rather than silently dropped."""
    angles = np.linspace(0.0, 2.0 * np.pi, int(resolution), endpoint=False)
    radii = np.empty(angles.size)
    open_rays = np.zeros(angles.size, dtype=bool)
    for i, th in enumerate(angles):
        d = np.array([np.cos(th), np.sin(th)])
        r, crossed = _ray_crossing(value_fn, d, r_max, tol=tol)
        radii[i] = r
        open_rays[i] = not crossed
    pts = radii[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
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

    def value(x):
        return roa_membership(design, lifting, x)[1]

    return _polar_sweep(value, r_max, resolution, tol)


def region_boundary_2d(region, lifting, resolution=360, r_max=None, tol=1e-8):
    """Boundary of {x : lift of x lies in the uncertainty region} for planar
    states, by the same polar sweep used for the certified set."""
    from .uncertainty import membership

    if lifting.n != 2:
        raise ValueError("boundary sweep requires a planar state space")
    margin0 = membership(region, np.zeros(region.N))[1]
    if margin0 <= 0.0:
        raise ValueError("origin must lie inside the uncertainty region")
    if r_max is None:
        r_max = 1e3 * max(1.0, float(np.sqrt(region.Rz)))

    def value(x):
        return 1.0 - membership(region, lifting.lift_reduced(x))[1] / margin0

    return _polar_sweep(value, r_max, resolution, tol)


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
    from .uncertainty import membership

    if boundary is None:
        boundary = roa_boundary_2d(design, lifting, resolution=resolution)
    fractions = np.linspace(1.0 / radial, 1.0, radial)
    worst = np.inf
    worst_state = np.zeros(lifting.n)
    violations = []
    checked = 0
    for th, r in zip(boundary.angles, boundary.radii):
        d = np.array([np.cos(th), np.sin(th)])
        for frac in fractions:
            x = frac * r * d
            for _ in range(60):
                if roa_membership(design, lifting, x)[1] <= 1.0:
                    break
                x = 0.999999 * x
            _, margin = membership(region, lifting.lift_reduced(x))
            checked += 1
            if margin < worst:
                worst = margin
                worst_state = x
            if margin < -slack:
                violations.append((x.copy(), margin))
    return ContainmentReport(ok=not violations, worst_margin=float(worst),
                             worst_state=worst_state, checked=checked,
                             violations=tuple(violations))


def rescale_to_box(design, lifting, box, resolution=360):
    """Shrink the certified set until it fits inside a state box.

    Returns a design with P scaled by the largest feasible factor <= 1 found
    by a ray sweep (any sublevel set of the certified Lyapunov function is
    itself certified, so shrinking is sound; growing would not be).
    """
    box = np.asarray(box, dtype=float)
    angles = np.linspace(0.0, 2.0 * np.pi, int(resolution), endpoint=False)
    beta = 1.0
    for th in angles:
        d = np.array([np.cos(th), np.sin(th)])
        # distance to the box boundary along d
        with np.errstate(divide="ignore"):
            t_hi = np.where(d > 0, box[:, 1] / d, np.inf)
            t_lo = np.where(d < 0, box[:, 0] / d, np.inf)
        r_box = float(np.min(np.minimum(t_hi, t_lo)))
        _, V = roa_membership(design, lifting, r_box * d)
        beta = min(beta, V)
    if beta >= 1.0:
        return design, 1.0
    scaled = replace(design, P=beta * design.P, L=design.L * beta)
    return scaled, float(beta)


def export_boundary_dat(boundary, path):
    """Two whitespace-separated columns (x1 x2), one row per vertex."""
    np.savetxt(path, boundary.points, fmt="%.17g")
