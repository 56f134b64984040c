"""Affine matrix-inequality assembly for the feedback-synthesis designs.

Constraints are represented as symmetric matrix-valued affine functions of
the decision variables, materialized by probing a block-formula callback:
once at the zero assignment, then once per variable with that variable's
whole component basis stacked along a leading axis.  Every block formula is
therefore written for stacks of matrices (transposes swap the last two
axes, blocks are assembled by the broadcasting ``matops.block``).  Two
designs are provided, both from one stability formula: the gain-scheduled
multi-input feedback (theorem 2) and, as its special case with m = 1 and no
scheduling gain, the single-input linear lift feedback (theorem 1).  Each
is paired with the sublevel-set invariance inequality that confines the
certified region inside the uncertainty region.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .matops import block, kron, mT, smat, svec, sym, sym_dim


@dataclass(frozen=True)
class VariableSpec:
    name: str
    kind: str            # "sym" | "full" | "scalar"
    shape: tuple

    @property
    def ncomp(self):
        if self.kind == "sym":
            return sym_dim(self.shape[0])
        if self.kind == "full":
            return int(np.prod(self.shape))
        return 1

    def zero(self):
        if self.kind == "scalar":
            return 0.0
        return np.zeros(self.shape)

    def basis(self):
        """The value at every unit component vector, stacked along a leading
        axis: (ncomp, *shape), a scalar as a (1, 1, 1) stack."""
        E = np.eye(self.ncomp)
        if self.kind == "sym":
            return smat(E, self.shape[0])
        return E.reshape((self.ncomp,) + (self.shape or (1, 1)))

    def components(self, value):
        if self.kind == "sym":
            return svec(value)
        if self.kind == "full":
            return np.asarray(value, dtype=float).ravel()
        return np.array([float(value)])

    def from_components(self, vec):
        if self.kind == "sym":
            return smat(vec, self.shape[0])
        if self.kind == "full":
            return np.asarray(vec, dtype=float).reshape(self.shape)
        return float(vec[0])


class AffineMatrixExpr:
    """Symmetric matrix-valued affine function of named decision variables."""

    def __init__(self, dim, constant, coeffs):
        self.dim = int(dim)
        self.constant = np.asarray(constant, dtype=float)
        self.coeffs = {k: np.asarray(v, dtype=float) for k, v in coeffs.items()}

    @staticmethod
    def from_function(fn, variables):
        """Materialize an affine block formula from its value at the zero
        assignment and at every unit basis element of every variable.

        ``fn`` maps an assignment to a matrix.  Scalars are passed as 1x1
        matrices.  It is called once at the zero assignment, then once per
        variable with that variable's basis stacked along a leading axis
        (``VariableSpec.basis``) and every other variable at zero, so it must
        broadcast over a leading axis."""
        zero = {v.name: np.atleast_2d(v.zero()) for v in variables}
        C0 = sym(np.asarray(fn(zero), dtype=float))
        dim = C0.shape[0]
        coeffs = {}
        for v in variables:
            mats = np.empty((v.ncomp, dim, dim))
            mats[...] = sym(np.asarray(fn({**zero, v.name: v.basis()}),
                                       dtype=float)) - C0
            coeffs[v.name] = mats
        return AffineMatrixExpr(dim=dim, constant=C0, coeffs=coeffs)

    def evaluate(self, assignment, variables):
        value = self.constant.copy()
        for v in variables:
            if v.name not in self.coeffs:
                continue
            if v.name not in assignment:
                raise KeyError(f"assignment is missing variable '{v.name}'")
            comp = v.components(assignment[v.name])
            value += np.tensordot(comp, self.coeffs[v.name], axes=1)
        return value

    def data_magnitude(self):
        """Largest absolute entry over the constant and all coefficients."""
        mags = [np.max(np.abs(self.constant))] if self.constant.size else [0.0]
        for M in self.coeffs.values():
            if M.size:
                mags.append(np.max(np.abs(M)))
        return float(max(mags))


@dataclass(frozen=True)
class Constraint:
    name: str
    expr: AffineMatrixExpr
    margin: float          # required minimum eigenvalue (0 for non-strict)


@dataclass(frozen=True)
class SynthesisProblem:
    variables: tuple
    constraints: tuple
    N: int
    m: int
    theorem: int
    epsilon: float
    objective: tuple | None = None   # ("maximize", var name) or None

    def variable(self, name):
        for v in self.variables:
            if v.name == name:
                return v
        raise KeyError(name)

    def manifest(self):
        """Audit description: constraints, dimensions, margins, variables."""
        return {
            "theorem": self.theorem,
            "N": self.N,
            "m": self.m,
            "epsilon": self.epsilon,
            "objective": list(self.objective) if self.objective else None,
            "variables": [
                {"name": v.name, "kind": v.kind, "shape": list(v.shape)}
                for v in self.variables
            ],
            "constraints": [
                {"name": c.name, "dim": c.expr.dim, "margin": c.margin}
                for c in self.constraints
            ],
        }


def evaluate(expr_or_constraint, assignment, variables):
    """Dense value of an affine expression plus its minimum eigenvalue."""
    expr = getattr(expr_or_constraint, "expr", expr_or_constraint)
    value = expr.evaluate(assignment, variables)
    lam_min = float(np.linalg.eigvalsh(value)[0])
    return value, lam_min


def _positivity_constraints(variables, names, epsilon):
    return [Constraint(name=f"{name}_pos",
                       expr=AffineMatrixExpr.from_function(lambda a, n=name: a[n],
                                                           variables),
                       margin=epsilon)
            for name in names]


def _invariance_expr(variables, region, N):
    Sz_row = region.Sz.reshape(1, N)
    inv_Qz = region.inv_Qz

    def fn(a):
        P, nu = a["P"], a["nu"]
        b21 = Sz_row @ P
        return block([
            [P,            mT(b21),             P,             np.zeros((N, 1))],
            [b21,          nu * region.Rz,      np.zeros((1, N)), nu],
            [P,            np.zeros((N, 1)),    -nu * inv_Qz,  np.zeros((N, 1))],
            [np.zeros((1, N)), nu,              np.zeros((1, N)), [[1.0]]],
        ])

    return AffineMatrixExpr.from_function(fn, variables)


def build_theorem1(surrogate, region, epsilon=1e-6):
    """Single-input design: linear feedback on the reduced lift.

    The gain-scheduled LMI of :func:`build_theorem2` with m = 1 and the
    scheduling gain ``Lw`` fixed at zero, so that ``Lam`` is 1x1: constraint
    ``stability`` is the strict 4x4 block inequality with block rows
    (N, 1, N+1, N); ``invariance`` keeps the certified sublevel set inside
    the uncertainty region.
    """
    if surrogate.m != 1:
        raise ValueError("this design handles single-input surrogates only")
    return _build(surrogate, region, epsilon, scheduled=False)


def build_theorem2(surrogate, region, epsilon=1e-6):
    """Multi-input gain-scheduled design.

    The strict constraint ``stability`` has block rows (N, m, N+m, N*m)
    with the Kronecker-structured multiplier blocks; ``invariance`` keeps
    the certified sublevel set inside the uncertainty region.
    """
    return _build(surrogate, region, epsilon, scheduled=True)


def build_problem(theorem, surrogate, region, epsilon=1e-6):
    """The design problem of ``theorem``, 1 or 2."""
    if theorem not in (1, 2):
        raise ValueError("theorem must be 1 or 2")
    build = build_theorem1 if theorem == 1 else build_theorem2
    return build(surrogate, region, epsilon)


def _build(surrogate, region, epsilon, scheduled):
    """Both designs from one stability block formula, each with a symmetric
    multiplier ``Lam``: the scheduled one solves for ``Lw``, the unscheduled
    one holds it at zero."""
    if surrogate.c_r is None:
        raise ValueError("surrogate needs a remainder bound c_r")
    N, m = surrogate.N, surrogate.m
    A, B0, Bt = surrogate.A, surrogate.B0, surrogate.B_tilde
    crinv2 = surrogate.c_r ** -2.0
    tS_col = region.tS.reshape(N, 1)
    tR = region.tR
    inv_tQ = region.inv_tQ
    Im = np.eye(m)
    Im_tS_col = kron(Im, tS_col)
    Im_tS_row = kron(Im, tS_col.T)
    Lw_zero = np.zeros((m, N * m))
    scheduling = (VariableSpec("Lw", "full", (m, N * m)),) if scheduled else ()
    variables = (VariableSpec("P", "sym", (N, N)), VariableSpec("L", "full", (m, N)),
                 *scheduling, VariableSpec("Lam", "sym", (m, m)),
                 VariableSpec("tau", "scalar", ()), VariableSpec("nu", "scalar", ()))

    def stability(a):
        P, L, Lam, tau = a["P"], a["L"], a["Lam"], a["tau"]
        Lw = a.get("Lw", Lw_zero)
        X = A @ P + B0 @ L
        b11 = -X - mT(X) - tau * np.eye(N)
        b21 = -L - kron(Lam, tS_col.T) @ Bt.T - Im_tS_row @ mT(Lw) @ B0.T
        W = Lw @ Im_tS_col
        b22 = kron(Lam, np.array([[tR]])) - W - mT(W)
        b31 = -block([[P], [L]])
        b32 = -block([[np.zeros((N, N * m))], [Lw]]) @ Im_tS_col
        b33 = 0.5 * tau * crinv2 * np.eye(N + m)
        b41 = kron(Lam, np.eye(N)) @ Bt.T + mT(Lw) @ B0.T
        b42 = mT(Lw)
        # sign chosen so the Schur reduction factors through the closed-loop
        # channel basis (the scheduling gain feeds the remainder input v2
        # with +Kw); the opposite sign breaks that factorization
        b43 = block([[np.zeros((N * m, N)), mT(Lw)]])
        b44 = -kron(Lam, inv_tQ)
        return block([
            [b11,   mT(b21), mT(b31), mT(b41)],
            [b21,   b22,     mT(b32), mT(b42)],
            [b31,   b32,     b33,     mT(b43)],
            [b41,   b42,     b43,     b44],
        ])

    stability_expr = AffineMatrixExpr.from_function(stability, variables)
    eps_stab = epsilon * max(1.0, stability_expr.data_magnitude())
    # each theorem keeps its order: the IPM's cone follows it, and so does the design
    positive = ("P", "Lam", "tau", "nu") if scheduled else ("P", "tau", "Lam", "nu")
    constraints = (
        Constraint("stability", stability_expr, eps_stab),
        Constraint("invariance", _invariance_expr(variables, region, N), 0.0),
        *_positivity_constraints(variables, positive, epsilon),
    )
    return SynthesisProblem(variables=variables, constraints=constraints,
                            N=N, m=m, theorem=2 if scheduled else 1,
                            epsilon=epsilon)


def drop_constraint(problem, name):
    """Copy of the problem without the named constraint."""
    kept = tuple(c for c in problem.constraints if c.name != name)
    if len(kept) == len(problem.constraints):
        raise KeyError(name)
    return replace(problem, constraints=kept)


def add_trace_cap(problem, var_name, cap):
    """Append the scalar constraint cap - trace(var) >= 0."""
    v = problem.variable(var_name)

    def fn(a):
        return cap - np.trace(a[var_name], axis1=-2, axis2=-1)[..., None, None]

    expr = AffineMatrixExpr.from_function(fn, problem.variables)
    extra = Constraint(f"trace_cap_{var_name}", expr, 0.0)
    return replace(problem, constraints=problem.constraints + (extra,))


def add_roa_objective(problem):
    """Extension beyond the base feasibility design: maximize t subject to
    P >= t I, pushing the certified sublevel set outward."""
    t = VariableSpec("t_roa", "scalar", ())
    variables = problem.variables + (t,)

    def fn(a):
        P = a["P"]
        return P - a["t_roa"] * np.eye(P.shape[-1])

    expr = AffineMatrixExpr.from_function(fn, variables)
    extra = Constraint("roa_radius", expr, 0.0)
    return replace(problem, variables=variables,
                   constraints=problem.constraints + (extra,),
                   objective=("maximize", "t_roa"))


# -- post-solve verification helpers ------------------------------------


def primal_certificate(surrogate, region, design):
    """Dualized certificate at a solved design.

    Assembles the inverse-multiplier quadratic form on the complementary
    uncertainty-channel basis; by the inertia of the inverse middle matrix
    the form is negative definite exactly when the solved synthesis
    inequality holds, so the NEGATED matrix is returned and passing means
    its minimum eigenvalue is positive.  Independent of the solver.
    """
    from .uncertainty import multiplier

    N, m = surrogate.N, surrogate.m
    P_inv = design.P_inv
    A, B0, Bt = surrogate.A, surrogate.B0, surrogate.B_tilde
    K, Lam = design.K, design.Lam
    # a theorem-1 design is the m = 1 case with Kw = 0
    Kw = np.zeros((m, N * m)) if design.Kw is None else design.Kw
    A_K = A + B0 @ K
    B_Kw = Bt + B0 @ Kw
    Pi_D = multiplier(region, np.linalg.inv(Lam))
    nd = m * (N + 1)
    nr = 2 * N + m
    zero = np.zeros
    mid = block([
        [zero((N, N)), P_inv, zero((N, nd)), zero((N, nr))],
        [P_inv, zero((N, N)), zero((N, nd)), zero((N, nr))],
        [zero((nd, 2 * N)), Pi_D, zero((nd, nr))],
        [zero((nr, 2 * N)), zero((nr, nd)), _pi_r(N, m, surrogate.c_r) / design.tau],
    ])
    psi_t = block([
        [np.eye(N), A_K.T, zero((N, m * N)), K.T, zero((N, N)),
         np.hstack([np.eye(N), K.T])],
        [zero((m * N, N)), B_Kw.T, np.eye(m * N), Kw.T, zero((m * N, N)),
         np.hstack([zero((m * N, N)), Kw.T])],
        [zero((N, N)), np.eye(N), zero((N, m * N)), zero((N, m)), np.eye(N),
         zero((N, N + m))],
    ])
    G = -sym(psi_t @ mid @ psi_t.T)
    # definiteness is congruence-invariant; Jacobi equilibration keeps the
    # decision out of roundoff when P is badly spread
    d = np.sqrt(np.abs(np.diag(G)))
    d[d == 0.0] = 1.0
    G_eq = G / d[:, None] / d[None, :]
    return G, float(np.linalg.eigvalsh(sym(G_eq))[0])


def _pi_r(N, m, c_r):
    """Static multiplier encoding the proportional remainder bound."""
    return block([
        [-np.eye(N), np.zeros((N, N + m))],
        [np.zeros((N + m, N)), 2.0 * c_r ** 2 * np.eye(N + m)],
    ])
