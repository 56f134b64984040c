"""Conic lowering of synthesis problems and their SDP solve.

The lowering scalarizes all decision variables (symmetric matrices via the
upper-triangle/sqrt(2) convention) and emits one PSD block per constraint
with the required margin folded into the constant term.  Programs are
solved by the bundled dense interior-point method (no external
dependency).  Every feasible answer is re-checked against the original
affine expressions by an eigenvalue verifier that does not share code with
the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ipm, lmi


class InfeasibleError(RuntimeError):
    """Raised by pipeline steps when a design problem has no solution."""


class VerificationError(RuntimeError):
    """Raised by pipeline steps when the independent verifier rejects a
    solution that the solver reported feasible."""


@dataclass(frozen=True)
class ConicProgram:
    """min c^T z subject to per-block F0 + sum_i z_i Fi >= 0."""

    c: np.ndarray
    blocks: tuple            # (name, F0, Fi, margin); F0 already margin-shifted
    varmap: tuple            # (name, kind, shape, offset, ncomp)
    nvars: int

    def split(self, z):
        """Devectorize a solution vector into an assignment dict."""
        out = {}
        for name, kind, shape, off, ncomp in self.varmap:
            v = lmi.VariableSpec(name, kind, shape)
            out[name] = v.from_components(np.asarray(z[off:off + ncomp]))
        return out


def lower(problem):
    """Scalarize a SynthesisProblem into a ConicProgram.

    The variable mapping is bijective; constraint count and order are
    preserved.
    """
    varmap = []
    off = 0
    for v in problem.variables:
        varmap.append((v.name, v.kind, v.shape, off, v.ncomp))
        off += v.ncomp
    nvars = off
    blocks = []
    for con in problem.constraints:
        dim = con.expr.dim
        F0 = con.expr.constant - con.margin * np.eye(dim)
        Fi = np.zeros((nvars, dim, dim))
        for name, kind, shape, o, ncomp in varmap:
            if name in con.expr.coeffs:
                Fi[o:o + ncomp] = con.expr.coeffs[name]
        blocks.append((con.name, F0, Fi, con.margin))
    c = np.zeros(nvars)
    if problem.objective is not None:
        sense, vname = problem.objective
        o = next(o for (name, _, _, o, _) in varmap if name == vname)
        c[o] = -1.0 if sense == "maximize" else 1.0
    return ConicProgram(c=c, blocks=tuple(blocks), varmap=tuple(varmap),
                        nvars=nvars)


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-8
    max_iters: int = 200
    t_cap: float = 1.0


@dataclass
class SolveReport:
    status: str                   # feasible | infeasible_certificate |
    #                               numerical_failure | iteration_limit
    assignment: dict
    z: np.ndarray
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def _wrap_feasibility(program, t_cap):
    """Augment with a margin variable t: maximize t s.t. F(z) - t I >= 0 and
    t <= t_cap.  Strictly feasible for any z with t small enough, so the
    phase-I problem is always solvable; t* > 0 certifies feasibility and a
    converged t* < 0 certifies infeasibility."""
    p = program.nvars
    blocks = []
    for name, F0, Fi, margin in program.blocks:
        dim = F0.shape[0]
        Fi2 = np.concatenate([Fi, -np.eye(dim)[None]], axis=0)
        blocks.append((name, F0, Fi2, margin))
    cap = (
        "_t_cap",
        np.array([[float(t_cap)]]),
        np.concatenate([np.zeros((p, 1, 1)), -np.ones((1, 1, 1))], axis=0),
        0.0,
    )
    c = np.concatenate([np.zeros(p), [-1.0]])
    return ConicProgram(c=c, blocks=tuple(blocks) + (cap,),
                        varmap=program.varmap, nvars=p + 1)


def solve(program, options=None):
    """Solve a ConicProgram with the bundled interior-point method.

    A zero objective is treated as a feasibility question and answered via
    the capped max-margin phase-I wrap; never raises on solver divergence.
    The solve consumes ``program``: the interior-point method scales its
    coefficient stacks in place, and they are left read-only, so solving
    the same program again raises ValueError (lower the problem again).
    ``diagnostics`` records the size of the solve: ``vars``, the number of
    decision variables (without the phase-I margin), and ``largest_block``.
    """
    stacks = [Fi for _, _, Fi, _ in program.blocks]
    if not all(Fi.flags.writeable for Fi in stacks):
        raise ValueError("this program was consumed by an earlier solve, "
                         "which scales its coefficients in place; lower the "
                         "problem again")
    options = options or SolverOptions()
    feasibility = not np.any(program.c)
    solved = _wrap_feasibility(program, options.t_cap) if feasibility else program
    res = ipm.solve_sdp(solved.c, [(F0, Fi) for (_, F0, Fi, _) in solved.blocks],
                        tol=options.tol, max_iters=options.max_iters)
    for Fi in stacks:
        Fi.flags.writeable = False
    info = {
        "primal_infeas": res.primal_infeas,
        "dual_infeas": res.dual_infeas,
        "rel_gap": res.rel_gap,
        "vars": program.nvars,
        "largest_block": max(F0.shape[0] for _, F0, _, _ in solved.blocks),
    }
    z, status = res.z, res.status
    if feasibility:
        z, t_star = z[:-1], float(z[-1])
        info["t_star"] = t_star
    if status == "optimal":
        status = ("feasible" if not feasibility or t_star > 0.0
                  else "infeasible_certificate")
    return SolveReport(status=status, assignment=program.split(z), z=z,
                       iterations=res.iterations, diagnostics=info)


def solve_problem(problem, options=None):
    """Convenience wrapper: lower, solve, return (assignment, report)."""
    report = solve(lower(problem), options)
    return report.assignment, report


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    margins: dict          # name -> (min eigenvalue, required margin)
    slack: float = 1e-7

    def worst(self):
        return min(eig - req for eig, req in self.margins.values())


def verify(problem, assignment, slack=1e-7):
    """Re-check every constraint of the original problem at an assignment.

    Uses the affine-expression evaluator and a dense eigenvalue solve, so it
    is independent of any solver internals.  A constraint passes when its
    minimum eigenvalue is at least (required margin - slack).
    """
    margins = {}
    ok = True
    for con in problem.constraints:
        _, lam_min = lmi.evaluate(con, assignment, problem.variables)
        margins[con.name] = (lam_min, con.margin)
        if lam_min < con.margin - slack:
            ok = False
    return VerificationReport(ok=ok, margins=margins, slack=slack)
