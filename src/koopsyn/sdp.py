"""Conic lowering of synthesis problems and their SDP solve.

The lowering scalarizes all decision variables (symmetric matrices via the
upper-triangle/sqrt(2) convention) and emits one PSD block per constraint
with the required margin folded into the constant term; a feasibility
problem is lowered as its phase-I program.  Programs are
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
class SolverOptions:
    tol: float = 1e-8
    max_iters: int = 200
    t_cap: float = 1.0


@dataclass(frozen=True)
class ConicProgram:
    """min c^T z subject to per-block F0 + sum_i z_i Fi >= 0.

    A phase-I program (``phase_one``) has one more variable than its
    ``nvars`` decision variables: the margin t, last in z."""

    c: np.ndarray
    blocks: tuple            # (name, F0, Fi, margin); F0 already margin-shifted
    varmap: tuple            # (VariableSpec, offset)
    nvars: int               # decision variables, without the phase-I margin
    phase_one: bool = False

    def split(self, z):
        """Devectorize a solution vector into an assignment dict."""
        return {v.name: v.from_components(np.asarray(z[off:off + v.ncomp]))
                for v, off in self.varmap}


def lower(problem, t_cap=SolverOptions.t_cap):
    """Scalarize a SynthesisProblem into a ConicProgram.

    The variable mapping is bijective; constraint count and order are
    preserved.  A problem without an objective is lowered as its phase-I
    program: maximize a margin t (the last variable) s.t. F(z) - t I >= 0 in
    every block and t <= ``t_cap`` (the last block, ``_t_cap``).  It is
    strictly feasible for t small enough, so it always has a solution;
    t* > 0 certifies feasibility and a converged t* < 0 infeasibility.
    """
    varmap, nvars = [], 0
    for v in problem.variables:
        varmap.append((v, nvars))
        nvars += v.ncomp
    phase_one = problem.objective is None
    p = nvars + phase_one
    blocks = []
    for con in problem.constraints:
        dim = con.expr.dim
        F0 = con.expr.constant - con.margin * np.eye(dim)
        Fi = np.zeros((p, dim, dim))
        for v, o in varmap:
            if v.name in con.expr.coeffs:
                Fi[o:o + v.ncomp] = con.expr.coeffs[v.name]
        if phase_one:
            Fi[nvars] = -np.eye(dim)
        blocks.append((con.name, F0, Fi, con.margin))
    c = np.zeros(p)
    if phase_one:
        cap = np.zeros((p, 1, 1))
        cap[nvars] = -1.0
        blocks.append(("_t_cap", np.array([[float(t_cap)]]), cap, 0.0))
        c[nvars] = -1.0
    else:
        sense, vname = problem.objective
        o = next(o for v, o in varmap if v.name == vname)
        c[o] = -1.0 if sense == "maximize" else 1.0
    return ConicProgram(c=c, blocks=tuple(blocks), varmap=tuple(varmap),
                        nvars=nvars, phase_one=phase_one)


@dataclass
class SolveReport:
    status: str                   # feasible | infeasible_certificate |
    #                               numerical_failure | iteration_limit
    assignment: dict
    z: np.ndarray
    iterations: int
    diagnostics: dict = field(default_factory=dict)


def solve(program, options=None):
    """Solve a ConicProgram with the bundled interior-point method; never
    raises on solver divergence.

    A phase-I program's margin is stripped from ``z`` and reported as
    ``t_star``; it is ``feasible`` when t* > 0 and ``infeasible_certificate``
    otherwise (``options.t_cap`` acts when the problem is lowered).  The
    solve consumes ``program``: the interior-point method scales its
    coefficient stacks in place and leaves them read-only, so solving the
    same program again raises ValueError (lower the problem again).
    ``diagnostics`` holds what ``design_log.json`` records of the solve: the
    final residuals, its size (``vars``, the number of decision variables
    without the phase-I margin, and ``largest_block``) and, for phase I,
    ``t_star``.
    """
    options = options or SolverOptions()
    res = ipm.solve_sdp(program.c, [(F0, Fi) for _, F0, Fi, _ in program.blocks],
                        tol=options.tol, max_iters=options.max_iters)
    info = {
        "primal_infeas": res.primal_infeas,
        "dual_infeas": res.dual_infeas,
        "rel_gap": res.rel_gap,
        "vars": program.nvars,
        "largest_block": max(F0.shape[0] for _, F0, _, _ in program.blocks),
    }
    z, status = res.z, res.status
    if program.phase_one:
        z, t_star = z[:-1], float(z[-1])
        info["t_star"] = t_star
    if status == "optimal":
        status = ("feasible" if not program.phase_one or t_star > 0.0
                  else "infeasible_certificate")
    return SolveReport(status=status, assignment=program.split(z), z=z,
                       iterations=res.iterations, diagnostics=info)


def solve_problem(problem, options=None):
    """Convenience wrapper: lower, solve, return (assignment, report)."""
    options = options or SolverOptions()
    report = solve(lower(problem, options.t_cap), options)
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
