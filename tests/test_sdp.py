import dataclasses

import numpy as np
import pytest

from koopsyn import lmi, sdp
from koopsyn.lmi import AffineMatrixExpr, Constraint, SynthesisProblem, VariableSpec
from koopsyn.matops import smat, svec

from conftest import constraint, solve_design

def scalar_problem(*exprs_and_margins, objective=None):
    v = (VariableSpec("p", "scalar", ()),)
    cons = tuple(Constraint(f"c{i}", AffineMatrixExpr.from_function(fn, v), m)
                 for i, (fn, m) in enumerate(exprs_and_margins))
    return SynthesisProblem(variables=v, constraints=cons, N=1, m=1, theorem=1,
                            epsilon=1e-6, objective=objective)


class TestLower:
    def test_scalar_block(self):
        prob = scalar_problem((lambda a: a["p"] - 1e-6, 0.0))
        program = sdp.lower(prob)
        # a feasibility problem: p, then the phase-I margin and its cap
        assert program.phase_one and program.nvars == 1
        assert program.c.tolist() == [0.0, -1.0]
        assert [name for name, *_ in program.blocks] == ["c0", "_t_cap"]
        assert program.blocks[0][1].shape == (1, 1)

    def test_objective_program_has_no_margin(self):
        prob = scalar_problem((lambda a: a["p"] - 1e-6, 0.0),
                              objective=("maximize", "p"))
        program = sdp.lower(prob)
        assert not program.phase_one and program.nvars == 1
        assert program.c.tolist() == [-1.0]
        assert [name for name, *_ in program.blocks] == ["c0"]

    def test_variable_count_theorem1(self, surrogate_fitted, region_cooked):
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        assert sdp.lower(prob).nvars == 6 + 3 + 3

    def test_feasibility_lowers_to_phase_one(self, surrogate_fitted, region_cooked):
        # the phase-I program built by hand from the plain lowering (the same
        # problem with an objective on a variable): the margin is the last
        # variable, -I in every block, and the cap is the last block
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        plain = sdp.lower(dataclasses.replace(prob, objective=("minimize", "tau")))
        p = plain.nvars
        expected = [(name, F0, np.concatenate([Fi, -np.eye(F0.shape[0])[None]]), m)
                    for name, F0, Fi, m in plain.blocks]
        cap = np.zeros((p + 1, 1, 1))
        cap[p] = -1.0
        expected.append(("_t_cap", np.array([[0.5]]), cap, 0.0))
        program = sdp.lower(prob, t_cap=0.5)
        assert program.phase_one and program.nvars == p
        assert np.array_equal(program.c, -np.eye(p + 1)[p])
        assert len(program.blocks) == len(expected)
        for got, want in zip(program.blocks, expected):
            assert got[0] == want[0] and got[3] == want[3]
            assert np.array_equal(got[1], want[1])
            assert np.array_equal(got[2], want[2])

    def test_svec_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (1, 2, 3, 6):
            M = rng.normal(size=(n, n))
            M = 0.5 * (M + M.T)
            back = smat(svec(M), n)
            assert np.max(np.abs(back - M)) <= 1e-14 * max(1.0, np.max(np.abs(M)))

    def test_lowering_linearity(self, surrogate_fitted, region_cooked):
        # each block is F(z) - t I with t the phase-I margin, last in z
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        program = sdp.lower(prob)
        rng = np.random.default_rng(1)
        names = [c.name for c in prob.constraints]
        for _ in range(20):
            z = rng.normal(size=program.nvars + 1)
            assignment = program.split(z)
            for (name, F0, Fi, margin), cname in zip(program.blocks, names):
                direct = (F0 + np.tensordot(z, Fi, axes=1)
                          + (margin + z[-1]) * np.eye(F0.shape[0]))
                via_expr, _ = lmi.evaluate(constraint(prob, cname), assignment,
                                           prob.variables)
                scale = max(1.0, np.max(np.abs(direct)))
                assert np.max(np.abs(direct - via_expr)) <= 1e-12 * scale

    def test_split_bijective(self, surrogate_fitted, region_cooked):
        prob = lmi.build_theorem2(surrogate_fitted, region_cooked)
        program = sdp.lower(prob)
        rng = np.random.default_rng(2)
        z = rng.normal(size=program.nvars)
        assignment = program.split(z)
        z2 = np.concatenate([v.components(assignment[v.name])
                             for v, _ in program.varmap])
        assert np.max(np.abs(z - z2)) <= 1e-14


class TestSolve:
    def test_trivially_feasible(self):
        prob = scalar_problem((lambda a: a["p"] - 1.0, 0.0))
        asg, rep = sdp.solve_problem(prob)
        assert rep.status == "feasible"
        assert asg["p"] >= 1.0

    def test_trivially_infeasible(self):
        prob = scalar_problem((lambda a: a["p"] - 1.0, 0.0),
                              (lambda a: -a["p"] - 1.0, 0.0))
        asg, rep = sdp.solve_problem(prob)
        assert rep.status == "infeasible_certificate"
        assert rep.diagnostics["t_star"] == pytest.approx(-1.0, abs=1e-6)

    def test_objective_solve(self):
        prob = scalar_problem((lambda a: a["p"] - 1.0, 0.0),
                              (lambda a: 4.0 - a["p"], 0.0),
                              objective=("maximize", "p"))
        asg, rep = sdp.solve_problem(prob)
        assert rep.status == "feasible"
        assert asg["p"] == pytest.approx(4.0, abs=1e-6)

    def test_planar_design_fast(self, surrogate_fitted, region_cooked):
        import time

        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        t0 = time.monotonic()
        asg, rep = sdp.solve_problem(prob)
        assert rep.status == "feasible"
        assert time.monotonic() - t0 < 10.0

    def test_deterministic(self, surrogate_fitted, region_cooked):
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        a1, _ = sdp.solve_problem(prob)
        a2, _ = sdp.solve_problem(prob)
        assert np.array_equal(a1["P"], a2["P"])
        assert np.array_equal(a1["L"], a2["L"])

    def test_feasible_reports_nonnegative_block_eigs(self, surrogate_fitted,
                                                     region_cooked):
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        assignment, _ = sdp.solve_problem(prob)
        margins = sdp.verify(prob, assignment).margins
        assert all(eig >= -1e-7 for eig, _ in margins.values())


class TestVerify:
    def test_feasible_passes(self, surrogate_fitted, region_cooked):
        _, prob, asg = solve_design(surrogate_fitted, region_cooked, 1)
        assert sdp.verify(prob, asg).ok

    def test_perturbed_solution_fails(self, surrogate_fitted, region_cooked):
        design, prob, asg = solve_design(surrogate_fitted, region_cooked, 1,
                                         maximize_roa=False)
        w, V = np.linalg.eigh(asg["P"])
        bad = dict(asg)
        eps = prob.epsilon
        bad["P"] = asg["P"] - (w[0] + 2 * eps) * np.outer(V[:, 0], V[:, 0])
        assert not sdp.verify(prob, bad).ok

    def test_solver_agnostic(self, surrogate_fitted, region_cooked):
        prob = lmi.build_theorem1(surrogate_fitted, region_cooked)
        for opts in (sdp.SolverOptions(t_cap=1.0), sdp.SolverOptions(t_cap=0.1)):
            asg, rep = sdp.solve_problem(prob, opts)
            assert rep.status == "feasible"
            assert rep.diagnostics["t_star"] <= opts.t_cap * (1.0 + 1e-9)
            assert sdp.verify(prob, asg).ok
