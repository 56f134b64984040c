import json

import numpy as np
import pytest

from koopsyn import controller, lmi, uncertainty
from koopsyn.edmd import Surrogate
from koopsyn.lifting import Lifting, poly
from koopsyn.matops import sym

from conftest import (EXACT_A, EXACT_B0, constraint, matches_theorem1_reference,
                      solve_design)


@pytest.fixture(scope="module")
def stressed_pair():
    """Single-input surrogate with nonzero bilinear channel and a region with
    offset, to exercise every block of both builders."""
    L = Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])
    B1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.1, -0.2, 0.3]])
    s = Surrogate(A=EXACT_A, B0=EXACT_B0, B=(B1,), c_r=0.1, delta=0.05, lifting=L)
    reg = uncertainty.UncertaintyRegion(Qz=-np.diag([1.0, 2.0, 3.0]),
                                        Sz=np.array([0.1, -0.2, 0.3]), Rz=50.0)
    return s, reg


def dissipation_form(surrogate, design, z, delta_phi, eps):
    """2 z' inv(P) (A_K z + B_Kw Delta mu + eps), with Delta = I_m kron
    delta_phi and the uncertainty-consistent input mu = inv(I - Kw Delta) K z
    (K z for a linear design; the closed-loop input when delta_phi is the
    reduced lift).  The solved strict inequality makes it negative on the
    certified set, for every admissible Delta and every remainder eps
    within the proportional bound."""
    N, m = surrogate.N, surrogate.m
    Kw = np.zeros((m, N * m)) if design.Kw is None else design.Kw
    Delta = np.kron(np.eye(m), delta_phi.reshape(N, 1))
    mu = np.linalg.solve(np.eye(m) - Kw @ Delta, design.K @ z)
    rhs = ((surrogate.A + surrogate.B0 @ design.K) @ z
           + (surrogate.B_tilde + surrogate.B0 @ Kw) @ (Delta @ mu) + eps)
    return float(2.0 * z @ design.P_inv @ rhs)


def zero_assignment(problem):
    return {v.name: v.zero() for v in problem.variables}


def random_assignment(problem, rng):
    out = {}
    for v in problem.variables:
        if v.kind == "scalar":
            out[v.name] = float(rng.normal())
        elif v.kind == "sym":
            M = rng.normal(size=v.shape)
            out[v.name] = 0.5 * (M + M.T)
        else:
            out[v.name] = rng.normal(size=v.shape)
    return out


def theorem1_certificate_reference(surrogate, region, design):
    """The dualized certificate of a single-input design, assembled with the
    scalar multiplier as theorem 1 states it (no Kronecker blocks, no
    scheduling gain); returns the negated form G."""
    N = surrogate.N
    z = np.zeros
    K = np.atleast_2d(design.K)
    A_K = surrogate.A + surrogate.B0 @ K
    pi_r = np.block([[-np.eye(N), z((N, N + 1))],
                     [z((N + 1, N)), 2.0 * surrogate.c_r ** 2 * np.eye(N + 1)]])
    mid = np.block([
        [z((N, N)), design.P_inv, z((N, N + 1)), z((N, 2 * N + 1))],
        [design.P_inv, z((N, N)), z((N, N + 1)), z((N, 2 * N + 1))],
        [z((N + 1, 2 * N)), region.block_matrix() / design.Lam[0, 0], z((N + 1, 2 * N + 1))],
        [z((2 * N + 1, 2 * N)), z((2 * N + 1, N + 1)), pi_r / design.tau],
    ])
    psi_t = np.block([
        [np.eye(N), A_K.T, z((N, N)), K.T, z((N, N)), np.hstack([np.eye(N), K.T])],
        [z((N, N)), surrogate.B_tilde.T, np.eye(N), z((N, 1)), z((N, N)),
         z((N, N + 1))],
        [z((N, N)), np.eye(N), z((N, N)), z((N, 1)), np.eye(N), z((N, N + 1))],
    ])
    G = psi_t @ mid @ psi_t.T
    return -0.5 * (G + G.T)


class TestTheorem1:
    def test_dimensions(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem1(s, reg)
        N = s.N
        assert constraint(prob, "stability").expr.dim == 3 * N + 2
        assert constraint(prob, "invariance").expr.dim == 2 * N + 2

    def test_zero_assignment_values(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem1(s, reg)
        val, me = lmi.evaluate(constraint(prob, "stability"),
                               zero_assignment(prob), prob.variables)
        assert np.max(np.abs(val)) == 0.0 and me == 0.0
        vali, mei = lmi.evaluate(constraint(prob, "invariance"),
                                 zero_assignment(prob), prob.variables)
        assert mei == pytest.approx(0.0, abs=1e-15)
        assert np.count_nonzero(vali) == 1 and vali[-1, -1] == 1.0

    def test_rejects_multi_input(self):
        s = Surrogate(A=np.eye(2), B0=np.zeros((2, 2)),
                      B=(np.zeros((2, 2)), np.zeros((2, 2))), c_r=0.1)
        with pytest.raises(ValueError):
            lmi.build_theorem1(s, uncertainty.identity_region(2, 1.0))

    def test_feasible_on_planar_example(self, surrogate_fitted, region_cooked):
        design, prob, asg = solve_design(surrogate_fitted, region_cooked, 1,
                                         maximize_roa=False)
        assert design.P.shape == (3, 3)


class TestTheorem2:
    def test_dimensions(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem2(s, reg)
        N, m = s.N, s.m
        assert constraint(prob, "stability").expr.dim == 2 * N + 2 * m + N * m

    def test_shaped_pendulum_design_uses_scheduling(self,
                                                    design_pendulum_shaped_thm2):
        assert np.max(np.abs(design_pendulum_shaped_thm2.Lw)) > 0.0
        assert np.max(np.abs(design_pendulum_shaped_thm2.Kw)) > 0.0

    def test_multi_input_dimensions(self):
        rng = np.random.default_rng(3)
        N, m = 3, 2
        s = Surrogate(A=rng.normal(size=(N, N)), B0=rng.normal(size=(N, m)),
                      B=tuple(rng.normal(size=(N, N)) for _ in range(m)), c_r=0.5)
        reg = uncertainty.identity_region(N, 4.0)
        prob = lmi.build_theorem2(s, reg)
        assert constraint(prob, "stability").expr.dim == 2 * N + 2 * m + N * m
        assert prob.variable("Lw").shape == (m, N * m)

    def test_reduces_to_theorem1(self, stressed_pair):
        assert matches_theorem1_reference(*stressed_pair)


class TestBuildProblem:
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_dispatches_to_builder(self, stressed_pair, theorem):
        prob = lmi.build_problem(theorem, *stressed_pair)
        assert prob.theorem == theorem
        assert ("Lw" in [v.name for v in prob.variables]) == (theorem == 2)
        assert prob.variable("Lam").shape == (1, 1)

    @pytest.mark.parametrize("theorem", [0, 3, None])
    def test_rejects_other_theorems(self, stressed_pair, theorem):
        with pytest.raises(ValueError, match="theorem must be 1 or 2"):
            lmi.build_problem(theorem, *stressed_pair)


class TestEvaluate:
    def test_affine_in_assignments(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem2(s, reg)
        rng = np.random.default_rng(11)
        for con in prob.constraints:
            for _ in range(5):
                a1 = random_assignment(prob, rng)
                a2 = random_assignment(prob, rng)
                w = rng.uniform()
                mix = {k: w * a1[k] + (1 - w) * a2[k] for k in a1}
                v1, _ = lmi.evaluate(con, a1, prob.variables)
                v2, _ = lmi.evaluate(con, a2, prob.variables)
                vm, _ = lmi.evaluate(con, mix, prob.variables)
                scale = max(1.0, np.max(np.abs(v1)), np.max(np.abs(v2)))
                assert np.max(np.abs(vm - (w * v1 + (1 - w) * v2))) <= 1e-12 * scale

    def test_symmetry(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem2(s, reg)
        rng = np.random.default_rng(12)
        for con in prob.constraints:
            val, _ = lmi.evaluate(con, random_assignment(prob, rng), prob.variables)
            assert np.max(np.abs(val - val.T)) == 0.0

    def test_missing_variable(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem1(s, reg)
        with pytest.raises(KeyError):
            lmi.evaluate(constraint(prob, "stability"), {"P": np.eye(3)},
                         prob.variables)


class TestProblemSurgery:
    def test_drop_constraint(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.build_theorem1(s, reg)
        smaller = lmi.drop_constraint(prob, "invariance")
        names = [c.name for c in smaller.constraints]
        assert "invariance" not in names and "stability" in names
        with pytest.raises(KeyError):
            lmi.drop_constraint(prob, "no_such")

    def test_trace_cap(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.add_trace_cap(lmi.build_theorem1(s, reg), "P", 30.0)
        con = constraint(prob, "trace_cap_P")
        val, _ = lmi.evaluate(con, {**zero_assignment(prob), "P": 4.0 * np.eye(3)},
                              prob.variables)
        assert val[0, 0] == pytest.approx(30.0 - 12.0)

    def test_manifest(self, stressed_pair):
        s, reg = stressed_pair
        prob = lmi.add_roa_objective(lmi.build_theorem2(s, reg))
        man = prob.manifest()
        assert man["objective"] == ["maximize", "t_roa"]
        names = [c["name"] for c in man["constraints"]]
        assert "stability" in names and "invariance" in names


class TestSolvedCertificates:
    def test_dualization_theorem1(self, surrogate_fitted, region_cooked,
                                  design_cooked):
        _, mineig = lmi.primal_certificate(surrogate_fitted, region_cooked,
                                           design_cooked)
        assert mineig > 0.0

    @pytest.mark.parametrize("stem, surrogate_file", [
        ("fig2", "fig2_surrogate.json"), ("fig4_thm1", "fig4_surrogate.json"),
        ("fig5_thm1", "fig5_surrogate.json")])
    def test_theorem1_matches_scalar_assembly(self, figures_dir, stem,
                                              surrogate_file):
        # the theorem-1 designs of the cooked_up, pendulum and
        # pendulum_shaped examples
        s = Surrogate.from_json((figures_dir / surrogate_file).read_text())
        design = controller.DesignResult.from_json(
            (figures_dir / f"{stem}_design.json").read_text())
        region = uncertainty.UncertaintyRegion.from_json_dict(
            json.loads((figures_dir / f"{stem}_region.json").read_text()))
        assert design.theorem == 1
        G, mineig = lmi.primal_certificate(s, region, design)
        ref = theorem1_certificate_reference(s, region, design)
        assert np.max(np.abs(G - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert mineig > 0.0

    def test_dualization_theorem2(self, surrogate_pendulum,
                                  region_pendulum_shaped,
                                  design_pendulum_shaped_thm2):
        region = region_pendulum_shaped
        _, mineig = lmi.primal_certificate(surrogate_pendulum, region,
                                           design_pendulum_shaped_thm2)
        assert mineig > 0.0

    def test_closed_loop_decrease_form_scheduled(self, surrogate_pendulum,
                                                 region_pendulum_shaped,
                                                 design_pendulum_shaped_thm2,
                                                 lifting_pendulum):
        region = region_pendulum_shaped
        design = design_pendulum_shaped_thm2
        rng = np.random.default_rng(14)
        checked = 0
        while checked < 200:
            x = rng.uniform(-8.0, 8.0, size=2)
            _, V = controller.roa_membership(design, lifting_pendulum, x)
            if V > 1.0 or V < 1e-8:
                continue
            z = lifting_pendulum.lift_reduced_many(x[None])[0]
            # scale a random direction onto the region boundary
            v = rng.normal(size=3)
            a = float(v @ region.Qz @ v)
            v = v * np.sqrt(-region.Rz / a)
            assert abs(uncertainty.margins(region, v[None])[0]) < 1e-9 * region.Rz
            Delta = v.reshape(-1, 1)
            mu = np.linalg.solve(np.eye(1) - design.Kw @ Delta, design.K @ z)
            e = rng.normal(size=3)
            eps = surrogate_pendulum.c_r * (np.linalg.norm(z) + np.linalg.norm(mu)) \
                * e / np.linalg.norm(e)
            q = dissipation_form(surrogate_pendulum, design, z, v, eps)
            assert q < 0.0
            checked += 1

    def test_closed_loop_decrease_form(self, surrogate_fitted, region_cooked,
                                       design_cooked, lifting_cooked):
        rng = np.random.default_rng(13)
        boundary_radius = np.sqrt(region_cooked.Rz)
        checked = 0
        while checked < 200:
            x = rng.uniform(-20.0, 20.0, size=2)
            _, V = controller.roa_membership(design_cooked, lifting_cooked, x)
            if V > 1.0 or V < 1e-8:
                continue
            z = lifting_cooked.lift_reduced_many(x[None])[0]
            d = rng.normal(size=3)
            dphi = boundary_radius * d / np.linalg.norm(d)
            mu = design_cooked.K @ z
            e = rng.normal(size=3)
            eps = surrogate_fitted.c_r * (np.linalg.norm(z) + np.linalg.norm(mu)) \
                * e / np.linalg.norm(e)
            q = dissipation_form(surrogate_fitted, design_cooked, z, dphi, eps)
            assert q < 0.0
            checked += 1


def ladder_surrogate(seed, N, m):
    """Seeded stable synthetic surrogate with bilinear channels, as in the
    design-ladder benchmark."""
    rng = np.random.default_rng([seed, N, m])
    A = rng.standard_normal((N, N)) / np.sqrt(N)
    A -= (np.max(np.linalg.eigvals(A).real) + 1.0) * np.eye(N)
    B0 = rng.standard_normal((N, m))
    B = tuple(0.1 * rng.standard_normal((N, N)) / np.sqrt(N) for _ in range(m))
    return Surrogate(A=A, B0=B0, B=B, c_r=0.05, delta=0.05)


def probe_one_at_a_time(fn, variables):
    """(constant, coeffs) of a block formula probed at one assignment per
    call, every value an unstacked matrix (a scalar as 1x1): the zero
    assignment, then each unit component vector of each variable."""
    zero = {v.name: np.atleast_2d(v.zero()) for v in variables}
    C0 = sym(np.asarray(fn(zero), dtype=float))
    coeffs = {}
    for v in variables:
        mats = []
        for e in np.eye(v.ncomp):
            a = {**zero, v.name: np.atleast_2d(v.from_components(e))}
            mats.append(sym(np.asarray(fn(a), dtype=float)) - C0)
        coeffs[v.name] = np.array(mats)
    return C0, coeffs


class TestStackedProbes:
    """One stacked call per variable gives the bits of one call per probe."""

    @pytest.mark.parametrize("case", ["fitted_thm1", "fitted_thm2", "ladder4",
                                      "ladder10"])
    def test_stacking_does_not_change_bits(self, case, surrogate_fitted,
                                           region_cooked, monkeypatch):
        if case.startswith("fitted"):
            surrogate, region = surrogate_fitted, region_cooked
        else:
            N = int(case[len("ladder"):])
            surrogate = ladder_surrogate(0, N, 2)
            region = uncertainty.identity_region(N, 10.0)
        build = lmi.build_theorem1 if case == "fitted_thm1" else lmi.build_theorem2
        calls = []
        from_function = lmi.AffineMatrixExpr.from_function

        def recording(fn, variables):
            expr = from_function(fn, variables)
            calls.append((fn, variables, expr))
            return expr

        monkeypatch.setattr(lmi.AffineMatrixExpr, "from_function",
                            staticmethod(recording))
        problem = lmi.add_trace_cap(
            lmi.add_roa_objective(build(surrogate, region)), "P", 50.0)
        positive = (("P", "tau", "Lam", "nu") if case == "fitted_thm1"
                    else ("P", "Lam", "tau", "nu"))
        assert [c.name for c in problem.constraints] == [
            "stability", "invariance", *(f"{n}_pos" for n in positive),
            "roa_radius", "trace_cap_P"]
        assert len(calls) == len(problem.constraints)
        for (fn, variables, expr), con in zip(calls, problem.constraints):
            assert expr is con.expr
            C0, coeffs = probe_one_at_a_time(fn, variables)
            assert np.array_equal(expr.constant, C0), con.name
            assert expr.coeffs.keys() == coeffs.keys()
            for name, M in coeffs.items():
                assert np.array_equal(expr.coeffs[name], M), (con.name, name)
