import json

import numpy as np
import pytest

from koopsyn import edmd, uncertainty
from koopsyn.controller import (ClosedLoop, DesignResult, FeedbackSingularError,
                                _polar_sweep, feedback, polygon_area,
                                region_boundary_2d, roa_boundary_2d,
                                roa_membership)
from koopsyn.lifting import Lifting
from koopsyn.matops import write_json

from conftest import containment_margins


def linear_design(K, P=None, **kw):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    P = np.eye(K.shape[1]) if P is None else P
    return DesignResult(P=P, L=K @ P, tau=1.0, nu=1.0, Lam=[[1.0]], **kw)


def _scheduled_m1():
    """m = 1 scheduled design whose scheduling matrix 1 - z_1 vanishes at
    x_1 = 1."""
    return DesignResult(P=np.eye(3), L=np.ones((1, 3)), tau=1.0,
                        nu=1.0, Lam=np.array([[1.0]]), Lw=np.array([[1.0, 0, 0]]))


class TestFeedback:
    def test_zero_state(self, design_cooked, lifting_cooked):
        assert np.linalg.norm(feedback(design_cooked, lifting_cooked,
                                       np.zeros(2))) == 0.0

    def test_reported_gain_arithmetic(self, lifting_cooked):
        d = linear_design([0.0, -3.77, -3.46])
        u = feedback(d, lifting_cooked, np.array([1.0, 2.0]))
        assert u[0] == pytest.approx(-13.768, abs=1e-12)

    def test_scheduled_with_zero_lw_is_linear(self, lifting_cooked):
        K = np.array([[0.5, -1.0, 2.0]])
        d2 = DesignResult(P=np.eye(3), L=K, tau=1.0, nu=1.0,
                          Lam=np.array([[2.0]]), Lw=np.zeros((1, 3)))
        d1 = linear_design(K)
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(feedback(d2, lifting_cooked, x),
                                   feedback(d1, lifting_cooked, x), atol=1e-14)

    def test_scheduling_formula(self, design_pendulum_shaped_thm2,
                                lifting_pendulum):
        d = design_pendulum_shaped_thm2
        x = np.array([1.0, -2.0])
        z = lifting_pendulum.lift_reduced_many(x[None])[0]
        W = np.eye(1) - d.Kw @ np.kron(np.eye(1), z.reshape(-1, 1))
        expected = np.linalg.solve(W, d.K @ z)
        np.testing.assert_allclose(feedback(d, lifting_pendulum, x), expected,
                                   atol=1e-12)

    def test_singular_scheduling_rejected(self, lifting_cooked):
        with pytest.raises(FeedbackSingularError):
            feedback(_scheduled_m1(), lifting_cooked, np.array([1.0, 0.0]))

    def test_linear_in_lift(self, design_cooked, lifting_cooked):
        z = lifting_cooked.lift_reduced_many(np.array([[0.4, 1.1]]))[0]
        for alpha in (0.25, 2.0, -3.0):
            np.testing.assert_allclose(design_cooked.K @ (alpha * z),
                                       alpha * (design_cooked.K @ z), atol=1e-12)


def _feedback_rows(design, lifting, X):
    return ClosedLoop.of(design, lifting).feedback_of_lifts(
        lifting.lift_reduced_many(X))


# single-state entry point, or one-row batch call -> (its value at one
# state x, the batch call on the states X), both as functions of (design,
# lifting, region, x or X)
ONE_ROW = {
    "Lifting.lift": (lambda d, L, r, x: L.lift(x),
                     lambda d, L, r, X: L.lift_many(X)),
    "Lifting.gradient_many": (lambda d, L, r, x: L.gradient_many(x[None])[0],
                              lambda d, L, r, X: L.gradient_many(X)),
    "controller.feedback": (lambda d, L, r, x: feedback(d, L, x),
                            lambda d, L, r, X: _feedback_rows(d, L, X)[0]),
    "roa_membership": (
        lambda d, L, r, x: roa_membership(d, L, x),
        lambda d, L, r, X: [(V <= 1.0, V)
                            for V in ClosedLoop.of(d, L).value_many(X)]),
    "uncertainty.margins": (
        lambda d, L, r, x: uncertainty.margins(r, L.lift_reduced_many(x[None]))[0],
        lambda d, L, r, X: uncertainty.margins(r, L.lift_reduced_many(X))),
}

DESIGNS = {"theorem1": ("design_cooked", "lifting_cooked", "region_cooked"),
           "theorem2": ("design_pendulum_shaped_thm2", "lifting_pendulum",
                        "region_pendulum_shaped")}


class TestOneRow:
    """Every single-state entry point is its row of the batch call, bit for
    bit: there is one evaluator."""

    @pytest.mark.parametrize("design_name", sorted(DESIGNS))
    @pytest.mark.parametrize("entry", sorted(ONE_ROW))
    def test_equals_batch_row(self, request, entry, design_name):
        design, lifting, region = (request.getfixturevalue(name)
                                   for name in DESIGNS[design_name])
        single, batch = ONE_ROW[entry]
        X = np.random.default_rng(41).uniform(-4.0, 4.0, size=(1000, 2))
        rows = batch(design, lifting, region, X)
        for x, row in zip(X, rows):
            one = single(design, lifting, region, x)
            if isinstance(row, tuple):
                assert one == row
            else:
                assert np.array_equal(one, row)

    def test_singular_row_raises(self, lifting_cooked):
        design = _scheduled_m1()
        X = np.array([[0.5, 0.0], [1.0, 0.0], [-0.5, 2.0]])
        U, singular = _feedback_rows(design, lifting_cooked, X)
        assert singular.tolist() == [False, True, False]
        assert np.isnan(U[1, 0]) and np.all(np.isfinite(U[[0, 2]]))
        for i in (0, 2):
            assert np.array_equal(feedback(design, lifting_cooked, X[i]), U[i])
        with pytest.raises(FeedbackSingularError):
            feedback(design, lifting_cooked, X[1])


class TestClosedLoop:
    """The batch methods: each row against its one-row batch, bit for bit,
    and against the matrix-product formulas of the feedback and the
    certificate, which sum in another order, up to a few units of
    roundoff."""

    @pytest.mark.parametrize("which", [("design_cooked", "lifting_cooked"),
                                       ("design_pendulum_shaped_thm2",
                                        "lifting_pendulum")])
    def test_bitwise_equal_to_wrappers(self, request, which):
        design, lifting = (request.getfixturevalue(name) for name in which)
        loop = ClosedLoop.of(design, lifting)
        m = design.K.shape[0]
        X = np.random.default_rng(41).uniform(-4.0, 4.0, size=(1000, 2))
        U, singular = loop.feedback_of_lifts(lifting.lift_reduced_many(X))
        assert not singular.any()
        V = loop.value_many(X)
        eps = np.finfo(float).eps
        nK = np.linalg.norm(design.K, 2)
        nKw = 0.0 if design.Kw is None else np.linalg.norm(design.Kw, 2)
        for x, u, v in zip(X, U, V):
            z = lifting.lift_reduced_many(x[None])[0]
            nz = np.linalg.norm(z)
            # the bitwise reference: the one-row batch is its batch row
            assert np.array_equal(loop.feedback_of_lifts(z[None])[0][0], u)
            assert loop.value_many(x[None])[0] == v
            u_ref = design.K @ z
            W = np.eye(m)
            if design.theorem == 2:
                W = W - design.Kw @ np.kron(np.eye(m), z.reshape(-1, 1))
                u_ref = np.linalg.solve(W, u_ref)
            # K z and W to a few ulp, carried through inv(W)
            bound = 16 * eps * np.linalg.norm(np.linalg.inv(W), 2) \
                * (nK * nz + nKw * nz * np.linalg.norm(u_ref))
            assert np.linalg.norm(u - u_ref) <= bound
            bound = 16 * eps * np.linalg.norm(design.P_inv, 2) * nz * nz
            assert abs(v - float(z @ design.P_inv @ z)) <= bound

    def test_lqr_gain(self, lifting_cooked):
        K = np.array([[0.5, -1.25, 3.0]])
        loop = ClosedLoop(lifting_cooked, -K)
        X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 2))
        U, _ = loop.feedback_of_lifts(lifting_cooked.lift_reduced_many(X))
        bound = 16 * np.finfo(float).eps * np.linalg.norm(K, 2)
        for x, u in zip(X, U):
            z = lifting_cooked.lift_reduced_many(x[None])[0]
            assert np.array_equal(loop.feedback_of_lifts(z[None])[0][0], u)
            assert np.linalg.norm(u + K @ z) <= bound * np.linalg.norm(z)

    def test_gain_stack_rows_equal_single_gains(self, lifting_cooked):
        rng = np.random.default_rng(8)
        gains = rng.normal(size=(6, 2, 3))
        Z = lifting_cooked.lift_reduced_many(rng.uniform(-2.0, 2.0, size=(10, 2)))
        rows = rng.integers(0, 6, size=10)
        stacked = ClosedLoop(lifting_cooked, gains)
        U, singular = stacked.take(rows).feedback_of_lifts(Z)
        assert U.shape == (10, 2) and not singular.any()
        for i, row in enumerate(rows):
            alone, _ = ClosedLoop(lifting_cooked, gains[row]).feedback_of_lifts(
                Z[i:i + 1])
            assert U[i].tobytes() == alone[0].tobytes()
        # without rows, row i of Z takes gain i
        U, _ = stacked.feedback_of_lifts(Z[:6])
        for i in range(6):
            alone, _ = ClosedLoop(lifting_cooked, gains[i]).feedback_of_lifts(
                Z[i:i + 1])
            assert U[i].tobytes() == alone[0].tobytes()
        # a stack serves exactly as many rows as it holds gains
        for rows in (Z[:1], Z):
            with pytest.raises(ValueError, match="gain stack of 6 gains"):
                stacked.feedback_of_lifts(rows)

    def test_scheduling_stack_rows_equal_single_gains(self, lifting_cooked):
        # a Kw stack gives each row its own scheduled u; a zero Kw row makes
        # W = I and gets the linear u bit for bit, and a row whose scheduling
        # matrix is singular is flagged alone
        rng = np.random.default_rng(9)
        for m in (1, 2):
            gains = rng.normal(size=(6, m, 3))
            Kw = 0.1 * rng.normal(size=(6, m, m * 3))
            Kw[[1, 4]] = 0.0
            X = rng.uniform(-2.0, 2.0, size=(6, 2))
            Kw[5], X[5] = 0.0, [1.0, 0.0]
            Kw[5, 0, 0] = 1.0       # W = I - z_1 e_1 e_1' is singular at x_1 = 1
            Z = lifting_cooked.lift_reduced_many(X)
            stacked = ClosedLoop(lifting_cooked, gains, Kw)
            U, singular = stacked.feedback_of_lifts(Z)
            assert singular.tolist() == [False] * 5 + [True]
            assert np.all(np.isnan(U[5]))
            for i in range(5):
                alone = ClosedLoop(lifting_cooked, gains[i],
                                   None if i in (1, 4) else Kw[i])
                assert (i in (1, 4)) == (alone.Kw is None)
                ref, _ = alone.feedback_of_lifts(Z[i:i + 1])
                assert U[i].tobytes() == ref[0].tobytes(), (m, i)
            # the rows taken from the stack keep their scheduled path
            rows = np.array([4, 0, 1])
            taken, _ = stacked.take(rows).feedback_of_lifts(Z[rows])
            assert taken.tobytes() == U[rows].tobytes()
            assert stacked.take([1, 4]).Kw is not None


class TestDesignResult:
    def test_gain_identities(self, design_pendulum_shaped_thm2):
        d = design_pendulum_shaped_thm2
        assert np.max(np.abs(d.K @ d.P - d.L)) <= 1e-8
        assert np.max(np.abs(d.Kw @ np.kron(d.Lam, np.eye(d.P.shape[0])) - d.Lw)) <= 1e-8

    def test_requires_pd(self):
        with pytest.raises(ValueError):
            DesignResult(P=-np.eye(2), L=np.ones((1, 2)), tau=1.0, nu=1.0,
                         Lam=[[1.0]])

    def test_theorem1_json_round_trip(self, design_cooked, tmp_path):
        write_json(tmp_path / "design.json", design_cooked.to_doc(), indent=None)
        back = DesignResult.read(tmp_path / "design.json")
        assert back.Lam.shape == (1, 1) and back.Kw is None and back.theorem == 1
        assert back.K.tobytes() == design_cooked.K.tobytes()
        assert back.Lam.tobytes() == design_cooked.Lam.tobytes()

    def test_json_round_trip(self, design_pendulum_shaped_thm2, tmp_path):
        d = design_pendulum_shaped_thm2
        write_json(tmp_path / "design.json", d.to_doc(), indent=None)
        back = DesignResult.read(tmp_path / "design.json")
        assert np.array_equal(back.P, d.P)
        assert np.array_equal(back.K, d.K)
        assert np.array_equal(back.Kw, d.Kw)


class TestRoAMembership:
    def test_origin(self, design_cooked, lifting_cooked):
        inside, V = roa_membership(design_cooked, lifting_cooked, np.zeros(2))
        assert inside and V == 0.0

    def test_grows_past_boundary(self, design_cooked, lifting_cooked):
        b = roa_boundary_2d(design_cooked, lifting_cooked, resolution=16)
        for th, r in zip(b.angles, b.radii):
            d = np.array([np.cos(th), np.sin(th)])
            _, V_in = roa_membership(design_cooked, lifting_cooked, 0.95 * r * d)
            _, V_on = roa_membership(design_cooked, lifting_cooked, r * d)
            _, V_out = roa_membership(design_cooked, lifting_cooked, 1.05 * r * d)
            assert V_in < 1.0 and V_on == pytest.approx(1.0, abs=1e-6)
            assert V_out > 1.0


class TestBoundary:
    def test_unit_circle(self):
        L = Lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.eye(2))
        b = roa_boundary_2d(d, L, resolution=64)
        assert np.max(np.abs(b.radii - 1.0)) <= 1e-9
        assert b.closed

    def test_bisection_contract(self, design_cooked, lifting_cooked):
        b = roa_boundary_2d(design_cooked, lifting_cooked, resolution=60)
        for th, r in zip(b.angles, b.radii):
            x = r * np.array([np.cos(th), np.sin(th)])
            _, V = roa_membership(design_cooked, lifting_cooked, x)
            assert V == pytest.approx(1.0, abs=1e-6)

    def test_planar_example_extent(self, design_cooked, lifting_cooked):
        b = roa_boundary_2d(design_cooked, lifting_cooked, resolution=360)
        assert np.max(np.abs(b.points[:, 0])) >= 8.0
        assert np.max(np.abs(b.points[:, 1])) >= 12.0

    def test_polygon_area_circle(self):
        L = Lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.eye(2))
        b = roa_boundary_2d(d, L, resolution=720)
        assert polygon_area(b.points) == pytest.approx(np.pi, rel=1e-3)

    def test_open_rays_flagged_at_cap(self):
        L = Lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e6, 1.0]))
        b = _polar_sweep(ClosedLoop.of(d, L).value_many, 10.0, 8)
        assert np.any(b.open_rays) and not b.closed
        assert np.all(b.radii[b.open_rays] == 10.0)


def reference_sweep(value_fn, r_max, resolution, tol, value_tol=1e-9):
    """Per-ray scalar bracketing and bisection, one ray after another: the
    specification the lockstep sweep must reproduce.  Also returns how each
    ray stopped ("open", "value", "bracket" or "cap")."""
    angles = np.linspace(0.0, 2.0 * np.pi, int(resolution), endpoint=False)
    radii, open_rays, stops = [], [], []
    for th in angles:
        d = np.array([np.cos(th), np.sin(th)])
        r_lo, r_hi = 0.0, min(1e-6, r_max)
        crossed = False
        while r_hi <= r_max:
            if value_fn(r_hi * d) >= 1.0:
                crossed = True
                break
            r_lo = r_hi
            r_hi *= 1.6
        if not crossed:
            radii.append(r_max)
            open_rays.append(True)
            stops.append("open")
            continue
        stop = "cap"
        for _ in range(200):
            r_mid = 0.5 * (r_lo + r_hi)
            v = value_fn(r_mid * d)
            if abs(v - 1.0) <= value_tol:
                stop = "value"
                break
            if v < 1.0:
                r_lo = r_mid
            else:
                r_hi = r_mid
            if r_hi - r_lo <= tol * max(1.0, r_mid):
                stop = "bracket"
                break
        radii.append(r_mid if stop == "value" else 0.5 * (r_lo + r_hi))
        open_rays.append(False)
        stops.append(stop)
    return np.array(radii), np.array(open_rays), stops


class TestPolarSweep:
    """Lockstep sweep against the per-ray reference on the same batched value
    function, evaluated one state at a time: radii and open rays equal."""

    @staticmethod
    def check(boundary, value_many, r_max, resolution, tol=1e-8):
        radii, open_rays, stops = reference_sweep(
            lambda x: value_many(x[None, :])[0], r_max, resolution, tol)
        assert np.array_equal(boundary.radii, radii)
        assert np.array_equal(boundary.open_rays, open_rays)
        return stops

    @pytest.mark.parametrize("which", [("design_cooked", "lifting_cooked"),
                                       ("design_pendulum_shaped_thm2",
                                        "lifting_pendulum")])
    def test_designs(self, request, which):
        design, lifting = (request.getfixturevalue(name) for name in which)
        r_max = 1e3 * max(1.0, float(np.sqrt(np.linalg.eigvalsh(design.P)[-1])))
        b = roa_boundary_2d(design, lifting, resolution=72)
        stops = self.check(b, ClosedLoop.of(design, lifting).value_many, r_max, 72)
        assert "open" not in stops

    def test_open_rays(self):
        L = Lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e6, 1.0]))
        b = _polar_sweep(ClosedLoop.of(d, L).value_many, 10.0, 16)
        stops = self.check(b, ClosedLoop.of(d, L).value_many, 10.0, 16)
        assert "open" in stops and set(stops) != {"open"}

    def test_value_tolerance_stops(self):
        # an ellipse with semi-axes 100 and about 55: a shallow value slope
        # at the crossing lets |V - 1| <= 1e-9 hold on some rays before the
        # bracket is tol * r wide
        L = Lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e4, 3.0e3]))
        b = roa_boundary_2d(d, L, resolution=64)
        stops = self.check(b, ClosedLoop.of(d, L).value_many, 1e5, 64)
        assert "value" in stops and "bracket" in stops

    @pytest.mark.parametrize("stem, fig", [("fig2", "fig2"),
                                           ("fig3_ball", "fig3"),
                                           ("fig4_thm1", "fig4"),
                                           ("fig5_thm1", "fig5")])
    def test_default_cap_keeps_the_old_cap_sweep(self, figures_dir, stem, fig):
        # the four example designs: the cap from certified_box sweeps
        # exactly as the earlier eigenvalue cap did
        design = DesignResult.read(figures_dir / f"{stem}_design.json")
        lifting = edmd.Surrogate.read(figures_dir / f"{fig}_surrogate.json").lifting
        old_cap = 1e3 * max(1.0, float(np.sqrt(np.linalg.eigvalsh(design.P)[-1])))
        b = roa_boundary_2d(design, lifting)
        ref = _polar_sweep(ClosedLoop.of(design, lifting).value_many, old_cap, 360)
        assert np.array_equal(b.radii, ref.radii)
        assert np.array_equal(b.open_rays, ref.open_rays)
        assert b.closed

    @pytest.mark.parametrize("stem, fig", [("fig2", "fig2"),
                                           ("fig3_ball", "fig3"),
                                           ("fig3_tuned", "fig3"),
                                           ("fig4_thm1", "fig4"),
                                           ("fig5_thm1", "fig5")])
    def test_region_cap_keeps_the_old_cap_sweep(self, figures_dir, stem, fig):
        # the regions of the figures: the cap from the region's own box
        # sweeps exactly as the earlier 1e3 max(1, sqrt(Rz)) cap did
        from koopsyn.uncertainty import margins

        region = uncertainty.UncertaintyRegion.from_doc(json.loads(
            (figures_dir / f"{stem}_region.json").read_text()))
        lifting = edmd.Surrogate.read(figures_dir / f"{fig}_surrogate.json").lifting
        b = region_boundary_2d(region, lifting)
        ref = _polar_sweep(lambda X: 1.0 - margins(
            region, lifting.lift_reduced_many(X)) / region.Rz,
            1e3 * max(1.0, float(np.sqrt(region.Rz))), 360)
        assert np.array_equal(b.radii, ref.radii)
        assert np.array_equal(b.open_rays, ref.open_rays)
        assert b.closed

    def test_region_boundary(self, lifting_cooked, region_cooked):
        from koopsyn.uncertainty import margins

        b = region_boundary_2d(region_cooked, lifting_cooked, resolution=48)
        r_max = 1e3 * np.sqrt(region_cooked.Rz)
        self.check(b, lambda X: 1.0 - margins(
            region_cooked, lifting_cooked.lift_reduced_many(X)) / region_cooked.Rz,
            r_max, 48)


class TestContainment:
    def test_certified_design_contained(self, design_cooked, region_cooked,
                                        lifting_cooked):
        margin = containment_margins(design_cooked, region_cooked,
                                     lifting_cooked, resolution=90)
        assert np.min(margin) >= -1e-8

    def test_tight_for_maximized_design(self, design_cooked, region_cooked,
                                        lifting_cooked):
        margin = containment_margins(design_cooked, region_cooked,
                                     lifting_cooked, resolution=90)
        assert np.min(margin) <= 0.02 * region_cooked.Rz

    def test_shrunken_region_violated(self, design_cooked, region_cooked,
                                      lifting_cooked):
        smaller = uncertainty.identity_region(3, region_cooked.Rz / 2.0)
        margin = containment_margins(design_cooked, smaller, lifting_cooked,
                                     resolution=90)
        assert np.any(margin < -1e-8)


class TestRegionBoundary:
    def test_ball_region_circle_in_lifted_identity(self):
        L = Lifting(2)
        reg = uncertainty.identity_region(2, 4.0)
        b = region_boundary_2d(reg, L, resolution=32)
        assert np.max(np.abs(b.radii - 2.0)) <= 1e-6


class TestLyapunovSandwich:
    def test_bounds_hold(self, design_cooked, lifting_cooked, plant_cooked):
        # Lipschitz bound of the lift on the box: the largest difference
        # quotient over sampled pairs, every fourth anchored at the origin
        box = plant_cooked.state_box
        pairs = box[:, 0] + np.random.default_rng(21).random((5000, 2, 2)) \
            * (box[:, 1] - box[:, 0])
        pairs[3::4, 1] = 0.0
        X, Y = pairs[:, 0], pairs[:, 1]
        L_phi = np.max(np.linalg.norm(lifting_cooked.lift_many(X)
                                      - lifting_cooked.lift_many(Y), axis=1)
                       / np.linalg.norm(X - Y, axis=1))
        w = np.linalg.eigvalsh(design_cooked.P_inv)
        rng = np.random.default_rng(22)
        for _ in range(100):
            x = rng.uniform(plant_cooked.state_box[:, 0],
                            plant_cooked.state_box[:, 1])
            _, V = roa_membership(design_cooked, lifting_cooked, x)
            n2 = float(x @ x)
            assert V >= w[0] * n2 - 1e-12
            assert V <= w[-1] * L_phi ** 2 * n2 + 1e-12
