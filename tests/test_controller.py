import numpy as np
import pytest

from koopsyn import controller, uncertainty
from koopsyn.controller import (ClosedLoop, DesignResult, FeedbackSingularError,
                                feedback, polygon_area, region_boundary_2d,
                                roa_boundary_2d, roa_membership)
from koopsyn.lifting import estimate_lipschitz, identity_lifting


def linear_design(K, P=None, theorem=1, **kw):
    K = np.atleast_2d(np.asarray(K, dtype=float))
    P = np.eye(K.shape[1]) if P is None else P
    return DesignResult(theorem=theorem, P=P, L=K @ P, tau=1.0, nu=1.0,
                        lam=1.0, **kw)


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
        d2 = DesignResult(theorem=2, P=np.eye(3), L=K, tau=1.0, nu=1.0,
                          Lam=np.array([[2.0]]), Lw=np.zeros((1, 3)))
        d1 = linear_design(K)
        x = np.array([0.3, -0.8])
        np.testing.assert_allclose(feedback(d2, lifting_cooked, x),
                                   feedback(d1, lifting_cooked, x), atol=1e-14)

    def test_scheduling_formula(self, design_pendulum_shaped_thm2,
                                lifting_pendulum):
        d = design_pendulum_shaped_thm2
        x = np.array([1.0, -2.0])
        z = lifting_pendulum.lift_reduced(x)
        W = np.eye(1) - d.Kw @ np.kron(np.eye(1), z.reshape(-1, 1))
        expected = np.linalg.solve(W, d.K @ z)
        np.testing.assert_allclose(feedback(d, lifting_pendulum, x), expected,
                                   atol=1e-12)

    def test_singular_scheduling_rejected(self, lifting_cooked):
        d = DesignResult(theorem=2, P=np.eye(3), L=np.ones((1, 3)), tau=1.0,
                         nu=1.0, Lam=np.array([[1.0]]), Lw=np.array([[1.0, 0, 0]]))
        # scheduling matrix 1 - z_1 vanishes at x_1 = 1
        with pytest.raises(FeedbackSingularError):
            feedback(d, lifting_cooked, np.array([1.0, 0.0]))

    def test_linear_in_lift(self, design_cooked, lifting_cooked):
        z = lifting_cooked.lift_reduced(np.array([0.4, 1.1]))
        for alpha in (0.25, 2.0, -3.0):
            np.testing.assert_allclose(design_cooked.K @ (alpha * z),
                                       alpha * (design_cooked.K @ z), atol=1e-12)


class TestClosedLoop:
    """The precomposed evaluator against the feedback and certificate
    formulas on the checked lift, bit for bit: the trajectory files depend on
    every bit."""

    @pytest.mark.parametrize("which", [("design_cooked", "lifting_cooked"),
                                       ("design_pendulum_shaped_thm2",
                                        "lifting_pendulum")])
    def test_bitwise_equal_to_wrappers(self, request, which):
        design, lifting = (request.getfixturevalue(name) for name in which)
        loop = ClosedLoop.of(design, lifting)
        m = design.m
        X = np.random.default_rng(41).uniform(-4.0, 4.0, size=(1000, 2))
        for x in X:
            z = lifting.lift_reduced(x)
            u_ref = design.K @ z
            if design.theorem == 2:
                W = np.eye(m) - design.Kw @ np.kron(np.eye(m), z.reshape(-1, 1))
                u_ref = np.linalg.solve(W, u_ref)
            V_ref = float(z @ design.P_inv @ z)
            assert np.array_equal(loop.feedback(x), u_ref)
            assert np.array_equal(feedback(design, lifting, x), u_ref)
            assert loop.value(x) == V_ref
            assert roa_membership(design, lifting, x) == (V_ref <= 1.0, V_ref)
        # the batch values sum in another order: a few units of roundoff
        Z = lifting.lift_reduced_many(X)
        V = np.array([loop.value(x) for x in X])
        bound = 16 * np.finfo(float).eps * np.linalg.norm(design.P_inv, 2) \
            * np.sum(Z * Z, axis=1)
        assert np.all(np.abs(loop.value_many(X) - V) <= bound)

    def test_lqr_gain(self, lifting_cooked):
        from koopsyn import verify

        K = np.array([[0.5, -1.25, 3.0]])
        u = verify.lqr_feedback(None, lifting_cooked, K)
        for x in np.random.default_rng(3).uniform(-2.0, 2.0, size=(50, 2)):
            assert np.array_equal(u(x), -(K @ lifting_cooked.lift_reduced(x)))


class TestDesignResult:
    def test_gain_identities(self, design_pendulum_shaped_thm2):
        d = design_pendulum_shaped_thm2
        assert np.max(np.abs(d.K @ d.P - d.L)) <= 1e-8
        assert np.max(np.abs(d.Kw @ np.kron(d.Lam, np.eye(d.N)) - d.Lw)) <= 1e-8

    def test_requires_pd(self):
        with pytest.raises(ValueError):
            DesignResult(theorem=1, P=-np.eye(2), L=np.ones((1, 2)), tau=1.0,
                         nu=1.0, lam=1.0)

    def test_json_round_trip(self, design_pendulum_shaped_thm2):
        d = design_pendulum_shaped_thm2
        back = DesignResult.from_json(d.to_json())
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
        L = identity_lifting(2)
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
        L = identity_lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.eye(2))
        b = roa_boundary_2d(d, L, resolution=720)
        assert polygon_area(b.points) == pytest.approx(np.pi, rel=1e-3)

    def test_open_rays_flagged_at_cap(self):
        L = identity_lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e6, 1.0]))
        b = roa_boundary_2d(d, L, resolution=8, r_max=10.0)
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
        L = identity_lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e6, 1.0]))
        b = roa_boundary_2d(d, L, resolution=16, r_max=10.0)
        stops = self.check(b, ClosedLoop.of(d, L).value_many, 10.0, 16)
        assert "open" in stops and set(stops) != {"open"}

    def test_value_tolerance_stops(self):
        # an ellipse with semi-axes 100 and about 55: a shallow value slope
        # at the crossing lets |V - 1| <= 1e-9 hold on some rays before the
        # bracket is tol * r wide
        L = identity_lifting(2)
        d = linear_design(np.zeros((1, 2)), P=np.diag([1.0e4, 3.0e3]))
        b = roa_boundary_2d(d, L, resolution=64)
        stops = self.check(b, ClosedLoop.of(d, L).value_many, 1e5, 64)
        assert "value" in stops and "bracket" in stops

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
        rep = controller.containment_check(design_cooked, region_cooked,
                                           lifting_cooked, resolution=90)
        assert rep.ok
        assert rep.worst_margin >= -1e-8

    def test_tight_for_maximized_design(self, design_cooked, region_cooked,
                                        lifting_cooked):
        rep = controller.containment_check(design_cooked, region_cooked,
                                           lifting_cooked, resolution=90)
        assert rep.worst_margin <= 0.02 * region_cooked.Rz

    def test_shrunken_region_violated(self, design_cooked, region_cooked,
                                      lifting_cooked):
        smaller = uncertainty.identity_region(3, region_cooked.Rz / 2.0)
        rep = controller.containment_check(design_cooked, smaller,
                                           lifting_cooked, resolution=90)
        assert not rep.ok and len(rep.violations) > 0


class TestRescale:
    def test_fits_box(self, design_cooked, lifting_cooked, plant_cooked):
        scaled, beta = controller.rescale_to_box(design_cooked, lifting_cooked,
                                                 plant_cooked.state_box,
                                                 resolution=180)
        assert 0.0 < beta <= 1.0
        b = roa_boundary_2d(scaled, lifting_cooked, resolution=90)
        assert np.max(np.abs(b.points)) <= 1.0 + 1e-6
        np.testing.assert_allclose(scaled.K, design_cooked.K, atol=1e-10)

    def test_already_inside_is_noop(self, design_cooked, lifting_cooked):
        huge = np.array([[-1e4, 1e4], [-1e4, 1e4]])
        scaled, beta = controller.rescale_to_box(design_cooked, lifting_cooked,
                                                 huge, resolution=60)
        assert beta == 1.0
        assert scaled is design_cooked


class TestRegionBoundary:
    def test_ball_region_circle_in_lifted_identity(self):
        L = identity_lifting(2)
        reg = uncertainty.identity_region(2, 4.0)
        b = region_boundary_2d(reg, L, resolution=32)
        assert np.max(np.abs(b.radii - 2.0)) <= 1e-6


class TestLyapunovSandwich:
    def test_bounds_hold(self, design_cooked, lifting_cooked, plant_cooked):
        L_phi = estimate_lipschitz(lifting_cooked, plant_cooked.state_box, 5000,
                                   seed=21)
        w = np.linalg.eigvalsh(design_cooked.P_inv)
        rng = np.random.default_rng(22)
        for _ in range(100):
            x = rng.uniform(plant_cooked.state_box[:, 0],
                            plant_cooked.state_box[:, 1])
            _, V = roa_membership(design_cooked, lifting_cooked, x)
            n2 = float(x @ x)
            assert V >= w[0] * n2 - 1e-12
            assert V <= w[-1] * L_phi ** 2 * n2 + 1e-12
