import numpy as np
import pytest

from koopsyn import uncertainty
from koopsyn.uncertainty import (UncertaintyRegion, identity_region, margins,
                                 multiplier, procedure1_qz)

from conftest import multiplier_inverse_reference


def random_region(rng, N):
    Q = rng.normal(size=(N, N))
    Qz = -(Q @ Q.T + 0.5 * np.eye(N))
    Sz = 0.3 * rng.normal(size=N)
    return UncertaintyRegion(Qz=Qz, Sz=Sz, Rz=float(rng.uniform(1.0, 10.0)))


class TestRegion:
    def test_requires_negative_definite(self):
        with pytest.raises(ValueError):
            UncertaintyRegion(Qz=np.eye(2), Sz=np.zeros(2), Rz=1.0)
        with pytest.raises(ValueError):
            UncertaintyRegion(Qz=-np.eye(2), Sz=np.zeros(2), Rz=-1.0)

    def test_inverse_blocks(self):
        rng = np.random.default_rng(0)
        for N in (1, 2, 3, 5):
            reg = random_region(rng, N)
            inverse = multiplier_inverse_reference(reg, 1.0)
            prod = reg.block_matrix() @ inverse
            assert np.max(np.abs(prod - np.eye(N + 1))) <= 1e-10

    def test_json_round_trip(self):
        reg = identity_region(3, 500.0)
        back = UncertaintyRegion.from_json_dict(reg.to_json_dict())
        assert np.array_equal(back.Qz, reg.Qz) and back.Rz == reg.Rz


class TestMembership:
    def test_origin_margin(self):
        reg = identity_region(4, 7.0)
        margin = margins(reg, np.zeros((1, 4)))[0]
        assert margin == pytest.approx(7.0)

    def test_ball_boundary(self):
        reg = identity_region(2, 650.0)
        margin = margins(reg, np.array([[5.0, 25.0]]))[0]
        assert margin == pytest.approx(0.0, abs=1e-12)
        assert margin >= 0.0

    def test_weighted_boundary(self):
        reg = UncertaintyRegion(Qz=-0.5 * np.diag([5.0 ** -2, 5.0 ** -4]),
                                Sz=np.zeros(2), Rz=1.0)
        margin = margins(reg, np.array([[5.0, 25.0]]))[0]
        assert margin == pytest.approx(0.0, abs=1e-12)


class TestMultiplier:
    def test_scalar_reduces_to_region_inverse(self):
        reg = identity_region(3, 5.0)
        Pi = multiplier(reg, np.array([[1.0]]))
        np.testing.assert_array_equal(Pi, reg.block_matrix())
        np.testing.assert_allclose(np.linalg.inv(Pi),
                                   multiplier_inverse_reference(reg, 1.0),
                                   atol=1e-14)

    def test_closed_form_inverse(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            N = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            reg = random_region(rng, N)
            W = rng.normal(size=(m, m))
            Lam = W @ W.T + 0.2 * np.eye(m)
            Pi = multiplier(reg, np.linalg.inv(Lam))
            Pi_inv = multiplier_inverse_reference(reg, Lam)
            err = np.max(np.abs(Pi @ Pi_inv - np.eye(m * (N + 1))))
            assert err <= 1e-9

    def test_identity_parameter_permutation(self):
        rng = np.random.default_rng(8)
        N, m = 3, 2
        reg = random_region(rng, N)
        # with Lt = I the multiplier is a permutation of I_m kron the region
        # matrix, so its inverse permutes I_m kron the region inverse
        Pi = multiplier(reg, np.eye(m))
        T = np.vstack([np.kron(np.eye(m), np.hstack([np.eye(N), np.zeros((N, 1))])),
                       np.kron(np.eye(m), np.hstack([np.zeros((1, N)), np.eye(1)]))])
        assert np.allclose(T @ T.T, np.eye(m * (N + 1)), atol=1e-14)
        np.testing.assert_allclose(
            Pi, T @ np.kron(np.eye(m), reg.block_matrix()) @ T.T, atol=1e-14)
        np.testing.assert_allclose(
            multiplier_inverse_reference(reg, np.eye(m)),
            T @ np.kron(np.eye(m), np.linalg.inv(reg.block_matrix())) @ T.T,
            atol=1e-12)

    def test_psd_compatibility_sampled(self):
        rng = np.random.default_rng(9)
        reg = random_region(rng, 3)
        for _ in range(100):
            m = int(rng.integers(1, 4))
            W = rng.normal(size=(m, m))
            Lt = W @ W.T
            v = rng.normal(size=3)
            v *= rng.uniform(0, 1) ** 0.5 / max(np.linalg.norm(v), 1e-12)
            if margins(reg, v[None])[0] < 0.0:
                continue
            Delta = np.kron(np.eye(m), v.reshape(-1, 1))
            Pi = multiplier(reg, Lt)
            stack = np.vstack([Delta, np.eye(m)])
            form = stack.T @ Pi @ stack
            assert np.linalg.eigvalsh(form)[0] >= -1e-9


class TestProcedure1:
    def test_shape_normalization(self, surrogate_fitted):
        region, _, _ = procedure1_qz(surrogate_fitted, theorem=1, rz=500.0,
                                     rz_step1=500.0)
        assert np.linalg.norm(region.Qz, 2) == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(region.Qz)[-1] < 0.0
        assert region.Rz == 500.0

    def test_theorem_required(self, surrogate_fitted):
        with pytest.raises(TypeError):
            procedure1_qz(surrogate_fitted, rz=500.0, rz_step1=500.0)

    def test_step1_omits_invariance(self, surrogate_fitted):
        _, record, report = procedure1_qz(surrogate_fitted, theorem=2, rz=500.0,
                                          rz_step1=500.0)
        assert "invariance" not in record["step1_constraints"]
        assert any(name.startswith("trace_cap") for name in record["step1_constraints"])
        assert report.status == "feasible"

    def test_pendulum_area_improvement(self, surrogate_pendulum,
                                       region_pendulum_shaped,
                                       design_pendulum_shaped, lifting_pendulum):
        from koopsyn import controller
        from conftest import solve_design

        ball = uncertainty.identity_region(3, 12.0)
        ball_design, _, _ = solve_design(surrogate_pendulum, ball, theorem=1)
        area_ball = controller.polygon_area(
            controller.roa_boundary_2d(ball_design, lifting_pendulum,
                                       resolution=120).points)
        area_shaped = controller.polygon_area(
            controller.roa_boundary_2d(design_pendulum_shaped, lifting_pendulum,
                                       resolution=120).points)
        assert area_shaped > area_ball
