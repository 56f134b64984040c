import numpy as np
import pytest

from koopsyn import edmd, plants
from koopsyn.lifting import Lifting, poly
from koopsyn.plants import SampleBatch, SampleSet

from conftest import EXACT_A, EXACT_B0


def tiny_sampleset(states, derivs, u_states=None, u_derivs=None, u=1.0):
    b0 = SampleBatch(u_bar=[0.0], states=states, derivs=derivs)
    b1 = SampleBatch(u_bar=[u], states=u_states if u_states is not None else states,
                     derivs=u_derivs if u_derivs is not None else derivs)
    return SampleSet(batches=(b0, b1))


class TestDataMatrices:
    def test_identity_single_sample(self):
        L = Lifting(1)
        ss = tiny_sampleset(np.array([[2.0]]), np.array([[-2.0]]))
        dm = edmd.build_data_matrices(L, ss)
        assert np.array_equal(dm.X0, [[2.0]])
        assert np.array_equal(dm.Y[0], [[-2.0]])

    def test_cooked_y_column(self, lifting_cooked):
        ss = tiny_sampleset(np.array([[1.0, 2.0]]), np.array([[-2.0, -1.0]]))
        dm = edmd.build_data_matrices(lifting_cooked, ss)
        np.testing.assert_allclose(dm.Y[0][:, 0], [-2.0, -1.0, -0.2], atol=1e-14)

    def test_input_matrix_first_row_ones(self, lifting_cooked, plant_cooked):
        ss = plants.collect_samples(plant_cooked, 7, seed=0)
        dm = edmd.build_data_matrices(lifting_cooked, ss)
        assert np.array_equal(dm.X_input[1][0], np.ones(7))

    def test_missing_batch(self, lifting_cooked):
        ss = SampleSet(batches=(SampleBatch(u_bar=[0.0],
                                            states=np.zeros((1, 2)),
                                            derivs=np.zeros((1, 2))),))
        with pytest.raises(edmd.FitError):
            edmd.build_data_matrices(lifting_cooked, ss)

    @pytest.mark.parametrize("inputs", [([], []), ([0.0, 0.0], [1.0, 0.0])])
    def test_input_length_must_be_m(self, lifting_cooked, inputs):
        # an empty input made an IndexError; a longer one fitted as if m = 1
        ss = SampleSet(batches=tuple(SampleBatch(u_bar=u, states=np.zeros((1, 2)),
                                                 derivs=np.zeros((1, 2)))
                                     for u in inputs))
        with pytest.raises(edmd.FitError, match="input must have m = 1 entries"):
            edmd.build_data_matrices(lifting_cooked, ss)

    def test_dimension_mismatch(self, lifting_cooked):
        ss = tiny_sampleset(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(edmd.FitError):
            edmd.build_data_matrices(lifting_cooked, ss)


class TestFit:
    def test_exact_recovery(self, surrogate_fitted):
        assert np.max(np.abs(surrogate_fitted.A - EXACT_A)) <= 1e-10
        assert np.max(np.abs(surrogate_fitted.B0 - EXACT_B0)) <= 1e-10
        assert np.max(np.abs(surrogate_fitted.B[0])) <= 1e-10

    def test_scalar_linear_exact(self):
        L = Lifting(1)
        xs = np.array([[0.5], [-1.2], [2.0]])
        ss = tiny_sampleset(xs, -xs, u_derivs=-xs)
        s, _ = edmd.fit(edmd.build_data_matrices(L, ss))
        assert s.A[0, 0] == pytest.approx(-1.0, abs=1e-14)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            N = rng.integers(1, 5)
            d = rng.integers(N + 2, 11)
            X = rng.normal(size=(N, d))
            Y = rng.normal(size=(N, d))
            Theta, _ = edmd.least_squares_fit(Y, X)
            oracle = np.linalg.solve(X @ X.T, X @ Y.T).T
            err = np.linalg.norm(Theta - oracle, "fro") / np.linalg.norm(oracle, "fro")
            assert err <= 1e-9

    def test_residual_orthogonality(self, lifting_cooked, plant_cooked):
        ss = plants.collect_samples(plant_cooked, 200, seed=5, noise_bound=0.1)
        dm = edmd.build_data_matrices(lifting_cooked, ss)
        s, _ = edmd.fit(dm)
        R = (dm.Y[0] - s.A @ dm.X0) @ dm.X0.T
        bound = 1e-8 * np.linalg.norm(dm.Y[0], "fro") * np.linalg.norm(dm.X0, "fro")
        assert np.linalg.norm(R, "fro") <= bound

    def test_residual_trend(self, lifting_cooked, plant_cooked):
        rels = []
        for d in (50, 500, 5000):
            ss = plants.collect_samples(plant_cooked, d, seed=7)
            _, rep = edmd.fit(edmd.build_data_matrices(lifting_cooked, ss))
            rels.append(rep.worst_relative_residual())
        assert all(r <= 1e-10 for r in rels)
        assert rels[2] <= 10.0 * rels[0] + 1e-12

    def test_scaled_input_adjustment(self):
        p = plants.make_example("cooked_up")
        narrow = plants.Plant(name="narrow", n=2, m=1, f=p.f, g=p.g,
                              state_box=p.state_box, input_box=[[-0.5, 0.5]])
        L = Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])
        ss = plants.collect_samples(narrow, 2000, seed=3)
        s, _ = edmd.fit(edmd.build_data_matrices(L, ss))
        assert np.max(np.abs(s.B0 - EXACT_B0)) <= 1e-9
        assert np.max(np.abs(s.A - EXACT_A)) <= 1e-9

    def test_rank_deficiency_warns(self):
        L = Lifting(2)
        states = np.tile([[1.0, 2.0]], (4, 1))   # single repeated sample
        ss = tiny_sampleset(states, np.zeros((4, 2)))
        dm = edmd.build_data_matrices(L, ss)
        with pytest.warns(RuntimeWarning):
            edmd.fit(dm)

    def test_nan_rejected(self):
        L = Lifting(1)
        ss = tiny_sampleset(np.array([[1.0]]), np.array([[np.nan]]))
        with pytest.raises(edmd.FitError):
            edmd.build_data_matrices(L, ss)


def surrogate_field(s, z, u):
    """The surrogate vector field A z + B0 u + sum_i u_i B_i z."""
    return s.A @ z + s.B0 @ u + sum(u_i * (B_i @ z) for u_i, B_i in zip(u, s.B))


class TestPredict:
    """The surrogate's predicted field A z + B0 u + sum_i u_i B_i z."""

    def test_drift_action(self, surrogate_fitted, plant_cooked):
        # the planar example's dictionary is invariant, so the fitted field
        # is the lifted plant's, grad Phi(x) (f(x) + g(x) u)
        lifting = surrogate_fitted.lifting
        rng = np.random.default_rng(3)
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=2)
            u = rng.uniform(-1.0, 1.0, size=1)
            lifted = lifting.gradient_many(x[None])[0, 1:] \
                @ plant_cooked.vector_field(x, u)
            np.testing.assert_allclose(
                surrogate_field(surrogate_fitted, lifting.lift_reduced_many(x[None])[0], u),
                lifted, atol=1e-8)

    def test_kronecker_consistency(self, lifting_cooked):
        rng = np.random.default_rng(4)
        B1 = rng.normal(size=(3, 3))
        s = edmd.Surrogate(A=EXACT_A, B0=EXACT_B0, B=(B1,), c_r=0.1,
                           delta=0.05, lifting=lifting_cooked)
        z = rng.normal(size=3)
        u = np.array([0.7])
        np.testing.assert_allclose(s.B_tilde @ np.kron(u, z), u[0] * (B1 @ z),
                                   atol=1e-14)

    def test_btilde_layout(self):
        B1 = np.full((2, 2), 1.0)
        B2 = np.full((2, 2), 2.0)
        s = edmd.Surrogate(A=np.eye(2), B0=np.zeros((2, 2)), B=(B1, B2))
        assert np.array_equal(s.B_tilde, np.hstack([B1, B2]))
        z = np.array([1.0, 1.0])
        u = np.array([0.3, 0.5])
        np.testing.assert_allclose(surrogate_field(s, z, u),
                                   s.A @ z + s.B_tilde @ np.kron(u, z), atol=1e-14)


class TestSerialization:
    def test_round_trip(self, surrogate_fitted):
        back = edmd.Surrogate.from_json(surrogate_fitted.to_json())
        assert np.array_equal(back.A, surrogate_fitted.A)
        assert np.array_equal(back.B0, surrogate_fitted.B0)
        assert back.c_r == surrogate_fitted.c_r
        x = np.array([0.4, -0.9])
        np.testing.assert_array_equal(back.lifting.lift(x),
                                      surrogate_fitted.lifting.lift(x))
