import json
import tracemalloc

import numpy as np
import pytest

from koopsyn import bounds, lmi
from koopsyn.lifting import Lifting, Observable


@pytest.fixture(scope="module")
def req_grid(d0_cooked):
    return d0_cooked[0]


def replicate_points(replicates):
    """Each replicate's blocks, consumed in order, as one (count, n) array."""
    chunks = []
    for count, blocks in replicates:
        chunks.append(np.concatenate(list(blocks), axis=1).T)
        assert len(chunks[-1]) == count
    return chunks


def one_shot_moments(plant, lifting, chunks):
    """C, A_k, sigma_C_fro and sigma_A_fro by the unblocked formula: every
    chunk's moments in one product per field, with per-point weights."""
    tables = []
    for pts in chunks:
        w = np.full(len(pts), 1.0 / len(pts))
        V = lifting.lift_many(pts)
        G = lifting.gradient_many(pts)
        fields = [np.asarray(plant.f(pts), dtype=float)]
        for i in range(plant.m):
            fields.append(fields[0] + np.asarray(plant.g[i](pts), dtype=float))
        Ws = [np.einsum("dkn,dn->dk", G, F) for F in fields]
        Vw = V * w[:, None]
        V2w = V ** 2 * w[:, None]
        tables.append((Vw.T @ V, [Vw.T @ W for W in Ws], V2w.T @ (V ** 2),
                       [V2w.T @ (W ** 2) for W in Ws]))
    R = len(tables)
    box = plant.state_box
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    EC = sum(t[0] for t in tables) / R
    C2 = sum(t[2] for t in tables) / R
    EA = [sum(t[1][k] for t in tables) / R for k in range(plant.m + 1)]
    A2 = [sum(t[3][k] for t in tables) / R for k in range(plant.m + 1)]

    def sigma_fro(first, second):
        return np.linalg.norm(np.sqrt(np.maximum(second - first ** 2, 0.0)), "fro")

    return (volume * EC, [volume * E for E in EA], sigma_fro(EC, C2),
            np.array([sigma_fro(E, E2) for E, E2 in zip(EA, A2)]))


class TestComputeD0:
    def test_reported_magnitude(self, req_grid):
        assert 6.9e16 <= req_grid.d0_float <= 6.9e18

    def test_delta_halving_doubles(self, plant_cooked, lifting_cooked, req_grid):
        half = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.025)
        assert half.d0_float >= 2.0 * req_grid.d0_float * (1 - 1e-12)

    def test_monotone_in_cr_and_delta(self, plant_cooked, lifting_cooked):
        crs = (0.05, 0.1, 0.2)
        deltas = (0.02, 0.05, 0.1)
        vals = {(c, d): bounds.compute_d0(plant_cooked, lifting_cooked, c, d,
                                          bounds.QuadratureSpec(points_per_axis=31)
                                          ).d0_float
                for c in crs for d in deltas}
        for d in deltas:
            for lo, hi in zip(crs, crs[1:]):
                assert vals[(lo, d)] >= vals[(hi, d)]
        for c in crs:
            for lo, hi in zip(deltas, deltas[1:]):
                assert vals[(c, lo)] >= vals[(c, hi)]

    def test_gram_matrix_positive_definite(self, req_grid):
        eigs = np.linalg.eigvalsh(req_grid.C)
        assert eigs[0] > 0.0
        assert np.allclose(req_grid.C, req_grid.C.T)

    def test_quadrature_grid_convergence(self, plant_cooked, lifting_cooked):
        a = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05,
                              bounds.QuadratureSpec(points_per_axis=101))
        b = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05,
                              bounds.QuadratureSpec(points_per_axis=202))
        assert abs(a.sigma_C_fro - b.sigma_C_fro) < 0.01 * b.sigma_C_fro
        for k in range(2):
            assert (abs(a.sigma_A_fro[k] - b.sigma_A_fro[k])
                    < 0.01 * b.sigma_A_fro[k])

    def test_mc_matches_grid(self, d0_cooked):
        req_grid, mc = d0_cooked
        assert abs(mc.d0_float - req_grid.d0_float) <= 0.05 * req_grid.d0_float
        assert mc.mc_stderr is not None

    def test_report_json(self, req_grid):
        doc = json.loads(json.dumps(req_grid.to_doc()))
        assert doc["d0"] >= 1
        assert doc["log10_d0"] == pytest.approx(np.log10(req_grid.d0_float))
        assert len(doc["per_k"]) == 2
        assert doc["quadrature"]["method"] == "grid"

    def test_invalid_inputs(self, plant_cooked, lifting_cooked):
        with pytest.raises(ValueError):
            bounds.compute_d0(plant_cooked, lifting_cooked, -1.0, 0.05)
        with pytest.raises(ValueError):
            bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 1.5)

    def test_nonfinite_integrand_reported(self, plant_cooked):
        # pole at x1 = 0.125, which is a midpoint-grid node for 8 points/axis
        spiky = Lifting(2, [Observable(
            kind="pole", params={},
            fn=lambda X: X[..., 0] / (X[..., 0] - 0.125),
            lie=lambda X, V: -0.125 / (X[..., 0] - 0.125) ** 2 * V[..., 0])])
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError):
                bounds.compute_d0(plant_cooked, spiky, 0.1, 0.05,
                                  bounds.QuadratureSpec(points_per_axis=8))


class TestStreamedQuadrature:
    @pytest.mark.parametrize("case", ["grid", "sobol"])
    def test_equals_one_shot_formula(self, plant_cooked, lifting_cooked, case):
        # 10201 grid rows: one full block and a partial one
        spec = bounds.QuadratureSpec(points_per_axis=101)
        if case == "sobol":
            spec = bounds.QuadratureSpec(method="mc", samples=40000,
                                         replicates=2, seed=5)
        box = plant_cooked.state_box
        chunks = replicate_points(
            bounds._grid_replicates(box, spec.points_per_axis)
            if spec.method == "grid" else bounds._mc_replicates(box, spec, 2))
        assert max(len(c) for c in chunks) > bounds.BLOCK_ROWS
        C, A_k, sigma_C, sigma_A = one_shot_moments(plant_cooked, lifting_cooked, chunks)
        req = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05, spec)

        def rel(a, b):
            return np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b))

        assert rel(req.C, C) <= 1e-12
        for got, want in zip(req.A_k, A_k, strict=True):
            assert rel(got, want) <= 1e-12
        assert rel(req.sigma_C_fro, sigma_C) <= 1e-12
        assert rel(req.sigma_A_fro, sigma_A) <= 1e-12

    def test_nonfinite_lift_in_second_block(self, plant_cooked):
        pts, = replicate_points(bounds._grid_replicates(plant_cooked.state_box, 101))
        cut = pts[(bounds.BLOCK_ROWS // 101 + 1) * 101, 0]
        assert np.flatnonzero(pts[:, 0] >= cut)[0] >= bounds.BLOCK_ROWS
        spike = Observable(
            kind="spike", params={},
            fn=lambda X: np.where(X[..., 0] >= cut, np.nan, X[..., 0] * X[..., 1]),
            lie=lambda X, V: np.zeros(np.shape(X)[:-1]))
        with pytest.raises(ValueError, match="non-finite observable value"):
            bounds.compute_d0(plant_cooked, Lifting(2, [spike]), 0.1, 0.05,
                              bounds.QuadratureSpec(points_per_axis=101))

    def test_report_counts_integrated_points(self, plant_cooked, lifting_cooked,
                                             req_grid):
        # Sobol rounds each replicate up to a power of two: 8 x 128 points
        mc = bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05,
                               bounds.QuadratureSpec(method="mc", samples=1000))
        assert mc.to_doc()["quadrature"] == {
            "method": "mc", "samples": 1000, "replicates": 8, "seed": 0,
            "sobol": True, "points_integrated": 1024}
        assert req_grid.to_doc()["quadrature"] == {
            "method": "grid", "points_per_axis": 101, "points_integrated": 10201}

    @pytest.mark.parametrize("field", ["points_per_axis", "samples", "replicates"])
    @pytest.mark.parametrize("value", [0, -3, 8.0, "8"])
    def test_degenerate_spec_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            bounds.QuadratureSpec(**{field: value})

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown quadrature method 'sobol'"):
            bounds.QuadratureSpec(method="sobol")

    @pytest.mark.parametrize("field", ["points_per_axis", "samples", "replicates"])
    def test_bool_count_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be an integer >= 1"):
            bounds.QuadratureSpec(**{field: True})

    @pytest.mark.parametrize("value", ["a", 1.5, -1, True, None])
    def test_bad_seed_rejected(self, value):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            bounds.QuadratureSpec(method="mc", seed=value)

    @pytest.mark.parametrize("value", ["no", 0, 1, None])
    def test_non_bool_sobol_rejected(self, value):
        with pytest.raises(ValueError, match="sobol must be true or false"):
            bounds.QuadratureSpec(method="mc", sobol=value)


def sobol_points(d, mexp, seed):
    """The concatenated Sobol blocks as one (2**mexp, d) array; checks the
    block sizes on the way."""
    blocks = list(bounds._sobol_blocks(d, mexp, seed))
    size = min(2 ** mexp, bounds.BLOCK_ROWS)
    assert [U.shape for U in blocks] == [(d, size)] * (2 ** mexp // size)
    assert all(U.flags.c_contiguous for U in blocks)
    return np.concatenate(blocks, axis=1).T


class TestSobol:
    @pytest.mark.parametrize("d", range(1, 17))
    def test_bitwise_equal_to_scipy(self, d):
        # 2**mexp below BLOCK_ROWS for mexp 1, 7 and 12 (one block), 32
        # blocks for mexp 18
        from scipy.stats import qmc

        for mexp in (1, 7, 12, 18):
            for seed in (0, 7, 2 ** 40 + 3):
                want = qmc.Sobol(d, scramble=True, seed=seed).random(2 ** mexp)
                got = sobol_points(d, mexp, seed)
                assert np.array_equal(got, want), (mexp, seed)

    def test_replicates_equal_scipy_engines(self):
        # replicate r: a fresh engine seeded seed + r, rounded up to 2**10
        # points; 3 x 20000 samples round up to 2**15, four blocks each
        from scipy.stats import qmc

        box = np.array([[-1.0, 3.0], [0.5, 2.0]])
        for samples, per in ((3000, 1024), (60000, 2 ** 15)):
            spec = bounds.QuadratureSpec(method="mc", samples=samples,
                                         replicates=3, seed=4)
            chunks = replicate_points(bounds._mc_replicates(box, spec, 2))
            assert [len(c) for c in chunks] == [per] * 3
            for r, pts in enumerate(chunks):
                unit = qmc.Sobol(2, scramble=True, seed=4 + r).random(per)
                assert np.array_equal(pts, box[:, 0] + unit * (box[:, 1] - box[:, 0]))

    def test_more_than_16_dimensions_refused(self):
        next(bounds._sobol_blocks(16, 1, 0))
        with pytest.raises(ValueError, match="has 16 dimensions, not 17"):
            next(bounds._sobol_blocks(17, 1, 0))

    def test_more_than_2_30_points_refused(self):
        with pytest.raises(ValueError, match=r"at most 2\*\*30 Sobol points"):
            next(bounds._sobol_blocks(1, 31, 0))


class TestBlockStream:
    """Every quadrature arrives as coordinate-major blocks of at most
    BLOCK_ROWS points, equal point for point to its one-shot form."""

    @pytest.mark.parametrize("n, per", [(2, 20000), (3, 8192), (1, 5)])
    def test_plain_mc_equals_one_draw_per_replicate(self, n, per):
        # 20000 = 2 full blocks and a partial one of 3616 points
        box = np.array([[-1.0, 3.0], [0.5, 2.0], [-2.0, -1.0]])[:n]
        spec = bounds.QuadratureSpec(method="mc", samples=3 * per, replicates=3,
                                     seed=9, sobol=False)
        rng = np.random.default_rng(9)
        for count, blocks in bounds._mc_replicates(box, spec, n):
            blocks = list(blocks)
            assert count == per
            assert [U.shape[1] for U in blocks] == [
                min(bounds.BLOCK_ROWS, per - lo)
                for lo in range(0, per, bounds.BLOCK_ROWS)]
            assert all(U.flags.c_contiguous for U in blocks)
            want = box[:, 0] + rng.random((per, n)) * (box[:, 1] - box[:, 0])
            assert np.array_equal(np.concatenate(blocks, axis=1).T, want)

    @pytest.mark.parametrize("n, points_per_axis", [(2, 101), (3, 21), (1, 7)])
    def test_grid_equals_meshgrid(self, n, points_per_axis):
        # 101**2 = 10201: one full block and a partial one of 2009 points
        box = np.array([[-1.0, 3.0], [0.5, 2.0], [-2.0, -1.0]])[:n]
        axes = [lo + (hi - lo) / points_per_axis * (np.arange(points_per_axis) + 0.5)
                for lo, hi in box]
        mesh = np.meshgrid(*axes, indexing="ij")
        want = np.column_stack([m.ravel() for m in mesh])
        (count, blocks), = bounds._grid_replicates(box, points_per_axis)
        blocks = list(blocks)
        assert count == len(want)
        assert [U.shape[1] for U in blocks] == [
            min(bounds.BLOCK_ROWS, count - lo)
            for lo in range(0, count, bounds.BLOCK_ROWS)]
        assert np.array_equal(np.concatenate(blocks, axis=1).T, want)

    @pytest.mark.parametrize("sobol", [True, False])
    def test_memory_does_not_grow_with_samples(self, plant_cooked, lifting_cooked,
                                               sobol):
        # the README's Monte-Carlo spec: 2**21 samples over 8 replicates
        def peak(samples):
            spec = bounds.QuadratureSpec(method="mc", samples=samples,
                                         replicates=8, sobol=sobol)
            tracemalloc.start()
            try:
                bounds.compute_d0(plant_cooked, lifting_cooked, 0.1, 0.05, spec)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        large, small = peak(2 ** 21), peak(2 ** 16)
        assert large < 4e6
        assert large <= 1.5 * small


class TestRemainderBound:
    """The proportional remainder bound ||eps|| <= c_r (||z|| + ||u||) as the
    design LMIs encode it: every remainder within the budget makes the
    quadratic form of the static multiplier ``lmi._pi_r`` nonnegative."""

    @staticmethod
    def form(surrogate, eps, z, u):
        w = np.concatenate([eps, z, np.atleast_1d(u)])
        return float(w @ lmi._pi_r(surrogate.N, surrogate.m, surrogate.c_r) @ w)

    @staticmethod
    def at_budget(surrogate, z, u, direction):
        budget = surrogate.c_r * (np.linalg.norm(z) + np.linalg.norm(u))
        return budget * direction / np.linalg.norm(direction)

    def test_zero(self, surrogate_exact):
        zero = np.zeros(3)
        assert self.form(surrogate_exact, zero, zero, 0.0) == 0.0
        assert self.form(surrogate_exact, np.array([1e-3, 0.0, 0.0]), zero,
                         0.0) < 0.0

    def test_formula(self, surrogate_exact):
        z = np.array([2.0, 0.0, 0.0])
        eps = self.at_budget(surrogate_exact, z, 1.0, np.array([0.0, 1.0, 0.0]))
        assert np.linalg.norm(eps) == pytest.approx(0.3)
        # -||eps||^2 + 2 c_r^2 (||z||^2 + ||u||^2) = -0.09 + 0.1
        assert self.form(surrogate_exact, eps, z, 1.0) == pytest.approx(0.01)

    def test_homogeneous(self, surrogate_exact):
        rng = np.random.default_rng(1)
        z = rng.normal(size=3)
        u = rng.normal(size=1)
        eps = self.at_budget(surrogate_exact, z, u, rng.normal(size=3))
        base = self.form(surrogate_exact, eps, z, u)
        assert base >= 0.0
        for t in (0.5, 2.0, 7.5):
            assert self.form(surrogate_exact, t * eps, t * z, t * u) == \
                pytest.approx(t * t * base, rel=1e-12)
