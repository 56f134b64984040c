import io
import json
import tracemalloc

import numpy as np
import pytest

from koopsyn import matops, plants


class TestMakeExample:
    def test_cooked_up_drift(self, plant_cooked):
        np.testing.assert_allclose(plant_cooked.f(np.array([1.0, 0.0])),
                                   [-2.0, -1.0], atol=1e-15)

    def test_pendulum_drift(self, plant_pendulum):
        for v in (0.3, -1.7, 4.0):
            np.testing.assert_allclose(plant_pendulum.f(np.array([0.0, v])),
                                       [v, -0.01 * v], atol=1e-12)

    @pytest.mark.parametrize("name", ["cooked_up", "cooked_up_xy", "pendulum"])
    def test_origin_equilibrium(self, name):
        p = plants.make_example(name)
        assert np.linalg.norm(p.f(np.zeros(p.n))) == 0.0

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            plants.make_example("no_such_plant")

    def test_parameter_override(self):
        p = plants.make_example("cooked_up", rho=-1.0, lam=2.0)
        np.testing.assert_allclose(p.f(np.array([1.0, 0.0])), [-1.0, -2.0])

    @pytest.mark.parametrize("name, params, message", [
        ("cooked_up", {"rho": [1]}, "plant parameter 'rho' must be a number, not [1]"),
        ("cooked_up", {"lambda": True},
         "plant parameter 'lambda' must be a number, not True"),
        ("pendulum", {"mass": "1.0"},
         "plant parameter 'mass' must be a number, not '1.0'"),
        ("cooked_up", {"rho": float("nan")}, "plant parameter 'rho' must be finite, not nan"),
        ("cooked_up", {"lam": float("inf")}, "plant parameter 'lam' must be finite, not inf"),
        ("pendulum", {"g": -float("inf")}, "plant parameter 'g' must be finite, not -inf"),
    ], ids=["list", "bool", "string", "nan", "infinity", "minus-infinity"])
    def test_non_numeric_parameter_rejected(self, name, params, message):
        with pytest.raises(ValueError) as info:
            plants.make_example(name, **params)
        assert str(info.value) == message

    def test_parameter_alias(self):
        p = plants.make_example("cooked_up", **{"lambda": 2.0})
        np.testing.assert_allclose(p.f(np.array([1.0, 0.0])), [-2.0, -2.0])


class TestVectorField:
    def test_zero(self, plant_cooked):
        assert np.linalg.norm(plant_cooked.vector_field(np.zeros(2), 0.0)) == 0.0

    def test_pendulum_unit_input(self, plant_pendulum):
        np.testing.assert_allclose(
            plant_pendulum.vector_field(np.zeros(2), np.array([1.0])),
            [0.0, 1.0], atol=1e-15)

    def test_cooked_additive_input(self, plant_cooked):
        np.testing.assert_allclose(
            plant_cooked.vector_field(np.zeros(2), np.array([0.5])),
            [0.0, 0.5], atol=1e-15)

    def test_dimension_check(self, plant_cooked):
        with pytest.raises(ValueError):
            plant_cooked.vector_field(np.zeros(3), np.array([0.0]))

    def test_one_input_per_row(self, plant_pendulum):
        rng = np.random.default_rng(4)
        X, U = rng.normal(size=(7, 2)), rng.normal(size=(7, 1))
        rows = [plant_pendulum.vector_field(x, u) for x, u in zip(X, U)]
        assert np.array_equal(plant_pendulum.vector_field(X, U), rows)
        with pytest.raises(ValueError):
            plant_pendulum.vector_field(X, U[:6])


class TestSampling:
    def test_deterministic(self, plant_cooked):
        a = plants.sample_uniform(plant_cooked, np.array([0.0]), 3, seed=9)
        b = plants.sample_uniform(plant_cooked, np.array([0.0]), 3, seed=9)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)

    def test_exact_derivatives(self, plant_cooked):
        batch = plants.sample_uniform(plant_cooked, np.array([0.0]), 50, seed=1)
        np.testing.assert_array_equal(batch.derivs[:, 0], -2.0 * batch.states[:, 0])
        recomputed = plant_cooked.vector_field(batch.states, batch.u_bar)
        np.testing.assert_array_equal(batch.derivs, recomputed)

    def test_states_in_box(self, plant_pendulum):
        batch = plants.sample_uniform(plant_pendulum, np.array([1.0]), 200,
                                      seed=2, batch_index=1)
        box = plant_pendulum.state_box
        assert np.all(batch.states >= box[:, 0]) and np.all(batch.states <= box[:, 1])

    def test_noise_bound(self, plant_cooked):
        clean = plants.sample_uniform(plant_cooked, np.array([0.0]), 300, seed=3)
        noisy = plants.sample_uniform(plant_cooked, np.array([0.0]), 300, seed=3,
                                      noise_bound=0.05)
        err = np.max(np.abs(noisy.derivs - clean.derivs))
        assert 0.0 < err <= 0.05
        assert np.array_equal(noisy.states, clean.states)

    def test_collect_batches(self, plant_cooked):
        ss = plants.collect_samples(plant_cooked, 10, seed=4)
        assert ss.m == 1
        assert np.array_equal(ss.batch(0).u_bar, [0.0])
        assert np.array_equal(ss.batch(1).u_bar, [1.0])

    def test_input_scaling(self):
        p = plants.make_example("cooked_up")
        scaled = plants.Plant(name="narrow", n=2, m=1, f=p.f, g=p.g,
                              state_box=p.state_box, input_box=[[-0.5, 0.5]])
        assert plants.basis_input_scales(scaled)[0] == 0.5
        ss = plants.collect_samples(scaled, 5, seed=0)
        assert ss.batch(1).u_bar[0] == 0.5


class TestSerialization:
    def test_round_trip(self, plant_cooked, tmp_path):
        ss = plants.collect_samples(plant_cooked, 20, seed=11, noise_bound=0.01)
        plants.save_samples(ss, tmp_path, plant=plant_cooked)
        back = plants.load_samples(tmp_path)
        for k in range(2):
            np.testing.assert_array_equal(back.batch(k).states, ss.batch(k).states)
            np.testing.assert_array_equal(back.batch(k).derivs, ss.batch(k).derivs)
        assert back.noise_bound == 0.01

    def test_edge_values_round_trip_bit_for_bit(self, tmp_path):
        # signed zero, the smallest subnormal, the largest float, an integral
        # float past 2**53 and a tiny normal keep every bit through the file
        values = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 1e16 + 2.0],
                           [1e-300, -5e-324, -1.7976931348623157e308, 0.0]])
        batch = plants.SampleBatch(u_bar=[0.0], states=values[:, :2],
                                   derivs=values[:, 2:])
        plants.save_samples(plants.SampleSet(batches=(batch,), seed=0), tmp_path)
        back = plants.load_samples(tmp_path).batch(0)
        assert back.states.tobytes() == batch.states.tobytes()
        assert back.derivs.tobytes() == batch.derivs.tobytes()

    @pytest.mark.parametrize("rows", [1, matops.TABLE_BLOCK_ROWS,
                                      2 * matops.TABLE_BLOCK_ROWS + 37])
    def test_blocks_of_rows_keep_the_bytes(self, tmp_path, rows):
        # a table of more rows than one block, and not a multiple of it: the
        # sample file is np.save's of the (d, 2n) array, and write_table's
        # text is np.savetxt's
        values = np.random.default_rng(rows).standard_normal((rows, 4))
        values *= 10.0 ** np.arange(-6, 6, 3)
        batch = plants.SampleBatch(u_bar=[0.0], states=values[:, :2],
                                   derivs=values[:, 2:])
        plants.save_samples(plants.SampleSet(batches=(batch,), seed=0), tmp_path)
        reference = io.BytesIO()
        np.save(reference, values, allow_pickle=False)
        assert (tmp_path / "samples_u0.npy").read_bytes() == reference.getvalue()
        matops.write_table(tmp_path / "table.txt", values)
        np.savetxt(tmp_path / "savetxt.txt", values, fmt="%.17g")
        assert ((tmp_path / "table.txt").read_bytes()
                == (tmp_path / "savetxt.txt").read_bytes())

    def test_write_memory_does_not_grow_with_rows(self, tmp_path):
        # one pass over the table made about 14 MB of Python floats and text
        # for these 1.9 MB of data
        values = np.random.default_rng(0).standard_normal((60_000, 4))
        tracemalloc.start()
        try:
            matops.write_table(tmp_path / "table.txt", values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.nbytes

    def test_rewrite_byte_identical(self, plant_cooked, tmp_path):
        ss = plants.collect_samples(plant_cooked, 20, seed=11)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        plants.save_samples(ss, d1, plant=plant_cooked)
        plants.save_samples(ss, d2, plant=plant_cooked)
        for name in ("samples_u0.npy", "samples_u1.npy", "samples_meta.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
