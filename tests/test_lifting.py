import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from koopsyn.lifting import (DictionaryError, Lifting, cosine_minus_one,
                             observable, poly, sine)

from conftest import outside_catalog


def pendulum_lifting():
    return Lifting(2, [sine(0)])


class TestLift:
    def test_pendulum_at_origin(self):
        L = pendulum_lifting()
        assert np.array_equal(L.lift(np.zeros(2)), np.array([1.0, 0.0, 0.0, 0.0]))

    def test_cooked_value(self, lifting_cooked):
        out = lifting_cooked.lift(np.array([1.0, 2.0]))
        np.testing.assert_allclose(out, [1.0, 1.0, 2.0, 1.8], rtol=0, atol=1e-15)

    def test_cooked_xy_value(self, lifting_cooked_xy):
        out = lifting_cooked_xy.lift(np.array([2.0, 3.0]))
        np.testing.assert_allclose(out, [1.0, 2.0, 3.0, 2.2, 6.0], rtol=0, atol=1e-14)

    def test_dimension_mismatch(self, lifting_cooked):
        with pytest.raises(ValueError):
            lifting_cooked.lift(np.zeros(3))

    def test_nonfinite_rejected(self):
        L = Lifting(1, [outside_catalog(
            lambda X: np.where(X[..., 0] > -0.5, X[..., 0], np.nan))])
        with pytest.raises(ValueError):
            L.lift(np.array([-1.0]))


class TestLiftReduced:
    def test_zero(self, lifting_cooked):
        assert np.array_equal(lifting_cooked.lift_reduced_many(np.zeros((1, 2)))[0],
                              np.zeros(3))

    def test_cooked(self, lifting_cooked):
        np.testing.assert_allclose(lifting_cooked.lift_reduced_many([[1.0, 2.0]])[0],
                                   [1.0, 2.0, 1.8], atol=1e-15)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_norm_lower_bound(self, xs):
        L = Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])])
        x = np.array(xs)
        assert np.linalg.norm(L.lift_reduced_many(x[None])[0]) ** 2 \
            >= np.linalg.norm(x) ** 2


class TestGradient:
    def test_structure_rows(self, lifting_cooked_xy):
        rng = np.random.default_rng(0)
        for _ in range(5):
            G = lifting_cooked_xy.gradient_many(rng.normal(size=(1, 2)))[0]
            assert np.array_equal(G[0], np.zeros(2))
            assert np.array_equal(G[1:3], np.eye(2))

    def test_pendulum_sine_row(self):
        G = pendulum_lifting().gradient_many(np.zeros((1, 2)))[0]
        np.testing.assert_allclose(G[3], [1.0, 0.0], atol=1e-15)

    @pytest.mark.parametrize("factory", [
        lambda: Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))])]),
        lambda: Lifting(2, [sine(0), cosine_minus_one(1)]),
        lambda: Lifting(3, [poly([(0.5, (1, 1, 1))])]),
    ])
    def test_matches_finite_differences(self, factory):
        L = factory()
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=L.n)
            G = L.gradient_many(x[None])[0]
            for k, ob in enumerate(L.observables):
                h = 1e-6 * (1.0 + np.abs(x))
                fd = np.empty(L.n)
                for j in range(L.n):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h[j]
                    xm[j] -= h[j]
                    fd[j] = (ob.fn(xp) - ob.fn(xm)) / (2 * h[j])
                scale = max(1.0, np.linalg.norm(G[k]))
                assert np.linalg.norm(G[k] - fd) <= 1e-6 * scale


class TestLie:
    @pytest.mark.parametrize("factory", [
        lambda: Lifting(2, [poly([(1.0, (0, 1)), (-0.2, (2, 0))]),
                                 poly([(1.0, (1, 1))])]),
        lambda: Lifting(2, [sine(0), cosine_minus_one(1)]),
    ])
    def test_equals_gradient_contraction(self, factory):
        # the fit's former einsum over the gradient tensor, bit for bit
        L = factory()
        rng = np.random.default_rng(5)
        X, V = rng.uniform(-2.0, 2.0, size=(2, 300, 2))
        want = np.einsum("dkn,dn->dk", L.gradient_many(X), V)
        assert np.array_equal(L.lie_many(X, V), want)

    def test_writes_observable_major_rows(self, lifting_cooked_xy):
        # each observable fills one contiguous row of the (N+1, d) buffer
        X = np.random.default_rng(6).normal(size=(50, 2))
        out = np.full((5, 64), np.nan)
        Z = lifting_cooked_xy.lift_many(X, out=out[:, :50])
        assert np.shares_memory(Z, out) and np.isnan(out[:, 50:]).all()
        np.testing.assert_array_equal(out[:, :50].T, lifting_cooked_xy.lift_many(X))
        assert lifting_cooked_xy.lift_many(X).T.flags.c_contiguous
        assert lifting_cooked_xy.lie_many(X, X).T.flags.c_contiguous


class TestValidation:
    def test_rejects_nonvanishing_extra(self):
        with pytest.raises(DictionaryError):
            Lifting(1, [outside_catalog(lambda X: np.cos(X[..., 0]))])

    def test_replace_revalidates(self):
        # a copy is checked like a new dictionary: an extra observable that
        # does not vanish at the origin is refused either way, and the copy's
        # observables follow its extras
        L = Lifting(1)
        cos = outside_catalog(lambda X: np.cos(X[..., 0]))
        with pytest.raises(DictionaryError):
            dataclasses.replace(L, extras=L.extras + (cos,))
        wide = dataclasses.replace(L, n=2)
        assert [ob.kind for ob in wide.observables] == ["constant", "coordinate",
                                                         "coordinate"]

    def test_rejects_missing_coordinates(self):
        # the constant and the coordinate maps are implied: an extra of their
        # kind is refused, and so is a descriptor that lacks or reorders them
        from koopsyn.lifting import constant, coordinate
        for extra in (constant(), coordinate(0)):
            with pytest.raises(DictionaryError, match=f"'{extra.kind}' is implied"):
                Lifting(2, [extra])
        desc = pendulum_lifting().descriptor()
        for obs in (desc["observables"][:1] + desc["observables"][3:],
                    [desc["observables"][k] for k in (0, 2, 1, 3)]):
            with pytest.raises(ValueError, match="lifting 'observables' must start "
                               "with the constant and the coordinate maps x_1..x_2"):
                Lifting.from_descriptor({**desc, "observables": obs})

    def test_rejects_degree_zero_poly_term(self):
        with pytest.raises(DictionaryError):
            poly([(1.0, (0, 0))])


    @pytest.mark.parametrize("extra, message", [
        (sine(2), "observable 'sine' index 2 is outside 0..1"),
        (sine(-1), "observable 'sine' index -1 is outside 0..1"),
        (poly([(1.0, (1, 0, 0))]), "exponent list"),
    ], ids=["index-2", "index-negative", "poly-3-exponents"])
    def test_rejects_observable_outside_the_states(self, extra, message):
        # before any observable is evaluated: numpy would raise IndexError on
        # index 2 and wrap index -1 to x_2; a descriptor is refused the same way
        with pytest.raises(ValueError, match=re.escape(message)):
            Lifting(2, [extra])
        desc = pendulum_lifting().descriptor()
        desc["observables"][-1] = {"kind": extra.kind, "params": extra.params}
        with pytest.raises(ValueError, match=re.escape(message)):
            Lifting.from_descriptor(desc)


class TestSerialization:
    def test_round_trip(self, lifting_cooked_xy):
        desc = lifting_cooked_xy.descriptor()
        assert desc["n"] == 2 and desc["N"] == 4
        assert desc["observables"][0]["kind"] == "constant"
        L2 = Lifting.from_descriptor(json.loads(json.dumps(desc)))
        x = np.array([0.7, -1.3])
        np.testing.assert_array_equal(L2.lift(x), lifting_cooked_xy.lift(x))

    def test_observable_decodes_the_catalog(self):
        X = np.random.default_rng(3).uniform(-2.0, 2.0, size=(7, 2))
        ob = observable("cosine_minus_one", {"index": 1})
        np.testing.assert_array_equal(ob.fn(X), cosine_minus_one(1).fn(X))
        V = np.random.default_rng(4).normal(size=(7, 2))
        np.testing.assert_array_equal(ob.lie(X, V), cosine_minus_one(1).lie(X, V))
        with pytest.raises(ValueError, match="unknown observable kind 'tanh'"):
            observable("tanh", {"index": 0})

    @pytest.mark.parametrize("kind, params, message", [
        ("sine", {"index": 0.9}, "observable 'sine' index must be an integer, not 0.9"),
        ("sine", {"index": True}, "observable 'sine' index must be an integer, not True"),
        ("coordinate", {"index": "0"},
         "observable 'coordinate' index must be an integer, not '0'"),
        ("cosine_minus_one", {}, "observable 'cosine_minus_one' needs the parameter 'index'"),
        ("poly", {"terms": [[1.0, [0.5, 1]]]},
         "observable 'poly' exponent 0.5 must be an integer of at least 0"),
        ("poly", {"terms": [[1.0, [-1, 2]]]},
         "observable 'poly' exponent -1 must be an integer of at least 0"),
        ("poly", {"terms": [[1.0, [True, 1]]]},
         "observable 'poly' exponent True must be an integer of at least 0"),
        ("poly", {"terms": 3}, "observable 'poly' terms must be a list of "
         "[coefficient, [exponents]] pairs, not 3"),
        ("poly", {"terms": [[1.0]]}, "observable 'poly' terms must be a list of "
         "[coefficient, [exponents]] pairs, not [[1.0]]"),
        ("poly", {"terms": [["a", [1, 0]]]}, "observable 'poly' terms must be a "
         "list of [coefficient, [exponents]] pairs, not [['a', [1, 0]]]"),
        ("poly", {}, "observable 'poly' needs the parameter 'terms'"),
        ("sine", {"index": 0, "scale": 2},
         "observable 'sine' has no parameter 'scale' (it takes index)"),
        ("poly", {"terms": [[1.0, [1, 0]]], "index": 0},
         "observable 'poly' has no parameter 'index' (it takes terms)"),
        ("constant", {"value": 1.0},
         "observable 'constant' has no parameter 'value' (it takes none)"),
    ], ids=["index-float", "index-bool", "index-string", "index-missing",
            "exponent-fraction", "exponent-negative", "exponent-bool",
            "terms-number", "term-without-exponents", "coefficient-string",
            "terms-missing", "sine-unknown", "poly-unknown", "constant-unknown"])
    def test_observable_refuses_bad_params(self, kind, params, message):
        with pytest.raises(ValueError) as info:
            observable(kind, params)
        assert str(info.value) == message

    def test_custom_not_serializable(self):
        L = Lifting(1, [outside_catalog(lambda X: X[..., 0] ** 3)])
        with pytest.raises(ValueError):
            L.descriptor()
