"""Observable dictionaries for Koopman lifting.

A dictionary always starts with the constant observable and the coordinate
maps; user-chosen observables follow and must vanish at the origin.  The full
lift of a state ``x`` is ``(1, x_1, ..., x_n, phi_{n+1}(x), ..., phi_N(x))``;
the reduced lift drops the leading constant entry and therefore vanishes at
``x = 0``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np


class DictionaryError(ValueError):
    """Raised when a dictionary violates the required structure."""


@dataclass(frozen=True)
class Observable:
    """Scalar observable with value and Lie-derivative evaluators.

    ``fn`` maps states ``(..., n) -> (...)``; ``lie(X, V)`` maps states and
    directions, both ``(..., n)``, to the directional derivatives
    ``grad(fn)(x) . v`` of shape ``(...)``.
    """

    kind: str
    params: dict
    fn: Callable
    lie: Callable


def constant():
    return Observable(
        kind="constant",
        params={},
        fn=lambda X: np.ones(np.shape(X)[:-1]),
        lie=lambda X, V: np.zeros(np.shape(V)[:-1]),
    )


def coordinate(index):
    """The coordinate map x -> x_k (0-based index)."""
    k = int(index)
    return Observable(kind="coordinate", params={"index": k},
                      fn=lambda X: np.asarray(X, dtype=float)[..., k],
                      lie=lambda X, V: np.asarray(V, dtype=float)[..., k])


def poly(terms):
    """Polynomial observable ``sum_t c_t * prod_k x_k**e_{t,k}``.

    ``terms`` is a sequence of ``(coeff, exponents)`` pairs; every term must
    have total degree >= 1 so the observable vanishes at the origin.
    """
    terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]
    for c, exps in terms:
        if sum(exps) < 1:
            raise DictionaryError("polynomial terms must have degree >= 1")

    def fn(X):
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[:-1])
        for c, exps in terms:
            t = np.full(X.shape[:-1], c)
            for k, e in enumerate(exps):
                if e:
                    t = t * X[..., k] ** e
            out = out + t
        return out

    def lie(X, V):
        # the partials, each summed over the terms from zero, times V, summed
        # in coordinate order
        X = np.asarray(X, dtype=float)
        V = np.asarray(V, dtype=float)
        out = np.zeros(X.shape[:-1])
        for k in range(X.shape[-1]):
            partial = np.zeros(X.shape[:-1])
            for c, exps in terms:
                if not exps[k]:
                    continue
                t = np.full(X.shape[:-1], c * exps[k])
                for kk, ee in enumerate(exps):
                    p = ee - 1 if kk == k else ee
                    if p:
                        t = t * X[..., kk] ** p
                partial += t
            out += partial * V[..., k]
        return out

    return Observable(kind="poly", params={"terms": [[c, list(e)] for c, e in terms]},
                      fn=fn, lie=lie)


def sine(index):
    """sin(x_k); vanishes at the origin."""
    k = int(index)
    return Observable(kind="sine", params={"index": k},
                      fn=lambda X: np.sin(np.asarray(X, dtype=float)[..., k]),
                      lie=lambda X, V: (np.cos(np.asarray(X, dtype=float)[..., k])
                                        * np.asarray(V, dtype=float)[..., k]))


def cosine_minus_one(index):
    """cos(x_k) - 1; the shift makes it admissible (zero at the origin)."""
    k = int(index)
    return Observable(kind="cosine_minus_one", params={"index": k},
                      fn=lambda X: np.cos(np.asarray(X, dtype=float)[..., k]) - 1.0,
                      lie=lambda X, V: (-np.sin(np.asarray(X, dtype=float)[..., k])
                                        * np.asarray(V, dtype=float)[..., k]))


def evaluate(observables, X, V=None, out=None):
    """Observable k at every row of X (d, n), or its Lie derivative along
    the matching row of V (d, n) when V is given, in row k of ``out``
    (len(observables), d), a new array unless given.  Each observable writes
    one contiguous row."""
    if out is None:
        out = np.empty((len(observables), len(X)))
    for k, ob in enumerate(observables):
        out[k] = ob.fn(X) if V is None else ob.lie(X, V)
    return out


def _is_integer(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _param(kind, params, name):
    if name not in params:
        raise ValueError(f"observable '{kind}' needs the parameter '{name}'")
    return params[name]


def _index(kind, params):
    """The coordinate index of ``params``: an integer (a float or a boolean
    would be truncated or read as 0 or 1)."""
    k = _param(kind, params, "index")
    if not _is_integer(k):
        raise ValueError(f"observable '{kind}' index must be an integer, not {k!r}")
    return k


def _terms(params):
    """The ``[coefficient, [exponents]]`` pairs of ``params``, each exponent
    an integer >= 0 (a fractional one would be truncated)."""
    terms = _param("poly", params, "terms")
    if not (isinstance(terms, (list, tuple)) and all(
            isinstance(t, (list, tuple)) and len(t) == 2
            and isinstance(t[0], numbers.Real) and not isinstance(t[0], bool)
            and isinstance(t[1], (list, tuple)) for t in terms)):
        raise ValueError("observable 'poly' terms must be a list of "
                         f"[coefficient, [exponents]] pairs, not {terms!r}")
    for _, exps in terms:
        for e in exps:
            if not (_is_integer(e) and e >= 0):
                raise ValueError(f"observable 'poly' exponent {e!r} must be an "
                                 "integer of at least 0")
    return terms


# each catalog kind: its parameter names and its builder
_CATALOG = {
    "constant": ((), lambda params: constant()),
    "coordinate": (("index",), lambda params: coordinate(_index("coordinate", params))),
    "poly": (("terms",), lambda params: poly(_terms(params))),
    "sine": (("index",), lambda params: sine(_index("sine", params))),
    "cosine_minus_one": (("index",), lambda params: cosine_minus_one(
        _index("cosine_minus_one", params))),
}


def observable(kind, params):
    """The catalog observable ``kind`` with ``params``; bad or unknown
    parameters raise ``ValueError``."""
    if kind not in _CATALOG:
        raise ValueError(f"unknown observable kind '{kind}' "
                         f"(choose from {', '.join(_CATALOG)})")
    names, build = _CATALOG[kind]
    unknown = sorted(set(params) - set(names))
    if unknown:
        raise ValueError(f"observable '{kind}' has no parameter '{unknown[0]}' "
                         f"(it takes {', '.join(names) or 'none'})")
    return build(params)


@dataclass(frozen=True)
class Lifting:
    """Immutable observable dictionary.

    ``observables`` has length N+1: entry 0 is the constant, entries 1..n the
    coordinates, the rest user observables vanishing at the origin.
    """

    n: int
    observables: tuple

    def __post_init__(self):
        _validate(self)

    @property
    def N(self):
        """Reduced lifted dimension (number of non-constant observables)."""
        return len(self.observables) - 1

    # -- evaluation -----------------------------------------------------
    # the single-state lift is a one-row call of the batch lift

    def lift(self, x):
        """Full lifted vector Phi(x) of length N+1."""
        return self.lift_many(self._check_state(x)[None])[0]

    def lift_many(self, X, out=None):
        """Vectorized full lift of X (d, n): the (d, N+1) transpose of the
        observable-major array ``out`` (N+1, d), a new one unless given, so
        each observable's column is contiguous.  A non-finite value raises
        ``ValueError`` naming its state."""
        X = np.asarray(X, dtype=float)
        out = evaluate(self.observables, X, out=out)
        finite = np.isfinite(out)
        if not np.all(finite):
            bad = np.flatnonzero(~np.all(finite, axis=0))[0]
            raise ValueError("non-finite observable value at x=%r" % (X[bad],))
        return out.T

    def lift_reduced_many(self, X):
        return self.lift_many(X)[:, 1:]

    def lie_many(self, X, V, out=None):
        """Lie derivatives grad(phi_k)(x) . v of every observable at the rows
        of X and V (d, n): the (d, N+1) transpose of ``out`` (N+1, d), a new
        array unless given."""
        return evaluate(self.observables, np.asarray(X, dtype=float), V, out).T

    def gradient_many(self, X):
        """Vectorized gradients; result has shape (d, N+1, n), column j the
        Lie derivatives along the unit vector e_j."""
        X = np.asarray(X, dtype=float)
        G = np.empty((len(X), self.N + 1, self.n))
        for j, e in enumerate(np.eye(self.n)):
            G[:, :, j] = self.lie_many(X, np.broadcast_to(e, X.shape))
        return G

    # -- serialization --------------------------------------------------

    def descriptor(self):
        """JSON-serializable description ``{n, N, observables}``."""
        obs = []
        for ob in self.observables:
            if ob.kind not in _CATALOG:
                raise ValueError(f"observable kind '{ob.kind}' is not serializable")
            obs.append({"kind": ob.kind, "params": ob.params})
        return {"n": self.n, "N": self.N, "observables": obs}

    @staticmethod
    def from_descriptor(desc):
        obs = tuple(observable(o["kind"], o.get("params", {})) for o in desc["observables"])
        return Lifting(n=int(desc["n"]), observables=obs)

    # -- internals ------------------------------------------------------

    def _check_state(self, x):
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.n},)")
        return x


def _validate(L):
    n = L.n
    for ob in L.observables:    # before any is evaluated (numpy wraps index -1)
        if "index" in ob.params and not 0 <= ob.params["index"] < n:
            raise ValueError(f"observable '{ob.kind}' index {ob.params['index']} "
                             f"is outside 0..{n - 1} (the plant has {n} states)")
        for _, exps in ob.params.get("terms", ()):
            if len(exps) != n:
                raise ValueError(f"observable '{ob.kind}' exponent list {exps} has "
                                 f"length {len(exps)}, but the plant has {n} states")
    if len(L.observables) < n + 1:
        raise DictionaryError("dictionary must contain the constant and all coordinates")
    rng = np.random.default_rng(0)
    # the origin, then three random states
    probes = np.vstack([np.zeros(n), rng.uniform(-1.0, 1.0, size=(3, n))])
    values = evaluate(L.observables, probes).T
    X, E = np.repeat(probes, n, axis=0), np.tile(np.eye(n), (len(probes), 1))
    if (np.any(np.abs(values[:, 0] - 1.0) > 1e-12)
            or np.any(np.abs(L.lie_many(X, E)[:, 0]) > 1e-12)):
        raise DictionaryError("observable 0 must be identically 1")
    for k in range(1, n + 1):
        if np.any(np.abs(values[:, k] - probes[:, k - 1]) > 1e-12):
            raise DictionaryError(f"observable {k} must be the coordinate map x_{k}")
    for k in range(n + 1, len(L.observables)):
        v = float(values[0, k])
        if not np.isfinite(v) or abs(v) > 1e-12:
            raise DictionaryError(f"observable {k} must vanish at the origin (got {v})")


def make_lifting(n, extras=()):
    """Build a dictionary from the extra observables only; the constant and
    coordinate maps are prepended automatically."""
    obs = (constant(),) + tuple(coordinate(k) for k in range(n)) + tuple(extras)
    return Lifting(n=n, observables=obs)
