"""Observable dictionaries for Koopman lifting.

A dictionary ``Lifting(n, extras)`` is the constant observable, the n
coordinate maps, then the user-chosen extras, which must vanish at the
origin.  The full lift of a state ``x`` is ``(1, x_1, ..., x_n,
phi_{n+1}(x), ..., phi_N(x))``; the reduced lift drops the leading constant
entry and therefore vanishes at ``x = 0``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
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
    """Immutable observable dictionary of an ``n``-state plant.

    ``observables`` has length N+1: entry 0 is the constant, entries 1..n the
    coordinate maps, the rest the ``extras``, observables vanishing at the
    origin.
    """

    n: int
    extras: tuple = ()
    observables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "extras", tuple(self.extras))
        _validate(self.n, self.extras)
        object.__setattr__(self, "observables", (constant(),) + tuple(
            coordinate(k) for k in range(self.n)) + self.extras)

    @property
    def N(self):
        """Reduced lifted dimension (number of non-constant observables)."""
        return len(self.observables) - 1

    # -- evaluation -----------------------------------------------------
    # the single-state lift is a one-row call of the batch lift

    def lift(self, x):
        """Full lifted vector Phi(x) of length N+1."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"state has shape {x.shape}, expected ({self.n},)")
        return self.lift_many(x[None])[0]

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
        for ob in self.extras:
            if ob.kind not in _CATALOG:
                raise ValueError(f"observable kind '{ob.kind}' is not serializable")
        return {"n": self.n, "N": self.N, "observables": [
            {"kind": ob.kind, "params": ob.params} for ob in self.observables]}

    @staticmethod
    def from_descriptor(desc):
        """Inverse of ``descriptor``, the one check of a stored dictionary:
        each refusal names its field."""
        if not isinstance(desc, dict):
            raise ValueError(f"lifting must be an object, not {desc!r}")
        n, N, obs = desc.get("n"), desc.get("N"), desc.get("observables")
        if not (_is_integer(n) and n >= 1):
            raise ValueError(f"lifting 'n' must be an integer of at least 1, not {n!r}")
        if not (isinstance(obs, list) and all(isinstance(o, dict) and isinstance(
                o.get("kind"), str) and isinstance(o.get("params", {}), dict) for o in obs)):
            raise ValueError("lifting 'observables' must be a list of objects, each "
                             "with a 'kind' string and a 'params' object")
        obs = [observable(o["kind"], o.get("params", {})) for o in obs]
        if [(o.kind, o.params) for o in obs[:n + 1]] != [("constant", {})] + [
                ("coordinate", {"index": k}) for k in range(n)]:
            raise ValueError(f"lifting 'observables' must start with the constant "
                             f"and the coordinate maps x_1..x_{n}, in order")
        if not (_is_integer(N) and N == len(obs) - 1):
            raise ValueError(f"lifting 'N' must be {len(obs) - 1}, the number of "
                             f"observables after the constant, not {N!r}")
        return Lifting(n, obs[n + 1:])


def _validate(n, extras):
    """Refuse an extra that is implied, that reads outside the n states, or
    that is not finite and zero at the origin."""
    for ob in extras:    # before any is evaluated (numpy wraps index -1)
        if ob.kind in ("constant", "coordinate"):
            raise DictionaryError(f"observable '{ob.kind}' is implied, not an extra")
        if "index" in ob.params and not 0 <= ob.params["index"] < n:
            raise ValueError(f"observable '{ob.kind}' index {ob.params['index']} "
                             f"is outside 0..{n - 1} (the plant has {n} states)")
        for _, exps in ob.params.get("terms", ()):
            if len(exps) != n:
                raise ValueError(f"observable '{ob.kind}' exponent list {exps} has "
                                 f"length {len(exps)}, but the plant has {n} states")
    for k, v in enumerate(evaluate(extras, np.zeros((1, n)))[:, 0], start=n + 1):
        if not np.isfinite(v) or abs(v) > 1e-12:
            raise DictionaryError(f"observable {k} must vanish at the origin (got {v})")
