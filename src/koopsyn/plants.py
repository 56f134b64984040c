"""Ground-truth plant oracles and state/derivative sampling.

Plants supply the data for identification and the right-hand sides for
closed-loop simulation; the synthesis path itself only ever sees samples.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .matops import write_json


@dataclass(frozen=True)
class Plant:
    """Control-affine system ``xdot = f(x) + sum_i u_i g_i(x)``.

    ``f`` and each ``g_i`` map (..., n) -> (..., n) arrays.  The drift must
    vanish at the origin and the input box must contain 0 in its interior.
    """

    name: str
    n: int
    m: int
    f: Callable
    g: tuple
    state_box: np.ndarray
    input_box: np.ndarray

    def __post_init__(self):
        sb = np.asarray(self.state_box, dtype=float)
        ib = np.asarray(self.input_box, dtype=float)
        object.__setattr__(self, "state_box", sb)
        object.__setattr__(self, "input_box", ib)
        if sb.shape != (self.n, 2) or ib.shape != (self.m, 2):
            raise ValueError("state/input boxes must have shape (dim, 2)")
        if np.any(ib[:, 0] >= 0.0) or np.any(ib[:, 1] <= 0.0):
            raise ValueError("input box must contain 0 in its interior")
        f0 = np.asarray(self.f(np.zeros(self.n)), dtype=float)
        if np.linalg.norm(f0) > 1e-12:
            raise ValueError("drift must vanish at the origin (controlled equilibrium)")

    def vector_field(self, x, u):
        """Evaluate ``f(x) + sum_i u_i g_i(x)``.

        ``x`` is one state (n,) or a batch (d, n).  ``u`` is one input (m,),
        shared by every row of a batch, or one input per row (d, m).
        """
        x = np.asarray(x, dtype=float)
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if x.shape[-1] != self.n or u.shape[-1] != self.m or not (
                u.ndim == 1 or (u.ndim == 2 and x.ndim == 2
                                and u.shape[0] == x.shape[0])):
            raise ValueError("dimension mismatch in vector field evaluation")
        out = np.asarray(self.f(x), dtype=float)
        for i in range(self.m):
            out = out + u[..., i, None] * np.asarray(self.g[i](x), dtype=float)
        return out


def _number(params, default, name, *aliases):
    """Pop the parameter ``name`` and its ``aliases`` from ``params``; the
    first one given, as a float, else ``default``.  A value that is not a
    finite number, or is a boolean, raises ValueError naming it."""
    given = [(key, params.pop(key)) for key in (name, *aliases) if key in params]
    if not given:
        return default
    key, value = given[0]
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"plant parameter '{key}' must be a number, not {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"plant parameter '{key}' must be finite, not {value!r}")
    return float(value)


def make_example(example_id, **params):
    """Construct one of the built-in benchmark plants.

    ``cooked_up`` / ``cooked_up_xy``: planar system with decoupled linear
    first state and a quadratic coupling in the second, single additive
    input (parameters ``rho``, ``lam``).  ``pendulum``: inverted pendulum
    with parameters ``mass``, ``length``, ``friction``, ``gravity``.
    """
    if example_id in ("cooked_up", "cooked_up_xy"):
        rho = _number(params, -2.0, "rho")
        lam = _number(params, 1.0, "lam", "lambda")
        if params:
            raise ValueError(f"unknown parameters {sorted(params)}")

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape)
            out[..., 0] = rho * x[..., 0]
            out[..., 1] = lam * (x[..., 1] - x[..., 0] ** 2)
            return out

        def g1(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., 1] = 1.0
            return out

        return Plant(name=example_id, n=2, m=1, f=f, g=(g1,),
                     state_box=[[-1.0, 1.0], [-1.0, 1.0]],
                     input_box=[[-1.0, 1.0]])

    if example_id == "pendulum":
        mass = _number(params, 1.0, "mass", "m")
        length = _number(params, 1.0, "length", "l")
        fric = _number(params, 0.01, "friction", "b")
        grav = _number(params, 9.81, "gravity", "g")
        if params:
            raise ValueError(f"unknown parameters {sorted(params)}")
        ml2 = mass * length ** 2

        def f(x):
            x = np.asarray(x, dtype=float)
            out = np.empty(x.shape)
            out[..., 0] = x[..., 1]
            out[..., 1] = ((grav / length) * np.sin(x[..., 0])
                           - (fric / ml2) * x[..., 1])
            return out

        def g1(x):
            x = np.asarray(x, dtype=float)
            out = np.zeros(x.shape)
            out[..., 1] = 1.0 / ml2
            return out

        return Plant(name="pendulum", n=2, m=1, f=f, g=(g1,),
                     state_box=[[-2.0, 10.0], [-2.0, 10.0]],
                     input_box=[[-10.0, 10.0]])

    raise ValueError(f"unknown example id '{example_id}'")


@dataclass(frozen=True)
class SampleBatch:
    """States and derivatives recorded under one constant input."""

    u_bar: np.ndarray
    states: np.ndarray
    derivs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u_bar", np.atleast_1d(np.asarray(self.u_bar, dtype=float)))
        object.__setattr__(self, "states", np.asarray(self.states, dtype=float))
        object.__setattr__(self, "derivs", np.asarray(self.derivs, dtype=float))
        if self.states.shape != self.derivs.shape:
            raise ValueError("states and derivatives must have matching shapes")

    @property
    def count(self):
        return self.states.shape[0]


@dataclass(frozen=True)
class SampleSet:
    """Batches for the constant inputs 0, a_1 e_1, ..., a_m e_m."""

    batches: tuple
    noise_bound: float = 0.0
    seed: int | None = None

    def batch(self, k):
        """Batch k, with k = 0 the zero-input batch and k = i the e_i batch."""
        return self.batches[k]

    @property
    def m(self):
        return len(self.batches) - 1


def _batch_rng(seed, batch_index):
    # documented stream split: one child stream per (seed, batch index)
    return np.random.default_rng([int(seed), int(batch_index)])


def sample_uniform(plant, u_bar, d, seed, batch_index=0, noise_bound=0.0):
    """Draw ``d`` i.i.d. uniform states from the plant's state box and record
    exact derivatives under the constant input ``u_bar``; optional uniform
    derivative noise on ``[-noise_bound, noise_bound]`` per component."""
    if d < 1:
        raise ValueError("need at least one sample")
    u_bar = np.atleast_1d(np.asarray(u_bar, dtype=float))
    rng = _batch_rng(seed, batch_index)
    box = plant.state_box
    X = box[:, 0] + rng.random((int(d), plant.n)) * (box[:, 1] - box[:, 0])
    Xdot = plant.vector_field(X, u_bar)
    if noise_bound > 0.0:
        Xdot = Xdot + rng.uniform(-noise_bound, noise_bound, size=Xdot.shape)
    return SampleBatch(u_bar=u_bar, states=X, derivs=Xdot)


def basis_input_scales(plant):
    """Largest alpha_i <= 1 such that alpha_i * e_i lies in the input box."""
    ib = plant.input_box
    return np.minimum(1.0, np.minimum(-ib[:, 0], ib[:, 1]))


def collect_samples(plant, d, seed, noise_bound=0.0):
    """SampleSet with one batch per constant input 0, a_1 e_1, ..., a_m e_m.

    Unit-vector inputs are scaled down when they would leave the input box.
    """
    scales = basis_input_scales(plant)
    batches = [sample_uniform(plant, np.zeros(plant.m), d, seed,
                              batch_index=0, noise_bound=noise_bound)]
    for i in range(plant.m):
        u = np.zeros(plant.m)
        u[i] = scales[i]
        batches.append(sample_uniform(plant, u, d, seed,
                                      batch_index=i + 1, noise_bound=noise_bound))
    return SampleSet(batches=tuple(batches), noise_bound=float(noise_bound),
                     seed=int(seed))


def save_samples(samples, outdir, plant=None):
    """Write one float64 (d, 2n) array per batch, states then derivatives
    (samples_u<k>.npy), plus metadata JSON naming the columns."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n = samples.batches[0].states.shape[1]
    files = []
    for k, b in enumerate(samples.batches):
        files.append(f"samples_u{k}.npy")
        np.save(outdir / files[-1], np.hstack([b.states, b.derivs]), allow_pickle=False)
    meta = {
        "seed": samples.seed,
        "noise_bound": samples.noise_bound,
        "columns": [f"x_{j+1}" for j in range(n)] + [f"xdot_{j+1}" for j in range(n)],
        "counts": [b.count for b in samples.batches],
        "inputs": [b.u_bar.tolist() for b in samples.batches],
        "files": files,
    }
    if plant is not None:
        meta["plant"] = {"name": plant.name, "n": plant.n, "m": plant.m,
                         "state_box": plant.state_box.tolist(),
                         "input_box": plant.input_box.tolist()}
    write_json(outdir / "samples_meta.json", meta)
    return meta


def load_samples(outdir):
    """Read a SampleSet written by :func:`save_samples`, or measured data in
    its layout.  samples_meta.json must be an object whose ``files``,
    ``counts`` and ``inputs`` are lists of one length; file k must be a .npy
    float64 array of ``counts[k]`` rows and of one even width 2n for every
    batch.  Anything else raises ``ValueError`` naming the file and field."""
    outdir = Path(outdir)
    meta_path = outdir / "samples_meta.json"
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{meta_path}: not JSON ({exc})") from None
    lists = [meta.get(key) for key in ("files", "counts", "inputs")] \
        if isinstance(meta, dict) else [None]
    if not all(isinstance(v, list) for v in lists) or len({len(v) for v in lists}) != 1:
        raise ValueError(f"{meta_path} must be an object whose 'files', 'counts' "
                         f"and 'inputs' are lists of one length")
    batches, width = [], None
    for k, (name, count, u_bar) in enumerate(zip(*lists)):
        if not (isinstance(name, str) and name.endswith(".npy")):
            stale = isinstance(name, str) and name.endswith(".csv")
            raise ValueError(f"{meta_path}: files[{k}] = {name!r} is not a .npy file"
                             + ("; it is the text format of an earlier version, "
                                "run collect again" if stale else ""))
        if not (isinstance(u_bar, list) and len(u_bar) == len(lists[2][0])
                and all(type(v) in (int, float) for v in u_bar)):
            raise ValueError(f"{meta_path}: inputs[{k}] must be a list of numbers "
                             f"as long as inputs[0]")
        path = outdir / name
        try:
            rows = np.load(path, allow_pickle=False)
        except (ValueError, EOFError) as exc:
            raise ValueError(f"{path}: not a readable .npy array ({exc})") from None
        if not (isinstance(rows, np.ndarray) and rows.dtype == np.float64
                and rows.ndim == 2):
            raise ValueError(f"{path} must hold a 2-D float64 array")
        width = rows.shape[1] if width is None else width
        if rows.shape != (count, width) or width % 2 or not width:
            raise ValueError(f"{path} has shape {rows.shape}, but counts[{k}] is "
                             f"{count!r} and every batch needs one even width 2n")
        batches.append(SampleBatch(u_bar=u_bar, states=rows[:, :width // 2],
                                   derivs=rows[:, width // 2:]))
    return SampleSet(batches=tuple(batches), noise_bound=meta.get("noise_bound", 0.0),
                     seed=meta.get("seed"))
