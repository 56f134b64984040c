"""Oracle-mode evaluation of the sufficient-data bound and the proportional
remainder bound.

Convention: the Gram matrix C and the generator-weighted matrices are plain
L2 inner products over the sampling box (no volume normalization), while the
variance matrices are per-entry variances with respect to the uniform
probability measure on the box.  Quadrature is carried out in expectations
and rescaled by the box volume where the unnormalized inner product is
required.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

# points per streamed block of the d0 quadrature: a block's lift, Lie
# derivatives and moment operands stay in cache (4096 to 16384 points time
# the same).  A power of two, so that Sobol blocks start at multiples of
# their own size (see _sobol_blocks)
BLOCK_ROWS = 8192


@dataclass(frozen=True)
class QuadratureSpec:
    method: str = "grid"            # "grid" | "mc"
    points_per_axis: int = 101
    samples: int = 1 << 21
    replicates: int = 8
    seed: int = 0
    sobol: bool = True              # scrambled-Sobol randomized QMC for "mc"

    def __post_init__(self):
        if self.method not in ("grid", "mc"):
            raise ValueError(f"unknown quadrature method '{self.method}'")
        for name, least in (("points_per_axis", 1), ("samples", 1),
                            ("replicates", 1), ("seed", 0)):
            value = getattr(self, name)
            if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
                    or value < least):
                raise ValueError(f"d0 quadrature: {name} must be an integer >= {least}")
        if not isinstance(self.sobol, bool):
            raise ValueError("d0 quadrature: sobol must be true or false")

    def describe(self):
        if self.method == "grid":
            return {"method": "grid", "points_per_axis": self.points_per_axis}
        return {"method": "mc", "samples": self.samples,
                "replicates": self.replicates, "seed": self.seed,
                "sobol": self.sobol}


def _scaled(U, box):
    """Unit points U (n, b) mapped row by row onto the box: lo_k + u * w_k,
    in a new C-ordered block."""
    X = np.multiply(U, (box[:, 1] - box[:, 0])[:, None], out=np.empty(U.shape))
    X += box[:, :1]
    return X


def _grid_replicates(box, points_per_axis):
    """The midpoint grid as one replicate: its point count and its (n, b)
    blocks, in the row order of ``np.meshgrid(*axes, indexing="ij")``
    raveled (the last coordinate runs fastest)."""
    axes = []
    for lo, hi in box:
        h = (hi - lo) / points_per_axis
        axes.append(lo + h * (np.arange(points_per_axis) + 0.5))
    total = points_per_axis ** len(axes)

    def blocks():
        for lo in range(0, total, BLOCK_ROWS):
            index = np.arange(lo, min(lo + BLOCK_ROWS, total))
            X = np.empty((len(axes), len(index)))
            for k in reversed(range(len(axes))):
                index, digit = np.divmod(index, points_per_axis)
                X[k] = axes[k][digit]
            yield X

    yield total, blocks()


# Joe & Kuo's direction numbers ("Constructing Sobol sequences with better
# two-dimensional projections", SIAM J. Sci. Comput. 30, 2008) for Sobol
# dimensions 2 to 16: the primitive polynomial as the bits of its
# coefficients (x^s down to 1) and the initial integers m_1..m_s.  Dimension
# 1 is van der Corput's, every m_i = 1.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
)
_SOBOL_DIMS = len(_JOE_KUO) + 1
_SOBOL_BITS = 30


def _sobol_directions(d):
    """(d, 30) integers m_j of each dimension, extended past the initial
    ones by the recurrence of Bratley & Fox (ACM TOMS 14, 1988)."""
    rows = [[1] * _SOBOL_BITS]
    for poly, init in _JOE_KUO[:d - 1]:
        s = len(init)
        m = list(init)
        for j in range(s, _SOBOL_BITS):
            v = m[j - s]
            for k in range(1, s + 1):
                if poly >> (s - k) & 1:
                    v ^= m[j - k] << k
            m.append(v)
        rows.append(m)
    return np.array(rows, dtype=np.uint32)


def _sobol_blocks(d, mexp, seed):
    """The first 2**mexp points of the d-dimensional Sobol sequence under
    Matousek's linear matrix scrambling plus a digital shift ("On the
    L2-discrepancy for anchored boxes", J. Complexity 14, 1998), in order,
    as coordinate-major (d, b) blocks of b = min(2**mexp, BLOCK_ROWS)
    points.  Concatenated and transposed they equal scipy's
    ``qmc.Sobol(d, scramble=True, seed=seed).random(2**mexp)`` bit for bit:
    the random bits come from ``np.random.default_rng(seed)`` in scipy's
    order, shift first."""
    if d > _SOBOL_DIMS:
        raise ValueError(f"the bundled Sobol generator has {_SOBOL_DIMS} "
                         f"dimensions, not {d}")
    if mexp > _SOBOL_BITS:
        raise ValueError(f"at most 2**{_SOBOL_BITS} Sobol points per replicate")
    msb = np.arange(_SOBOL_BITS - 1, -1, -1, dtype=np.uint32)   # 29, ..., 0
    rng = np.random.default_rng(seed)
    shift = rng.integers(0, 2, (d, _SOBOL_BITS), dtype=np.uint32) @ (1 << msb[::-1])
    ltm = np.tril(rng.integers(0, 2, (d, _SOBOL_BITS, _SOBOL_BITS), dtype=np.uint32))
    ltm[:, range(_SOBOL_BITS), range(_SOBOL_BITS)] = 1
    # direction number j is m_j * 2**(29 - j); bit 29 - p of its scrambled
    # form is the GF(2) product of row p of ltm with its bits, most
    # significant first
    v = (_sobol_directions(d)[:, :, None] << msb[:, None] >> msb) & 1   # (d, j, i)
    sv = ((v @ ltm.transpose(0, 2, 1)) & 1) @ (1 << msb)                 # (d, j)
    # Gray-code order: point i is the shift XOR sv[:, j] over the set bits j
    # of gray(i) = i ^ (i >> 1).  The base block is filled by reflection
    # (point h + i is point h - 1 - i with bit b flipped); as gray(lo + i) =
    # gray(lo) ^ gray(i) for lo a multiple of the block size, the block at lo
    # is the base block XOR one constant per dimension
    size = min(1 << mexp, BLOCK_ROWS)
    base = np.empty((d, size), dtype=np.uint32)
    base[:, 0] = shift
    for b in range(size.bit_length() - 1):
        h = 1 << b
        np.bitwise_xor(base[:, h - 1::-1], sv[:, b, None], out=base[:, h:2 * h])
    for lo in range(0, 1 << mexp, size):
        gray = lo ^ (lo >> 1)
        const = np.zeros((d, 1), dtype=np.uint32)
        for b in range(gray.bit_length()):
            if gray >> b & 1:
                const ^= sv[:, b, None]
        yield np.multiply(base ^ const, 2.0 ** -_SOBOL_BITS, out=np.empty(base.shape))


def _mc_replicates(box, spec, n):
    """Per replicate its point count and its (n, b) blocks, drawn as they
    are consumed: Sobol replicate r from a fresh generator seeded seed + r,
    rounded up to a power of two; plain Monte Carlo from one
    ``default_rng(seed)`` stream, ``random((b, n))`` per block, so the
    replicates equal one ``random((per, n))`` each, drawn in sequence when
    every replicate's blocks are consumed before the next replicate's."""
    box = np.asarray(box, dtype=float)
    per = max(2, spec.samples // spec.replicates)
    if spec.sobol:
        mexp = max(1, int(math.ceil(math.log2(per))))
        for r in range(spec.replicates):
            yield 1 << mexp, (_scaled(U, box)
                              for U in _sobol_blocks(n, mexp, spec.seed + r))
    else:
        rng = np.random.default_rng(spec.seed)
        for _ in range(spec.replicates):
            yield per, (_scaled(rng.random((min(BLOCK_ROWS, per - lo), n)).T, box)
                        for lo in range(0, per, BLOCK_ROWS))


@dataclass(frozen=True)
class DataRequirement:
    c_r: float
    delta: float
    delta_tilde: float
    c_r_tilde: float
    c_r_tilde_k: np.ndarray
    C: np.ndarray
    A_k: tuple
    sigma_C_fro: float
    sigma_A_fro: np.ndarray
    d0: int
    d0_float: float
    quadrature: dict
    mc_stderr: dict | None = None

    @property
    def log10_d0(self):
        return math.log10(self.d0_float) if self.d0_float > 0 else -math.inf

    def to_json(self):
        per_k = []
        for k in range(len(self.A_k)):
            per_k.append({
                "c_r_k": float(self.c_r_tilde_k[k]),
                "norm_A_k": float(np.linalg.norm(self.A_k[k], 2)),
                "sigma_frobenius": float(self.sigma_A_fro[k]),
            })
        doc = {
            "d0": int(self.d0),
            "d0_float": self.d0_float,
            "log10_d0": self.log10_d0,
            "exceeds_float64_int": bool(self.d0_float > 2.0 ** 53),
            "delta_tilde": self.delta_tilde,
            "c_r_tilde": self.c_r_tilde,
            "norm_C_inv": float(np.linalg.norm(np.linalg.inv(self.C), 2)),
            "sigma_C_frobenius": self.sigma_C_fro,
            "per_k": per_k,
            "quadrature": self.quadrature,
        }
        if self.mc_stderr is not None:
            doc["mc_stderr"] = self.mc_stderr
        return json.dumps(doc, sort_keys=True)


def _moment_tables(plant, lifting, replicates):
    """Accumulated expectations per quadrature replicate.

    Returns per-replicate tuples (C, EW[k], C2, EW2[k]) where C = E[phi phi'],
    EW[k][i,j] = E[phi_i * <grad phi_j, f + g_k>], C2 and EW2 the matching
    second moments (elementwise squares inside the expectation), and the
    number of points integrated.

    ``replicates`` yields (count, blocks): a replicate's point count and
    its coordinate-major (n, b) blocks of at most BLOCK_ROWS points, each
    weighted uniformly by 1/count.  A block writes the lift V and the Lie
    derivatives W_k = grad(phi) (f + g_k) into one array S' = [V, W_0, ...,
    W_m]', one contiguous row per observable and a column per point; its
    first moments are then the one product V' S and, once S is squared in
    place, its second moments the one product (V^2)' S^2.
    """
    K = lifting.N + 1
    St = np.empty(((plant.m + 2) * K, BLOCK_ROWS))
    out = []
    points = 0
    for count, blocks in replicates:
        points += count
        first = np.zeros((K, len(St)))
        second = np.zeros((K, len(St)))
        for block in blocks:
            s, X = St[:, :block.shape[1]], block.T      # X: the (b, n) rows, a view
            lifting.lift_many(X, out=s[:K])
            f = np.asarray(plant.f(X), dtype=float)
            for k in range(plant.m + 1):
                F = f if k == 0 else f + np.asarray(plant.g[k - 1](X), dtype=float)
                lifting.lie_many(X, F, out=s[(k + 1) * K:(k + 2) * K])
            first += s[:K] @ s.T
            np.square(s, out=s)
            second += s[:K] @ s.T
        first /= count
        second /= count
        out.append((first[:, :K], np.hsplit(first[:, K:], plant.m + 1),
                    second[:, :K], np.hsplit(second[:, K:], plant.m + 1)))
    return out, points


def _sigma(first, second):
    var = np.maximum(second - first ** 2, 0.0)
    return np.sqrt(var)


def compute_d0(plant, lifting, c_r, delta, quad=None):
    """Sufficient-data bound for the generator estimation error.

    Evaluates the Gram and generator-weighted moment matrices over the
    plant's sampling box by the chosen quadrature, forms the per-channel
    thresholds, and returns the ceiling of the worst-channel bound together
    with all intermediate quantities.  Requires plant dynamics (oracle mode).
    """
    if c_r <= 0.0:
        raise ValueError("c_r must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    quad = quad or QuadratureSpec()
    n = plant.n
    m = plant.m
    box = plant.state_box
    if quad.method == "grid":
        replicates = _grid_replicates(box, quad.points_per_axis)
    else:
        replicates = _mc_replicates(box, quad, n)
    tables, points = _moment_tables(plant, lifting, replicates)
    R = len(tables)
    volume = float(np.prod(box[:, 1] - box[:, 0]))
    EC = sum(t[0] for t in tables) / R
    C2 = sum(t[2] for t in tables) / R
    EA_k = [sum(t[1][k] for t in tables) / R for k in range(m + 1)]
    A2_k = [sum(t[3][k] for t in tables) / R for k in range(m + 1)]
    C = volume * EC
    A_k = [volume * EA for EA in EA_k]
    if not np.all(np.isfinite(C)) or any(not np.all(np.isfinite(A)) for A in A_k):
        raise ValueError("quadrature produced non-finite moments")
    mc_stderr = None
    if quad.method == "mc" and R > 1:
        se_C = np.std([t[0] for t in tables], axis=0, ddof=1) / math.sqrt(R)
        mc_stderr = {"C_max": float(np.max(se_C))}

    sigma_C = _sigma(EC, C2)
    sigma_A = [_sigma(EA_k[k], A2_k[k]) for k in range(m + 1)]

    delta_tilde = delta / (3.0 * (m + 1))
    ub = plant.input_box
    u_l1_max = float(np.sum(np.maximum(np.abs(ub[:, 0]), np.abs(ub[:, 1]))))
    c_r_tilde = c_r / ((m + 1) * (1.0 + u_l1_max))

    C_inv_norm = float(np.linalg.norm(np.linalg.inv(C), 2))
    c_r_tilde_k = np.empty(m + 1)
    bound = 0.0
    Np1 = lifting.N + 1
    sig_C_fro = float(np.linalg.norm(sigma_C, "fro"))
    sig_A_fro = np.empty(m + 1)
    for k in range(m + 1):
        a_norm = float(np.linalg.norm(A_k[k], 2))
        c_r_tilde_k[k] = (min(1.0, 1.0 / (a_norm * C_inv_norm))
                          * a_norm * c_r_tilde
                          / (2.0 * a_norm * C_inv_norm + c_r_tilde))
        sig_A_fro[k] = float(np.linalg.norm(sigma_A[k], "fro"))
        val = (Np1 ** 2 / (delta_tilde * c_r_tilde_k[k] ** 2)
               * max(sig_A_fro[k] ** 2, sig_C_fro ** 2))
        bound = max(bound, val)
    d0_float = float(bound)
    d0 = max(1, math.ceil(bound))
    return DataRequirement(c_r=float(c_r), delta=float(delta),
                           delta_tilde=delta_tilde, c_r_tilde=c_r_tilde,
                           c_r_tilde_k=c_r_tilde_k, C=C, A_k=tuple(A_k),
                           sigma_C_fro=sig_C_fro, sigma_A_fro=sig_A_fro,
                           d0=d0, d0_float=d0_float,
                           quadrature=dict(quad.describe(),
                                           points_integrated=points),
                           mc_stderr=mc_stderr)
