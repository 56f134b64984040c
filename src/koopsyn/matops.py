"""Small dense-matrix helpers shared across the toolkit."""

from __future__ import annotations

import numpy as np

_SQRT2 = np.sqrt(2.0)


def sym(M):
    """Symmetrize a square matrix."""
    return 0.5 * (M + M.T)


def min_eig(M):
    """Smallest eigenvalue of a symmetric matrix."""
    return float(np.linalg.eigvalsh(sym(np.asarray(M, dtype=float)))[0])


def quadratic_rows(Z, M):
    """z' M z for every row z of Z (d, N), from elementwise products summed
    in a fixed order, so that a row's value does not depend on the other rows
    or on d (a BLAS product may change its summation order with the batch
    shape, and rounds differently from the single-vector ``z @ M @ z``)."""
    N = M.shape[0]
    ZM = sum(Z[:, k, None] * M[k] for k in range(N))
    return sum(ZM[:, k] * Z[:, k] for k in range(N))


def svec(S):
    """Vectorize a symmetric matrix: upper triangle, row-major, off-diagonal
    entries scaled by sqrt(2) so that <svec a, svec b> = <a, b>_F."""
    S = np.asarray(S, dtype=float)
    n = S.shape[0]
    out = np.empty(n * (n + 1) // 2)
    k = 0
    for i in range(n):
        out[k] = S[i, i]
        k += 1
        for j in range(i + 1, n):
            out[k] = _SQRT2 * S[i, j]
            k += 1
    return out


def smat(v, n):
    """Inverse of :func:`svec`."""
    v = np.asarray(v, dtype=float)
    S = np.zeros((n, n))
    k = 0
    for i in range(n):
        S[i, i] = v[k]
        k += 1
        for j in range(i + 1, n):
            S[i, j] = S[j, i] = v[k] / _SQRT2
            k += 1
    return S


def sym_dim(n):
    return n * (n + 1) // 2


def sym_basis(n):
    """Orthonormal (Frobenius) basis of symmetric n x n matrices, ordered
    consistently with :func:`svec`."""
    basis = []
    for i in range(n):
        E = np.zeros((n, n))
        E[i, i] = 1.0
        basis.append(E)
        for j in range(i + 1, n):
            E = np.zeros((n, n))
            E[i, j] = E[j, i] = 1.0 / _SQRT2
            basis.append(E)
    return basis


def block(rows):
    """Assemble a dense matrix from a nested list of blocks (np.block with
    float conversion)."""
    return np.block([[np.asarray(b, dtype=float) for b in row] for row in rows])
