"""Small dense-matrix and artifact (JSON) helpers shared across the toolkit."""

from __future__ import annotations

import json
import math

import numpy as np

_SQRT2 = np.sqrt(2.0)
TABLE_BLOCK_ROWS = 4096     # rows formatted per write in write_table


def mT(M):
    """Transpose of a matrix or of each matrix of a stack (last two axes)."""
    return np.swapaxes(M, -1, -2)


def sym(M):
    """Symmetrize a square matrix, or each matrix of a stack."""
    return 0.5 * (M + mT(M))


def quadratic_rows(Z, M):
    """z' M z for every row z of Z (d, N), from elementwise products summed
    in a fixed order, so that a row's value does not depend on the other rows
    or on d (a BLAS product may change its summation order with the batch
    shape, and rounds differently from the single-vector ``z @ M @ z``)."""
    N = M.shape[0]
    ZM = sum(Z[:, k, None] * M[k] for k in range(N))
    return sum(ZM[:, k] * Z[:, k] for k in range(N))


def _triu_scale(n):
    """Upper-triangle indices of an n x n matrix, row-major, and the scale of
    each entry in :func:`svec`: 1 on the diagonal, sqrt(2) off it."""
    rows, cols = np.triu_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, _SQRT2)


def svec(S):
    """Vectorize a symmetric matrix: upper triangle, row-major, off-diagonal
    entries scaled by sqrt(2) so that <svec a, svec b> = <a, b>_F."""
    S = np.asarray(S, dtype=float)
    rows, cols, scale = _triu_scale(S.shape[0])
    return S[rows, cols] * scale


def smat(v, n):
    """Inverse of :func:`svec`; a stack of vectors (..., n(n+1)/2) gives a
    stack of matrices (..., n, n)."""
    v = np.asarray(v, dtype=float)
    rows, cols, scale = _triu_scale(n)
    S = np.zeros(v.shape[:-1] + (n, n))
    S[..., rows, cols] = S[..., cols, rows] = v / scale
    return S


def sym_dim(n):
    return n * (n + 1) // 2


def block(rows):
    """Assemble a dense matrix from a nested list of blocks, as np.block
    does for 2-D blocks.  Blocks may be stacks of matrices: their leading
    axes broadcast, so a 2-D block is repeated along a stack."""
    rows = [[np.asarray(b, dtype=float) for b in row] for row in rows]
    lead = np.broadcast_shapes(*(b.shape[:-2] for row in rows for b in row))
    width = sum(b.shape[-1] for b in rows[0])
    out = np.empty(lead + (sum(row[0].shape[-2] for row in rows), width))
    r = 0
    for row in rows:
        h, c = row[0].shape[-2], 0
        for b in row:
            if b.shape[-2] != h or c + b.shape[-1] > width:
                raise ValueError("blocks do not tile a matrix")
            out[..., r:r + h, c:c + b.shape[-1]] = b
            c += b.shape[-1]
        if c != width:
            raise ValueError("blocks do not tile a matrix")
        r += h
    return out


def kron(a, b):
    """np.kron(a, b) of a matrix b with a matrix a or with each matrix of a
    stack a."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    (p, q), (r, s) = a.shape[-2:], b.shape
    return (a[..., :, None, :, None] * b[:, None, :]).reshape(
        a.shape[:-2] + (p * r, q * s))


def write_table(path, M):
    """Write the rows of the 2-D array M as text, the bytes of
    ``np.savetxt(path, M, fmt="%.17g")``.  The rows are formatted and written
    TABLE_BLOCK_ROWS at a time, so the memory a write needs does not grow
    with the table."""
    M = np.asarray(M, dtype=float)
    row = " ".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        for lo in range(0, len(M), TABLE_BLOCK_ROWS):
            rows = M[lo:lo + TABLE_BLOCK_ROWS]
            fh.write((row * len(rows)) % tuple(rows.ravel().tolist()))


def write_json(path, doc, indent=1):
    """Write ``doc`` as sorted-key JSON with a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def encode_matrix(M):
    """JSON form ``{"shape", "data"}`` of an array (``None`` stays ``None``);
    vectors and scalars are stored as 2-D rows."""
    if M is None:
        return None
    M = np.atleast_2d(np.asarray(M, dtype=float))
    return {"shape": list(M.shape), "data": M.ravel().tolist()}


def decode_matrix(obj):
    """Inverse of :func:`encode_matrix`; anything but ``None`` or an object
    whose ``shape`` is a list of non-negative integers and whose ``data`` is
    a list of that many numbers raises ``ValueError``."""
    if obj is None:
        return None
    doc = obj if isinstance(obj, dict) else {}
    shape, data = doc.get("shape"), doc.get("data")
    if not (isinstance(shape, list) and all(type(k) is int and k >= 0 for k in shape)
            and isinstance(data, list) and len(data) == math.prod(shape)
            and all(type(v) in (int, float) for v in data)):
        raise ValueError("a stored matrix must be an object whose 'shape' is a "
                         "list of non-negative integers and whose 'data' is a "
                         "list of that many numbers")
    return np.asarray(data, dtype=float).reshape(shape)


def read_artifact(text, file, stage, required, numbers):
    """The JSON object held by the text of artifact ``file``; text that is
    not readable JSON or not an object, a missing ``required`` key, and a
    key in ``numbers`` that is not a finite number (or null, when not
    required) are refused naming ``file`` and the ``stage`` to re-run."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{file} is not readable JSON ({exc}); re-run {stage}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{file} must hold a JSON object; re-run {stage}")
    for key in (*required, *numbers):
        value, optional = doc.get(key), key not in required
        what = " as a finite number" + " or null" * optional if key in numbers else ""
        if not (optional or key in doc) or what and not (
                value is None and optional
                or type(value) in (int, float) and math.isfinite(value)):
            raise ValueError(f"{file} needs '{key}'{what}; re-run {stage}")
    return doc


def decode_fields(fields, file, stage):
    """The matrices of ``fields`` (name -> stored matrix or None), each decoded
    by :func:`decode_matrix`; one with a non-finite entry is refused naming
    ``file``, the field and the ``stage`` to re-run."""
    out = [decode_matrix(obj) for obj in fields.values()]
    for name, M in zip(fields, out):
        if M is not None and not np.all(np.isfinite(M)):
            raise ValueError(f"{file} '{name}' must hold finite numbers; re-run {stage}")
    return out
