"""Log-domain reductions and Shannon-entropy helpers.

Everything downstream works on log-weights that can sit thousands of nats
below or above zero, so the reductions here never leave the log domain.
Entropies are in bits with the 0*log(0) = 0 convention.

The O(S^3) kernels of the package walk their rows in blocks of at most
_STACK_ENTRIES entries (``row_blocks``) instead of building (P, S, S, S)
arrays. Each output entry keeps its reduction over the same axis in the
same order, so the results do not depend on the block size, bit for bit.
"""

import math

import numpy as np

LOG2 = float(np.log(2.0))
# Most entries in one block of an O(S^3) kernel: 512 KiB of float64, so
# that a kernel's block buffers stay in cache. It also caps P * S**2 for
# one pipeline stack (analysis.evaluate_chunk).
_STACK_ENTRIES = 1 << 16


def logsumexp(a: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    """log(sum(exp(a))) that tolerates -inf entries and huge magnitudes."""
    a = np.asarray(a, dtype=float)
    m = np.max(a, axis=axis, keepdims=axis is not None)
    if axis is None:
        m_f = float(m)
        if not np.isfinite(m_f):
            # all -inf (empty support) or an overflow already present
            return m_f
        return m_f + float(np.log(np.sum(np.exp(a - m_f))))
    finite = np.isfinite(m)
    if finite.all():
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    # a slice whose largest term is +-inf is shifted by 0 instead, and one
    # whose largest is nan by nan, which cannot overflow on the way
    safe = np.where(np.isinf(m), 0.0, m)
    out = np.log(np.sum(np.exp(a - safe), axis=axis)) + np.squeeze(safe, axis=axis)
    # slices that were all -inf must stay -inf, not nan
    return np.where(np.squeeze(finite, axis=axis), out, np.squeeze(m, axis=axis))


def log_matvec(log_mat: np.ndarray, log_vec: np.ndarray) -> np.ndarray:
    """Log-domain matrix @ vector: returns log(exp(log_mat) @ exp(log_vec)).

    Leading axes are a stack: (..., S, S) matrices times (..., S) vectors.
    """
    return logsumexp(log_mat + log_vec[..., np.newaxis, :], axis=-1)


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Log-domain matrix product, of (..., S, S) stacks of one shape."""
    size = log_a.shape[-1]
    a, b = log_a.reshape(-1, size, size), log_b.reshape(-1, size, size)
    out = np.empty(a.shape)
    for points, rows, joint in row_blocks(len(a), size, (size, size), (float,)):
        # joint[p, i, k, j] = a[p, i, k] + b[p, k, j], summed over k
        joint = np.add(a[points, rows, :, np.newaxis], b[points, np.newaxis], out=joint)
        out[points, rows] = logsumexp(joint, axis=2)
    return out.reshape(log_a.shape)


def log_matrix_power(log_mat: np.ndarray, n: int) -> np.ndarray:
    """Log-domain matrix power by repeated squaring, n >= 1."""
    if n < 1:
        raise ValueError("matrix power requires n >= 1")
    result = None
    square = log_mat
    k = n
    while k:
        if k & 1:
            result = square if result is None else log_matmul(result, square)
        k >>= 1
        if k:
            square = log_matmul(square, square)
    return result


def row_blocks(
    n_points: int, n_rows: int, row_shape: tuple[int, ...], dtypes: tuple
) -> list[list]:
    """Blocks of at most _STACK_ENTRIES entries over a (P, R) grid of rows,
    each row an array of ``row_shape``; a block holds one row at least.

    A block takes whole points while one point fits, else rows of one
    point. Each comes as [points, rows, *buffers]: slices into the grid
    and, per dtype, a C-contiguous (points, rows, *row_shape) view of one
    buffer that all blocks share, to pass as ``out=``. A grid that fits
    in one block gets None for buffers: its arrays are fresh, as the
    unblocked arithmetic's would be, and nothing is shared.
    """
    per_block = _STACK_ENTRIES // math.prod(row_shape)
    if per_block >= n_points * n_rows:
        return [[slice(0, n_points), slice(0, n_rows)] + [None] * len(dtypes)]
    if per_block >= n_rows:
        points, rows = per_block // n_rows, n_rows
    else:
        points, rows = 1, per_block or 1
    buffers = [np.empty((points, rows) + row_shape, dtype) for dtype in dtypes]
    blocks = []
    for p in range(0, n_points, points):
        p_end = min(p + points, n_points)
        for r in range(0, n_rows, rows):
            r_end = min(r + rows, n_rows)
            blocks.append(
                [slice(p, p_end), slice(r, r_end)]
                + [buffer[: p_end - p, : r_end - r] for buffer in buffers]
            )
    return blocks


def xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p) elementwise with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log2(p), 0.0)
