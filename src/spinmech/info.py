"""Log-domain reductions and Shannon-entropy helpers.

Everything downstream works on log-weights that can sit thousands of nats
below or above zero, so the reductions here never leave the log domain.
Entropies are in bits with the 0*log(0) = 0 convention.
"""

import numpy as np

LOG2 = float(np.log(2.0))


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
    safe = np.where(np.isfinite(m), m, 0.0)
    out = np.log(np.sum(np.exp(a - safe), axis=axis)) + np.squeeze(safe, axis=axis)
    # slices that were all -inf must stay -inf, not nan
    bad = ~np.isfinite(np.squeeze(m, axis=axis))
    if np.any(bad):
        out = np.where(bad, np.squeeze(m, axis=axis), out)
    return out


def log_matvec(log_mat: np.ndarray, log_vec: np.ndarray) -> np.ndarray:
    """Log-domain matrix @ vector: returns log(exp(log_mat) @ exp(log_vec))."""
    return logsumexp(log_mat + log_vec[np.newaxis, :], axis=1)


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Log-domain matrix product."""
    return logsumexp(log_a[:, :, np.newaxis] + log_b[np.newaxis, :, :], axis=1)


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


def xlog2x(p: np.ndarray) -> np.ndarray:
    """p * log2(p) elementwise with 0 log 0 = 0."""
    p = np.asarray(p, dtype=float)
    out = np.zeros_like(p)
    mask = p > 0.0
    out[mask] = p[mask] * np.log2(p[mask])
    return out


def entropy_bits(p: np.ndarray) -> float:
    """Shannon entropy of a probability vector, in bits."""
    return float(-np.sum(xlog2x(p)) + 0.0)


def row_entropy_bits(matrix: np.ndarray, weights: np.ndarray) -> float:
    """Weighted average of per-row entropies: sum_i w_i * H(matrix[i, :])."""
    return float(-np.dot(weights, np.sum(xlog2x(matrix), axis=1)) + 0.0)
