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
    finite = np.isfinite(m)
    if finite.all():
        return np.log(np.sum(np.exp(a - m), axis=axis)) + np.squeeze(m, axis=axis)
    safe = np.where(finite, m, 0.0)
    out = np.log(np.sum(np.exp(a - safe), axis=axis)) + np.squeeze(safe, axis=axis)
    # slices that were all -inf must stay -inf, not nan
    return np.where(np.squeeze(finite, axis=axis), out, np.squeeze(m, axis=axis))


def log_matvec(log_mat: np.ndarray, log_vec: np.ndarray) -> np.ndarray:
    """Log-domain matrix @ vector: returns log(exp(log_mat) @ exp(log_vec)).

    Leading axes are a stack: (..., S, S) matrices times (..., S) vectors.
    """
    return logsumexp(log_mat + log_vec[..., np.newaxis, :], axis=-1)


def log_matmul(log_a: np.ndarray, log_b: np.ndarray) -> np.ndarray:
    """Log-domain matrix product, of (..., S, S) stacks."""
    return logsumexp(log_a[..., :, :, np.newaxis] + log_b[..., np.newaxis, :, :], axis=-2)


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
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(p > 0.0, p * np.log2(p), 0.0)
