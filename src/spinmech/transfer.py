"""Transfer-matrix construction, Perron eigensystem, and partition functions.

All weights are kept as logs: the boundary vector holds half the intra-block
energies and the transfer matrix the symmetrized cross terms, so products of
matrix entries reproduce whole-chain Boltzmann weights without overflow even
deep into the low-temperature regime.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericDomainError
from .hamiltonian import Hamiltonian
from .info import log_matrix_power, log_matvec, logsumexp

# Finite stand-in for the zero-temperature limit; resolves energy gaps of
# 1e-2 without leaving the representable log-domain.
GROUND_STATE_BETA = 1.0e3

# Dense eigensolve below this size, power iteration above (per design).
_DENSE_LIMIT = 64
_POWER_BUDGET = 100_000
_POWER_TOL = 1e-14
# Polish small eigenvector entries in the log domain once the entry spread
# passes e**10: dense solvers only deliver absolute accuracy, so entries
# below ~1e-5 of the largest already carry log errors above 1e-11.
_POLISH_SPREAD = 10.0
# Dominant eigenvalues closer than this are one degenerate cluster: their
# splitting sits below what floating point can resolve, which happens when
# several ordered phases coexist in the zero-temperature limit.
_CLUSTER_TOL = 1e-13
# Beyond this log-weight spread the matrix is balanced by max-plus
# potentials before exponentiating; below it a global shift is enough.
_BALANCE_SPREAD = 36.0


@dataclass(frozen=True)
class TransferSystem:
    """Log-domain transfer data plus the dominant (Perron) eigensystem.

    ``log_right`` and ``log_left`` are the log Perron eigenvectors, with
    sum(r) = 1 and <l|r> = 1; they exist in the log domain only, since
    linear entries overflow deep in the ordered phases. ``l`` is the block
    reversal of ``r``, so the right ``perron_residual`` covers both.
    ``log_m`` is the log of the open-boundary normalization scalar <U|r><l|U>.
    """

    hamiltonian: Hamiltonian
    beta: float
    log_u: np.ndarray
    log_v: np.ndarray
    log_lambda0: float
    log_left: np.ndarray
    log_right: np.ndarray
    log_m: float
    perron_residual: float

    @property
    def size(self) -> int:
        return self.log_v.shape[0]


def build_transfer(hamiltonian: Hamiltonian, beta: float) -> TransferSystem:
    """Assemble log-weights and Perron data for one (model, beta) point."""
    if not np.isfinite(beta) or beta < 0.0:
        raise NumericDomainError(f"beta must be finite and >= 0, got {beta}")
    x = hamiltonian.intra_energies
    y = hamiltonian.cross_energies
    log_u = -0.5 * beta * x
    log_v = -beta * (0.5 * x[:, None] + y + 0.5 * x[None, :])
    if not (np.all(np.isfinite(log_u)) and np.all(np.isfinite(log_v))):
        raise NumericDomainError("non-finite log-weights; check energies and beta")

    log_lambda0, log_right, residual = _perron_eigensystem(log_v)

    # Pair couplings are symmetric in the spins, so a two-block window read
    # backwards keeps its energy: V^T = R V R with R the block reversal.
    # Hence V^T (R r) = lambda0 (R r), and the left vector needs no solve.
    log_left = log_right[hamiltonian.blocks.reversal]
    # scale left so that <l|r> = 1, evaluated in the log domain
    log_inner = logsumexp(log_left + log_right)
    log_left = log_left - log_inner

    log_m = logsumexp(log_u + log_right) + logsumexp(log_left + log_u)
    return TransferSystem(
        hamiltonian=hamiltonian,
        beta=float(beta),
        log_u=log_u,
        log_v=log_v,
        log_lambda0=float(log_lambda0),
        log_left=log_left,
        log_right=log_right,
        log_m=float(log_m),
        perron_residual=float(residual),
    )


def partition_function(ts: TransferSystem, n_blocks: int, boundary: str = "open") -> float:
    """Exact log partition function for a chain of ``n_blocks`` blocks."""
    if n_blocks < 1:
        raise NumericDomainError("need at least one block")
    if boundary == "open":
        log_x = ts.log_u
        for _ in range(n_blocks - 1):
            log_x = log_matvec(ts.log_v, log_x)
        return float(logsumexp(ts.log_u + log_x))
    if boundary == "periodic":
        log_power = log_matrix_power(ts.log_v, n_blocks)
        return float(logsumexp(np.diagonal(log_power)))
    raise NumericDomainError(f"boundary must be open or periodic, got {boundary!r}")


def asymptotic_log_partition(
    ts: TransferSystem, n_blocks: int, boundary: str = "open"
) -> float:
    """Dominant-eigenvalue approximation of the log partition function.

    Periodic chains give n*log(lambda0); open chains pick up the boundary
    scalar M once. Valid for n_blocks >> 1; not enforced here.
    """
    if boundary == "periodic":
        return n_blocks * ts.log_lambda0
    if boundary == "open":
        return ts.log_m + (n_blocks - 1) * ts.log_lambda0
    raise NumericDomainError(f"boundary must be open or periodic, got {boundary!r}")


def subdominant_ratio(ts: TransferSystem) -> float:
    """|lambda1 / lambda0| from a dense solve; controls finite-size decay."""
    scale = float(ts.log_v.max())
    w = np.exp(ts.log_v - scale)
    eigvals = np.linalg.eigvals(w)
    mags = np.sort(np.abs(eigvals))[::-1]
    return float(mags[1] / mags[0]) if mags.size > 1 else 0.0


def _perron_eigensystem(
    log_v: np.ndarray, cluster_tol: float = _CLUSTER_TOL
) -> tuple[float, np.ndarray, float]:
    """Dominant eigenvalue and right eigenvector of exp(log_v), in the log domain."""
    size = log_v.shape[0]
    if float(np.ptp(log_v)) <= _BALANCE_SPREAD:
        chi = float(log_v.max())
        potentials = np.zeros(size)
    else:
        # deep grading: similarity-balance with max-plus potentials so the
        # dominant cycle structure survives exponentiation
        chi = _max_mean_cycle(log_v)
        potentials = _path_potentials(log_v - chi)

    # exactly tied phases land a rounding-width apart: log arithmetic on
    # weights of magnitude m leaves eigenvalue splittings of order m*eps
    eps = np.finfo(float).eps
    cluster_tol = max(cluster_tol, 16.0 * eps * max(1.0, float(np.ptp(log_v))))

    balanced = log_v - chi + potentials[np.newaxis, :] - potentials[:, np.newaxis]
    if size == 2:
        return _perron_2x2(chi, potentials, balanced, cluster_tol)
    w = np.exp(balanced)
    if size <= _DENSE_LIMIT:
        lam, vec_b = _dense_dominant(w, cluster_tol)
    else:
        lam, vec_b = _power_dominant(w)

    log_lambda0 = chi + float(np.log(lam))
    log_right = potentials + _log_vector(vec_b)
    if _needs_polish(log_right):
        log_right = _log_polish(log_v, log_right)
        # Rayleigh-type update keeps log(lambda0) accurate when entries are
        # graded far beyond linear precision.
        log_lambda0 = float(logsumexp(log_matvec(log_v, log_right)) - logsumexp(log_right))
        lam = math.exp(log_lambda0 - chi)
        vec_b = np.exp(log_right - potentials - np.max(log_right - potentials))

    residual = _relative_residual(w, lam, vec_b)
    return log_lambda0, log_right - logsumexp(log_right), residual


def _perron_2x2(
    chi: float, potentials: np.ndarray, balanced: np.ndarray, cluster_tol: float
) -> tuple[float, np.ndarray, float]:
    """Closed-form dominant pair for two blocks, stable in the log domain.

    In the balanced frame the quadratic formula never cancels: the
    eigenvector ratio comes from exact log entries, and a vanishing
    discriminant signals two numerically tied phases, split evenly like
    the general cluster projection would.
    """
    w = np.exp(balanced)
    a, b, c, d = w[0, 0], w[0, 1], w[1, 0], w[1, 1]
    half_gap = 0.5 * (a - d)
    disc = math.sqrt(half_gap * half_gap + b * c)
    lam = 0.5 * (a + d) + disc
    if disc <= cluster_tol * lam:
        log_ratio = 0.5 * (balanced[1, 0] - balanced[0, 1])
    elif a >= d:
        log_ratio = balanced[1, 0] - math.log(lam - d)
    else:
        log_ratio = math.log(lam - a) - balanced[0, 1]
    log_right = potentials + np.array([0.0, log_ratio])
    vec_b = np.exp(np.array([0.0, log_ratio]) - max(0.0, log_ratio))
    residual = _relative_residual(w, lam, vec_b)
    return chi + math.log(lam), log_right - logsumexp(log_right), residual


def _max_mean_cycle(log_v: np.ndarray) -> float:
    """Largest mean edge weight over cycles (Karp's recurrence)."""
    size = log_v.shape[0]
    table = np.full((size + 1, size), -np.inf)
    table[0, 0] = 0.0
    for k in range(1, size + 1):
        table[k] = np.max(table[k - 1][:, np.newaxis] + log_v, axis=0)
    lengths = np.arange(size, 0, -1, dtype=float)[:, np.newaxis]
    with np.errstate(invalid="ignore"):
        ratios = (table[size][np.newaxis, :] - table[:size]) / lengths
    candidates = np.min(ratios, axis=0)
    return float(np.max(candidates[np.isfinite(candidates)]))


def _path_potentials(shifted: np.ndarray) -> np.ndarray:
    """Best cumulative weight over outgoing paths, all cycle means <= 0.

    Simple paths suffice, so size-1 max-plus matvecs reach the closure.
    The result u satisfies shifted[i, j] + u[j] <= u[i], which caps every
    balanced entry at one.
    """
    size = shifted.shape[0]
    x = np.zeros(size)
    u = np.zeros(size)
    for _ in range(size - 1):
        x = np.max(shifted + x[np.newaxis, :], axis=1)
        u = np.maximum(u, x)
    return u


def _dense_dominant(w: np.ndarray, cluster_tol: float = _CLUSTER_TOL) -> tuple[float, np.ndarray]:
    """Dominant eigenvalue and a nonnegative vector spanning its eigenspace.

    Coexisting phases make the dominant eigenvalue degenerate to machine
    precision and the individual eigenvectors arbitrary within the cluster;
    projecting the ones-vector onto the cluster's invariant subspace
    recovers every phase with its internal profile.
    """
    eigvals, eigvecs = np.linalg.eig(w)
    lam = float(np.max(eigvals.real))
    if lam <= 0.0:
        raise ConvergenceError("dense eigensolve produced no positive eigenvalue", np.inf)
    cluster = (np.abs(eigvals.imag) <= 1e-12 * lam) & (
        eigvals.real >= lam * (1.0 - cluster_tol)
    )
    basis = eigvecs[:, cluster].real
    q, _ = np.linalg.qr(basis)
    vec = q @ (q.T @ np.ones(w.shape[0]))
    vec = np.clip(vec, 0.0, None)
    total = vec.sum()
    if total <= 0.0:
        vec = np.abs(eigvecs[:, int(np.argmax(eigvals.real))].real)
        total = vec.sum()
    if total <= 0.0:
        raise ConvergenceError("dense eigensolve produced no positive Perron pair", np.inf)
    return lam, vec / total


def _power_dominant(w: np.ndarray) -> tuple[float, np.ndarray]:
    """Power iteration with a diagonal shift to break modulus ties."""
    size = w.shape[0]
    shifted = w + np.eye(size)
    x = np.full(size, 1.0 / size)
    lam_prev = 0.0
    for _ in range(_POWER_BUDGET):
        y = shifted @ x
        norm = y.sum()
        x = y / norm
        if abs(norm - lam_prev) <= _POWER_TOL * abs(norm):
            return norm - 1.0, x
        lam_prev = norm
    raise ConvergenceError(
        f"power iteration did not converge in {_POWER_BUDGET} steps",
        _relative_residual(w, lam_prev - 1.0, x),
    )


def _relative_residual(w: np.ndarray, lam: float, vec: np.ndarray) -> float:
    err = np.max(np.abs(w @ vec - lam * vec))
    return float(err / (abs(lam) * np.max(np.abs(vec))))


def _log_vector(vec: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(vec)


def _needs_polish(log_x: np.ndarray) -> bool:
    finite = log_x[np.isfinite(log_x)]
    if finite.size < log_x.size:
        return True
    return float(np.ptp(finite)) > _POLISH_SPREAD


def _log_polish(
    log_v: np.ndarray, log_x: np.ndarray, budget: int = 10_000, tol: float = 1e-14
) -> np.ndarray:
    """Restore relative accuracy of tiny eigenvector entries.

    Repeated log-domain multiplication feeds the well-resolved dominant
    entries into the graded tail. Starting from the full phase cluster the
    tied weights cannot drift (their cross-feed underflows), fast error
    components contract geometrically until the iteration is stationary,
    and a stalled slow mode can only be a phase-mixture direction whose
    effect sits below linear resolution anyway.
    """
    log_x = log_x - logsumexp(log_x)
    for _ in range(budget):
        advanced = log_matvec(log_v, log_x)
        advanced = advanced - logsumexp(advanced)
        finite = np.isfinite(log_x) & np.isfinite(advanced)
        delta = float(np.max(np.abs(advanced[finite] - log_x[finite]), initial=0.0))
        moved_support = np.any(np.isfinite(advanced) != np.isfinite(log_x))
        log_x = advanced
        if delta <= tol and not moved_support:
            break
    return log_x
