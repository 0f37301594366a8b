"""Transfer-matrix construction, Perron eigensystem, and partition functions.

All weights are kept as logs: the boundary vector holds half the intra-block
energies and the transfer matrix the symmetrized cross terms, so products of
matrix entries reproduce whole-chain Boltzmann weights without overflow even
deep into the low-temperature regime.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, NumericDomainError, raise_first, record_failures
from .hamiltonian import Hamiltonian
from .info import log_matmul, log_matrix_power, log_matvec, logsumexp
from .lattice import BlockSpace

# Finite stand-in for the zero-temperature limit; resolves energy gaps of
# 1e-2 without leaving the representable log-domain.
GROUND_STATE_BETA = 1.0e3
# Largest relative Perron residual a certified eigenpair may carry.
PERRON_TOL = 1e-12

# Dense eigensolve up to this size, log-domain refinement from uniform above.
_DENSE_LIMIT = 64
# Refine small eigenvector entries in the log domain once the entry spread
# passes e**10: dense solvers only deliver absolute accuracy, so entries
# below ~1e-5 of the largest already carry log errors above 1e-11.
_REFINE_SPREAD = 10.0
# Converged: a step of V moves no log entry beyond this many rounding widths.
_ROUNDING_WIDTHS = 16.0
# 2**60 steps resolve every mode whose residual that width can see.
_MAX_SQUARINGS = 60
# Steps after which a point leaves the refinement whatever its spectrum:
# over ten times the most (77) that a point of the seeded draws under
# scripts/ or a range 7-8 analyze takes to settle.
_MAX_STEPS = 1000
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


@dataclass(frozen=True)
class TransferStack:
    """TransferSystem's arrays for P points of one block space, stacked on
    a leading point axis (``log_m`` is left to the single-point form)."""

    log_u: np.ndarray
    log_v: np.ndarray
    log_lambda0: np.ndarray
    log_left: np.ndarray
    log_right: np.ndarray
    perron_residual: np.ndarray


def build_transfer(hamiltonian: Hamiltonian, beta: float) -> TransferSystem:
    """Assemble log-weights and Perron data for one (model, beta) point."""
    errors = [None]
    stack = transfer_stack(
        hamiltonian.blocks,
        hamiltonian.intra_energies[None],
        hamiltonian.cross_energies[None],
        np.array([beta], dtype=float),
        errors,
    )
    raise_first(errors)
    log_u, log_left, log_right = stack.log_u[0], stack.log_left[0], stack.log_right[0]
    return TransferSystem(
        hamiltonian=hamiltonian,
        beta=float(beta),
        log_u=log_u,
        log_v=stack.log_v[0],
        log_lambda0=float(stack.log_lambda0[0]),
        log_left=log_left,
        log_right=log_right,
        log_m=float(logsumexp(log_u + log_right) + logsumexp(log_left + log_u)),
        perron_residual=float(stack.perron_residual[0]),
    )


def transfer_stack(
    space: BlockSpace, x: np.ndarray, y: np.ndarray, betas: np.ndarray, errors: list
) -> TransferStack:
    """Log-weights and Perron data of P points from their (P, S) intra and
    (P, S, S) cross energies; failures go to ``errors`` per point."""
    bad_beta = ~(np.isfinite(betas) & (betas >= 0.0))
    record_failures(
        errors,
        bad_beta,
        lambda p: NumericDomainError(f"beta must be finite and >= 0, got {betas[p]}"),
    )
    beta = np.where(bad_beta, 0.0, betas)
    with np.errstate(invalid="ignore", over="ignore"):
        log_u = -0.5 * beta[:, None] * x
        log_v = -beta[:, None, None] * (0.5 * x[:, :, None] + y + 0.5 * x[:, None, :])
    finite = np.isfinite(log_u).all(axis=1) & np.isfinite(log_v).all(axis=(1, 2))
    record_failures(
        errors,
        ~finite,
        lambda p: NumericDomainError("non-finite log-weights; check energies and beta"),
    )
    # failed points go on as uniform weights, so the stack stays finite
    log_u[~finite] = 0.0
    log_v[~finite] = 0.0

    log_lambda0, log_right, residual = _perron_stack(log_v, errors)
    record_failures(
        errors,
        ~(residual <= PERRON_TOL),
        lambda p: ConvergenceError(
            f"Perron residual {residual[p]:.3e} exceeds {PERRON_TOL:.1e}", float(residual[p])
        ),
    )

    # Pair couplings are symmetric in the spins, so a two-block window read
    # backwards keeps its energy: V^T = R V R with R the block reversal.
    # Hence V^T (R r) = lambda0 (R r), and the left vector needs no solve.
    log_left = log_right[:, space.reversal]
    # scale left so that <l|r> = 1, evaluated in the log domain
    log_inner = logsumexp(log_left + log_right, axis=1)
    log_left = log_left - log_inner[:, None]
    return TransferStack(
        log_u=log_u,
        log_v=log_v,
        log_lambda0=log_lambda0,
        log_left=log_left,
        log_right=log_right,
        perron_residual=residual,
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
    errors = [None]
    log_lambda0, log_right, residual = _perron_stack(log_v[None], errors, cluster_tol)
    raise_first(errors)
    return float(log_lambda0[0]), log_right[0], float(residual[0])


def _perron_stack(
    log_v: np.ndarray, errors: list, cluster_tol: float = _CLUSTER_TOL
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dominant eigenvalues, log right eigenvectors (summing to one) and
    relative residuals of a (P, S, S) stack of log matrices."""
    n_points, size = log_v.shape[:2]
    chi = log_v.max(axis=(1, 2))
    spread = chi - log_v.min(axis=(1, 2))
    potentials = np.zeros((n_points, size))
    # deep grading: similarity-balance with max-plus potentials so the
    # dominant cycle structure survives exponentiation
    graded = np.flatnonzero(spread > _BALANCE_SPREAD)
    if graded.size:
        chi[graded] = _max_mean_cycle(log_v[graded])
        potentials[graded] = _path_potentials(log_v[graded] - chi[graded, None, None])

    # exactly tied phases land a rounding-width apart: log arithmetic on
    # weights of magnitude m leaves eigenvalue splittings of order m*eps
    eps = np.finfo(float).eps
    cluster_tol = np.maximum(cluster_tol, 16.0 * eps * np.maximum(1.0, spread))

    balanced = log_v - chi[:, None, None] + potentials[:, None, :] - potentials[:, :, None]
    w = np.exp(balanced)
    if size == 2:
        lam, log_vec = _perron_2x2(w, balanced, cluster_tol)
        vec = np.exp(log_vec - log_vec.max(axis=1, keepdims=True))
        log_lambda0 = chi + np.log(lam)
        log_right = potentials + log_vec
    else:
        if size <= _DENSE_LIMIT:
            lam, vec = _dense_dominant(w, cluster_tol, errors)
        else:
            lam, vec = np.ones(n_points), np.full((n_points, size), 1.0 / size)
        log_lambda0 = chi + np.log(lam)
        with np.errstate(divide="ignore"):
            log_right = potentials + np.log(vec)
        # -inf entries make the spread infinite, which also refines
        refine = (size > _DENSE_LIMIT) | ~(np.ptp(log_right, axis=1) <= _REFINE_SPREAD)
        refine &= np.array([e is None for e in errors])
        if refine.any():
            log_lambda0[refine], log_right[refine] = _log_refine(log_v[refine], log_right[refine])
            # a root past the float range is left to _relative_residual
            with np.errstate(over="ignore"):
                lam[refine] = np.exp(log_lambda0[refine] - chi[refine])
            shifted = log_right[refine] - potentials[refine]
            vec[refine] = np.exp(shifted - shifted.max(axis=1, keepdims=True))

    residual = _relative_residual(w, lam, vec)
    return log_lambda0, log_right - logsumexp(log_right, axis=1)[:, None], residual


def _perron_2x2(
    w: np.ndarray, balanced: np.ndarray, cluster_tol: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form dominant pair for two blocks, stable in the log domain.

    In the balanced frame the quadratic formula never cancels: the
    eigenvector ratio comes from exact log entries, and a vanishing
    discriminant signals two numerically tied phases, split evenly like
    the general cluster projection would. Returns lambda in the balanced
    frame and the log eigenvector (0, log r1/r0).
    """
    a, b, c, d = w[:, 0, 0], w[:, 0, 1], w[:, 1, 0], w[:, 1, 1]
    half_gap = 0.5 * (a - d)
    disc = np.sqrt(half_gap * half_gap + b * c)
    lam = 0.5 * (a + d) + disc
    with np.errstate(divide="ignore"):
        log_ratio = np.where(
            a >= d,
            balanced[:, 1, 0] - np.log(lam - d),
            np.log(lam - a) - balanced[:, 0, 1],
        )
    log_vec = np.zeros((len(w), 2))
    log_vec[:, 1] = np.where(
        disc <= cluster_tol * lam, 0.5 * (balanced[:, 1, 0] - balanced[:, 0, 1]), log_ratio
    )
    return lam, log_vec


def _max_mean_cycle(log_v: np.ndarray) -> np.ndarray:
    """Largest mean edge weight over cycles (Karp's recurrence), per matrix."""
    n_points, size = log_v.shape[:2]
    table = np.full((size + 1, n_points, size), -np.inf)
    table[0, :, 0] = 0.0
    for k in range(1, size + 1):
        table[k] = np.max(table[k - 1][:, :, np.newaxis] + log_v, axis=1)
    lengths = np.arange(size, 0, -1, dtype=float)[:, np.newaxis, np.newaxis]
    with np.errstate(invalid="ignore"):
        ratios = (table[size][np.newaxis] - table[:size]) / lengths
    candidates = np.min(ratios, axis=0)
    return np.max(np.where(np.isfinite(candidates), candidates, -np.inf), axis=1)


def _path_potentials(shifted: np.ndarray) -> np.ndarray:
    """Best cumulative weight over outgoing paths, all cycle means <= 0.

    Simple paths suffice, so size-1 max-plus matvecs reach the closure.
    The result u satisfies shifted[i, j] + u[j] <= u[i], which caps every
    balanced entry at one.
    """
    size = shifted.shape[1]
    x = np.zeros(shifted.shape[:2])
    u = np.zeros(shifted.shape[:2])
    for _ in range(size - 1):
        x = np.max(shifted + x[:, np.newaxis, :], axis=2)
        u = np.maximum(u, x)
    return u


def _dense_dominant(
    w: np.ndarray, cluster_tol: np.ndarray, errors: list
) -> tuple[np.ndarray, np.ndarray]:
    """Dominant eigenvalues and nonnegative vectors spanning their eigenspaces.

    Coexisting phases make the dominant eigenvalue degenerate to machine
    precision and the individual eigenvectors arbitrary within the cluster;
    projecting the ones-vector onto the cluster's invariant subspace
    recovers every phase with its internal profile.
    """
    eigvals, eigvecs = np.linalg.eig(w)
    lam = eigvals.real.max(axis=1)
    vec = np.full(w.shape[:2], 1.0 / w.shape[1])
    for p in range(w.shape[0]):
        try:
            vec[p] = _cluster_projection(eigvals[p], eigvecs[p], lam[p], cluster_tol[p])
        except ConvergenceError as exc:
            if errors[p] is None:
                errors[p] = exc
            lam[p] = 1.0
    return lam, vec


def _cluster_projection(
    eigvals: np.ndarray, eigvecs: np.ndarray, lam: float, cluster_tol: float
) -> np.ndarray:
    if lam <= 0.0:
        raise ConvergenceError("dense eigensolve produced no positive eigenvalue", np.inf)
    cluster = (np.abs(eigvals.imag) <= 1e-12 * lam) & (eigvals.real >= lam * (1.0 - cluster_tol))
    q, _ = np.linalg.qr(eigvecs[:, cluster].real)
    # q (q^T 1) as elementwise sums, which round the same way wherever
    # the matrix sits in memory
    vec = np.clip((q * q.sum(axis=0)).sum(axis=1), 0.0, None)
    total = vec.sum()
    if total <= 0.0:
        vec = np.abs(eigvecs[:, int(np.argmax(eigvals.real))].real)
        total = vec.sum()
    if total <= 0.0:
        raise ConvergenceError("dense eigensolve produced no positive Perron pair", np.inf)
    return vec / total


def _relative_residual(w: np.ndarray, lam: np.ndarray, vec: np.ndarray) -> np.ndarray:
    infinite = np.isinf(lam)
    if infinite.any():
        # against an infinite root, W v is nothing beside lam v: the
        # relative residual takes its limit, 1
        residual = _relative_residual(w, np.where(infinite, 1.0, lam), vec)
        return np.where(infinite, 1.0, residual)
    err = np.max(np.abs((w * vec[:, np.newaxis, :]).sum(axis=2) - lam[:, np.newaxis] * vec), axis=1)
    return err / (np.abs(lam) * np.max(np.abs(vec), axis=1))


def _log_refine(log_v: np.ndarray, log_x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log Perron roots and vectors of a (Q, S, S) stack, refined from (Q, S)
    log start vectors.

    Steps x <- V x restore tiny entries of a dense start in one step. A step
    that fails to halve the change squares the operator, first V / lambda + I,
    whose shift damps periodic modes too: k squarings contract a slow mode
    of ratio rho as rho**(2**k). A point stops once a step of V moves it by
    at most the rounding width, which leaves the mixture of a tied phase
    cluster as it is, or after _MAX_STEPS steps, where a spectrum that
    neither settles nor stalls (a pair of roots +-lambda, once the first
    squaring fixes their mixtures) leaves it to the Perron gate. Log
    products subtract nothing, so entries keep their relative accuracy,
    and each point's arithmetic uses its own slices. The root is
    sum(V x) / sum(x), accurate however far the entries are graded.
    """
    n_points, size = log_x.shape
    out = np.empty_like(log_x)
    # state of the points still running, compacted as points finish
    index, v, x = np.arange(n_points), log_v, log_x - log_x.max(axis=1, keepdims=True)
    root = logsumexp(log_matvec(v, x), axis=1) - logsumexp(x, axis=1)
    op = np.logaddexp(v - root[:, None, None], np.where(np.eye(size, dtype=bool), 0.0, -np.inf))
    rounding = _ROUNDING_WIDTHS * np.finfo(float).eps
    width = rounding * np.abs(v).max(axis=(1, 2))
    change = np.full(n_points, np.inf)
    squarings = np.zeros(n_points, dtype=int)
    for _ in range(_MAX_STEPS):
        if not index.size:
            break
        # one call steps every point by V, which moves it by its residual,
        # and the points with a squared operator by that operator too
        lead = np.flatnonzero(squarings)
        x_all = np.concatenate([x, x[lead]])
        raw = log_matvec(np.concatenate([v, op[lead]]), x_all)
        steps = raw - raw.max(axis=1, keepdims=True)
        # entries that stay -inf did not move; one that leaves -inf moved by inf
        moves = np.where(steps == x_all, 0.0, np.abs(steps - x_all)).max(axis=1)
        n_run = index.size
        x, moved = steps[:n_run], moves[:n_run].copy()
        settled = moved <= width + rounding * np.abs(x).max(axis=1)
        # a squared operator carries the point while it still moves
        moved[lead] = moves[n_run:]
        x[lead[~settled[lead]]] = steps[n_run:][~settled[lead]]
        stalled = ~settled & ~(moved <= 0.5 * change)
        exhausted = stalled & (squarings >= _MAX_SQUARINGS)
        square = np.flatnonzero(stalled & ~exhausted)
        if square.size:
            op_sq = log_matmul(op[square], op[square])
            op[square] = op_sq - op_sq.max(axis=(1, 2), keepdims=True)
            squarings[square] += 1
        change = moved
        done = settled | exhausted
        if done.any():
            out[index[done]] = x[done]
            run = ~done
            index, v, op, x = index[run], v[run], op[run], x[run]
            width, change, squarings = width[run], change[run], squarings[run]
    out[index] = x
    return logsumexp(log_matvec(log_v, out), axis=1) - logsumexp(out, axis=1), out
