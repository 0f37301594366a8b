"""Brute-force cross-checks: exhaustive enumeration, the literal
consistency-system solver, and Monte Carlo sequence statistics.

Everything here deliberately avoids the spectral route so that agreement
with the main pipeline is evidence, not tautology. The enumeration builds
the full Boltzmann distribution over short chains and marginalizes it;
conditionals must come from such marginals, never from plugging a
sub-chain into the whole-chain probability formula, which silently assumes
the sub-chain is an isolated system.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EnumerationTooLargeError,
    InvalidChainError,
    QuadraticSolveError,
    ReducibleChainError,
    UndersampledError,
)
from .hamiltonian import Hamiltonian
from .info import logsumexp
from .markov import BlockChain, LocalCharacteristics, restrict_to_class
from .transfer import TransferSystem, _perron_eigensystem

ENUMERATION_GUARD = 10**7
RNG_KIND = "pcg64"
# Steps the sampler scans at a time; bounds the memory each segment adds
# to the sampled sequence.
_SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True)
class GibbsEnsemble:
    """Exact normalized distribution over all block sequences of a short chain."""

    hamiltonian: Hamiltonian
    beta: float
    n_blocks: int
    boundary: str
    probs: np.ndarray
    log_z: float


@dataclass(frozen=True)
class EnumeratedConditionals:
    """Conditionals marginalized out of a GibbsEnsemble at one position.

    ``triple[j, i, m]`` is Pr(block at position = i | left j, right m);
    ``step[a, b]`` is Pr(next block = b | this block = a); ``first`` is
    Pr(first block | second block), only present at position 0.
    """

    position: int
    triple: np.ndarray | None
    step: np.ndarray
    first: np.ndarray | None


@dataclass(frozen=True)
class EntropyEstimate:
    """Plug-in conditional entropy with a batch-means standard error."""

    value: float
    stderr: float
    samples: int


def enumerate_gibbs(
    hamiltonian: Hamiltonian,
    beta: float,
    n_blocks: int,
    boundary: str = "open",
    guard: int = ENUMERATION_GUARD,
) -> GibbsEnsemble:
    """Exhaustive Boltzmann distribution over all block sequences."""
    size = hamiltonian.blocks.size
    total = size**n_blocks
    if total > guard:
        raise EnumerationTooLargeError(
            f"{size}**{n_blocks} = {total} configurations exceed the guard {guard}"
        )
    x = hamiltonian.intra_energies
    y = hamiltonian.cross_energies
    codes = np.arange(total)
    positions = [
        (codes // size ** (n_blocks - 1 - i)) % size for i in range(n_blocks)
    ]
    energy = x[positions[0]].copy()
    for i in range(1, n_blocks):
        energy += x[positions[i]]
        energy += y[positions[i - 1], positions[i]]
    if boundary == "periodic":
        energy += y[positions[-1], positions[0]]
    elif boundary != "open":
        raise InvalidChainError(f"boundary must be open or periodic, got {boundary!r}")
    log_w = -beta * energy
    log_z = float(logsumexp(log_w))
    probs = np.exp(log_w - log_z).reshape((size,) * n_blocks)
    return GibbsEnsemble(
        hamiltonian=hamiltonian,
        beta=float(beta),
        n_blocks=n_blocks,
        boundary=boundary,
        probs=probs,
        log_z=log_z,
    )


def conditional_from_enumeration(ens: GibbsEnsemble, position: int) -> EnumeratedConditionals:
    """Conditional tables at one chain position, by exact marginalization."""
    n = ens.n_blocks
    if not 0 <= position <= n - 2:
        raise InvalidChainError(
            f"position {position} outside 0..{n - 2} for step conditionals"
        )
    triple = None
    if 1 <= position <= n - 2:
        marg3 = _marginal(ens.probs, (position - 1, position, position + 1))
        denom = marg3.sum(axis=1, keepdims=True)
        triple = marg3 / denom
    marg2 = _marginal(ens.probs, (position, position + 1))
    step = marg2 / marg2.sum(axis=1, keepdims=True)
    first = None
    if position == 0:
        first = marg2 / marg2.sum(axis=0, keepdims=True)
    return EnumeratedConditionals(position=position, triple=triple, step=step, first=first)


def naive_isolated_conditional(ts: TransferSystem) -> np.ndarray:
    """The warned-against construction: condition on an 'isolated' past.

    Divides the exact two-block joint by the probability the past block
    would have as a stand-alone one-block system instead of by the proper
    marginal. Returned for demonstration; it is wrong by construction and
    its rows need not even normalize.
    """
    log_joint = ts.log_u[:, None] + ts.log_v + ts.log_u[None, :]
    log_joint = log_joint - logsumexp(log_joint)
    log_iso = 2.0 * ts.log_u
    log_iso = log_iso - logsumexp(log_iso)
    return np.exp(log_joint - log_iso[:, None])


def quadratic_system_solve(
    lc: LocalCharacteristics, tol: float = 1e-8, max_size: int = 4
) -> np.ndarray:
    """Recover the transition matrix from the local characteristics alone.

    Every neighbor triple demands P[j, l] * P[l, m] proportional to the
    conditional, with one unknown scale per (j, m) pair. Taken in logs this
    is a linear system whose solutions differ only by a diagonal gauge, and
    the row-sum-one requirement fixes the gauge through the dominant
    eigenvector of the particular solution. No spectral data of the
    transfer route enters; the inputs are the conditionals alone.
    Reference implementation for small block spaces only.
    """
    # imported here: scipy.optimize doubles the time and memory that
    # importing the package takes, and nothing else uses it
    from scipy.optimize import least_squares

    interior = lc.interior
    size = interior.shape[0]
    if size > max_size:
        raise QuadraticSolveError(
            f"reference solver is limited to {max_size} blocks, got {size}", np.inf
        )

    log_lc = lc.log_interior
    # constraints far below the representable range are dropped: they can
    # only concern matrix entries that are zero at any usable resolution
    j_idx, l_idx, m_idx = np.nonzero(log_lc > -690.0)
    targets = log_lc[j_idx, l_idx, m_idx]
    # matrix entries absent from every retained constraint are below any
    # representable probability; pin them at the floor
    seen = np.zeros((size, size), dtype=bool)
    seen[j_idx, l_idx] = True
    seen[l_idx, m_idx] = True
    floor_log = -746.0
    free = np.flatnonzero(seen.ravel())
    pos = -np.ones(size * size, dtype=int)
    pos[free] = np.arange(free.size)

    system = np.zeros((targets.size, free.size + size * size))
    rhs = targets.astype(float)
    for row in range(targets.size):
        j, l, m = int(j_idx[row]), int(l_idx[row]), int(m_idx[row])
        # entries of retained equations are always free, however small
        system[row, pos[j * size + l]] += 1.0
        system[row, pos[l * size + m]] += 1.0
        system[row, free.size + j * size + m] -= 1.0
    solution, *_ = np.linalg.lstsq(system, rhs, rcond=None)
    correction, *_ = np.linalg.lstsq(system, rhs - system @ solution, rcond=None)
    solution = solution + correction

    particular = np.full(size * size, floor_log)
    particular[free] = solution[: free.size]
    particular = particular.reshape(size, size)

    # gauge fix: row-normalizing against the dominant right eigenvector of
    # exp(particular) restores stochasticity without touching the triples;
    # the wide clustering absorbs the near-degenerate phase splitting that
    # the linear stage's noise induces
    _, log_gauge, _ = _perron_eigensystem(particular, cluster_tol=1e-9)
    log_rows = particular + log_gauge[np.newaxis, :]
    theta = log_rows - logsumexp(log_rows, axis=1)[:, np.newaxis]

    def expand(z: np.ndarray) -> np.ndarray:
        t = np.full(size * size, floor_log)
        t[free] = z
        return t.reshape(size, size)

    def residuals(z: np.ndarray) -> np.ndarray:
        t = expand(z)
        pair = t[:, :, np.newaxis] + t[np.newaxis, :, :]
        norm = logsumexp(pair, axis=1)
        eq = pair[j_idx, l_idx, m_idx] - norm[j_idx, m_idx] - targets
        rows = logsumexp(t, axis=1)
        return np.concatenate([eq, rows])

    def jacobian(z: np.ndarray) -> np.ndarray:
        t = expand(z)
        pair = t[:, :, np.newaxis] + t[np.newaxis, :, :]
        norm = logsumexp(pair, axis=1)
        soft = np.exp(pair - norm[:, np.newaxis, :])
        jac = np.zeros((targets.size + size, size * size))
        for row in range(targets.size):
            j, l, m = int(j_idx[row]), int(l_idx[row]), int(m_idx[row])
            jac[row, j * size + l] += 1.0
            jac[row, l * size + m] += 1.0
            jac[row, j * size : (j + 1) * size] -= soft[j, :, m]
            jac[row, m::size] -= soft[j, :, m]
        row_soft = np.exp(t - logsumexp(t, axis=1)[:, np.newaxis])
        for j in range(size):
            jac[targets.size + j, j * size : (j + 1) * size] = row_soft[j]
        return jac[:, free]

    def polish(start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        refined = least_squares(
            residuals,
            start.ravel()[free],
            jac=jacobian,
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
            max_nfev=2_000,
        )
        t = np.full(size * size, floor_log)
        t[free] = refined.x
        t = t.reshape(size, size)
        t = t - logsumexp(t, axis=1)[:, np.newaxis]
        out = np.exp(t)
        return out / out.sum(axis=1, keepdims=True), t

    # the eigenvector's accuracy is limited by its spectral gap; a
    # damped-Newton polish with the analytic Jacobian removes the rest.
    # A second solve from a gauge-twisted start probes identifiability:
    # near first-order coexistence the conditionals retain the pinning
    # information only below floating-point resolution, and then the two
    # solves settle on visibly different matrices.
    matrix, theta = polish(theta)
    twist = 0.5 * np.where(np.arange(size) % 2 == 0, 1.0, -1.0)
    twisted = particular + (log_gauge + twist)[np.newaxis, :]
    twisted = twisted - logsumexp(twisted, axis=1)[:, np.newaxis]
    matrix_b, _ = polish(twisted)
    ambiguity = float(np.max(np.abs(matrix - matrix_b)))
    if ambiguity > 1e-9:
        raise QuadraticSolveError(
            "conditionals do not pin the transition matrix at floating-point "
            f"resolution (solution ambiguity {ambiguity:.3e})",
            ambiguity,
        )
    two_step = matrix @ matrix
    eq = interior * two_step[:, None, :] - matrix[:, :, None] * matrix[None, :, :]
    residual = float(np.max(np.abs(eq)))
    # the log-domain misfit catches impostor solutions whose disagreement
    # hides below linear-domain resolution
    pair = theta[:, :, np.newaxis] + theta[np.newaxis, :, :]
    norm = logsumexp(pair, axis=1)
    log_misfit = float(np.max(np.abs(pair[j_idx, l_idx, m_idx] - norm[j_idx, m_idx] - targets)))
    if residual > tol or log_misfit > 1e-6:
        raise QuadraticSolveError(
            f"factorization residual {residual:.3e} (log misfit {log_misfit:.3e}) "
            f"exceeds {tol:.1e}",
            max(residual, log_misfit),
        )
    return matrix


def sample_sequence(
    chain: BlockChain,
    n_blocks: int,
    seed: int,
    class_index: int | None = None,
) -> np.ndarray:
    """Deterministic Monte Carlo realization, flattened to symbol indices.

    The first block is drawn from the stationary distribution, later blocks
    from the matrix rows. Reducible chains need an explicit class choice.

    A step sends state s to min(searchsorted(cum[s], u, "right"), S - 1),
    with ``cum`` the row cumulative sums. That map depends only on which
    interval of the merged breakpoints ``unique(cum)`` holds the uniform u,
    so one lookup per step picks it from a table of at most S**2 + 1 maps,
    built by the same float comparisons a step-by-step walk makes: the
    sequence is that walk's, bit for bit. Steps run in segments of
    ``_SAMPLE_CHUNK``, each scanned in three phases over chunks of about
    sqrt(segment) / 4 steps: the chunks' maps are composed side by side,
    the state is carried across the chunks, and the chunk walks are
    replayed side by side. Memory beyond the output is the table and
    O(segment * S) per segment.
    """
    if n_blocks < 1:
        raise InvalidChainError(f"n_blocks must be at least 1, got {n_blocks}")
    if chain.pi is not None and class_index is None:
        members = np.arange(chain.size)
        matrix = chain.matrix
        pi = chain.pi
    else:
        if class_index is None:
            raise ReducibleChainError(
                f"chain has {len(chain.classes)} recurrent classes; pass class_index"
            )
        members, matrix, pi = restrict_to_class(chain, class_index)

    high = matrix.shape[0] - 1
    cum = np.cumsum(matrix, axis=1)
    breaks = np.unique(cum)
    # maps[k] is the step map for uniforms in [breaks[k - 1], breaks[k]);
    # below every breakpoint each row yields state 0
    maps = np.zeros((breaks.size + 1, high + 1), dtype=np.min_scalar_type(high))
    for s, row in enumerate(cum):
        maps[1:, s] = np.minimum(np.searchsorted(row, breaks, side="right"), high)
    digits = chain.space.digit_table[members].astype(np.int64)
    out = np.empty((n_blocks, digits.shape[1]), dtype=np.int64)

    rng = np.random.default_rng(seed)
    state = min(int(np.searchsorted(np.cumsum(pi), rng.random(), side="right")), high)
    out[0] = digits[state]
    for start in range(1, n_blocks, _SAMPLE_CHUNK):
        uniforms = rng.random(min(_SAMPLE_CHUNK, n_blocks - start))
        states = _scan(maps, np.searchsorted(breaks, uniforms, side="right"), state)
        out[start : start + states.size] = digits[states]
        state = int(states[-1])
    return out.ravel()


def _scan(maps: np.ndarray, steps: np.ndarray, state: int) -> np.ndarray:
    """States of the walk from ``state`` through the maps ``maps[steps]``."""
    size = maps.shape[1]
    # short chunks: carrying the state costs less per chunk than the two
    # numpy calls that compose and replay cost per step
    width = math.isqrt(steps.size) // 4 + 1
    n_chunks = -(-steps.size // width)
    # offsets[j, c] locates step j of chunk c in the flat table; the padding
    # steps at the end use map 0 and their states are dropped
    offsets = np.zeros(n_chunks * width, dtype=np.intp)
    np.multiply(steps, size, out=offsets[: steps.size])
    offsets = offsets.reshape(n_chunks, width).T.copy()
    flat = maps.ravel()

    # each chunk's map, composed over every state at once
    composed = np.arange(size)
    for row in offsets:
        composed = flat.take(row[:, np.newaxis] + composed)
    # the state entering each chunk
    entry = [state]
    for chunk_map in composed[:-1].tolist():
        entry.append(chunk_map[entry[-1]])
    # each chunk's walk from its entry state
    walk = np.empty((width, n_chunks), dtype=maps.dtype)
    current = np.array(entry)
    for row, states in zip(offsets, walk):
        current = flat.take(row + current, out=states)
    return walk.T.ravel()[: steps.size]


def empirical_entropy_rate(
    sequence: np.ndarray, n: int, theta: int | None = None
) -> EntropyEstimate:
    """Plug-in conditional entropy of the next spin given the last n spins.

    Requires at least 1e5 * theta**n symbols so that every window is far
    from the undersampled regime. The standard error comes from batch means
    of the per-step surprisals, which tolerates the Markov autocorrelation.
    """
    seq = np.asarray(sequence, dtype=np.int64)
    if theta is None:
        theta = int(seq.max()) + 1
    length = seq.size
    if length < 10**5 * theta**n:
        raise UndersampledError(
            f"need at least {10**5 * theta**n} symbols for n={n}, got {length}"
        )
    joint_codes = _joint_codes(seq, n, theta)
    counts = np.bincount(joint_codes, minlength=theta ** (n + 1)).astype(float)
    total = counts.sum()
    joint = counts / total
    window_marg = joint.reshape(theta**n, theta).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint.reshape(theta**n, theta) / window_marg[:, None]
        log2_cond = np.where(joint.reshape(theta**n, theta) > 0.0, np.log2(cond), 0.0)
    value = float(-np.sum(joint.reshape(theta**n, theta) * log2_cond))

    surprisal = -log2_cond.ravel()[joint_codes]
    n_batches = 64
    usable = (surprisal.size // n_batches) * n_batches
    batches = surprisal[:usable].reshape(n_batches, -1).mean(axis=1)
    stderr = float(batches.std(ddof=1) / np.sqrt(n_batches))
    return EntropyEstimate(value=value, stderr=stderr, samples=int(total))


def _joint_codes(seq: np.ndarray, n: int, theta: int) -> np.ndarray:
    """Base-theta code of every (n + 1)-spin window: n spins and the next.

    Horner over shifted slices; the codes are exact integers.
    """
    length = seq.size
    codes = seq[: length - n].copy()
    for k in range(1, n + 1):
        codes *= theta
        codes += seq[k : length - n + k]
    return codes


def _marginal(probs: np.ndarray, keep: tuple[int, ...]) -> np.ndarray:
    axes = tuple(a for a in range(probs.ndim) if a not in keep)
    return probs.sum(axis=axes)
