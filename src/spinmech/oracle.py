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
    InvalidBlockError,
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
    ``seed`` must be a non-negative integer, not a bool; anything else
    raises InvalidChainError, since no other seed reproduces its sequence.

    A step sends state s to min(searchsorted(cum[s], u, "right"), S - 1),
    with ``cum`` the row cumulative sums. That map depends only on which
    interval of the merged breakpoints ``unique(cum)`` holds the uniform u,
    so one lookup per step picks it from a table of at most S**2 + 1 maps,
    built by the same float comparisons a step-by-step walk makes: the
    sequence is that walk's, bit for bit. The lookup goes through a guide
    table of G equal bins of [0, 1), G a power of two so that floor(u * G)
    is exact: a bin with no breakpoint strictly inside it names its map
    outright, and only uniforms in the other bins are searched. Steps run
    in segments of ``_SAMPLE_CHUNK``, each scanned over chunks of about
    sqrt(segment) / 4 steps (see ``_scan``). Memory beyond the output is
    the two tables and O(segment * S) per segment.
    """
    if n_blocks < 1:
        raise InvalidChainError(f"n_blocks must be at least 1, got {n_blocks}")
    if not _is_count(seed, 0):
        raise InvalidChainError(f"seed must be a non-negative integer, got {seed!r}")
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
    # guide[b] is the flat offset of the map of every uniform in bin b, or
    # -1 where a breakpoint splits the bin; about 1/32 of the bins at most.
    # Scaled by the power of two, breakpoints compare with the bin edges
    # exactly: those at or below edge b have ceil(scaled) <= b, and one
    # strictly inside bin b has floor(scaled) == b and is no integer.
    bins = 1 << (32 * breaks.size - 1).bit_length()
    scaled = breaks * bins
    lowest = np.minimum(np.ceil(scaled), bins).astype(np.intp)
    below = np.bincount(lowest, minlength=bins + 1).cumsum()[:bins]
    split = np.zeros(bins, dtype=bool)
    split[scaled[(scaled < bins) & (scaled != np.floor(scaled))].astype(np.intp)] = True
    guide = np.where(split, -1, below * (high + 1))
    digits = chain.space.digit_table[members].astype(np.int64)
    out = np.empty((n_blocks, digits.shape[1]), dtype=np.int64)

    rng = np.random.default_rng(seed)
    state = min(int(np.searchsorted(np.cumsum(pi), rng.random(), side="right")), high)
    out[0] = digits[state]
    for start in range(1, n_blocks, _SAMPLE_CHUNK):
        count = min(_SAMPLE_CHUNK, n_blocks - start)
        # short chunks: carrying the state costs less per chunk than the two
        # numpy calls that compose and replay cost per step
        width = math.isqrt(count) // 4 + 1
        n_chunks = -(-count // width)
        # the padding steps at the end draw u = 0; their states are dropped
        uniforms = np.zeros(n_chunks * width)
        rng.random(out=uniforms[:count])
        # offsets[j, c] locates the map of step j of chunk c in the flat table
        by_step = uniforms.reshape(n_chunks, width).T
        offsets = np.empty((width, n_chunks), dtype=np.intp)
        np.multiply(by_step, bins, out=offsets, casting="unsafe")
        offsets = guide.take(offsets)
        searched = offsets < 0
        if searched.any():
            found = np.searchsorted(breaks, by_step[searched], side="right")
            offsets[searched] = found * (high + 1)
        states = _scan(maps, offsets, state).T.ravel()[:count]
        # every index is in range; "clip" writes to out without the copy
        # that the default "raise" makes first
        np.take(digits, states, axis=0, out=out[start : start + count], mode="clip")
        state = int(states[-1])
    return out.ravel()


def _scan(maps: np.ndarray, offsets: np.ndarray, state: int) -> np.ndarray:
    """States of the walk from ``state`` through the steps ``offsets``.

    ``offsets[j, c]`` is the flat offset in ``maps`` of step j of chunk c,
    and the result holds the state after each step in the same layout. The
    chunks run side by side in three phases: compose each chunk's map over
    every state, carry the state across the chunks, replay each chunk from
    its entry state. Once every composed map is constant, which a mixing
    chain reaches within a few steps, the walks no longer depend on their
    entry states: from there one column of states replaces composing and
    replaying, and each chunk's last state is the next one's entry. That is
    checked at steps 1, 2, 4, ..., so a chain that never coalesces pays
    O(log width) checks.
    """
    flat = maps.ravel()
    width, n_chunks = offsets.shape
    walk = np.empty(offsets.shape, dtype=maps.dtype)
    composed = np.arange(maps.shape[1])
    coalesced = width
    for j, row in enumerate(offsets):
        if j > 0 and j & (j - 1) == 0 and (composed == composed[:, :1]).all():
            coalesced = j
            break
        composed = flat.take(row[:, np.newaxis] + composed)
    if coalesced < width:
        current = composed[:, 0]
        for row, states in zip(offsets[coalesced:], walk[coalesced:]):
            current = flat.take(row + current, out=states, mode="clip")
        entry = np.concatenate(([state], walk[-1, :-1]))
    else:
        entry = [state]
        for chunk_map in composed[:-1].tolist():
            entry.append(chunk_map[entry[-1]])
    current = np.asarray(entry)
    for row, states in zip(offsets[:coalesced], walk[:coalesced]):
        current = flat.take(row + current, out=states, mode="clip")
    return walk


def empirical_entropy_rate(
    sequence: np.ndarray, n: int, theta: int | None = None
) -> EntropyEstimate:
    """Plug-in conditional entropy of the next spin given the last n spins.

    Requires at least 1e5 * theta**n symbols so that every window is far
    from the undersampled regime, and raises InvalidBlockError for a symbol
    outside [0, theta). ``n`` must be an integer >= 0 and ``theta`` None or
    an integer >= 1 (bools are neither); anything else raises
    InvalidChainError. The standard error comes from batch means of the
    per-step surprisals, which tolerates the Markov autocorrelation. The
    windows are counted batch by batch into one row each, the windows past
    the last batch into a last row, so memory beyond the sequence is one
    batch of window codes: each batch mean is its count row times the
    surprisal table, and the estimate comes from the summed counts.
    """
    if not _is_count(n, 0):
        raise InvalidChainError(f"window length n must be an integer >= 0, got {n!r}")
    if theta is not None and not _is_count(theta, 1):
        raise InvalidChainError(f"alphabet size theta must be an integer >= 1, got {theta!r}")
    seq = np.asarray(sequence, dtype=np.int64)
    if theta is None:
        theta = int(seq.max()) + 1
    length = seq.size
    if length < 10**5 * theta**n:
        raise UndersampledError(
            f"need at least {10**5 * theta**n} symbols for n={n}, got {length}"
        )
    n_batches = 64
    batch = (length - n) // n_batches
    starts = [k * batch for k in range(n_batches + 1)] + [length - n]
    counts = np.empty((n_batches + 1, theta ** (n + 1)), dtype=np.int64)
    for row, first, stop in zip(counts, starts[:-1], starts[1:]):
        symbols = seq[first : stop + n]
        # as unsigned, a negative symbol is out of range too
        if symbols.size and symbols.view(np.uint64).max() >= theta:
            raise InvalidBlockError("a symbol sequence is outside the block space")
        row[:] = np.bincount(_joint_codes(symbols, n, theta), minlength=row.size)
    joint = counts.sum(axis=0).astype(float)
    total = joint.sum()
    joint /= total
    window_marg = joint.reshape(theta**n, theta).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cond = joint.reshape(theta**n, theta) / window_marg[:, None]
        log2_cond = np.where(joint.reshape(theta**n, theta) > 0.0, np.log2(cond), 0.0)
    value = float(-np.sum(joint.reshape(theta**n, theta) * log2_cond))

    batches = counts[:n_batches] @ -log2_cond.ravel() / batch
    stderr = float(batches.std(ddof=1) / np.sqrt(n_batches))
    return EntropyEstimate(value=value, stderr=stderr, samples=int(total))


def _is_count(value, low: int) -> bool:
    """Whether ``value`` is an integer, not a bool, of at least ``low``."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low


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
