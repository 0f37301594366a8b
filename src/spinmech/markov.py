"""From transfer weights to the block-to-block stochastic matrix.

The conditional distribution of a block given both neighbors (the local
characteristics of the random field) comes straight from the transfer
matrix. Recovering the one-sided transition matrix from those conditionals
is the inverse problem; here it is done through the spectral closed form
P[i, j] = V[i, j] * r[j] / (lambda0 * r[i]), evaluated with per-row
normalization in the log domain. Every returned matrix is certified
against the consistency relation the local characteristics impose, by a
bound on all neighbor triples that the row normalizers give in O(S^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InversionError, ReducibleChainError, raise_first, record_failures
from .info import logsumexp
from .lattice import BlockSpace
from .transfer import TransferSystem

# Entries at or below this are treated as absent edges of the support graph.
SUPPORT_FLOOR = 1e-12
# Largest consistency violation a certified stochastic matrix may carry.
CONSISTENCY_TOL = 1e-10


@dataclass(frozen=True)
class LocalCharacteristics:
    """Conditional block distributions of the random field.

    interior[j, i, m] = Pr(block i | left neighbor j, right neighbor m);
    first_block[i, m] = Pr(first block i | second block m) for open chains.
    The log table carries the same conditionals at full log-domain
    precision, including entries that underflow linearly.
    """

    interior: np.ndarray
    first_block: np.ndarray
    log_interior: np.ndarray


@dataclass(frozen=True)
class ClassDecomposition:
    """Recurrent classes of a stochastic matrix plus per-class stationaries."""

    classes: tuple[np.ndarray, ...]
    pis: tuple[np.ndarray, ...]
    transients: np.ndarray


@dataclass(frozen=True)
class BlockChain:
    """Row-stochastic chain over blocks (or sliding windows) of a spin model.

    ``pi`` is the global stationary distribution and is None when several
    recurrent classes coexist (zero-temperature phase degeneracy); the
    per-class stationaries always exist. ``limit_mass`` carries the
    transfer-level stationary weights used to weight classes, and
    ``consistency_residual`` the certified bound on the consistency gap of
    the inversion that produced the matrix (None for derived chains).
    """

    space: BlockSpace
    matrix: np.ndarray
    pi: np.ndarray | None
    limit_mass: np.ndarray
    classes: tuple[np.ndarray, ...]
    class_pis: tuple[np.ndarray, ...]
    class_weights: np.ndarray
    transients: np.ndarray
    consistency_residual: float | None

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    @property
    def irreducible(self) -> bool:
        return len(self.classes) == 1 and self.transients.size == 0


@dataclass(frozen=True)
class ChainStack:
    """Chains of P points over one block space, stacked on a leading axis.

    ``labels[p, i]`` numbers the recurrent class of state i, classes in
    the order of their smallest member, and is -1 for a transient state;
    ``in_class[p, i, c]`` says whether state i is in class c; ``pi[p, i]``
    is the stationary probability of i within its class and
    ``weights[p, c]`` the weight of class c (0 beyond the last class).
    ``rows`` holds each state's row restricted to its class and
    renormalized (zero for transients). ``residual`` is the certified
    consistency bound per point, None for derived chains.
    """

    space: BlockSpace
    matrix: np.ndarray
    limit_mass: np.ndarray
    labels: np.ndarray
    in_class: np.ndarray
    pi: np.ndarray
    weights: np.ndarray
    rows: np.ndarray
    residual: np.ndarray | None

    def chain(self, p: int) -> BlockChain:
        # copies, so that a kept chain holds none of the stack
        classes = class_members(self.labels[p])
        return BlockChain(
            space=self.space,
            matrix=self.matrix[p].copy(),
            pi=self.pi[p].copy() if len(classes) == 1 else None,
            limit_mass=self.limit_mass[p].copy(),
            classes=classes,
            class_pis=tuple(self.pi[p][m] for m in classes),
            class_weights=self.weights[p, : len(classes)].copy(),
            transients=np.arange(self.labels.shape[1])[self.labels[p] < 0],
            consistency_residual=None if self.residual is None else float(self.residual[p]),
        )


def local_characteristics(ts: TransferSystem) -> LocalCharacteristics:
    """Neighbor-conditional block distributions, computed in the log domain."""
    log_v = ts.log_v
    # joint[j, i, m] = log V[j, i] + log V[i, m], normalized over i
    joint = log_v[:, :, np.newaxis] + log_v[np.newaxis, :, :]
    log_interior = joint - logsumexp(joint, axis=1)[:, np.newaxis, :]
    interior = np.exp(log_interior)

    first_num = ts.log_u[:, np.newaxis] + log_v
    first_den = logsumexp(first_num, axis=0)
    first = np.exp(first_num - first_den[np.newaxis, :])
    return LocalCharacteristics(
        interior=interior, first_block=first, log_interior=log_interior
    )


def consistency_residual(
    lc: LocalCharacteristics, matrix: np.ndarray
) -> tuple[float, tuple[int, int, int]]:
    """Largest absolute violation of the field/chain consistency relation,
    with the (j, i, m) of its first occurrence (of the first nan, if any).

    For every triple (j, i, m) the candidate matrix must satisfy
    Pr(i | j, m) * (P @ P)[j, m] = P[j, i] * P[i, m].
    """
    pairs = matrix[:, :, np.newaxis] * matrix[np.newaxis, :, :]
    gap = np.abs(lc.interior * pairs.sum(axis=1)[:, np.newaxis, :] - pairs)
    first = int(np.argmax(gap))
    triple = np.unravel_index(first, gap.shape)
    return float(gap.flat[first]), tuple(int(t) for t in triple)


def solve_stochastic(ts: TransferSystem) -> BlockChain:
    """Invert the local characteristics into the block transition matrix.

    Uses the spectral closed form with per-row log-domain normalization,
    then bounds the consistency gap of every triple; a bound above
    CONSISTENCY_TOL, or one that is not a number, raises InversionError
    naming a triple where the bound bites.
    """
    errors = [None]
    matrix, limit_mass, residual = _invert(
        ts.log_v[None], ts.log_right[None], ts.log_left[None], errors
    )
    raise_first(errors)
    (chains,) = _chain_stacks(ts.hamiltonian.blocks, (matrix,), limit_mass, (residual,))
    return chains.chain(0)


def invert_stack(
    space: BlockSpace,
    log_v: np.ndarray,
    log_right: np.ndarray,
    log_left: np.ndarray,
    errors: list,
) -> tuple[ChainStack, ChainStack]:
    """solve_stochastic for a (P, S, S) stack, with the window chains of
    its block chains; failures go to ``errors``."""
    return chains_and_windows(space, *_invert(log_v, log_right, log_left, errors))


def chains_and_windows(
    space: BlockSpace,
    matrix: np.ndarray,
    limit_mass: np.ndarray,
    residual: np.ndarray | None,
) -> tuple[ChainStack, ChainStack]:
    """The block chains of a (P, S, S) stack of block matrices and their
    window chains, from one class decomposition of both.

    Windows of one spin are the blocks: for n = 1 the window chains are
    the block ChainStack itself.
    """
    if space.n == 1:
        (chains,) = _chain_stacks(space, (matrix,), limit_mass, (residual,))
        return chains, chains
    return _chain_stacks(
        space, (matrix, _window_matrices(space, matrix)), limit_mass, (residual, None)
    )


def _invert(
    log_v: np.ndarray, log_right: np.ndarray, log_left: np.ndarray, errors: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified (P, S, S) block matrices, their limit masses and
    consistency bounds; failures go to ``errors``."""
    log_rows = log_v + log_right[:, np.newaxis, :]
    norms = logsumexp(log_rows, axis=2)
    matrix = np.exp(log_rows - norms[:, :, np.newaxis])
    matrix /= matrix.sum(axis=2, keepdims=True)

    # With rho_j = N_j / r_j, where N_j = sum_i V[j, i] r_i is the row
    # norm, the consistency gap of the triple (j, i, m) is exactly
    # P[j, i] P[i, m] |rho_i <1/rho>_w - 1|, <.>_w the mean under the
    # weights w_k = V[j, k] V[k, m]. So expm1 of the spread of log rho
    # bounds every triple, up to the rounding of log arithmetic on weights
    # of magnitude max|log V|, in O(S^2) per point.
    log_rho = norms - log_right
    rounding = 2.0 * np.finfo(float).eps * np.maximum(1.0, np.abs(log_v).max(axis=(1, 2)))
    # a spread past log(max float), from a vector the Perron gate already
    # failed, bounds by inf and fails here too
    with np.errstate(over="ignore"):
        residual = np.expm1(np.ptp(log_rho, axis=1)) + rounding
    failed = ~(residual <= CONSISTENCY_TOL)

    def failure(p: int) -> InversionError:
        # the first state of extreme log rho (the first nan, if any), with
        # its largest in- and out-entries: P[j, i] P[i, m] weights its gap most
        rho = log_rho[p]
        i = int(np.argmax((rho == rho.max()) | (rho == rho.min()) | np.isnan(rho)))
        triple = (int(np.argmax(matrix[p, :, i])), i, int(np.argmax(matrix[p, i])))
        return InversionError(
            f"consistency bound {residual[p]:.3e} exceeds {CONSISTENCY_TOL:.1e} "
            f"at triple {triple}",
            float(residual[p]),
            triple,
        )

    record_failures(errors, failed, failure)
    # failed points go on as the uniform chain, so the stack stays finite
    matrix[failed] = 1.0 / matrix.shape[1]

    mass = np.exp(log_left + log_right)
    return matrix, mass / mass.sum(axis=1, keepdims=True), residual


def _chain_stacks(
    space: BlockSpace,
    matrices: tuple[np.ndarray, ...],
    limit_mass: np.ndarray,
    residuals: tuple[np.ndarray | None, ...],
) -> tuple[ChainStack, ...]:
    """Recurrent classes, per-class stationaries and class weights of each
    (P, S, S) stack of row-stochastic matrices in ``matrices``, from one
    decomposition of them stacked end to end. Every point's arithmetic
    uses its own slices, so each result is the one that stack alone gives.

    Classes are weighted by the transfer-level stationary mass
    ``limit_mass`` they carry, or evenly when it carries none.
    """
    labels, in_class, rows = _decompose(np.concatenate(matrices))
    pi = _class_stationary(rows, labels, in_class)

    masses = np.concatenate((limit_mass,) * len(matrices))
    mass = (masses[:, :, np.newaxis] * in_class).sum(axis=1)
    total = mass.sum(axis=1, keepdims=True)
    n_classes = labels.max(axis=1, keepdims=True) + 1
    even = (np.arange(labels.shape[1]) < n_classes) / n_classes
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(np.isfinite(total) & (total > 0.0), mass / total, even)
    stacks = []
    n_points = len(limit_mass)
    for k, (matrix, residual) in enumerate(zip(matrices, residuals)):
        part = slice(k * n_points, (k + 1) * n_points)
        stacks.append(
            ChainStack(
                space=space,
                matrix=matrix,
                limit_mass=limit_mass,
                labels=labels[part],
                in_class=in_class[part],
                pi=pi[part],
                weights=weights[part],
                rows=rows[part],
                residual=residual,
            )
        )
    return tuple(stacks)


def class_decomposition(matrix: np.ndarray) -> ClassDecomposition:
    """Recurrent classes, their stationary vectors, and the transient states."""
    labels, in_class, rows = _decompose(matrix[None])
    pi = _class_stationary(rows, labels, in_class)[0]
    classes = class_members(labels[0])
    return ClassDecomposition(
        classes=classes,
        pis=tuple(pi[m] for m in classes),
        transients=np.arange(len(matrix))[labels[0] < 0],
    )


def window_chain(chain: BlockChain) -> BlockChain:
    """Reduce a block chain to single-spin steps over sliding windows.

    A window may only advance to ``shift_append(window, s)``; the emission
    probability of the spin s is the block-chain mass of all successor
    blocks whose leading spin is s. For n = 1 the windows are the blocks
    and the chain is returned unchanged.
    """
    if chain.space.n == 1:
        return chain
    windows = _window_matrices(chain.space, chain.matrix[None])
    (stack,) = _chain_stacks(chain.space, (windows,), chain.limit_mass[None], (None,))
    return stack.chain(0)


def _window_matrices(space: BlockSpace, matrix: np.ndarray) -> np.ndarray:
    """Window transition matrices of a (P, S, S) stack of block chains."""
    theta = space.alphabet.size
    size = space.size
    n_points = matrix.shape[0]
    emit = matrix.reshape(n_points, size, theta, size // theta).sum(axis=3)
    windows = np.zeros((n_points, size, size))
    windows[:, np.arange(size)[:, np.newaxis], space.shift_table] = emit
    windows /= windows.sum(axis=2, keepdims=True)
    return windows


def restrict_to_class(chain: BlockChain, class_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Members, renormalized submatrix, and stationary vector of one class."""
    if not 0 <= class_index < len(chain.classes):
        raise ReducibleChainError(
            f"class index {class_index} out of range ({len(chain.classes)} classes)"
        )
    members = chain.classes[class_index]
    sub = chain.matrix[np.ix_(members, members)]
    sub = sub / sub.sum(axis=1, keepdims=True)
    return members, sub, chain.class_pis[class_index]


def closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a (P, S, S) stack of boolean graphs.

    Squaring stops early at a fixed point: a reflexive relation equal to
    its own square is transitive, and squaring leaves it unchanged.
    """
    size = edges.shape[1]
    reach = edges.copy()
    reach.reshape(len(edges), -1)[:, :: size + 1] = True
    steps = 1
    while steps < size - 1:
        # squaring doubles the path length covered; path counts are exact
        paths = reach.astype(float)
        squared = paths @ paths > 0.0
        if np.array_equal(squared, reach):
            break
        reach = squared
        steps *= 2
    return reach


def _decompose(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class labels, class membership and class-restricted rows of a stack."""
    labels = _classes(matrix)
    in_class = labels[:, :, np.newaxis] == np.arange(labels.shape[1])
    return labels, in_class, _class_rows(matrix, labels)


def _classes(matrix: np.ndarray) -> np.ndarray:
    """Recurrent-class labels of a (P, S, S) stack: entries above
    SUPPORT_FLOOR are edges, a strongly connected component no edge leaves
    is a class."""
    size = matrix.shape[1]
    reach = closure(matrix > SUPPORT_FLOOR)
    back = reach.transpose(0, 2, 1)
    recurrent = ~(reach & ~back).any(axis=2)
    first = np.argmax(reach & back, axis=2)
    roots = recurrent & (first == np.arange(size))
    order = roots.cumsum(axis=1) - 1
    return np.where(recurrent, order[np.arange(len(matrix))[:, np.newaxis], first], -1)


def _class_rows(matrix: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Rows restricted to each state's class and renormalized; zero rows for transients."""
    same = (labels[:, :, np.newaxis] == labels[:, np.newaxis, :]) & (labels >= 0)[:, :, np.newaxis]
    rows = np.where(same, matrix, 0.0)
    total = rows.sum(axis=2, keepdims=True)
    return rows / np.where(total > 0.0, total, 1.0)


def _class_stationary(rows: np.ndarray, labels: np.ndarray, in_class: np.ndarray) -> np.ndarray:
    """Per-class stationary vectors by GTH elimination over a stack.

    The rows are block diagonal by class, so eliminating states from the
    top only ever feeds mass within a class. A state with no mass left
    towards lower states is the smallest member of its class (or a
    transient state); it roots its class's back substitution.
    """
    a = rows.transpose(0, 2, 1).copy()
    n_points, size = labels.shape
    root = np.zeros((n_points, size), dtype=bool)
    root[:, 0] = True
    for k in range(size - 1, 0, -1):
        s = a[:, :k, k].sum(axis=1)
        rooted = s <= 0.0
        if rooted.any():
            # a root sends no mass to lower states: its update adds zeros
            root[:, k] = rooted
            s[rooted] = 1.0
        a[:, k, :k] /= s[:, np.newaxis]
        a[:, :k, :k] += a[:, :k, k, np.newaxis] * a[:, k, np.newaxis, :k]
    pi = np.zeros((n_points, size))
    pi[:, 0] = 1.0
    for k in range(1, size):
        carried = a[:, k, 0] + (pi[:, 1:k] * a[:, k, 1:k]).sum(axis=1)
        pi[:, k] = np.where(root[:, k], 1.0, carried)
    pi = np.where(labels >= 0, pi, 0.0)
    totals = (pi[:, :, np.newaxis] * in_class).sum(axis=1)
    return pi / totals[np.arange(n_points)[:, np.newaxis], np.maximum(labels, 0)]


def class_members(labels: np.ndarray) -> tuple[np.ndarray, ...]:
    """State indices of each class, from one point's labels."""
    states = np.arange(len(labels))
    return tuple(states[labels == c] for c in range(int(labels.max()) + 1))
