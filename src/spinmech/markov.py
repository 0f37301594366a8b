"""From transfer weights to the block-to-block stochastic matrix.

The conditional distribution of a block given both neighbors (the local
characteristics of the random field) comes straight from the transfer
matrix. Recovering the one-sided transition matrix from those conditionals
is the inverse problem; here it is done through the spectral closed form
P[i, j] = V[i, j] * r[j] / (lambda0 * r[i]), evaluated with per-row
normalization in the log domain, and every returned matrix is certified
against the consistency relation the local characteristics impose.
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
    ``consistency_residual`` the certification diagnostic of the inversion
    that produced the matrix (None for derived chains).
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
    renormalized (zero for transients). ``residual`` is the certification
    residual per point, None for derived chains.
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
    log_interior = _log_interior(ts.log_v[None])[0]
    interior = np.exp(log_interior)

    log_v = ts.log_v
    first_num = ts.log_u[:, np.newaxis] + log_v
    first_den = logsumexp(first_num, axis=0)
    first = np.exp(first_num - first_den[np.newaxis, :])
    return LocalCharacteristics(
        interior=interior, first_block=first, log_interior=log_interior
    )


def consistency_residual(
    lc: LocalCharacteristics, matrix: np.ndarray
) -> tuple[float, tuple[int, int, int]]:
    """Largest absolute violation of the field/chain consistency relation.

    For every triple (j, i, m) the candidate matrix must satisfy
    Pr(i | j, m) * (P @ P)[j, m] = P[j, i] * P[i, m].
    """
    residual, flat = _consistency_gap(lc.interior[None], matrix[None])
    triple = np.unravel_index(int(flat[0]), lc.interior.shape)
    return float(residual[0]), (int(triple[0]), int(triple[1]), int(triple[2]))


def solve_stochastic(ts: TransferSystem) -> BlockChain:
    """Invert the local characteristics into the block transition matrix.

    Uses the spectral closed form with per-row log-domain normalization,
    then certifies the consistency relation; a residual above
    CONSISTENCY_TOL, or one that is not a number, raises InversionError
    naming the worst triple.
    """
    errors = [None]
    stack = invert_stack(
        ts.hamiltonian.blocks, ts.log_v[None], ts.log_right[None], ts.log_left[None], errors
    )
    raise_first(errors)
    return stack.chain(0)


def invert_stack(
    space: BlockSpace,
    log_v: np.ndarray,
    log_right: np.ndarray,
    log_left: np.ndarray,
    errors: list,
) -> ChainStack:
    """solve_stochastic for a (P, S, S) stack; failures go to ``errors``."""
    log_rows = log_v + log_right[:, np.newaxis, :]
    norms = logsumexp(log_rows, axis=2)
    matrix = np.exp(log_rows - norms[:, :, np.newaxis])
    matrix /= matrix.sum(axis=2, keepdims=True)

    interior = np.exp(_log_interior(log_v))
    residual, flat = _consistency_gap(interior, matrix)
    failed = ~(residual <= CONSISTENCY_TOL)

    def failure(p: int) -> InversionError:
        triple = tuple(int(t) for t in np.unravel_index(int(flat[p]), interior.shape[1:]))
        return InversionError(
            f"consistency residual {residual[p]:.3e} exceeds {CONSISTENCY_TOL:.1e} "
            f"at triple {triple}",
            float(residual[p]),
            triple,
        )

    record_failures(errors, failed, failure)
    # failed points go on as the uniform chain, so the stack stays finite
    matrix[failed] = 1.0 / matrix.shape[1]

    mass = np.exp(log_left + log_right)
    return chain_stack(space, matrix, mass / mass.sum(axis=1, keepdims=True), residual)


def chain_stack(
    space: BlockSpace,
    matrix: np.ndarray,
    limit_mass: np.ndarray,
    residual: np.ndarray | None,
) -> ChainStack:
    """Recurrent classes, per-class stationaries and class weights of a
    (P, S, S) stack of row-stochastic matrices.

    Classes are weighted by the transfer-level stationary mass
    ``limit_mass`` they carry, or evenly when it carries none.
    """
    labels, in_class, rows = _decompose(matrix, SUPPORT_FLOOR)
    pi = _class_stationary(rows, labels, in_class)

    mass = (limit_mass[:, :, np.newaxis] * in_class).sum(axis=1)
    total = mass.sum(axis=1, keepdims=True)
    n_classes = labels.max(axis=1, keepdims=True) + 1
    even = (np.arange(labels.shape[1]) < n_classes) / n_classes
    with np.errstate(divide="ignore", invalid="ignore"):
        weights = np.where(np.isfinite(total) & (total > 0.0), mass / total, even)
    return ChainStack(
        space=space,
        matrix=matrix,
        limit_mass=limit_mass,
        labels=labels,
        in_class=in_class,
        pi=pi,
        weights=weights,
        rows=rows,
        residual=residual,
    )


def class_decomposition(matrix: np.ndarray, floor: float = SUPPORT_FLOOR) -> ClassDecomposition:
    """Recurrent classes, their stationary vectors, and the transient states."""
    labels, in_class, rows = _decompose(matrix[None], floor)
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
    return window_stack(chain.space, chain.matrix[None], chain.limit_mass[None]).chain(0)


def window_stack(space: BlockSpace, matrix: np.ndarray, limit_mass: np.ndarray) -> ChainStack:
    """window_chain for a (P, S, S) stack of block chains with n >= 2."""
    theta = space.alphabet.size
    size = space.size
    n_points = matrix.shape[0]
    emit = matrix.reshape(n_points, size, theta, size // theta).sum(axis=3)
    windows = np.zeros((n_points, size, size))
    windows[:, np.arange(size)[:, np.newaxis], space.shift_table] = emit
    windows /= windows.sum(axis=2, keepdims=True)
    return chain_stack(space, windows, limit_mass, residual=None)


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


def _log_interior(log_v: np.ndarray) -> np.ndarray:
    """log Pr(block i | left j, right m) as a (P, j, i, m) stack."""
    # joint[p, j, i, m] = log V[j, i] + log V[i, m]
    joint = log_v[:, :, :, np.newaxis] + log_v[:, np.newaxis, :, :]
    return joint - logsumexp(joint, axis=2)[:, :, np.newaxis, :]


def _consistency_gap(interior: np.ndarray, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the largest |Pr(i|j,m) (P@P)[j,m] - P[j,i] P[i,m]| and
    the flat (j, i, m) index of its first occurrence."""
    pairs = matrix[:, :, :, np.newaxis] * matrix[:, np.newaxis, :, :]
    two_step = pairs.sum(axis=2)
    diff = np.abs(interior * two_step[:, :, np.newaxis, :] - pairs).reshape(len(matrix), -1)
    flat = np.argmax(diff, axis=1)
    return diff[np.arange(len(matrix)), flat], flat


def closure(edges: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure of a (P, S, S) stack of boolean graphs."""
    size = edges.shape[1]
    reach = edges | np.eye(size, dtype=bool)
    steps = 1
    while steps < size - 1:
        # squaring doubles the path length covered; path counts are exact
        paths = reach.astype(float)
        reach = paths @ paths > 0.0
        steps *= 2
    return reach


def _decompose(matrix: np.ndarray, floor: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class labels, class membership and class-restricted rows of a stack."""
    labels = _classes(matrix, floor)
    in_class = labels[:, :, np.newaxis] == np.arange(labels.shape[1])
    return labels, in_class, _class_rows(matrix, labels)


def _classes(matrix: np.ndarray, floor: float) -> np.ndarray:
    """Recurrent-class labels of a (P, S, S) stack: entries above ``floor``
    are edges, a strongly connected component no edge leaves is a class."""
    size = matrix.shape[1]
    reach = closure(matrix > floor)
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
        root[:, k] = s <= 0.0
        s = np.where(root[:, k], 1.0, s)
        a[:, k, :k] = np.where(root[:, k, np.newaxis], 0.0, a[:, k, :k] / s[:, np.newaxis])
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
