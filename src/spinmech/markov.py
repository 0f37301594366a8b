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
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import InversionError, ReducibleChainError
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


def local_characteristics(ts: TransferSystem) -> LocalCharacteristics:
    """Neighbor-conditional block distributions, computed in the log domain."""
    log_v = ts.log_v
    # joint[j, i, m] = log V[j, i] + log V[i, m]
    joint = log_v[:, :, np.newaxis] + log_v[np.newaxis, :, :]
    denom = logsumexp(joint, axis=1)
    log_interior = joint - denom[:, np.newaxis, :]
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
    """Largest absolute violation of the field/chain consistency relation.

    For every triple (j, i, m) the candidate matrix must satisfy
    Pr(i | j, m) * (P @ P)[j, m] = P[j, i] * P[i, m].
    """
    two_step = matrix @ matrix
    lhs = lc.interior * two_step[:, np.newaxis, :]
    rhs = matrix[:, :, np.newaxis] * matrix[np.newaxis, :, :]
    diff = np.abs(lhs - rhs)
    flat = int(np.argmax(diff))
    triple = np.unravel_index(flat, diff.shape)
    return float(diff[triple]), (int(triple[0]), int(triple[1]), int(triple[2]))


def solve_stochastic(ts: TransferSystem) -> BlockChain:
    """Invert the local characteristics into the block transition matrix.

    Uses the spectral closed form with per-row log-domain normalization,
    then certifies the consistency relation; a residual above
    CONSISTENCY_TOL, or one that is not a number, raises InversionError
    naming the worst triple.
    """
    log_rows = ts.log_v + ts.log_right[np.newaxis, :]
    norms = logsumexp(log_rows, axis=1)
    matrix = np.exp(log_rows - norms[:, np.newaxis])
    matrix /= matrix.sum(axis=1, keepdims=True)

    lc = local_characteristics(ts)
    residual, triple = consistency_residual(lc, matrix)
    if not residual <= CONSISTENCY_TOL:
        raise InversionError(
            f"consistency residual {residual:.3e} exceeds {CONSISTENCY_TOL:.1e} "
            f"at triple {triple}",
            residual,
            triple,
        )

    limit_mass = np.exp(ts.log_left + ts.log_right - logsumexp(ts.log_left + ts.log_right))
    return _make_chain(
        ts.hamiltonian.blocks, matrix, limit_mass, consistency_residual=residual
    )


def class_decomposition(matrix: np.ndarray, floor: float = SUPPORT_FLOOR) -> ClassDecomposition:
    """Recurrent classes, their stationary vectors, and the transient states."""
    size = matrix.shape[0]
    if float(matrix.min()) > floor:
        return ClassDecomposition(
            classes=(np.arange(size),),
            pis=(_gth_stationary(matrix),),
            transients=np.arange(0),
        )
    support = matrix > floor
    graph = csr_matrix(support)
    n_comp, labels = connected_components(graph, directed=True, connection="strong")
    # a strongly connected component is recurrent iff no edge leaves it
    leaves = np.zeros(n_comp, dtype=bool)
    rows, cols = np.nonzero(support)
    cross = labels[rows] != labels[cols]
    leaves[labels[rows[cross]]] = True

    classes = []
    for comp in range(n_comp):
        if leaves[comp]:
            continue
        members = np.flatnonzero(labels == comp)
        classes.append(members)
    classes.sort(key=lambda m: int(m[0]))
    pis = []
    for members in classes:
        sub = matrix[np.ix_(members, members)]
        sub = sub / sub.sum(axis=1, keepdims=True)
        pis.append(_gth_stationary(sub))
    recurrent = (
        np.concatenate(classes) if classes else np.arange(0)
    )
    transients = np.setdiff1d(np.arange(size), recurrent)
    return ClassDecomposition(classes=tuple(classes), pis=tuple(pis), transients=transients)


def window_chain(chain: BlockChain) -> BlockChain:
    """Reduce a block chain to single-spin steps over sliding windows.

    A window may only advance to ``shift_append(window, s)``; the emission
    probability of the spin s is the block-chain mass of all successor
    blocks whose leading spin is s. For n = 1 the windows are the blocks
    and the chain is returned unchanged.
    """
    space = chain.space
    n = space.n
    if n == 1:
        return chain
    theta = space.alphabet.size
    stride = theta ** (n - 1)
    size = space.size
    matrix = np.zeros((size, size))
    idx = np.arange(size)
    for s in range(theta):
        emit = chain.matrix[:, s * stride : (s + 1) * stride].sum(axis=1)
        targets = (idx % stride) * theta + s
        matrix[idx, targets] = emit
    matrix /= matrix.sum(axis=1, keepdims=True)
    return _make_chain(space, matrix, chain.limit_mass, consistency_residual=None)


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


def _make_chain(
    space: BlockSpace,
    matrix: np.ndarray,
    limit_mass: np.ndarray,
    consistency_residual: float | None,
) -> BlockChain:
    decomp = class_decomposition(matrix)
    size = matrix.shape[0]
    if len(decomp.classes) == 1:
        pi = np.zeros(size)
        pi[decomp.classes[0]] = decomp.pis[0]
    else:
        pi = None

    weights = np.array([limit_mass[m].sum() for m in decomp.classes])
    total = weights.sum()
    if not np.isfinite(total) or total <= 0.0:
        weights = np.full(len(decomp.classes), 1.0 / len(decomp.classes))
    else:
        weights = weights / total

    return BlockChain(
        space=space,
        matrix=matrix,
        pi=pi,
        limit_mass=limit_mass,
        classes=decomp.classes,
        class_pis=decomp.pis,
        class_weights=weights,
        transients=decomp.transients,
        consistency_residual=consistency_residual,
    )


def _gth_stationary(matrix: np.ndarray) -> np.ndarray:
    """GTH elimination for the stationary vector of an irreducible chain."""
    a = np.array(matrix.T, dtype=float)
    size = a.shape[0]
    if size == 1:
        return np.ones(1)
    for k in range(size - 1, 0, -1):
        s = a[:k, k].sum()
        a[k, :k] /= s
        a[:k, :k] += np.outer(a[:k, k], a[k, :k])
    pi = np.zeros(size)
    pi[0] = 1.0
    for k in range(1, size):
        pi[k] = a[k, 0] + pi[1:k] @ a[k, 1:k]
    return pi / pi.sum()
