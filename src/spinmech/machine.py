"""Causal states and information measures of block and spin-emitting machines.

Blocks whose transition rows coincide condition the same future, so the
causal states of the block chain are the equivalence classes of identical
rows; one previous block already determines all futures, so no deeper
history refinement is needed there. The single-spin machine runs over
sliding windows instead, where equal one-spin emission vectors are only a
necessary condition and the partition is refined until emitting a spin
maps whole states onto whole states.

Rows are taken as coincident within MERGE_TOL in max-norm. On most points
no two rows of a class come that close, and an exact screen on sorted
projections of the rows shows it in O(S^2) per point: those get one
causal state per recurrent state at once. Only the points it cannot clear
(near-equal rows, or entries that are not finite) run the O(S^3) row
distances and, when two states merged, the refinement's signature
comparisons; all outputs are those of the full kernels, bit for bit.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import PartitionAmbiguityError, raise_first, record_failures
from .info import row_blocks, xlog2x
from .markov import (
    SUPPORT_FLOOR,
    BlockChain,
    ChainStack,
    chains_and_windows,
    class_members,
    closure,
)

# Rows closer than this (max-norm) condition the same future.
MERGE_TOL = 1e-9
# Excess-entropy forms are reported as agreeing when closer than this.
_FORMS_TOL = 1e-9
# Mutual-information excess entropies in (-this, 0) are rounding, read as 0.
_CLAMP_EPS = 1e-12
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class CausalPartition:
    """Grouping of chain states into causal states.

    ``members`` are the chain-state ids covered (one recurrent class);
    ``assignments`` maps each member position to its causal-state id;
    ``states`` lists member ids per causal state; ``probs`` their
    stationary probabilities.
    """

    members: np.ndarray
    assignments: np.ndarray
    states: tuple[tuple[int, ...], ...]
    probs: np.ndarray

    @property
    def n_states(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class Machine:
    """One unifilar machine: a recurrent class with its causal partition.

    ``emission[r, k]`` is the probability of emitting symbol k from state r
    and ``successor[r, k]`` the state it leads to (-1 where forbidden).
    For block machines the symbols are the class's block ids and ``h_mu``
    is per block; for spin machines the symbols are single spins, ``h_mu``
    is per spin, and ``e_paper`` subtracts ``n`` spin entropies.
    """

    kind: str
    members: np.ndarray
    partition: CausalPartition
    symbols: tuple[int, ...]
    emission: np.ndarray
    successor: np.ndarray
    weight: float
    c_mu: float
    h_mu: float
    h_marginal: float
    e_mu: float
    e_paper: float

    @property
    def n_states(self) -> int:
        return self.partition.n_states

    @property
    def excess_forms_agree(self) -> bool:
        return abs(self.e_mu - self.e_paper) <= _FORMS_TOL

    @property
    def labeled_matrices(self) -> np.ndarray:
        """Symbol-resolved transition matrices, shape (n_symbols, n_states, n_states).

        ``[k, r, q]`` is the probability of emitting ``symbols[k]`` from
        state r while moving to state q; at most one q per (r, k) is nonzero
        (unifilarity) and the sum over k is row stochastic.
        """
        n_states, n_sym = self.emission.shape
        labeled = np.zeros((n_sym, n_states, n_states))
        r, k = np.nonzero(self.successor >= 0)
        labeled[k, r, self.successor[r, k]] = self.emission[r, k]
        return labeled


@dataclass(frozen=True)
class MachineSet:
    """Machines of every recurrent class plus class-weighted ensemble values."""

    kind: str
    machines: tuple[Machine, ...]
    c_mu: float
    h_mu: float
    e_mu: float
    e_paper: float

    @property
    def n_classes(self) -> int:
        return len(self.machines)

    @property
    def max_states(self) -> int:
        return max(m.n_states for m in self.machines)


@dataclass(frozen=True)
class MachineStack:
    """Machines of P points read from one chain stack, stacked on axis 0.

    ``emission[p, i, k]`` is the probability that chain state i emits
    symbol k and ``successor[i, k]`` the state it leads to, the same for
    every point (block machines: ``successor[0, k] = k`` for every i);
    ``groups[p, i]`` is the smallest member of i's causal
    state, -1 for transient states. The information measures are given per
    recurrent class (``class_*``, indexed like ``chains.weights``) and as
    class-weighted ensemble values.
    """

    kind: str
    chains: ChainStack
    emission: np.ndarray
    successor: np.ndarray
    groups: np.ndarray
    probs: np.ndarray
    class_c_mu: np.ndarray
    class_h_mu: np.ndarray
    class_h_marginal: np.ndarray
    class_e_mu: np.ndarray
    class_e_paper: np.ndarray
    c_mu: np.ndarray
    h_mu: np.ndarray
    e_mu: np.ndarray
    e_paper: np.ndarray
    n_states: np.ndarray
    n_classes: np.ndarray

    def machine_set(self, p: int, classes: tuple[np.ndarray, ...]) -> MachineSet:
        """The machines of point p; ``classes`` are its chain's class members."""
        machines = tuple(self._machine(p, c, members) for c, members in enumerate(classes))
        return MachineSet(
            kind=self.kind,
            machines=machines,
            c_mu=float(self.c_mu[p]),
            h_mu=float(self.h_mu[p]),
            e_mu=float(self.e_mu[p]),
            e_paper=float(self.e_paper[p]),
        )

    def _machine(self, p: int, c: int, members: np.ndarray) -> Machine:
        chains = self.chains
        groups = self.groups[p, members]
        reps = members[groups == members]
        assignments = np.searchsorted(reps, groups)
        state_of = np.full(chains.space.size, -1)
        state_of[members] = assignments
        if self.kind == "block":
            symbols = tuple(members.tolist())
            emitted = self.emission[p][np.ix_(members, members)]
            targets = np.broadcast_to(state_of[members], emitted.shape)
        else:
            symbols = tuple(range(self.emission.shape[2]))
            emitted = self.emission[p, members]
            targets = state_of[self.successor[members]]
        targets = np.where(emitted > SUPPORT_FLOOR, targets, -1)
        pi = chains.pi[p, members]
        # members by causal state, in member order within each state: the
        # order in which the per-state sums below add them
        order = np.argsort(assignments, kind="stable")
        sizes = np.bincount(assignments)
        starts = np.cumsum(sizes) - sizes
        # a state's total is 0 plus the pairwise sum of its weights, as
        # sum() forms it: reduceat over a zero put before each state
        padded = np.zeros(len(members) + len(reps))
        padded[np.arange(len(members)) + assignments[order] + 1] = pi[order]
        total = np.add.reduceat(padded, starts + np.arange(len(reps)))
        weighed = total > 0.0
        share = np.where(
            weighed[assignments],
            pi / np.where(weighed, total, 1.0)[assignments],
            1.0 / sizes[assignments],
        )
        # add.at adds the rows in member order, as sum(axis=0) does
        emission = np.zeros((len(reps), len(symbols)))
        np.add.at(emission, assignments, share[:, np.newaxis] * emitted)
        # the partition is stable, so every member emitting a symbol
        # moves to the same causal state
        reached = np.maximum.reduceat(targets[order], starts, axis=0)
        successor = np.where(emission > SUPPORT_FLOOR, reached, -1)
        flat = members[order].tolist()
        bounds = zip(starts.tolist(), sizes.tolist())
        partition = CausalPartition(
            members=members,
            assignments=assignments,
            states=tuple(tuple(flat[lo : lo + n]) for lo, n in bounds),
            probs=self.probs[p, reps],
        )
        return Machine(
            kind=self.kind,
            members=members,
            partition=partition,
            symbols=symbols,
            emission=emission,
            successor=successor,
            weight=float(chains.weights[p, c]),
            c_mu=float(self.class_c_mu[p, c]),
            h_mu=float(self.class_h_mu[p, c]),
            h_marginal=float(self.class_h_marginal[p, c]),
            e_mu=float(self.class_e_mu[p, c]),
            e_paper=float(self.class_e_paper[p, c]),
        )


def block_machines(chain: BlockChain) -> MachineSet:
    """Block-emitting machines, one per recurrent class."""
    chains, _ = chains_and_windows(chain.space, chain.matrix[None], chain.limit_mass[None], None)
    errors = [None]
    stack = block_stack(chains, errors)
    raise_first(errors)
    return stack.machine_set(0, chain.classes)


def spin_machines(chain: BlockChain) -> MachineSet:
    """Spin-emitting machines over sliding windows, one per recurrent class."""
    chains, windows = chains_and_windows(
        chain.space, chain.matrix[None], chain.limit_mass[None], None
    )
    errors = [None]
    _, stack = machine_stacks(chains, windows, errors)
    raise_first(errors)
    return stack.machine_set(0, class_members(stack.chains.labels[0]))


def machine_stacks(
    chains: ChainStack, windows: ChainStack, errors: list
) -> tuple[MachineStack, MachineStack]:
    """Block and spin machines of a stack's block chains and their window
    chains, as markov.chains_and_windows gives them.

    Windows of one spin are the blocks: for n = 1 the spin machines are
    the block machines read per spin, emitting spin s being emitting
    block s.
    """
    block = block_stack(chains, errors)
    if chains.space.n == 1:
        spin = dataclasses.replace(block, kind="spin", successor=chains.space.shift_table)
    else:
        spin = spin_stack(windows, errors)
    return block, spin


def block_stack(chains: ChainStack, errors: list) -> MachineStack:
    """Block machines of a chain stack: blocks whose class-restricted rows
    coincide are one causal state, and emitting a block moves to it."""
    successor = np.arange(chains.space.size)[np.newaxis, :]
    return _machine_stack("block", chains, chains.rows, successor, errors)


def spin_stack(windows: ChainStack, errors: list) -> MachineStack:
    """Spin machines of a stack of window chains with n >= 2."""
    successor = windows.space.shift_table
    emission = windows.matrix[:, np.arange(len(successor))[:, np.newaxis], successor]
    return _machine_stack("spin", windows, emission, successor, errors)


def _machine_stack(
    kind: str, chains: ChainStack, emission: np.ndarray, successor: np.ndarray, errors: list
) -> MachineStack:
    labels = chains.labels
    slots = np.arange(labels.shape[1])
    groups, spread = _close_groups(emission, labels, MERGE_TOL)
    record_failures(errors, spread > MERGE_TOL, lambda p: _ambiguity(spread[p], MERGE_TOL))
    groups = _refine(groups, labels, emission, successor)

    pi = chains.pi
    is_state = groups == slots
    probs = (pi[:, :, np.newaxis] * (groups[:, :, np.newaxis] == slots)).sum(axis=1)
    # per-state terms summed over each class; a causal-state slot g belongs
    # to the class of its smallest member g
    terms = np.stack(
        [xlog2x(probs), pi * xlog2x(emission).sum(axis=2), xlog2x(pi), is_state], axis=2
    )
    sums = (terms[:, :, np.newaxis, :] * chains.in_class[:, :, :, np.newaxis]).sum(axis=1)
    c_mu = -sums[:, :, 0] + 0.0
    h_mu = -sums[:, :, 1] + 0.0
    h_marginal = -sums[:, :, 2] + 0.0
    per_emission = chains.space.n * h_mu if kind == "spin" else h_mu
    e_mu = h_marginal - per_emission
    e_mu = np.where((e_mu > -_CLAMP_EPS) & (e_mu < 0.0), 0.0, e_mu)
    e_paper = c_mu - per_emission

    weights = chains.weights / chains.weights.sum(axis=1, keepdims=True)
    values = np.stack([c_mu, h_mu, e_mu, e_paper], axis=2)
    ensemble = (weights[:, :, np.newaxis] * values).sum(axis=1)
    return MachineStack(
        kind=kind,
        chains=chains,
        emission=emission,
        successor=successor,
        groups=groups,
        probs=probs,
        class_c_mu=c_mu,
        class_h_mu=h_mu,
        class_h_marginal=h_marginal,
        class_e_mu=e_mu,
        class_e_paper=e_paper,
        c_mu=ensemble[:, 0],
        h_mu=ensemble[:, 1],
        e_mu=ensemble[:, 2],
        e_paper=ensemble[:, 3],
        n_states=sums[:, :, 3].max(axis=1).astype(int),
        n_classes=labels.max(axis=1) + 1,
    )


def _close_groups(
    emission: np.ndarray, labels: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of one class within ``tol`` (max-norm) of each other, chained.

    Returns each state's smallest linked state (-1 for transients) and,
    per point, the widest distance inside a linked group: above ``tol``
    the closeness is not transitive and no honest grouping exists.

    Only the points that ``_may_link`` keeps run the O(S^3) row distances
    of ``_linked_groups``; on every other point no two rows link, and the
    groups are the singletons with spread 0.0, which is what the distances
    would give.
    """
    groups = _singletons(labels)
    spread = np.zeros(len(emission))
    full = _may_link(emission, labels, tol)
    if full.any():
        groups[full], spread[full] = _linked_groups(emission[full], labels[full], tol)
    return groups, spread


def _singletons(labels: np.ndarray) -> np.ndarray:
    """Groups of one state each: each recurrent state its own, -1 for transients."""
    return np.where(labels >= 0, np.arange(labels.shape[1]), -1)


@functools.lru_cache(maxsize=16)
def _projection(width: int) -> np.ndarray:
    """The screen's weights: linspace(-1, 1, width) scaled by a power of
    two to an l1 norm of at most 1 (exactly 1 when width is a power of
    two), so that every weight is exact. Read-only, as the cache shares it."""
    steps = np.arange(1.0 - width, width, 2.0)
    norm = np.abs(steps).sum()
    weights = steps * 2.0 ** -math.ceil(math.log2(norm)) if norm else np.ones(1)
    weights.flags.writeable = False
    return weights


def _may_link(emission: np.ndarray, labels: np.ndarray, tol: float) -> np.ndarray:
    """Points on which two rows of one class may lie within ``tol``, or
    some entry is not finite.

    Rows a, b with |a - b|_inf <= tol project on weights w of l1 norm at
    most 1 to within tol, since |w.(a - b)| <= |a - b|_inf. Summed in any
    order over W columns, a projection is off by at most about
    W eps/2 max|e|, so two are within tol + W eps max|e|; the slack
    2 W eps max|e| covers that with room, and rounding the gap and the
    threshold is monotone. So a class whose sorted projections all lie
    further apart than tol plus the slack has no linked pair.
    """
    width = emission.shape[2]
    projection = (emission * _projection(width)).sum(axis=2)
    bound = np.abs(emission).max(axis=(1, 2))
    threshold = tol + 2.0 * width * _EPS * bound
    # by class, then by projection; transients (-1) link to nothing
    order = np.lexsort((projection, labels))
    points = np.arange(len(labels))[:, np.newaxis]
    projection, labels = projection[points, order], labels[points, order]
    neighbours = (labels[:, 1:] == labels[:, :-1]) & (labels[:, 1:] >= 0)
    gaps = projection[:, 1:] - projection[:, :-1]
    close = neighbours & ~(gaps > threshold[:, np.newaxis])
    return close.any(axis=1) | ~np.isfinite(bound)


def _linked_groups(
    emission: np.ndarray, labels: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """``_close_groups`` from every row distance: the O(S^3) kernel."""
    n_points, size, width = emission.shape
    dist = np.empty((n_points, size, size))
    for points, rows, gap in row_blocks(n_points, size, (size, width), (float,)):
        gap = np.subtract(emission[points, rows, np.newaxis], emission[points, np.newaxis], out=gap)
        np.maximum.reduce(np.abs(gap, out=gap), axis=3, out=dist[points, rows])
    recurrent = labels >= 0
    same = (labels[:, :, np.newaxis] == labels[:, np.newaxis, :]) & recurrent[:, :, np.newaxis]
    linked = closure((dist <= tol) & same)
    spread = np.maximum.reduce(np.where(linked, dist, 0.0), axis=(1, 2))
    return np.where(recurrent, linked.argmax(axis=2), -1), spread


def _ambiguity(spread: float, tol: float) -> PartitionAmbiguityError:
    return PartitionAmbiguityError(
        f"row clustering at tol={tol:.1e} is not transitive "
        f"(component spread {spread:.3e}); point sits too close to a merge boundary"
    )


def _refine(
    groups: np.ndarray, labels: np.ndarray, emission: np.ndarray, successor: np.ndarray
) -> np.ndarray:
    """Split groups until emitting any symbol maps states onto states.

    A grouping of singletons is its own fixed point, so only the points
    whose grouping merged two states run ``_split_groups``.
    """
    merged = (groups != _singletons(labels)).any(axis=1)
    if not merged.any():
        return groups
    groups = groups.copy()
    groups[merged] = _split_groups(groups[merged], labels[merged], emission[merged], successor)
    return groups


def _split_groups(
    groups: np.ndarray, labels: np.ndarray, emission: np.ndarray, successor: np.ndarray
) -> np.ndarray:
    """``_refine`` by signatures of every state pair: the O(S^3) kernel.

    A signature pairs a member's group with the groups its allowed
    emissions lead to; regrouping by signature can only split, so an
    unchanged grouping is the fixed point.
    """
    support = emission > SUPPORT_FLOOR
    recurrent = labels >= 0
    n_points, size, width = emission.shape
    agree = np.empty((n_points, size, size), dtype=bool)
    blocks = row_blocks(n_points, size, (size, 1 + width), (bool,))
    while True:
        # column 0 is the member's own group
        signature = np.concatenate(
            [groups[:, :, np.newaxis], np.where(support, groups[:, successor], -1)], axis=2
        )
        for points, rows, equal in blocks:
            equal = np.equal(signature[points, rows, np.newaxis], signature[points, np.newaxis], out=equal)
            np.logical_and.reduce(equal, axis=3, out=agree[points, rows])
        refined = np.where(recurrent, agree.argmax(axis=2), -1)
        if np.logical_and.reduce(refined == groups, axis=None):
            return groups
        groups = refined
