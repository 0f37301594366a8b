"""Causal states and information measures of block and spin-emitting machines.

Blocks whose transition rows coincide condition the same future, so the
causal states of the block chain are the equivalence classes of identical
rows; one previous block already determines all futures, so no deeper
history refinement is needed there. The single-spin machine runs over
sliding windows instead, where equal one-spin emission vectors are only a
necessary condition and the partition is refined until emitting a spin
maps whole states onto whole states.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PartitionAmbiguityError, UnifilarityError
from .info import entropy_bits, row_entropy_bits
from .markov import SUPPORT_FLOOR, BlockChain, restrict_to_class, window_chain

# Rows closer than this (max-norm) condition the same future.
MERGE_TOL = 1e-9
# Excess-entropy forms are reported as agreeing when closer than this.
_FORMS_TOL = 1e-9


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


def block_machines(chain: BlockChain) -> MachineSet:
    """Block-emitting machines, one per recurrent class."""
    machines = []
    for index in range(len(chain.classes)):
        members, sub, pi = restrict_to_class(chain, index)
        successors = np.broadcast_to(np.arange(len(members)), (len(members), len(members)))
        partition = _partition(members, sub, successors, pi)
        machines.append(
            _finish_machine(
                "block",
                members,
                partition,
                tuple(int(b) for b in members),
                sub,
                successors,
                pi,
                weight=float(chain.class_weights[index]),
                n=chain.space.n,
            )
        )
    return _ensemble("block", machines)


def spin_machines(chain: BlockChain) -> MachineSet:
    """Spin-emitting machines over sliding windows, one per recurrent class."""
    wchain = window_chain(chain)
    space = wchain.space
    theta = space.alphabet.size
    machines = []
    for index in range(len(wchain.classes)):
        members, _, pi = restrict_to_class(wchain, index)
        local = {int(w): k for k, w in enumerate(members)}
        emission = np.zeros((len(members), theta))
        successors = np.full((len(members), theta), -1, dtype=int)
        for k, w in enumerate(members):
            for s in range(theta):
                target = space.shift_append(int(w), s)
                prob = wchain.matrix[int(w), target]
                emission[k, s] = prob
                if prob > SUPPORT_FLOOR:
                    if target not in local:
                        raise UnifilarityError(
                            f"window {int(w)} leaves its recurrent class on spin {s}"
                        )
                    successors[k, s] = local[target]
        partition = _partition(members, emission, successors, pi)
        machines.append(
            _finish_machine(
                "spin",
                members,
                partition,
                tuple(range(theta)),
                emission,
                successors,
                pi,
                weight=float(wchain.class_weights[index]),
                n=space.n,
            )
        )
    return _ensemble("spin", machines)


def _partition(
    members: np.ndarray,
    emission: np.ndarray,
    successors: np.ndarray,
    pi: np.ndarray,
) -> CausalPartition:
    labels = _tolerance_groups(emission, MERGE_TOL)
    labels = _refine(labels, emission, successors)
    order = _canonical_order(labels)
    states = tuple(
        tuple(int(members[k]) for k in np.flatnonzero(labels == lab)) for lab in order
    )
    assignments = np.empty(len(members), dtype=int)
    for new, lab in enumerate(order):
        assignments[labels == lab] = new
    probs = np.array([pi[labels == lab].sum() for lab in order])
    return CausalPartition(
        members=members, assignments=assignments, states=states, probs=probs
    )


def _tolerance_groups(rows: np.ndarray, tol: float) -> np.ndarray:
    """Group near-identical rows; non-transitive closeness is an error."""
    m = rows.shape[0]
    dist = np.max(np.abs(rows[:, None, :] - rows[None, :, :]), axis=2)
    close = dist <= tol
    labels = np.full(m, -1, dtype=int)
    current = 0
    for start in range(m):
        if labels[start] >= 0:
            continue
        stack = [start]
        component = []
        labels[start] = current
        while stack:
            node = stack.pop()
            component.append(node)
            for other in np.flatnonzero(close[node]):
                if labels[other] < 0:
                    labels[other] = current
                    stack.append(int(other))
        comp = np.array(component)
        pair_dist = dist[np.ix_(comp, comp)]
        if np.any(pair_dist > tol):
            worst = float(pair_dist.max())
            raise PartitionAmbiguityError(
                f"row clustering at tol={tol:.1e} is not transitive "
                f"(component spread {worst:.3e}); point sits too close to a merge boundary"
            )
        current += 1
    return labels


def _refine(labels: np.ndarray, emission: np.ndarray, successors: np.ndarray) -> np.ndarray:
    """Split groups until emitting any symbol maps states onto states.

    A signature pairs a member's group with the groups its allowed
    emissions lead to; regrouping by signature can only split, so the
    count stabilizing means a fixed point.
    """
    labels = labels.copy()
    while True:
        signatures: dict[tuple[int, ...], int] = {}
        new_labels = np.empty_like(labels)
        for k in range(len(labels)):
            sig = (int(labels[k]),) + tuple(
                int(labels[successors[k, s]]) if emission[k, s] > SUPPORT_FLOOR else -1
                for s in range(emission.shape[1])
            )
            new_labels[k] = signatures.setdefault(sig, len(signatures))
        if len(signatures) == len(set(labels.tolist())):
            return labels
        labels = new_labels


def _canonical_order(labels: np.ndarray) -> list[int]:
    seen = []
    for lab in labels:
        if lab not in seen:
            seen.append(int(lab))
    return seen


def _finish_machine(
    kind: str,
    members: np.ndarray,
    partition: CausalPartition,
    symbols: tuple[int, ...],
    emission_members: np.ndarray,
    successors_members: np.ndarray,
    pi: np.ndarray,
    weight: float,
    n: int,
) -> Machine:
    n_states = partition.n_states
    n_sym = len(symbols)
    emission = np.zeros((n_states, n_sym))
    successor = np.full((n_states, n_sym), -1, dtype=int)
    for r in range(n_states):
        rows = np.flatnonzero(partition.assignments == r)
        w = pi[rows]
        total = w.sum()
        share = w / total if total > 0.0 else np.full(len(rows), 1.0 / len(rows))
        emission[r] = share @ emission_members[rows]
        for k in range(n_sym):
            if emission[r, k] <= SUPPORT_FLOOR:
                continue
            targets = {
                int(partition.assignments[successors_members[j, k]])
                for j in rows
                if emission_members[j, k] > SUPPORT_FLOOR
            }
            if len(targets) != 1:
                raise UnifilarityError(
                    f"symbol {symbols[k]} from state {r} reaches states {sorted(targets)}"
                )
            successor[r, k] = targets.pop()

    c_mu = entropy_bits(partition.probs)
    h_mu = row_entropy_bits(emission_members, pi)
    h_marginal = entropy_bits(pi)
    per_emission = n * h_mu if kind == "spin" else h_mu
    e_mu = _clamp_tiny_negative(h_marginal - per_emission)
    e_paper = c_mu - per_emission
    return Machine(
        kind=kind,
        members=members,
        partition=partition,
        symbols=symbols,
        emission=emission,
        successor=successor,
        weight=weight,
        c_mu=c_mu,
        h_mu=h_mu,
        h_marginal=h_marginal,
        e_mu=e_mu,
        e_paper=e_paper,
    )


def _ensemble(kind: str, machines: list[Machine]) -> MachineSet:
    weights = np.array([m.weight for m in machines])
    weights = weights / weights.sum()

    def avg(values):
        return float(np.dot(weights, values))

    return MachineSet(
        kind=kind,
        machines=tuple(machines),
        c_mu=avg([m.c_mu for m in machines]),
        h_mu=avg([m.h_mu for m in machines]),
        e_mu=avg([m.e_mu for m in machines]),
        e_paper=avg([m.e_paper for m in machines]),
    )


def _clamp_tiny_negative(value: float, eps: float = 1e-12) -> float:
    if -eps < value < 0.0:
        return 0.0
    return value
