"""The per-state loops that a point once ran, kept as references: the GTH
elimination of ``markov._class_stationary`` as it stepped before, and the
causal-state loop of ``MachineStack._machine``. The leaner elimination and
the grouped reads must equal them bit for bit, every field of every
machine; and one class decomposition of the block and window chains
stacked together must equal a decomposition of each alone."""

import numpy as np
import pytest
from test_kernels import STACKS, _transfer_arrays

from spinmech import markov
from spinmech.analysis import evaluate_stack
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace
from spinmech.machine import machine_stacks
from spinmech.markov import SUPPORT_FLOOR
from spinmech.transfer import GROUND_STATE_BETA, transfer_stack

# ----------------------------------------------------------------------
# references: the loops as they ran before
# ----------------------------------------------------------------------


def _reference_class_stationary(rows, labels, in_class):
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


def _reference_machine(stack, p, members):
    """(states, assignments, probs, symbols, emission, successor) of one
    class, read one causal state at a time."""
    chains = stack.chains
    groups = stack.groups[p, members]
    reps = members[groups == members]
    assignments = np.searchsorted(reps, groups)
    state_of = np.full(chains.space.size, -1)
    state_of[members] = assignments
    if stack.kind == "block":
        symbols = tuple(int(b) for b in members)
        emitted = stack.emission[p][np.ix_(members, members)]
        targets = np.broadcast_to(state_of[members], emitted.shape)
    else:
        symbols = tuple(range(stack.emission.shape[2]))
        emitted = stack.emission[p, members]
        targets = state_of[stack.successor[members]]
    targets = np.where(emitted > SUPPORT_FLOOR, targets, -1)
    pi = chains.pi[p, members]
    emission = np.zeros((len(reps), len(symbols)))
    successor = np.full((len(reps), len(symbols)), -1)
    for r in range(len(reps)):
        rows = assignments == r
        w = pi[rows]
        total = w.sum()
        share = w / total if total > 0.0 else np.full(len(w), 1.0 / len(w))
        emission[r] = (share[:, np.newaxis] * emitted[rows]).sum(axis=0)
        successor[r] = np.where(emission[r] > SUPPORT_FLOOR, targets[rows].max(axis=0), -1)
    states = tuple(tuple(members[assignments == r].tolist()) for r in range(len(reps)))
    return states, assignments, stack.probs[p, reps], symbols, emission, successor


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------


def _kernel_stack(make_stack):
    """Block space and stacked transfer arrays of a test_kernels.STACKS fixture."""
    space, transfers = make_stack()
    log_v, log_right, log_left = _transfer_arrays(transfers)
    return space, log_v, log_right, log_left


def _pipeline(n, points):
    """evaluate_stack of product chains (field, couplings, beta) at range n."""
    space = BlockSpace(BINARY, n)
    models = [Hamiltonian.pair_product(space, f, c) for f, c, _ in points]
    x = np.stack([m.intra_energies for m in models])
    y = np.stack([m.cross_energies for m in models])
    betas = np.array([beta for _, _, beta in points])
    errors = [None] * len(points)
    stack = evaluate_stack(space, x, y, betas, errors)
    assert errors == [None] * len(points)
    return stack


# ground states with several classes, transient blocks and windows, and
# causal states of several members
REDUCIBLE = [
    (3, [(0.3, [0.9, -1.1, 1.0], GROUND_STATE_BETA), (0.8, [-0.0, -0.7, 0.2], GROUND_STATE_BETA)]),
    (
        4,
        [
            (2.1, [0.2, -0.7, -1.1, 0.9], GROUND_STATE_BETA),
            (-1.0, [1.0, -0.6, 0.2, -0.6], GROUND_STATE_BETA),
        ],
    ),
]
# points whose sums depend on their order, from a wide-beta draw: at range
# 2 a three-member causal state's emission, at range 3 a three-member
# state's share total
ORDERED = [
    (2, [(-0.335477633923567, [0.1291600765720471, 0.39869940291102157], 0.6555636966256218)]),
    (
        3,
        [
            (
                2.8641847581915805,
                [1.0593409668889477, 0.020844330849862036, 0.3428379613819734],
                2.3824953666190316,
            )
        ],
    ),
]
# nearest neighbours, where the spin machines are the block machines read
# per spin: the beta = inf ferromagnet has two classes, the field-free
# antiferromagnet one class of period two
NEAREST = (
    1,
    [(0.2, [0.3], 1.0), (0.0, [1.0], GROUND_STATE_BETA), (0.0, [-1.0], GROUND_STATE_BETA)],
)
# at beta = 0 all 64 blocks are one causal state
UNIFORM = (6, [(0.3, [0.7, -0.4, 0.3, 0.2, -0.1, 0.05], 0.0)])


def _range_six_points(count, seed=6):
    rng = np.random.default_rng(seed)
    couplings = -1.5 + 3.0 * rng.random((count, 6))
    betas = np.exp(rng.uniform(np.log(1e-2), np.log(5.0), count))
    betas[::4] = GROUND_STATE_BETA
    fields = rng.uniform(-3.0, 3.0, count)
    return [(float(f), c.tolist(), float(b)) for f, c, b in zip(fields, couplings, betas)]


def _chain_fields(stack):
    return [
        stack.matrix,
        stack.limit_mass,
        stack.labels,
        stack.in_class,
        stack.pi,
        stack.weights,
        stack.rows,
        np.array([]) if stack.residual is None else stack.residual,
    ]


def _assert_same_chains(merged, separate):
    assert merged.space is separate.space
    for got, want in zip(_chain_fields(merged), _chain_fields(separate)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert (merged.residual is None) == (separate.residual is None)


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------


def _decomposed_stacks():
    """rows/labels/in_class of block and window chains of every fixture."""
    out = []
    for make_stack in STACKS:
        space, log_v, log_right, log_left = _kernel_stack(make_stack.values[0])
        out += markov.invert_stack(space, log_v, log_right, log_left, [None] * len(log_v))
    for n, points in [NEAREST] + REDUCIBLE + ORDERED + [UNIFORM]:
        stack = _pipeline(n, points)
        out += [stack.chains, stack.spin.chains]
    return out


def test_gth_elimination_matches_the_reference_loop():
    transients = several = False
    for chains in _decomposed_stacks():
        labels, in_class, rows = chains.labels, chains.in_class, chains.rows
        ref = _reference_class_stationary(rows, labels, in_class)
        pi = markov._class_stationary(rows, labels, in_class)
        assert pi.tobytes() == ref.tobytes()
        transients |= bool((labels < 0).any())
        several |= bool((labels.max(axis=1) > 0).any())
    # transient states and the smallest members of later classes are the
    # roots past state 0, where the elimination takes its root branch
    assert transients and several


def _separate(space, log_v, log_right, log_left, errors):
    """The block and window chains, each from a class decomposition of its own."""
    matrix, limit_mass, residual = markov._invert(log_v, log_right, log_left, errors)
    (chains,) = markov._chain_stacks(space, (matrix,), limit_mass, (residual,))
    windows = markov._window_matrices(space, matrix)
    (alone,) = markov._chain_stacks(space, (windows,), limit_mass, (None,))
    return chains, alone


def _sliced(stack, p):
    """Point p of a chain stack, as a stack of one."""
    fields = ("matrix", "limit_mass", "labels", "in_class", "pi", "weights", "rows")
    parts = {name: getattr(stack, name)[p : p + 1] for name in fields}
    residual = None if stack.residual is None else stack.residual[p : p + 1]
    return markov.ChainStack(space=stack.space, residual=residual, **parts)


@pytest.mark.parametrize("n_points", [1, 2, 16])
def test_merged_decomposition_equals_two_chain_stacks(n_points):
    space = BlockSpace(BINARY, 6)
    models = [Hamiltonian.pair_product(space, f, c) for f, c, _ in _range_six_points(n_points)]
    betas = np.array([beta for _, _, beta in _range_six_points(n_points)])
    x = np.stack([m.intra_energies for m in models])
    y = np.stack([m.cross_energies for m in models])
    errors = [None] * n_points
    transfer = transfer_stack(space, x, y, betas, errors)
    perron = (transfer.log_v, transfer.log_right, transfer.log_left)
    chains, windows = markov.invert_stack(space, *perron, list(errors))
    separate, separate_windows = _separate(space, *perron, list(errors))
    _assert_same_chains(chains, separate)
    _assert_same_chains(windows, separate_windows)
    # and every point of the stack as a stack of one
    for p in range(n_points):
        one = [array[p : p + 1] for array in perron]
        chain, window = markov.invert_stack(space, *one, [None])
        _assert_same_chains(chain, _sliced(chains, p))
        _assert_same_chains(window, _sliced(windows, p))
    if n_points == 16:
        labels = np.concatenate([chains.labels, windows.labels])
        assert (labels < 0).any() and (labels.max(axis=1) > 0).any()


def test_merged_decomposition_on_reducible_fixtures():
    for make_stack in STACKS:
        space, log_v, log_right, log_left = _kernel_stack(make_stack.values[0])
        errors = [None] * len(log_v)
        chains, windows = markov.invert_stack(space, log_v, log_right, log_left, errors)
        separate, separate_windows = _separate(
            space, log_v, log_right, log_left, [None] * len(log_v)
        )
        _assert_same_chains(chains, separate)
        _assert_same_chains(windows, separate_windows)


def _machine_stacks():
    for make_stack in STACKS:
        space, log_v, log_right, log_left = _kernel_stack(make_stack.values[0])
        errors = [None] * len(log_v)
        chains, windows = markov.invert_stack(space, log_v, log_right, log_left, errors)
        yield from machine_stacks(chains, windows, errors)
    for n, points in [NEAREST] + REDUCIBLE + ORDERED + [UNIFORM]:
        stack = _pipeline(n, points)
        yield stack.block
        yield stack.spin


def test_grouped_reads_match_the_reference_loop():
    widest = 0
    for stack in _machine_stacks():
        for p in range(len(stack.groups)):
            for c, members in enumerate(markov.class_members(stack.chains.labels[p])):
                machine = stack._machine(p, c, members)
                states, assignments, probs, symbols, emission, successor = _reference_machine(
                    stack, p, members
                )
                assert machine.partition.states == states
                assert machine.partition.assignments.tobytes() == assignments.tobytes()
                assert machine.partition.probs.tobytes() == probs.tobytes()
                assert machine.symbols == symbols
                # the sums add in the loop's order, so the emission is the
                # loop's bit for bit
                assert machine.emission.tobytes() == emission.tobytes()
                assert machine.successor.dtype == successor.dtype
                assert machine.successor.tobytes() == successor.tobytes()
                assert machine.weight == float(stack.chains.weights[p, c])
                values = (machine.c_mu, machine.h_mu, machine.h_marginal)
                values += (machine.e_mu, machine.e_paper)
                classes = (stack.class_c_mu, stack.class_h_mu, stack.class_h_marginal)
                classes += (stack.class_e_mu, stack.class_e_paper)
                assert values == tuple(float(v[p, c]) for v in classes)
                widest = max(widest, max(len(s) for s in states))
    # a causal state of all 64 blocks, whose share total is a pairwise sum
    assert widest == 64
