"""The O(S^3) kernels walk their rows in blocks of at most
``info._STACK_ENTRIES`` entries. Whatever the block size, every result must
equal that of the unblocked arithmetic below, bit for bit, and so must the
screens that keep most points away from the causal-state kernels and the
closure's early exit. The consistency certificate is an O(S^2) bound; the
measured gap of the public ``consistency_residual`` never exceeds it."""

import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest

from spinmech import info, machine, markov
from spinmech.analysis import analyze
from spinmech.errors import InversionError
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace
from spinmech.models import NNNParams, nnn_ising
from spinmech.transfer import GROUND_STATE_BETA, build_transfer

# ----------------------------------------------------------------------
# references: the kernels as they ran before the row blocks, and the
# consistency arithmetic that local_characteristics and
# consistency_residual keep
# ----------------------------------------------------------------------


def _reference_log_interior(log_v):
    joint = log_v[:, :, :, np.newaxis] + log_v[:, np.newaxis, :, :]
    return joint - info.logsumexp(joint, axis=2)[:, :, np.newaxis, :]


def _reference_consistency_gap(interior, matrix):
    pairs = matrix[:, :, :, np.newaxis] * matrix[:, np.newaxis, :, :]
    two_step = pairs.sum(axis=2)
    diff = np.abs(interior * two_step[:, :, np.newaxis, :] - pairs).reshape(len(matrix), -1)
    flat = np.argmax(diff, axis=1)
    return diff[np.arange(len(matrix)), flat], flat


def _reference_closure(edges):
    size = edges.shape[1]
    reach = edges | np.eye(size, dtype=bool)
    steps = 1
    while steps < size - 1:
        paths = reach.astype(float)
        reach = paths @ paths > 0.0
        steps *= 2
    return reach


def _reference_close_groups(emission, labels, tol):
    dist = np.abs(emission[:, :, np.newaxis, :] - emission[:, np.newaxis, :, :]).max(axis=3)
    same = (labels[:, :, np.newaxis] == labels[:, np.newaxis, :]) & (labels >= 0)[:, :, np.newaxis]
    linked = _reference_closure((dist <= tol) & same)
    spread = np.where(linked, dist, 0.0).max(axis=(1, 2))
    return np.where(labels >= 0, linked.argmax(axis=2), -1), spread


def _reference_refine(groups, labels, emission, successor):
    support = emission > markov.SUPPORT_FLOOR
    recurrent = labels >= 0
    while True:
        signature = np.concatenate(
            [groups[:, :, np.newaxis], np.where(support, groups[:, successor], -1)], axis=2
        )
        agree = (signature[:, :, np.newaxis, :] == signature[:, np.newaxis, :, :]).all(axis=3)
        refined = np.where(recurrent, agree.argmax(axis=2), -1)
        if (refined == groups).all():
            return groups
        groups = refined


def _reference_log_matmul(log_a, log_b):
    return info.logsumexp(log_a[..., :, :, np.newaxis] + log_b[..., np.newaxis, :, :], axis=-2)


# ----------------------------------------------------------------------
# stacks
# ----------------------------------------------------------------------

BETAS = (0.05, 1.0, GROUND_STATE_BETA)
COUPLINGS = (0.7, -0.4, 0.3, 0.2, -0.1, 0.05)


def _product_stack(n):
    """A (P, S, S) stack of range-n product chains: two coupling sets, each at BETAS."""
    space = BlockSpace(BINARY, n)
    models = [Hamiltonian.pair_product(space, 0.3, COUPLINGS[:n])]
    models.append(Hamiltonian.pair_product(space, -1.1, [-c for c in COUPLINGS[:n]]))
    return space, [build_transfer(m, beta) for m in models for beta in BETAS]


def _nnn_stack():
    """NNN chains with a reducible ground state (two phases) among them."""
    params = [
        NNNParams(J1=1.0, J2=-1.0, B=0.0, beta=GROUND_STATE_BETA),
        NNNParams(J1=-1.0, J2=-1.0, B=2.0, beta=GROUND_STATE_BETA),
        NNNParams(J1=0.5, J2=0.3, B=0.1, beta=1.0),
        NNNParams(J1=-1.2, J2=0.8, B=-0.4, beta=0.05),
    ]
    transfers = [build_transfer(nnn_ising(p), p.beta) for p in params]
    return transfers[0].hamiltonian.blocks, transfers


STACKS = [pytest.param(_nnn_stack, id="nnn")] + [
    pytest.param(partial(_product_stack, n), id=f"range{n}") for n in (3, 4, 5, 6)
]


def _budgets(points, size):
    """Block budgets that cut a (points, size) grid of size**2-entry rows
    into several blocks: a row at a time (the budget is below one row),
    three rows of one point, and whole points with a ragged last block."""
    whole = next(k for k in range(points - 1, 1, -1) if points % k)
    return (size * size - 1, 3 * size * size, whole * size**3)


def _transfer_arrays(transfers):
    log_v = np.stack([ts.log_v for ts in transfers])
    log_right = np.stack([ts.log_right for ts in transfers])
    log_left = np.stack([ts.log_left for ts in transfers])
    return log_v, log_right, log_left


@pytest.mark.parametrize("make_stack", STACKS)
def test_blocked_kernels_match_unblocked_arithmetic(make_stack, monkeypatch):
    space, transfers = make_stack()
    log_v, log_right, log_left = _transfer_arrays(transfers)
    points, size = log_v.shape[:2]
    chains, windows = markov.invert_stack(space, log_v, log_right, log_left, [None] * points)

    spin_emission = windows.matrix[:, np.arange(size)[:, np.newaxis], space.shift_table]
    grouped = [
        (chains.rows, chains.labels, np.arange(size)[np.newaxis, :]),
        (spin_emission, windows.labels, space.shift_table),
    ]
    references = []
    for emission, labels, successor in grouped:
        groups, spread = _reference_close_groups(emission, labels, machine.MERGE_TOL)
        refined = _reference_refine(groups, labels, emission, successor)
        references.append((groups, spread, refined))

    for budget in _budgets(points, size):
        monkeypatch.setattr(info, "_STACK_ENTRIES", budget)
        assert len(info.row_blocks(points, size, (size, size), ())) > 1
        for (emission, labels, successor), (ref_groups, ref_spread, ref_refined) in zip(
            grouped, references
        ):
            # the kernels themselves, then behind the screens, which keep
            # most of these points away from them
            for close, refine in [
                (machine._linked_groups, machine._split_groups),
                (machine._close_groups, machine._refine),
            ]:
                groups, spread = close(emission, labels, machine.MERGE_TOL)
                assert groups.tobytes() == ref_groups.tobytes()
                assert spread.tobytes() == ref_spread.tobytes()
                refined = refine(groups, labels, emission, successor)
                assert refined.tobytes() == ref_refined.tobytes()
    if make_stack is _nnn_stack:
        # the ground state J1 = 1, J2 = -1 has two recurrent classes
        assert chains.labels[0].max() == 1


@pytest.mark.parametrize("make_stack", STACKS)
def test_certified_bound_covers_the_measured_gap(make_stack):
    _, transfers = make_stack()
    for ts in transfers:
        chain = markov.solve_stochastic(ts)
        measured, _ = markov.consistency_residual(markov.local_characteristics(ts), chain.matrix)
        assert measured <= chain.consistency_residual <= markov.CONSISTENCY_TOL


def test_local_characteristics_and_residual_match_unblocked():
    _, transfers = _product_stack(4)
    for ts in transfers:
        lc = markov.local_characteristics(ts)
        ref_log_interior = _reference_log_interior(ts.log_v[None])[0]
        assert lc.log_interior.tobytes() == ref_log_interior.tobytes()
        matrix = markov.solve_stochastic(ts).matrix
        residual, triple = markov.consistency_residual(lc, matrix)
        ref_residual, ref_flat = _reference_consistency_gap(
            np.exp(ref_log_interior)[None], matrix[None]
        )
        assert residual == ref_residual[0]
        assert triple == np.unravel_index(ref_flat[0], lc.interior.shape)


def test_row_distances_match_unblocked_near_the_merge_tolerance(monkeypatch):
    # rows a few tolerances apart: some pairs link, some chain past tol
    rng = np.random.default_rng(0)
    tol = machine.MERGE_TOL
    emission = 0.3 + tol * rng.uniform(-1.0, 1.0, size=(3, 6, 3))
    labels = np.array([[0, 0, 0, 0, 0, 0], [0, 0, 1, 1, 1, -1], [0, 1, 0, 1, 0, 1]])
    ref_groups, ref_spread = _reference_close_groups(emission, labels, tol)
    assert (ref_spread > tol).any() and (ref_spread <= tol).any()
    assert (ref_groups != np.arange(6)).any()
    for budget in (17, 3 * 18, 2 * 6 * 18):
        monkeypatch.setattr(info, "_STACK_ENTRIES", budget)
        for close in (machine._linked_groups, machine._close_groups):
            groups, spread = close(emission, labels, tol)
            assert groups.tobytes() == ref_groups.tobytes()
            assert spread.tobytes() == ref_spread.tobytes()


# ----------------------------------------------------------------------
# the screen in front of the row distances
# ----------------------------------------------------------------------

_TOL = machine.MERGE_TOL
_SCREEN_SPACE = BlockSpace(BINARY, 3)


def _spread_rows():
    """Eight two-column rows (x, 1 - x) with x 0.11 apart: no pair is close,
    and neither are their projections."""
    x = 0.05 + 0.11 * np.arange(8)
    return np.stack([x, 1.0 - x], axis=1), np.zeros(8, dtype=int)


def _colliding_rows():
    # (a, b) and (a + d, b + d) project alike on antisymmetric weights
    emission, labels = _spread_rows()
    emission[1] = emission[0] + 1e-3
    return emission, labels


def _rows_apart(gap):
    emission, labels = _spread_rows()
    emission[0] = (0.0, 1.0)
    emission[1] = (gap, 1.0)
    return emission, labels


def _nan_row():
    emission, labels = _spread_rows()
    emission[3, 0] = np.nan
    return emission, labels


def _nan_transient():
    # every class has one state, so no gap is compared: only the
    # finiteness check sends the point on
    emission, _ = _nan_row()
    return emission, np.array([0, 1, 2, -1, 3, 4, 5, 6])


def _zero_transients():
    emission, labels = _spread_rows()
    transient = [2, 4, 5, 6]
    emission[transient] = 0.0
    labels[transient] = -1
    return emission, labels


def _equal_rows_of_two_classes():
    emission, labels = _spread_rows()
    emission[4] = emission[0]
    labels[4:] = 1
    return emission, labels


# (id, make, whether the row distances must run)
SCREEN_CASES = [
    ("spread", _spread_rows, False),
    ("projections-collide", _colliding_rows, True),
    ("tol-apart", partial(_rows_apart, _TOL), True),
    ("ulp-past-tol", partial(_rows_apart, np.nextafter(_TOL, 1.0)), True),
    ("nan-row", _nan_row, True),
    ("nan-transient", _nan_transient, True),
    ("zero-transients", _zero_transients, False),
    ("equal-rows-two-classes", _equal_rows_of_two_classes, False),
]


def _kernel_spies(monkeypatch):
    """Counts of the points that enter the two O(S^3) kernels."""
    entered = {"_linked_groups": 0, "_split_groups": 0}
    for name in entered:
        kernel = getattr(machine, name)

        def spy(*args, _kernel=kernel, _name=name):
            entered[_name] += len(args[0])
            return _kernel(*args)

        monkeypatch.setattr(machine, name, spy)
    return entered


def _screened(emission, labels, successor):
    groups, spread = machine._close_groups(emission, labels, _TOL)
    return groups, spread, machine._refine(groups, labels, emission, successor)


def _referenced(emission, labels, successor):
    groups, spread = _reference_close_groups(emission, labels, _TOL)
    return groups, spread, _reference_refine(groups, labels, emission, successor)


def _assert_same_bits(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize(
    "make, full", [pytest.param(make, full, id=name) for name, make, full in SCREEN_CASES]
)
def test_screen_matches_the_full_kernels(make, full, monkeypatch):
    entered = _kernel_spies(monkeypatch)
    emission, labels = (a[np.newaxis] for a in make())
    successor = _SCREEN_SPACE.shift_table
    _assert_same_bits(
        _screened(emission, labels, successor), _referenced(emission, labels, successor)
    )
    assert entered["_linked_groups"] == int(full)


def test_rows_tol_apart_link_and_one_ulp_further_do_not():
    emission, labels = (a[np.newaxis] for a in _rows_apart(_TOL))
    groups, spread = machine._close_groups(emission, labels, _TOL)
    assert groups[0, :2].tolist() == [0, 0] and spread[0] == _TOL
    emission, labels = (a[np.newaxis] for a in _rows_apart(np.nextafter(_TOL, 1.0)))
    groups, spread = machine._close_groups(emission, labels, _TOL)
    assert groups[0, :2].tolist() == [0, 1] and spread[0] == 0.0


def test_screen_slack_keeps_rows_whose_projections_round_apart(monkeypatch):
    # b = a - tol sign(w): |a - b|_inf rounds to just below tol, while the
    # rounded projections land just over tol apart
    weights = machine._projection(4)
    a = np.array([0.564, 0.131, 0.209, 0.097])
    b = a - _TOL * np.sign(weights)
    assert np.abs(a - b).max() <= _TOL < abs((b * weights).sum() - (a * weights).sum())
    emission = np.stack([a, b, [0.1, 0.2, 0.3, 0.4], [0.4, 0.3, 0.2, 0.1]])[np.newaxis]
    labels = np.zeros((1, 4), dtype=int)
    successor = np.arange(4)[np.newaxis, :]
    entered = _kernel_spies(monkeypatch)
    screened = _screened(emission, labels, successor)
    _assert_same_bits(screened, _referenced(emission, labels, successor))
    assert screened[0][0].tolist() == [0, 0, 2, 3]
    assert entered == {"_linked_groups": 1, "_split_groups": 1}


def test_mixed_stack_equals_each_point_alone(monkeypatch):
    entered = _kernel_spies(monkeypatch)
    cases = [make() for _, make, _ in SCREEN_CASES]
    emission = np.stack([e for e, _ in cases])
    labels = np.stack([lab for _, lab in cases])
    successor = _SCREEN_SPACE.shift_table
    stacked = _screened(emission, labels, successor)
    full = sum(full for *_, full in SCREEN_CASES)
    # only the points that need them entered the kernels; one merged
    assert entered == {"_linked_groups": full, "_split_groups": 1}
    _assert_same_bits(stacked, _referenced(emission, labels, successor))
    for p in range(len(cases)):
        alone = _screened(emission[p : p + 1], labels[p : p + 1], successor)
        _assert_same_bits([a[p : p + 1] for a in stacked], alone)


def test_generic_range_six_stack_skips_the_full_kernels(monkeypatch):
    space, transfers = _product_stack(6)
    transfers = [ts for ts in transfers if ts.beta < GROUND_STATE_BETA]
    log_v, log_right, log_left = _transfer_arrays(transfers)
    points, size = log_v.shape[:2]
    chains, windows = markov.invert_stack(space, log_v, log_right, log_left, [None] * points)
    spin_emission = windows.matrix[:, np.arange(size)[:, np.newaxis], space.shift_table]
    entered = _kernel_spies(monkeypatch)
    for emission, labels, successor in [
        (chains.rows, chains.labels, np.arange(size)[np.newaxis, :]),
        (spin_emission, windows.labels, space.shift_table),
    ]:
        _assert_same_bits(
            _screened(emission, labels, successor), _referenced(emission, labels, successor)
        )
    assert entered == {"_linked_groups": 0, "_split_groups": 0}


@pytest.mark.parametrize("width", [1, 2, 3, 8, 64, 100])
def test_projection_weights_are_exact_with_l1_norm_at_most_one(width):
    weights = machine._projection(width)
    assert len(weights) == width
    norm = np.abs(weights).sum()
    assert norm <= 1.0
    if width & (width - 1) == 0:
        assert norm == 1.0
    # integers over a power of two, so no weight was rounded
    assert (weights * 2**20 == np.round(weights * 2**20)).all()


# ----------------------------------------------------------------------
# reachability closure
# ----------------------------------------------------------------------


def _path_graph(size):
    edges = np.zeros((size, size), dtype=bool)
    edges[np.arange(size - 1), np.arange(1, size)] = True
    return edges


@pytest.mark.parametrize("size", [2, 3, 5, 16, 33, 128, 256])
def test_closure_matches_reference_on_path_and_complete_graphs(size):
    # a path needs every squaring; a complete graph is closed at once
    edges = np.stack([_path_graph(size), _path_graph(size).T, np.ones((size, size), dtype=bool)])
    assert markov.closure(edges).tobytes() == _reference_closure(edges).tobytes()
    for graph in edges:
        alone = markov.closure(graph[np.newaxis])
        assert alone.tobytes() == _reference_closure(graph[np.newaxis]).tobytes()


@pytest.mark.parametrize("size", [2, 3, 4, 7, 8, 16, 31, 64, 100, 256])
def test_closure_matches_reference_on_sparse_graphs(size):
    rng = np.random.default_rng(size)
    density = np.array([0.0, 0.5, 1.0, 2.0, 4.0])[:, np.newaxis, np.newaxis] / size
    edges = rng.random((5, size, size)) < density
    reach = markov.closure(edges)
    assert reach.tobytes() == _reference_closure(edges).tobytes()
    assert not np.shares_memory(reach, edges)


def _flat_gap_case(size=4):
    """A uniform chain against a field table whose gaps are 1/16 - 1/16 = 0
    but for a few raised entries."""
    matrix = np.full((1, size, size), 1.0 / size)
    log_table = np.full((1, size, size, size), np.log(1.0 / size))
    return matrix, log_table


def _measured_gap(matrix, log_table):
    lc = markov.LocalCharacteristics(
        interior=np.exp(log_table[0]), first_block=matrix[0], log_interior=log_table[0]
    )
    return markov.consistency_residual(lc, matrix[0])


def test_consistency_residual_tie_keeps_the_first():
    matrix, log_table = _flat_gap_case()
    # a smaller gap first, then the largest twice, in rows 1 and 3
    log_table[0, 0, 1, 1] = np.log(0.5)
    log_table[0, 1, 2, 3] = log_table[0, 3, 0, 1] = np.log(0.75)
    ref_residual, ref_flat = _reference_consistency_gap(np.exp(log_table), matrix)
    assert np.unravel_index(ref_flat[0], log_table.shape[1:]) == (1, 2, 3)
    residual, triple = _measured_gap(matrix, log_table)
    assert residual == ref_residual[0]
    assert triple == (1, 2, 3)


def test_nan_gap_names_the_first_nan():
    matrix, log_table = _flat_gap_case()
    log_table[0, 0, 1, 1] = np.log(0.75)
    matrix[0, 2, 1] = np.nan
    ref_residual, ref_flat = _reference_consistency_gap(np.exp(log_table), matrix)
    assert np.isnan(ref_residual[0])
    residual, triple = _measured_gap(matrix, log_table)
    assert np.isnan(residual)
    assert triple == np.unravel_index(ref_flat[0], log_table.shape[1:])


def test_nan_log_right_raises_inversion_error_without_warnings():
    space, transfers = _product_stack(3)
    log_v, log_right, log_left = _transfer_arrays(transfers)
    # at beta = GROUND_STATE_BETA, where exp of unshifted log weights overflows
    log_right[2, 5] = np.nan
    errors = [None] * len(transfers)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        markov.invert_stack(space, log_v, log_right, log_left, errors)
    assert isinstance(errors[2], InversionError)
    assert np.isnan(errors[2].residual)
    assert [p for p, e in enumerate(errors) if e is not None] == [2]


def test_log_matmul_matches_unblocked_with_neg_inf(monkeypatch):
    rng = np.random.default_rng(3)
    a = rng.normal(scale=30.0, size=(5, 8, 8))
    b = rng.normal(scale=30.0, size=(5, 8, 8))
    a[a < -25.0] = -np.inf
    b[b < -25.0] = -np.inf
    a[1, 3, :] = -np.inf  # out[1, 3, :] has no term
    b[2, :, 5] = -np.inf  # out[2, :, 5] neither
    with np.errstate(divide="ignore"):
        ref = _reference_log_matmul(a, b)
        ref_2d = _reference_log_matmul(a[4], b[4])
        assert np.isneginf(ref[1, 3]).all() and np.isneginf(ref[2, :, 5]).all()
        for budget in (63, 3 * 64, 3 * 512, info._STACK_ENTRIES):
            monkeypatch.setattr(info, "_STACK_ENTRIES", budget)
            assert info.log_matmul(a, b).tobytes() == ref.tobytes()
            assert info.log_matmul(a[4], b[4]).tobytes() == ref_2d.tobytes()


def test_row_blocks_cover_the_grid_once_within_the_budget(monkeypatch):
    for points, rows, row_shape, budget in [
        (5, 8, (8, 8), 3 * 512),
        (1, 16, (16, 17), 3 * 16 * 17),
        (2, 8, (8, 8), 63),
        (7, 4, (4, 2), 1 << 16),
    ]:
        monkeypatch.setattr(info, "_STACK_ENTRIES", budget)
        covered = np.zeros((points, rows), dtype=int)
        for block in info.row_blocks(points, rows, row_shape, (float, bool)):
            p, r, *buffers = block
            covered[p, r] += 1
            shape = covered[p, r].shape + row_shape
            assert covered[p, r].size * np.prod(row_shape) <= max(budget, np.prod(row_shape))
            for buffer in buffers:
                assert buffer is None or (buffer.shape == shape and buffer.flags.c_contiguous)
        assert (covered == 1).all()


def test_range_seven_analyze_peak_memory():
    couplings = -1.5 + 3.0 * np.random.default_rng(1).random(7)
    model = Hamiltonian.pair_product(BlockSpace(BINARY, 7), 0.3, couplings)
    tracemalloc.start()
    try:
        analyze(model, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the unblocked kernels held (128**3)-entry arrays: a 64 MiB peak
    assert peak <= 8 * 2**20
