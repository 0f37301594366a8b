"""Self-test of the benchmark's checks: each must flag a damaged result.

Run from the repository root:

    python3 -m pytest -q bench/test_checks.py

Every check first passes an undamaged result made by the package, then
is fed the same result with one deliberate fault and must report it, so
no check is one that cannot fail.
"""

import dataclasses
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spinmech as sm  # noqa: E402
from spinmech import analysis, oracle  # noqa: E402

NN_MODEL = {"preset": "nn"}
NN_POINT = {"beta": 0.8, "J": 0.7, "B": -0.4}
# an NNN point with distinct rows, and a period-2 ground state whose
# eigenvalue goes to mpmath because the power enclosure converges slowly
NNN_POINT = (0.3, (0.9, -0.5), 1.3)
NNN_GROUND = (0.31307546958613, (0.8778844681598867, -1.2147745465710615), 32.074030882273675)
CUSTOM_POINT = (-0.6, (0.7, -0.4, 0.3, 0.2, -0.1), 0.9)


def _analyze(field, couplings, beta):
    model = sm.Hamiltonian.pair_product(sm.BlockSpace(sm.BINARY, len(couplings)), field, couplings)
    return sm.analyze(model, beta)


# ----------------------------------------------------------------------
# nn-sweep


def test_nn_reference_flags_each_shifted_metric():
    row = analysis.evaluate_sweep_point(NN_MODEL, {}, NN_POINT)
    assert checks.check_nn_reference(NN_POINT, row) == []
    for key in ("log_lambda0", "C_mu", "h_mu", "E_mu"):
        damaged = dict(row, **{key: row[key] + 1e-8})
        assert checks.check_nn_reference(NN_POINT, damaged), key


def test_nn_reference_follows_support_refinement():
    # rows closer than the merge tolerance but with different support are
    # two causal states; the reference must not merge them
    point = {"beta": 14.521100171672979, "J": -0.43203390947427556, "B": 1.628710739283724}
    row = analysis.evaluate_sweep_point(NN_MODEL, {}, point)
    assert row["C_mu"] > 0.0
    assert checks.check_nn_reference(point, row) == []
    assert checks.check_nn_reference(point, dict(row, C_mu=0.0))


@pytest.mark.parametrize(
    "damage",
    [
        {"E_mu": -1e-9},
        {"E_mu": 0.6, "C_mu": 0.5},
        {"C_mu": 1.0 + 1e-9},
        {"h_mu": -1e-9},
        {"h_mu": 1.0 + 1e-9},
        {"max_residual": 2e-10},
        {"status": "inversion_error"},
    ],
)
def test_nn_row_bounds_flag_violations(damage):
    row = analysis.evaluate_sweep_point(NN_MODEL, {}, NN_POINT)
    assert checks.check_nn_row_bounds(row) == []
    assert checks.check_nn_row_bounds(dict(row, **damage))


def test_replayed_row_changed_in_last_bit_is_flagged():
    row = analysis.evaluate_sweep_point(NN_MODEL, {}, NN_POINT)
    again = analysis.evaluate_sweep_point(NN_MODEL, {}, NN_POINT)
    assert checks.rows_identical(row, again)
    damaged = dict(again, h_mu=math.nextafter(again["h_mu"], math.inf))
    assert not checks.rows_identical(row, damaged)
    assert not checks.rows_identical(row, dict(again, n_states=again["n_states"] + 1))


def test_csv_flags_last_digit_missing_row_and_header():
    config = {
        "model": NN_MODEL,
        "sweep": {
            "mode": "random",
            "count": 5,
            "seed": 3,
            "parameters": {"beta": {"low": 0.1, "high": 2.0}, "J": {"low": -1, "high": 1}, "B": {"low": -1, "high": 1}},
        },
    }
    names, rows = analysis.run_sweep(config, jobs=1)
    text = analysis.format_csv(names, rows)
    assert checks.check_csv(text, names, rows) == []

    lines = text.split("\n")
    cells = lines[2].split(",")
    column = len(names) + 3  # h_mu
    cells[column] = repr(math.nextafter(float(cells[column]), math.inf))
    bumped = "\n".join(lines[:2] + [",".join(cells)] + lines[3:])
    assert checks.check_csv(bumped, names, rows)
    assert checks.check_csv("\n".join(lines[:2] + lines[3:]), names, rows)
    assert checks.check_csv(text.replace("h_mu", "H_mu", 1), names, rows)


# ----------------------------------------------------------------------
# nnn-points and custom-range


def test_identities_flag_permuted_matrix_row():
    field, couplings, beta = NNN_POINT
    result = _analyze(field, couplings, beta)
    assert checks.check_point_identities(field, couplings, beta, result) == []
    matrix = result.chain.matrix[[1, 0, 2, 3]]
    damaged = dataclasses.replace(result, chain=dataclasses.replace(result.chain, matrix=matrix))
    assert any("class 0" in f for f in checks.check_point_identities(field, couplings, beta, damaged))


def test_identities_flag_shifted_h_mu():
    field, couplings, beta = CUSTOM_POINT
    result = _analyze(field, couplings, beta)
    assert checks.check_point_identities(field, couplings, beta, result) == []
    block = dataclasses.replace(result.block, h_mu=result.block.h_mu + 1e-8)
    faults = checks.check_point_identities(field, couplings, beta, dataclasses.replace(result, block=block))
    assert any("h_mu_spin" in f for f in faults)


def test_identities_flag_wrong_energy_model():
    field, couplings, beta = NNN_POINT
    result = _analyze(field, couplings, beta)
    assert checks.check_point_identities(field + 1e-6, couplings, beta, result)


def test_identities_flag_negative_excess_and_excess_complexity():
    field, couplings, beta = NNN_POINT
    result = _analyze(field, couplings, beta)
    negative = dataclasses.replace(result.block, e_mu=-1e-9)
    faults = checks.check_point_identities(field, couplings, beta, dataclasses.replace(result, block=negative))
    assert any("E_mu" in f for f in faults)
    bound = math.log2(result.n_states)
    large = dataclasses.replace(result.block, c_mu=bound + 1e-9)
    faults = checks.check_point_identities(field, couplings, beta, dataclasses.replace(result, block=large))
    assert any("C_mu" in f for f in faults)


@pytest.mark.parametrize("point", [NNN_POINT, NNN_GROUND, CUSTOM_POINT])
def test_eigenvalue_flags_shifted_log_lambda0(point):
    field, couplings, beta = point
    log_lambda0 = sm.build_transfer(
        sm.Hamiltonian.pair_product(sm.BlockSpace(sm.BINARY, len(couplings)), field, couplings), beta
    ).log_lambda0
    assert checks.check_eigenvalue(field, couplings, beta, log_lambda0) == []
    assert checks.check_eigenvalue(field, couplings, beta, log_lambda0 + 1e-8)
    assert checks.check_eigenvalue(field, couplings, beta, log_lambda0 - 1e-8)


def test_perron_root_mp_agrees_with_enclosure():
    field, couplings, beta = NNN_POINT
    log_v = checks.log_transfer(field, couplings, beta)
    lo, hi = checks.perron_bracket(log_v)
    assert hi - lo < 1e-12
    assert abs(checks.perron_root_mp(log_v) - lo) < 1e-12


def test_energies_match_direct_pair_sum():
    # x_p + y_pq + x_q is the energy of the 2n spins of blocks p, q
    field, couplings, _ = CUSTOM_POINT
    x, y = checks.block_energies(field, couplings)
    spins = checks.block_spins(len(couplings))
    rng = np.random.default_rng(0)
    for p, q in rng.integers(len(x), size=(20, 2)):
        chain = np.concatenate([spins[p], spins[q]])
        direct = -field * chain.sum() - sum(
            couplings[d - 1] * chain[i] * chain[i + d]
            for d in range(1, len(couplings) + 1)
            for i in range(len(chain) - d)
        )
        assert abs(x[p] + y[p, q] + x[q] - direct) < 1e-12


# ----------------------------------------------------------------------
# sample


def _nn_chain(j):
    return sm.analyze(sm.nn_ising(sm.NNParams(J=j, B=0.05, beta=1.0)), 1.0)


def test_entropy_estimate_flags_sequence_from_another_chain():
    ours, other = _nn_chain(0.1), _nn_chain(0.3)
    sequence = oracle.sample_sequence(ours.chain, 400_000, seed=5)
    estimate = oracle.empirical_entropy_rate(sequence, 1, 2)
    assert checks.check_entropy_estimate(estimate, ours.h_mu_spin) == []
    foreign = oracle.empirical_entropy_rate(oracle.sample_sequence(other.chain, 400_000, seed=5), 1, 2)
    assert checks.check_entropy_estimate(foreign, ours.h_mu_spin)


def test_same_sequence_flags_other_seed():
    chain = _nn_chain(0.1).chain
    first = oracle.sample_sequence(chain, 1000, seed=5)
    digest = run.sequence_digest(first)

    def redraw(seed, blocks=1000):
        return run.sequence_digest(oracle.sample_sequence(chain, blocks, seed=seed))

    assert checks.check_same_sequence(digest, redraw(5)) == []
    assert checks.check_same_sequence(digest, redraw(6))
    assert checks.check_same_sequence(digest, redraw(5, blocks=999))


# ----------------------------------------------------------------------
# run level


def test_rounds_with_different_outputs_are_flagged():
    first, same, other = run.Round(), run.Round(), run.Round()
    first.signature = same.signature = "a"
    other.signature = "b"
    assert run.same_rounds([first, same], first) == []
    assert run.same_rounds([first, other], first)
