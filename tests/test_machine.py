import numpy as np
import pytest

from spinmech.errors import PartitionAmbiguityError
from spinmech.machine import block_machines, spin_machines
from spinmech.markov import solve_stochastic
from spinmech.models import NNNParams, NNParams, nn_ising, nnn_ising
from spinmech.transfer import GROUND_STATE_BETA, build_transfer

E2BJ3 = 0.5 * np.log(3.0)
H_THREE_QUARTERS = 2.0 - 0.75 * np.log2(3.0)  # binary entropy of 3/4


def nn_chain(j=E2BJ3, b=0.0, beta=1.0):
    return solve_stochastic(build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta))


def block_machine(chain):
    (machine,) = block_machines(chain).machines
    return machine


def test_two_state_partition():
    machine = block_machine(nn_chain())
    part = machine.partition
    assert part.n_states == 2
    assert np.allclose(part.probs, [0.5, 0.5], atol=1e-12)
    assert machine.c_mu == pytest.approx(1.0, abs=1e-12)


def test_identical_rows_merge_at_infinite_temperature():
    chain = solve_stochastic(
        build_transfer(nnn_ising(NNNParams(J1=1.0, J2=-0.5, B=0.4, beta=0.0)), 0.0)
    )
    machine = block_machine(chain)
    assert machine.partition.n_states == 1
    assert machine.partition.probs[0] == pytest.approx(1.0)
    assert machine.c_mu == pytest.approx(0.0)


def test_three_state_uniform_complexity():
    # the P3 ground state cycles through three equiprobable causal states
    beta = GROUND_STATE_BETA
    chain = solve_stochastic(
        build_transfer(nnn_ising(NNNParams(J1=-1.0, J2=-1.0, B=2.0, beta=beta)), beta)
    )
    for machine in block_machines(chain).machines:
        assert np.allclose(machine.partition.probs, np.full(3, 1.0 / 3.0), atol=1e-12)
        assert machine.c_mu == pytest.approx(np.log2(3.0), abs=1e-12)


def test_entropy_density_values():
    assert block_machine(nn_chain()).h_mu == pytest.approx(H_THREE_QUARTERS, abs=1e-12)
    chain0 = solve_stochastic(build_transfer(nn_ising(NNParams(J=0.0, B=0.0, beta=1.0)), 1.0))
    assert block_machine(chain0).h_mu == pytest.approx(1.0, abs=1e-12)


def test_entropy_density_zero_for_deterministic_cycle():
    beta = GROUND_STATE_BETA
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=-1.0, B=0.0, beta=beta)), beta))
    # antiferromagnetic ground state: a two-block cycle, no uncertainty
    assert chain.irreducible
    assert block_machine(chain).h_mu == pytest.approx(0.0, abs=1e-12)


def test_excess_entropy_forms():
    machine = block_machine(nn_chain())
    assert machine.e_mu == pytest.approx(1.0 - H_THREE_QUARTERS, abs=1e-12)
    assert machine.e_paper == pytest.approx(machine.e_mu, abs=1e-12)


def test_excess_entropy_divergence_when_states_merge():
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=0.0, B=0.0, beta=1.0)), 1.0))
    machine = block_machine(chain)
    assert machine.e_mu == pytest.approx(0.0, abs=1e-12)
    # complexity-minus-rate goes negative once blocks merge: flagged, not forced
    assert machine.e_paper == pytest.approx(-1.0, abs=1e-12)
    assert not machine.excess_forms_agree


def test_transition_matrices_unifilar():
    machine = block_machine(nn_chain())
    labeled = machine.labeled_matrices
    connectivity = labeled.sum(axis=0)
    assert machine.symbols == (0, 1)
    for k in range(labeled.shape[0]):
        for r in range(labeled.shape[1]):
            assert np.count_nonzero(labeled[k, r]) <= 1
    assert np.allclose(connectivity.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(labeled.sum(axis=0), connectivity)


def test_transition_matrices_single_state():
    chain = solve_stochastic(
        build_transfer(nnn_ising(NNNParams(J1=0.3, J2=-0.2, B=0.1, beta=0.0)), 0.0)
    )
    labeled = block_machine(chain).labeled_matrices
    connectivity = labeled.sum(axis=0)
    assert connectivity.shape == (1, 1)
    assert connectivity[0, 0] == pytest.approx(1.0)
    assert np.allclose(labeled[:, 0, 0], 0.25)


def test_partition_ambiguity_error():
    from spinmech.machine import _tolerance_groups

    rows = np.array([[0.0, 1.0], [1e-9, 1.0 - 1e-9], [2e-9, 1.0 - 2e-9]])
    with pytest.raises(PartitionAmbiguityError):
        _tolerance_groups(rows, tol=1.5e-9)


def test_spin_machine_single_spin_blocks_match_block_machine():
    chain = nn_chain()
    sset = spin_machines(chain)
    bset = block_machines(chain)
    assert sset.c_mu == pytest.approx(bset.c_mu, abs=1e-12)
    assert sset.h_mu == pytest.approx(bset.h_mu, abs=1e-12)
    assert sset.e_paper == pytest.approx(bset.e_paper, abs=1e-12)


def test_spin_entropy_aggregation_identity():
    rng = np.random.default_rng(6)
    for _ in range(10):
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(4))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-2, 2),
                beta=beta,
            )
        )
        chain = solve_stochastic(build_transfer(model, beta))
        bset = block_machines(chain)
        sset = spin_machines(chain)
        assert bset.h_mu == pytest.approx(2.0 * sset.h_mu, abs=1e-9)
        assert bset.c_mu == pytest.approx(sset.c_mu, abs=1e-9)


def test_fair_coin_spin_machine():
    sset = spin_machines(nn_chain(j=0.0))
    assert sset.h_mu == pytest.approx(1.0, abs=1e-12)
    assert sset.c_mu == pytest.approx(0.0, abs=1e-12)
    # mutual-information form vanishes; the complexity-minus-rate form
    # diverges to -1 once the two windows merge, and is flagged
    assert sset.e_mu == pytest.approx(0.0, abs=1e-12)
    assert sset.e_paper == pytest.approx(-1.0, abs=1e-12)
    assert not sset.machines[0].excess_forms_agree


def test_ground_state_causal_state_counts_per_phase():
    beta = GROUND_STATE_BETA
    cases = [
        (NNNParams(J1=1.0, J2=0.0, B=0.0, beta=beta), 1, 0.0),
        (NNNParams(J1=-1.0, J2=0.0, B=0.0, beta=beta), 1, 0.0),
        (NNNParams(J1=1.0, J2=-1.0, B=0.0, beta=beta), 2, 1.0),
        (NNNParams(J1=-1.0, J2=-1.0, B=2.0, beta=beta), 3, np.log2(3.0)),
    ]
    for params, n_states, e_value in cases:
        chain = solve_stochastic(build_transfer(nnn_ising(params), beta))
        mset = block_machines(chain)
        for machine in mset.machines:
            assert machine.n_states == n_states
            assert machine.e_mu == pytest.approx(e_value, abs=1e-9)
            assert machine.h_mu == pytest.approx(0.0, abs=1e-9)


def test_period_four_spin_machine_ground_state():
    beta = GROUND_STATE_BETA
    chain = solve_stochastic(
        build_transfer(nnn_ising(NNNParams(J1=1.0, J2=-1.0, B=0.0, beta=beta)), beta)
    )
    sset = spin_machines(chain)
    # one window class covering the whole period-four cycle
    assert sset.n_classes == 1
    assert sset.machines[0].n_states == 4
    assert sset.machines[0].e_paper == pytest.approx(2.0, abs=1e-9)
    assert sset.h_mu == pytest.approx(0.0, abs=1e-9)


def test_complexity_bounds():
    rng = np.random.default_rng(9)
    for _ in range(10):
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(4))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-2, 2),
                beta=beta,
            )
        )
        chain = solve_stochastic(build_transfer(model, beta))
        mset = block_machines(chain)
        machine = mset.machines[0]
        assert machine.e_mu >= -1e-12
        assert machine.c_mu <= np.log2(machine.n_states) + 1e-12
        assert machine.e_mu <= machine.c_mu + 1e-12
