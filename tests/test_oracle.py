import numpy as np
import pytest

from spinmech.errors import (
    EnumerationTooLargeError,
    ReducibleChainError,
    UndersampledError,
)
from spinmech.machine import spin_machines
from spinmech.markov import local_characteristics, restrict_to_class, solve_stochastic
from spinmech import oracle
from spinmech.models import NNNParams, NNParams, nn_ising, nnn_ising
from spinmech.oracle import (
    conditional_from_enumeration,
    empirical_entropy_rate,
    enumerate_gibbs,
    naive_isolated_conditional,
    quadratic_system_solve,
    sample_sequence,
)
from spinmech.transfer import GROUND_STATE_BETA, build_transfer

E2BJ3 = 0.5 * np.log(3.0)


def test_enumeration_uniform_at_beta_zero():
    ens = enumerate_gibbs(nn_ising(NNParams(J=1.0, B=0.0, beta=0.0)), 0.0, 4)
    assert np.allclose(ens.probs, 1.0 / 16.0, atol=1e-14)


def test_enumeration_boltzmann_ratio():
    beta, j = 0.9, 0.7
    ens = enumerate_gibbs(nn_ising(NNParams(J=j, B=0.0, beta=beta)), beta, 2)
    ratio = ens.probs[1, 1] / ens.probs[1, 0]
    assert ratio == pytest.approx(np.exp(2 * beta * j), rel=1e-12)


def test_enumeration_normalizes():
    model = nnn_ising(NNNParams(J1=0.8, J2=-0.5, B=0.4, beta=1.2))
    for boundary in ("open", "periodic"):
        ens = enumerate_gibbs(model, 1.2, 4, boundary)
        assert ens.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_enumeration_guard():
    with pytest.raises(EnumerationTooLargeError):
        enumerate_gibbs(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), 1.0, 30)


@pytest.mark.parametrize(
    "model,beta",
    [
        (nn_ising(NNParams(J=E2BJ3, B=0.4, beta=1.0)), 1.0),
        (nnn_ising(NNNParams(J1=0.9, J2=-0.6, B=0.3, beta=0.8)), 0.8),
    ],
)
def test_enumerated_conditionals_match_local_characteristics(model, beta):
    ts = build_transfer(model, beta)
    lc = local_characteristics(ts)
    ens = enumerate_gibbs(model, beta, 6)
    for position in (1, 2, 3):
        tables = conditional_from_enumeration(ens, position)
        assert np.max(np.abs(tables.triple - lc.interior)) <= 1e-12
    head = conditional_from_enumeration(ens, 0)
    assert np.max(np.abs(head.first - lc.first_block)) <= 1e-12


def test_interior_step_conditional_approaches_chain():
    # boundary corrections decay with the subdominant ratio to the power of
    # the distance to each end, so a well-mixed instance converges by i = 3
    model = nnn_ising(NNNParams(J1=0.2, J2=-0.1, B=0.1, beta=0.5))
    chain = solve_stochastic(build_transfer(model, 0.5))
    ens = enumerate_gibbs(model, 0.5, 8)
    step = conditional_from_enumeration(ens, 3).step
    assert np.max(np.abs(step - chain.matrix)) <= 1e-6


def test_naive_isolated_conditional_disagrees():
    # the shortcut of treating the past as an isolated system must fail
    # visibly once a field breaks the cancellation
    model = nn_ising(NNParams(J=1.0, B=0.5, beta=1.0))
    ts = build_transfer(model, 1.0)
    naive = naive_isolated_conditional(ts)
    ens = enumerate_gibbs(model, 1.0, 2)
    true_step = conditional_from_enumeration(ens, 0).step
    assert np.max(np.abs(naive - true_step)) > 1e-3


def test_quadratic_solver_nn_closed_form():
    ts = build_transfer(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0)
    recovered = quadratic_system_solve(local_characteristics(ts))
    assert np.allclose(recovered, [[0.75, 0.25], [0.25, 0.75]], atol=1e-10)


def test_quadratic_solver_uniform():
    ts = build_transfer(nnn_ising(NNNParams(J1=1.0, J2=0.4, B=0.2, beta=0.0)), 0.0)
    recovered = quadratic_system_solve(local_characteristics(ts))
    assert np.allclose(recovered, 0.25, atol=1e-12)


def test_quadratic_solver_matches_spectral_on_random_instances():
    rng = np.random.default_rng(12)
    agreements = 0
    for _ in range(50):
        beta = float(np.exp(rng.uniform(np.log(1e-3), np.log(20))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-3, 3),
                beta=beta,
            )
        )
        ts = build_transfer(model, beta)
        chain = solve_stochastic(ts)
        recovered = quadratic_system_solve(local_characteristics(ts))
        assert np.max(np.abs(recovered - chain.matrix)) <= 1e-8
        agreements += 1
    assert agreements == 50


def test_quadratic_solver_size_guard():
    from spinmech.errors import QuadraticSolveError
    from spinmech.lattice import BINARY, BlockSpace
    from spinmech.hamiltonian import Hamiltonian

    model = Hamiltonian.pair_product(BlockSpace(BINARY, 3), 0.0, [0.4, 0.2, 0.1])
    ts = build_transfer(model, 1.0)
    with pytest.raises(QuadraticSolveError):
        quadratic_system_solve(local_characteristics(ts))


def test_sampling_deterministic():
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0))
    first = sample_sequence(chain, 500, seed=77)
    second = sample_sequence(chain, 500, seed=77)
    assert np.array_equal(first, second)
    third = sample_sequence(chain, 500, seed=78)
    assert not np.array_equal(first, third)


def _reference_sample(chain, n_blocks, seed, class_index=None):
    # one np.searchsorted per step: the sampler's original loop, kept as
    # the reference its list-based step must reproduce exactly
    if class_index is None:
        members, matrix, pi = np.arange(chain.size), chain.matrix, chain.pi
    else:
        members, matrix, pi = restrict_to_class(chain, class_index)
    uniforms = np.random.default_rng(seed).random(n_blocks)
    cum_rows = np.cumsum(matrix, axis=1)
    high = matrix.shape[0] - 1
    states = np.empty(n_blocks, dtype=np.int64)
    states[0] = min(int(np.searchsorted(np.cumsum(pi), uniforms[0], side="right")), high)
    for t in range(1, n_blocks):
        row = cum_rows[states[t - 1]]
        states[t] = min(int(np.searchsorted(row, uniforms[t], side="right")), high)
    return chain.space.digit_table[members[states]].ravel().astype(np.int64)


def test_sampling_matches_reference_loop(monkeypatch):
    # small chunks so that the sequences cross many chunk boundaries
    monkeypatch.setattr(oracle, "_SAMPLE_CHUNK", 1000)
    nn = nn_ising(NNParams(J=E2BJ3, B=0.3, beta=1.0))
    nnn = nnn_ising(NNNParams(J1=0.8, J2=-0.5, B=0.7, beta=0.9))
    chains = [
        (solve_stochastic(build_transfer(nn, 1.0)), None),
        (solve_stochastic(build_transfer(nnn, 0.9)), None),
    ]
    # a period-four ground state: two recurrent classes, sampled one at a time
    beta = GROUND_STATE_BETA
    frozen = solve_stochastic(
        build_transfer(nnn_ising(NNNParams(J1=1.0, J2=-1.0, B=0.0, beta=beta)), beta)
    )
    chains += [(frozen, index) for index in range(len(frozen.classes))]
    for chain, class_index in chains:
        for n_blocks, seed in ((1, 3), (20_001, 3), (20_001, 2**32 - 1)):
            got = sample_sequence(chain, n_blocks, seed=seed, class_index=class_index)
            want = _reference_sample(chain, n_blocks, seed, class_index)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_sampling_reducible_requires_class():
    beta = GROUND_STATE_BETA
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=beta)), beta))
    with pytest.raises(ReducibleChainError):
        sample_sequence(chain, 10, seed=1)
    seq = sample_sequence(chain, 10, seed=1, class_index=1)
    assert np.all(seq == 1)


def test_sampling_frequencies():
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=0.0, B=0.0, beta=1.0)), 1.0))
    seq = sample_sequence(chain, 10**6, seed=5)
    assert abs(seq.mean() - 0.5) < 0.002
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0))
    seq = sample_sequence(chain, 10**6, seed=6)
    repeats = np.mean(seq[1:] == seq[:-1])
    assert abs(repeats - 0.75) < 0.002


def test_empirical_entropy_rate_fair_coin():
    rng = np.random.default_rng(3)
    seq = rng.integers(0, 2, size=10**6)
    estimate = empirical_entropy_rate(seq, 1)
    assert abs(estimate.value - 1.0) < 0.003


def test_empirical_entropy_rate_alternating():
    seq = np.tile([0, 1], 150_000)
    estimate = empirical_entropy_rate(seq, 1)
    assert estimate.value == pytest.approx(0.0, abs=1e-12)


def test_empirical_entropy_rate_markov_chain():
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0))
    seq = sample_sequence(chain, 10**6, seed=9)
    estimate = empirical_entropy_rate(seq, 1)
    analytic = spin_machines(chain).h_mu
    assert abs(estimate.value - analytic) < 0.01
    assert abs(estimate.value - analytic) < 3 * estimate.stderr + 1e-4


def test_empirical_entropy_rate_undersampled():
    with pytest.raises(UndersampledError):
        empirical_entropy_rate(np.zeros(1000, dtype=int), 1, theta=2)
