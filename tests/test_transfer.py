import numpy as np
import pytest

from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace
from spinmech.models import NNNParams, NNParams, nn_ising, nnn_ising
from spinmech.transfer import (
    asymptotic_log_partition,
    build_transfer,
    partition_function,
    subdominant_ratio,
)


def test_nn_transfer_matrix_closed_form():
    beta, j = 1.3, 0.8
    ts = build_transfer(nn_ising(NNParams(J=j, B=0.0, beta=beta)), beta)
    expected = np.array([[beta * j, -beta * j], [-beta * j, beta * j]])
    assert np.allclose(ts.log_v, expected, atol=1e-14)


def test_infinite_temperature_is_uniform():
    ts = build_transfer(nnn_ising(NNNParams(J1=0.9, J2=-0.4, B=0.7, beta=0.0)), 0.0)
    assert np.allclose(ts.log_v, 0.0)
    assert ts.log_lambda0 == pytest.approx(np.log(4.0))


def test_dominant_eigenvalue_nn():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), 1.0)
    assert ts.log_lambda0 == pytest.approx(np.log(2.0 * np.cosh(1.0)), abs=1e-13)


def test_perron_pair_properties():
    for beta, j, b in [(1.0, 1.0, 0.0), (0.7, -1.2, 0.9), (2.5, 0.3, -1.1)]:
        ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta)
        left, right = ts.left, ts.right
        assert ts.perron_residual <= 1e-12
        assert np.all(left > 0) and np.all(right > 0)
        assert np.dot(left, right) == pytest.approx(1.0, abs=1e-12)
        if b == 0.0:
            assert right[0] == pytest.approx(right[1], abs=1e-14)


def test_perron_residual_small_on_nnn_instances():
    rng = np.random.default_rng(3)
    for _ in range(20):
        beta = float(np.exp(rng.uniform(np.log(0.01), np.log(20))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-2, 2),
                beta=beta,
            )
        )
        ts = build_transfer(model, beta)
        assert ts.perron_residual <= 1e-12


def test_perron_projection_limit():
    # V^20 / lambda0^20 converges to the outer product of the Perron pair
    beta, j, b = 1.0, 0.4, 1.0
    ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta)
    v = np.exp(ts.log_v)
    power = np.linalg.matrix_power(v, 20)
    projected = power / np.exp(20 * ts.log_lambda0)
    outer = np.outer(ts.right, ts.left)
    assert np.max(np.abs(projected - outer)) <= 1e-8


def test_partition_function_periodic_closed_form():
    beta = 1.0
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=beta)), beta)
    expected = (2.0 * np.cosh(1.0)) ** 2 + (2.0 * np.sinh(1.0)) ** 2
    assert partition_function(ts, 2, "periodic") == pytest.approx(np.log(expected), abs=1e-12)


def test_partition_function_counts_states_at_beta_zero():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.5, beta=0.0)), 0.0)
    assert partition_function(ts, 3, "periodic") == pytest.approx(np.log(8.0), abs=1e-12)


def test_trace_equals_eigenvalue_power_sum():
    # full eigensolve as the oracle for the trace identity, up to 16 blocks
    rng = np.random.default_rng(11)
    for n in (1, 2, 4):
        space = BlockSpace(BINARY, n)
        model = Hamiltonian.pair_product(
            space, rng.uniform(-1, 1), rng.uniform(-1, 1, size=n)
        )
        ts = build_transfer(model, 0.9)
        eigvals = np.linalg.eigvals(np.exp(ts.log_v))
        for n_blocks in range(1, 9):
            log_z = partition_function(ts, n_blocks, "periodic")
            by_eigs = np.sum(eigvals**n_blocks).real
            assert log_z == pytest.approx(np.log(by_eigs), rel=1e-9)


def test_asymptotic_log_partition_formulas():
    ts = build_transfer(nn_ising(NNParams(J=0.6, B=0.2, beta=1.0)), 1.0)
    assert asymptotic_log_partition(ts, 10, "periodic") == pytest.approx(10 * ts.log_lambda0)
    # open asymptotics reach the exact partition function at large size
    exact = partition_function(ts, 64, "open")
    approx = asymptotic_log_partition(ts, 64, "open")
    assert approx == pytest.approx(exact, rel=1e-8)


def test_asymptotic_ratio_improves_monotonically():
    rng = np.random.default_rng(5)
    model = nnn_ising(
        NNNParams(J1=rng.uniform(-1, 1), J2=rng.uniform(-1, 1), B=rng.uniform(-1, 1), beta=0.8)
    )
    ts = build_transfer(model, 0.8)
    gaps = []
    for n_blocks in (4, 8, 16, 32):
        exact = partition_function(ts, n_blocks, "open")
        approx = asymptotic_log_partition(ts, n_blocks, "open")
        gaps.append(abs(exact - approx))
    for earlier, later in zip(gaps, gaps[1:]):
        assert later <= earlier + 1e-13


def test_log_domain_survives_deep_cold_grid():
    # the diagram ranges at beta = 100 must stay finite end to end
    for j in (-1.5, 0.0, 1.5):
        for b in (-3.0, 0.0, 3.0):
            ts = build_transfer(nn_ising(NNParams(J=j, B=b, beta=100.0)), 100.0)
            assert np.all(np.isfinite(ts.log_v))
            assert np.isfinite(ts.log_lambda0)
            ts2 = build_transfer(
                nnn_ising(NNNParams(J1=j, J2=-j, B=b, beta=100.0)), 100.0
            )
            assert np.all(np.isfinite(ts2.log_v))
            assert np.isfinite(ts2.log_lambda0)


def test_ground_state_stand_in_resolves_gaps():
    ts = build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1e3)), 1e3)
    assert np.isfinite(ts.log_lambda0)
    assert ts.log_lambda0 == pytest.approx(1e3, rel=1e-12)


def test_subdominant_ratio_matches_closed_form():
    beta, j = 1.0, 0.9
    ts = build_transfer(nn_ising(NNParams(J=j, B=0.0, beta=beta)), beta)
    assert subdominant_ratio(ts) == pytest.approx(np.tanh(beta * j), abs=1e-12)


def test_beta_validation():
    from spinmech.errors import NumericDomainError

    with pytest.raises(NumericDomainError):
        build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), -1.0)
    with pytest.raises(NumericDomainError):
        build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=1.0)), np.inf)


def test_large_space_power_iteration_path():
    # seven binary spins per block pushes past the dense-solve limit
    space = BlockSpace(BINARY, 7)
    model = Hamiltonian.pair_product(space, 0.1, [0.3, -0.2, 0.1, 0.05, -0.02, 0.01, 0.4])
    ts = build_transfer(model, 0.5)
    assert ts.size == 128
    assert ts.perron_residual <= 1e-12
    v = np.exp(ts.log_v)
    assert np.max(np.abs(v @ ts.right - np.exp(ts.log_lambda0) * ts.right)) <= 1e-10 * np.exp(
        ts.log_lambda0
    )
