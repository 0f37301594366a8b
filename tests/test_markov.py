import dataclasses
import warnings

import numpy as np
import pytest

from spinmech.errors import InversionError
from spinmech.markov import (
    CONSISTENCY_TOL,
    class_decomposition,
    consistency_residual,
    local_characteristics,
    solve_stochastic,
    window_chain,
)
from spinmech.models import NNNParams, NNParams, nn_ising, nnn_ising
from spinmech.transfer import build_transfer

E2BJ3 = 0.5 * np.log(3.0)  # beta*J with exp(2 beta J) = 3


def nn_ts(j=E2BJ3, b=0.0, beta=1.0):
    return build_transfer(nn_ising(NNParams(J=j, B=b, beta=beta)), beta)


def test_local_characteristics_nn_closed_values():
    lc = local_characteristics(nn_ts())
    # exp(4 beta J) = 9 at zero field
    assert lc.interior[0, 0, 0] == pytest.approx(9.0 / 10.0, abs=1e-14)
    assert lc.interior[0, 0, 1] == pytest.approx(0.5, abs=1e-14)
    assert np.allclose(lc.interior.sum(axis=1), 1.0, atol=1e-12)
    assert np.allclose(lc.first_block.sum(axis=0), 1.0, atol=1e-12)


def test_local_characteristics_uniform_at_beta_zero():
    ts = build_transfer(nnn_ising(NNNParams(J1=1.0, J2=0.5, B=0.3, beta=0.0)), 0.0)
    lc = local_characteristics(ts)
    assert np.allclose(lc.interior, 0.25, atol=1e-14)


def test_solve_stochastic_nn_closed_form():
    chain = solve_stochastic(nn_ts())
    assert np.allclose(chain.matrix, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)
    assert np.allclose(chain.pi, [0.5, 0.5], atol=1e-12)
    assert chain.consistency_residual <= 1e-15


def test_solve_stochastic_uniform_at_beta_zero():
    ts = build_transfer(nnn_ising(NNNParams(J1=1.0, J2=0.5, B=0.3, beta=0.0)), 0.0)
    chain = solve_stochastic(ts)
    assert np.allclose(chain.matrix, 0.25, atol=1e-14)


def test_consistency_closure_matches_local_characteristics():
    rng = np.random.default_rng(8)
    for _ in range(15):
        beta = float(np.exp(rng.uniform(np.log(0.01), np.log(30))))
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
        lc = local_characteristics(ts)
        residual, _ = consistency_residual(lc, chain.matrix)
        assert residual <= chain.consistency_residual <= 1e-10
        # direct closure form: P[j,i] P[i,m] / (P^2)[j,m] reproduces the field
        two = chain.matrix @ chain.matrix
        with np.errstate(divide="ignore", invalid="ignore"):
            closure = (
                chain.matrix[:, :, None]
                * chain.matrix[None, :, :]
                / two[:, None, :]
            )
        mask = np.broadcast_to(two[:, None, :] > 1e-30, closure.shape)
        assert np.max(np.abs((closure - lc.interior)[mask])) <= 1e-10


def test_inversion_error_reports_triple():
    # a damaged right Perron vector breaks the consistency relation
    ts = dataclasses.replace(nn_ts(), log_right=np.array([0.0, 1.0]))
    with pytest.raises(InversionError) as err:
        solve_stochastic(ts)
    assert err.value.residual > CONSISTENCY_TOL
    assert len(err.value.triple) == 3


def test_inversion_error_on_nan_residual():
    ts = dataclasses.replace(nn_ts(), log_right=np.array([0.0, np.nan]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InversionError) as err:
            solve_stochastic(ts)
    assert np.isnan(err.value.residual)


def test_stationary_simple_and_reducible():
    (pi,) = class_decomposition(np.array([[0.75, 0.25], [0.25, 0.75]])).pis
    assert np.allclose(pi, [0.5, 0.5], atol=1e-14)
    decomp = class_decomposition(np.eye(2))
    assert len(decomp.classes) == 2
    assert [list(c) for c in decomp.classes] == [[0], [1]]
    assert all(np.allclose(p, [1.0]) for p in decomp.pis)


def test_stationary_matches_row_weighting():
    rng = np.random.default_rng(2)
    raw = rng.random((5, 5)) + 0.05
    matrix = raw / raw.sum(axis=1, keepdims=True)
    (pi,) = class_decomposition(matrix).pis
    assert np.allclose(pi @ matrix, pi, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_field_biased_chain_matches_enumeration_marginal():
    # independent spins in a field: stationary weight of up is the logistic
    beta, b = 1.0, 0.8
    chain = solve_stochastic(nn_ts(j=0.0, b=b, beta=beta))
    expected_up = np.exp(2 * beta * b) / (1.0 + np.exp(2 * beta * b))
    assert chain.pi[1] == pytest.approx(expected_up, abs=1e-12)


def test_class_decomposition_ground_state():
    beta = 1e3
    chain = solve_stochastic(build_transfer(nn_ising(NNParams(J=1.0, B=0.0, beta=beta)), beta))
    assert len(chain.classes) == 2
    assert chain.pi is None
    assert np.allclose(chain.class_weights, [0.5, 0.5], atol=1e-9)
    decomp = class_decomposition(chain.matrix)
    assert len(decomp.classes) == 2


def test_window_chain_identity_for_single_spin_blocks():
    chain = solve_stochastic(nn_ts())
    assert window_chain(chain) is chain


def test_window_chain_aggregates_to_block_chain():
    # the stationary comparison needs a healthy mixing gap: near the frozen
    # regime the stationary map amplifies float noise by the inverse gap
    rng = np.random.default_rng(10)
    for _ in range(8):
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(2))))
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(-1.5, 1.5),
                J2=rng.uniform(-1.5, 1.5),
                B=rng.uniform(-2, 2),
                beta=beta,
            )
        )
        chain = solve_stochastic(build_transfer(model, beta))
        windows = window_chain(chain)
        assert np.max(np.abs(windows.matrix @ windows.matrix - chain.matrix)) <= 1e-9
        assert np.max(np.abs(windows.pi - chain.pi)) <= 1e-7


def test_window_chain_moves_one_spin_at_a_time():
    model = nnn_ising(NNNParams(J1=0.8, J2=-0.3, B=0.2, beta=1.0))
    windows = window_chain(solve_stochastic(build_transfer(model, 1.0)))
    space = windows.space
    for w in range(space.size):
        allowed = {space.shift_append(w, s) for s in range(2)}
        support = set(np.flatnonzero(windows.matrix[w] > 0))
        assert support <= allowed
