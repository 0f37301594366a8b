"""Exact symmetries of the spin process, measured on seeded product chains.

Padding a range-n model with zero couplings to range m describes the same
spin process, and so does flipping the field with every spin; the
spin-machine measures must not move under either. Padding sets J_m = 0,
where block rows coincide exactly and the causal-state grouping merges
them, so these draws also run the full row-distance kernel behind
``machine._close_groups``' screen.
"""

import numpy as np
import pytest

from spinmech import machine
from spinmech.analysis import analyze
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace

DRAWS = 24
MAX_RANGE = 6
# seed 13 gives the largest padding residual of seeds 0-15 (1.5e-11)
SEED = 13
PADDING_TOL = 1e-10
FLIP_TOL = 1e-12


def _draws():
    """(n, couplings, field, beta): ranges 1-3 in turn, J_d in U[-1.5, 1.5],
    field in U[-3, 3], beta log-uniform in [1e-2, 5]."""
    rng = np.random.default_rng(SEED)
    for k in range(DRAWS):
        n = 1 + k % 3
        couplings = -1.5 + 3.0 * rng.random(n)
        field = -3.0 + 6.0 * rng.random()
        beta = float(np.exp(rng.uniform(np.log(1e-2), np.log(5.0))))
        yield n, couplings, field, beta


def _spin_measures(n, field, couplings, beta):
    result = analyze(Hamiltonian.pair_product(BlockSpace(BINARY, n), field, couplings), beta)
    return np.array([result.c_mu_spin, result.h_mu_spin, result.e_spin])


@pytest.fixture
def full_kernel_points(monkeypatch):
    entered = []
    kernel = machine._linked_groups

    def spy(emission, labels, tol):
        entered.append(len(emission))
        return kernel(emission, labels, tol)

    monkeypatch.setattr(machine, "_linked_groups", spy)
    return entered


def test_zero_coupling_padding_keeps_the_spin_measures(full_kernel_points):
    pairs, worst = 0, 0.0
    for n, couplings, field, beta in _draws():
        base = _spin_measures(n, field, couplings, beta)
        for m in range(n + 1, MAX_RANGE + 1):
            padded_couplings = np.concatenate([couplings, np.zeros(m - n)])
            padded = _spin_measures(m, field, padded_couplings, beta)
            worst = max(worst, float(np.abs(padded - base).max()))
            pairs += 1
    assert pairs == 8 * (5 + 4 + 3)
    assert worst <= PADDING_TOL
    assert sum(full_kernel_points) > 0


def test_field_flip_keeps_the_spin_measures():
    worst = 0.0
    for n, couplings, field, beta in _draws():
        flipped = _spin_measures(n, -field, couplings, beta)
        worst = max(worst, float(np.abs(flipped - _spin_measures(n, field, couplings, beta)).max()))
    assert worst <= FLIP_TOL
