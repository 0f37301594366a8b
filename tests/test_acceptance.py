"""Acceptance gate: every criterion below prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report. Tolerances and runtime budgets are fixed here, not calibrated.
"""

import time

import numpy as np
import pytest

from spinmech.analysis import analyze, evaluate_sweep_point, run_sweep, sweep_points
from spinmech.errors import BoundaryTieError, QuadraticSolveError
from spinmech.machine import block_machines, spin_machines
from spinmech.markov import solve_stochastic
from spinmech.models import (
    NNNParams,
    NNParams,
    PBRWParams,
    nn_ising,
    nnn_ground_state_phase,
    nnn_ising,
    pbrw_ising,
)
from spinmech.transfer import GROUND_STATE_BETA, build_transfer
from spinmech.validation import (
    entropy_error,
    enumeration_gaps,
    isolated_subchain_gap,
    literal_solver_gap,
    nn_closed_form_gaps,
)

FIG1_BETA = (1e-4, 1e2)
FIG1_J = (-1.5, 1.5)
FIG1_B = (-3.0, 3.0)


def _report(name: str, passed: bool, detail: str, elapsed: float, budget: float) -> None:
    verdict = "PASS" if passed and elapsed < budget else "FAIL"
    print(f"criterion {name}: {verdict} ({detail}) [{elapsed:.2f} s / budget {budget:.0f} s]")
    assert passed, f"criterion {name}: {detail}"
    assert elapsed < budget, f"criterion {name} exceeded budget: {elapsed:.2f} s"


def _draw_instance(rng, kind: str):
    beta = float(np.exp(rng.uniform(np.log(FIG1_BETA[0]), np.log(FIG1_BETA[1]))))
    if kind == "nn":
        model = nn_ising(
            NNParams(J=rng.uniform(*FIG1_J), B=rng.uniform(*FIG1_B), beta=beta)
        )
    else:
        model = nnn_ising(
            NNNParams(
                J1=rng.uniform(*FIG1_J),
                J2=rng.uniform(*FIG1_J),
                B=rng.uniform(*FIG1_B),
                beta=beta,
            )
        )
    return model, beta


def test_criterion_1_nn_closed_forms():
    start = time.perf_counter()
    worst_lc, worst_tr = nn_closed_form_gaps()
    elapsed = time.perf_counter() - start
    _report(
        "1 (NN closed forms)",
        worst_lc <= 1e-10 and worst_tr <= 1e-10,
        f"worst conditional {worst_lc:.2e}, worst transition {worst_tr:.2e}",
        elapsed,
        1.0,
    )


def test_criterion_2_inversion_certification():
    start = time.perf_counter()
    rng = np.random.default_rng(20_2025)
    worst_residual = 0.0
    worst_agreement = 0.0
    kept = 0
    excluded = 0
    attempts = 0
    while kept < 100 and attempts < 130:
        attempts += 1
        model, beta = _draw_instance(rng, "nn" if attempts % 2 else "nnn")
        ts = build_transfer(model, beta)
        chain = solve_stochastic(ts)  # certifies residual <= 1e-10 or raises
        worst_residual = max(worst_residual, chain.consistency_residual)
        try:
            gap = literal_solver_gap(ts, chain)
        except QuadraticSolveError as err:
            if "ambiguity" in str(err):
                # conditionals provably cannot pin the matrix in double
                # precision here (first-order coexistence); like grid
                # boundary points, such draws are excluded and replaced
                excluded += 1
                continue
            raise
        worst_agreement = max(worst_agreement, gap)
        kept += 1
    elapsed = time.perf_counter() - start
    _report(
        "2 (inversion certification)",
        kept == 100 and worst_residual <= 1e-10 and worst_agreement <= 1e-8,
        f"worst residual {worst_residual:.2e}, worst cross-method {worst_agreement:.2e}, "
        f"{excluded} non-identifiable draws excluded",
        elapsed,
        10.0,
    )


def test_criterion_3_enumeration_oracle():
    start = time.perf_counter()
    instances = [
        (nn_ising(NNParams(J=0.9, B=0.6, beta=1.1)), 1.1),
        (nn_ising(NNParams(J=-1.2, B=-0.4, beta=0.6)), 0.6),
        (nnn_ising(NNNParams(J1=0.8, J2=-0.5, B=0.7, beta=0.9)), 0.9),
        (nnn_ising(NNNParams(J1=-0.6, J2=0.4, B=-0.2, beta=1.4)), 1.4),
    ]
    worst_triple = 0.0
    worst_first = 0.0
    naive_gap = 0.0
    for model, beta in instances:
        ts = build_transfer(model, beta)
        triple, first = enumeration_gaps(ts, 6, (1, 2, 3, 4))
        worst_triple = max(worst_triple, triple)
        worst_first = max(worst_first, first)
        naive_gap = max(naive_gap, isolated_subchain_gap(ts))
    elapsed = time.perf_counter() - start
    _report(
        "3 (enumeration oracle)",
        worst_triple <= 1e-12 and worst_first <= 1e-12 and naive_gap > 1e-3,
        f"marginalization {worst_triple:.2e}, first block {worst_first:.2e}, "
        f"isolated-subchain shortcut off by {naive_gap:.2e}",
        elapsed,
        30.0,
    )


def test_criterion_4_information_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(40_2025)
    worst_aggregation = 0.0
    min_excess = np.inf
    worst_bound = -np.inf
    worst_trivial = 0.0
    checked = 0
    while checked < 50:
        model, beta = _draw_instance(rng, "nn" if checked % 2 else "nnn")
        chain = solve_stochastic(build_transfer(model, beta))
        if not chain.irreducible:
            continue
        n = model.blocks.n
        bset = block_machines(chain)
        sset = spin_machines(chain)
        machine = bset.machines[0]
        worst_aggregation = max(worst_aggregation, abs(machine.h_mu - n * sset.machines[0].h_mu))
        min_excess = min(min_excess, machine.e_mu)
        worst_bound = max(worst_bound, machine.c_mu - np.log2(machine.n_states))
        if machine.n_states == chain.size:
            worst_trivial = max(worst_trivial, abs(machine.e_mu - machine.e_paper))
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "4 (information identities)",
        worst_aggregation <= 1e-9
        and min_excess >= -1e-12
        and worst_bound <= 1e-12
        and worst_trivial <= 1e-9,
        f"|h - n h'| {worst_aggregation:.2e}, min E {min_excess:.2e}, "
        f"C bound slack {worst_bound:.2e}, trivial-partition gap {worst_trivial:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_5_nnn_ground_state_phases():
    start = time.perf_counter()
    beta = GROUND_STATE_BETA
    expected = {"P1": (1, 0.0), "P2": (1, 0.0), "P4": (2, 1.0)}
    # blocks occupied by each phase's cycle: the machine must sit exactly on
    # them (0 = down-down, 1 = down-up, 2 = up-down, 3 = up-up)
    expected_members = {
        "P1": {frozenset({0}), frozenset({3})},
        "P2": {frozenset({1}), frozenset({2})},
        "P4": {frozenset({0, 3}), frozenset({1, 2})},
    }
    grid = np.linspace(-2.0, 2.0, 41)
    failures = []
    checked = 0
    for j1 in grid:
        for j2 in grid:
            params = NNNParams(J1=float(j1), J2=float(j2), B=0.0, beta=beta)
            try:
                phase = nnn_ground_state_phase(params)
            except BoundaryTieError:
                continue
            chain = solve_stochastic(build_transfer(nnn_ising(params), beta))
            n_states, e_value = expected[phase]
            machines = block_machines(chain).machines
            members = {frozenset(int(b) for b in m.members) for m in machines}
            if members != expected_members[phase]:
                failures.append((float(j1), float(j2), phase))
            for machine in machines:
                if machine.n_states != n_states or abs(machine.e_mu - e_value) > 1e-9:
                    failures.append((float(j1), float(j2), phase))
            checked += 1
    # period-three ordering exists only in a field
    p3 = NNNParams(J1=-1.0, J2=-1.0, B=2.0, beta=beta)
    assert nnn_ground_state_phase(p3) == "P3"
    chain = solve_stochastic(build_transfer(nnn_ising(p3), beta))
    p3_machines = block_machines(chain).machines
    p3_ok = all(
        m.n_states == 3 and abs(m.e_mu - np.log2(3.0)) <= 1e-9 for m in p3_machines
    )
    elapsed = time.perf_counter() - start
    _report(
        "5 (NNN ground-state phases)",
        not failures and p3_ok and checked >= 1500,
        f"{checked} grid points checked, {len(failures)} mismatches, "
        f"period-3 field point {'ok' if p3_ok else 'wrong'}",
        elapsed,
        30.0,
    )


def test_criterion_6_pbrw_regimes():
    start = time.perf_counter()
    coin = analyze(pbrw_ising(PBRWParams(p=0.5, r=0.5)), 1.0)
    coin_ok = abs(coin.h_mu_spin - 1.0) <= 1e-9 and coin.n_states == 1
    persistent = analyze(pbrw_ising(PBRWParams(p=0.999, r=0.5)), 1.0)
    persistent_ok = persistent.h_mu_spin < 0.02
    values = np.arange(1, 22) / 22.0
    worst_symmetry = 0.0
    table = {}
    for p in values:
        for r in values:
            result = analyze(pbrw_ising(PBRWParams(p=float(p), r=float(r))), 1.0)
            table[(round(float(p), 9), round(float(r), 9))] = (
                result.h_mu_spin,
                result.e_spin,
                result.c_mu,
            )
    for p in values:
        for r in values:
            a = table[(round(float(p), 9), round(float(r), 9))]
            b = table[(round(float(p), 9), round(float(1.0 - r), 9))]
            worst_symmetry = max(worst_symmetry, max(abs(x - y) for x, y in zip(a, b)))
    elapsed = time.perf_counter() - start
    _report(
        "6 (PBRW regimes)",
        coin_ok and persistent_ok and worst_symmetry <= 1e-10,
        f"coin h' {coin.h_mu_spin:.12f}, persistent h' {persistent.h_mu_spin:.4f}, "
        f"mirror asymmetry {worst_symmetry:.2e}",
        elapsed,
        5.0,
    )


def test_criterion_7_monte_carlo_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(70_2025)
    checked = 0
    worst_abs = 0.0
    worst_sigma = 0.0
    while checked < 20:
        beta = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
        if checked % 2:
            model = nn_ising(
                NNParams(J=rng.uniform(-1.5, 1.5), B=rng.uniform(-1, 1), beta=beta)
            )
        else:
            model = nnn_ising(
                NNNParams(
                    J1=rng.uniform(-1.5, 1.5),
                    J2=rng.uniform(-1.5, 1.5),
                    B=rng.uniform(-1, 1),
                    beta=beta,
                )
            )
        chain = solve_stochastic(build_transfer(model, beta))
        if not chain.irreducible:
            continue
        n = model.blocks.n
        analytic = spin_machines(chain).h_mu
        if analytic < 0.05:
            # rare-event regime: no usable error bars from a finite sample
            continue
        n_spins = 10**6
        delta, estimate = entropy_error(chain, analytic, n_spins // n, int(rng.integers(2**32)))
        worst_abs = max(worst_abs, delta)
        worst_sigma = max(worst_sigma, delta / max(estimate.stderr, 1e-12) / 3.0)
        assert delta <= 0.01, (delta, analytic)
        assert delta <= 3.0 * estimate.stderr, (delta, estimate.stderr)
        checked += 1
    elapsed = time.perf_counter() - start
    _report(
        "7 (Monte Carlo consistency)",
        checked == 20,
        f"worst |error| {worst_abs:.2e}, worst error/3SE {worst_sigma:.2f}",
        elapsed,
        60.0,
    )


def test_criterion_8_nn_sweep_at_scale():
    start = time.perf_counter()
    config = {
        "model": {"preset": "nn"},
        "parameters": {},
        "sweep": {
            "mode": "random",
            "count": 100_000,
            "seed": 80_2025,
            "parameters": {
                "beta": {"low": FIG1_BETA[0], "high": FIG1_BETA[1], "scale": "log"},
                "J": {"low": FIG1_J[0], "high": FIG1_J[1]},
                "B": {"low": FIG1_B[0], "high": FIG1_B[1]},
            },
        },
    }
    names, rows = run_sweep(config, jobs=2)
    all_ok = all(row["status"] == "ok" for row in rows)
    e_values = np.array([row["E_mu"] for row in rows])
    c_values = np.array([row["C_mu"] for row in rows])
    h_values = np.array([row["h_mu"] for row in rows])
    residuals = np.array([row["max_residual"] for row in rows])
    envelope_ok = bool(
        np.all(e_values >= 0.0)
        and np.all(residuals <= 1e-10)
        and np.all(h_values <= 1.0 + 1e-12)
        and np.all(e_values <= c_values + 1e-12)
        and np.all(c_values <= 1.0 + 1e-12)
    )
    # determinism: the seeded parameter stream regenerates identically and a
    # recomputed slice reproduces the stored rows exactly
    _, values = sweep_points(config["sweep"])
    subset = np.random.default_rng(3).choice(len(rows), size=300, replace=False)
    replay_ok = True
    for index in subset:
        point = dict(zip(names, values[index]))
        row = evaluate_sweep_point(config["model"], {}, point)
        if row != rows[index]:
            replay_ok = False
            break
    elapsed = time.perf_counter() - start
    _report(
        "8 (sweep at scale)",
        all_ok and envelope_ok and replay_ok and len(rows) == 100_000,
        f"rows {len(rows)}, all ok {all_ok}, envelope {envelope_ok}, replay {replay_ok}",
        elapsed,
        60.0,
    )
