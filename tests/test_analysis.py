import json
import math

import numpy as np
import pytest

from spinmech.analysis import (
    analyze,
    apply_overrides,
    evaluate_sweep_point,
    format_csv,
    hamiltonian_from_config,
    metrics_document,
    resolve_beta,
    run_sweep,
    sweep_points,
)
from spinmech.errors import ConfigError
from spinmech.models import NNParams, nn_ising
from spinmech.transfer import GROUND_STATE_BETA

E2BJ3 = 0.5 * math.log(3.0)

NN_CONFIG = {
    "model": {"preset": "nn"},
    "parameters": {"beta": 1.0, "J": E2BJ3, "B": 0.0},
}


def test_analyze_point_values():
    result = analyze(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0)
    assert result.h_mu == pytest.approx(0.8112781244591328, abs=1e-10)
    assert result.c_mu == pytest.approx(1.0, abs=1e-12)
    assert result.e_mu == pytest.approx(0.18872187554086717, abs=1e-10)
    assert result.n_states == 2
    assert result.n_classes == 1
    assert result.max_residual <= 1e-10


def test_analyze_high_temperature_limit():
    # beta -> 0 realized at 1e-9: rows merge into one causal state
    result = analyze(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1e-9)), 1e-9)
    assert result.h_mu == pytest.approx(1.0, abs=1e-6)
    assert result.c_mu == pytest.approx(0.0, abs=1e-6)
    assert result.e_mu == pytest.approx(0.0, abs=1e-6)


def test_metrics_document_echoes_config():
    hamiltonian, beta = hamiltonian_from_config(NN_CONFIG["model"], NN_CONFIG["parameters"])
    result = analyze(hamiltonian, beta)
    doc = metrics_document(NN_CONFIG, result)
    assert doc["config"] == NN_CONFIG
    assert doc["units"] == "bits"
    assert doc["results"]["C_mu"] == pytest.approx(1.0)
    assert doc["results"]["n_states"] == 2
    assert doc["results"]["block_classes"][0]["excess_forms_agree"]
    json.dumps(doc)  # serializable end to end


def test_metrics_document_nats():
    hamiltonian, beta = hamiltonian_from_config(NN_CONFIG["model"], NN_CONFIG["parameters"])
    result = analyze(hamiltonian, beta)
    doc = metrics_document(NN_CONFIG, result, units="nats")
    assert doc["results"]["C_mu"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_resolve_beta_handles_ground_state():
    assert resolve_beta(2.5) == 2.5
    assert resolve_beta("inf") == GROUND_STATE_BETA
    assert resolve_beta(float("inf")) == GROUND_STATE_BETA
    for raw in ("cold", None, [1]):
        with pytest.raises(ConfigError):
            resolve_beta(raw)


def test_hamiltonian_from_config_presets():
    h, beta = hamiltonian_from_config({"preset": "nnn"}, {"beta": 2.0, "J1": 1.0, "J2": -0.5, "B": 0.1})
    assert h.blocks.n == 2 and beta == 2.0
    h, beta = hamiltonian_from_config({"preset": "pbrw"}, {"p": 0.75, "r": 0.5})
    assert beta == 1.0
    assert h.blocks.n == 1
    with pytest.raises(ConfigError):
        hamiltonian_from_config({"preset": "nn"}, {"beta": 1.0, "J": 1.0})
    with pytest.raises(ConfigError):
        hamiltonian_from_config({"preset": "what"}, {})
    with pytest.raises(ConfigError):
        hamiltonian_from_config({}, {})


def test_hamiltonian_from_config_custom():
    model = {"preset": "custom", "alphabet": [-1, 1], "range": 2}
    params = {"beta": 1.5, "field": 0.2, "couplings": {"product": [0.8, -0.3]}}
    h, beta = hamiltonian_from_config(model, params)
    assert beta == 1.5
    assert h.cross_block_energy(3, 3) == pytest.approx(-0.8 - 2 * -0.3)
    explicit = {
        "beta": 1.0,
        "field": 0.0,
        "couplings": [[[0.0, 0.5], [0.5, 0.0]]],
    }
    h, _ = hamiltonian_from_config({"preset": "custom", "range": 1}, explicit)
    assert h.couplings[0, 0, 1] == 0.5


def test_analyze_ternary_alphabet():
    # three spin values, range one: the machinery is alphabet-general
    model = {"preset": "custom", "alphabet": [-1.0, 0.0, 1.0], "range": 1}
    params = {"beta": 0.8, "field": 0.3, "couplings": {"product": [0.6]}}
    hamiltonian, beta = hamiltonian_from_config(model, params)
    result = analyze(hamiltonian, beta)
    assert result.chain.size == 3
    assert result.max_residual <= 1e-10
    assert 0.0 <= result.h_mu <= math.log2(3.0)
    assert result.e_mu >= 0.0
    assert result.h_mu == pytest.approx(result.h_mu_spin, abs=1e-12)


def test_analyze_range_three_chain():
    # eight 3-spin blocks; the window machine runs the refinement path
    model = {"preset": "custom", "alphabet": [-1.0, 1.0], "range": 3}
    params = {"beta": 0.7, "field": -0.2, "couplings": {"product": [0.8, -0.4, 0.2]}}
    hamiltonian, beta = hamiltonian_from_config(model, params)
    result = analyze(hamiltonian, beta)
    assert result.chain.size == 8
    assert result.max_residual <= 1e-10
    assert result.h_mu == pytest.approx(3.0 * result.h_mu_spin, abs=1e-9)
    assert result.c_mu == pytest.approx(result.c_mu_spin, abs=1e-9)
    assert result.e_mu >= 0.0


def test_analyze_beta_zero_exactly():
    result = analyze(nn_ising(NNParams(J=1.0, B=0.7, beta=0.0)), 0.0)
    assert result.c_mu == pytest.approx(0.0, abs=1e-12)
    assert result.h_mu == pytest.approx(1.0, abs=1e-12)
    assert result.n_states == 1


def test_apply_overrides():
    cfg = apply_overrides(NN_CONFIG, ["parameters.J=0.5", "output.units=nats"])
    assert cfg["parameters"]["J"] == 0.5
    assert cfg["output"]["units"] == "nats"
    assert NN_CONFIG["parameters"]["J"] == E2BJ3  # original untouched
    with pytest.raises(ConfigError):
        apply_overrides(NN_CONFIG, ["nonsense"])


def test_sweep_points_grid_ordering():
    names, values = sweep_points(
        {
            "mode": "grid",
            "parameters": {
                "J": {"low": 0.0, "high": 1.0, "count": 3},
                "B": {"low": -1.0, "high": 1.0, "count": 2},
            },
        }
    )
    assert names == ["J", "B"]
    assert values.shape == (6, 2)
    # last parameter varies fastest
    assert np.allclose(values[0], [0.0, -1.0])
    assert np.allclose(values[1], [0.0, 1.0])
    assert np.allclose(values[-1], [1.0, 1.0])


def test_sweep_points_random_deterministic():
    spec = {
        "mode": "random",
        "count": 50,
        "seed": 9,
        "parameters": {
            "beta": {"low": 1e-4, "high": 1e2, "scale": "log"},
            "J": {"low": -1.5, "high": 1.5},
        },
    }
    names, first = sweep_points(spec)
    _, second = sweep_points(spec)
    assert np.array_equal(first, second)
    assert first.shape == (50, 2)
    assert np.all(first[:, 0] >= 1e-4) and np.all(first[:, 0] <= 1e2)


def test_sweep_points_validation():
    with pytest.raises(ConfigError):
        sweep_points({"mode": "random", "count": 5, "parameters": {"J": {"low": 0, "high": 1}}})
    with pytest.raises(ConfigError):
        sweep_points({"mode": "grid", "parameters": {"J": {"low": 0, "high": 1}}})
    with pytest.raises(ConfigError):
        sweep_points({"parameters": {}})
    # malformed values are config errors too
    interval = {"low": 0, "high": 1}
    for sweep in [
        {"mode": "random", "count": "x", "seed": 1, "parameters": {"J": interval}},
        {"mode": "random", "count": 2.5, "seed": 1, "parameters": {"J": interval}},
        {"mode": "random", "count": 5, "seed": "s", "parameters": {"J": interval}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": {"high": 1}}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": {"low": "a", "high": 1}}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": 0.5}},
        {"mode": "grid", "parameters": {"J": {"low": 0, "high": 1, "count": "x"}}},
        {"mode": "grid", "parameters": {"J": {"high": 1, "count": 3}}},
    ]:
        with pytest.raises(ConfigError):
            sweep_points(sweep)
    sweep = {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": interval}}
    with pytest.raises(ConfigError):
        run_sweep({"model": {"preset": "nn"}, "parameters": [1], "sweep": sweep}, jobs=1)


def test_evaluate_sweep_point_records_errors():
    row = evaluate_sweep_point({"preset": "pbrw"}, {}, {"p": 1.0, "r": 0.5})
    assert row["status"] == "limit_parameter_error"
    assert math.isnan(row["C_mu"])
    # a malformed base parameter fails its rows, not the whole sweep
    row = evaluate_sweep_point({"preset": "nn"}, {"B": "abc"}, {"beta": 1.0, "J": 0.5})
    assert row["status"] == "config_error"
    assert math.isnan(row["C_mu"])


def test_run_sweep_smoke_and_determinism():
    config = {
        "model": {"preset": "nn"},
        "parameters": {},
        "sweep": {
            "mode": "random",
            "count": 10,
            "seed": 4,
            "parameters": {
                "beta": {"low": 0.01, "high": 10.0, "scale": "log"},
                "J": {"low": -1.5, "high": 1.5},
                "B": {"low": -3.0, "high": 3.0},
            },
        },
    }
    names, rows = run_sweep(config, jobs=1)
    assert len(rows) == 10
    assert all(row["status"] == "ok" for row in rows)
    csv_serial = format_csv(names, rows)
    names2, rows2 = run_sweep(config, jobs=2)
    csv_parallel = format_csv(names2, rows2)
    assert csv_serial == csv_parallel
    header = csv_serial.splitlines()[0].split(",")
    assert header[:4] == ["index", "beta", "J", "B"]
    assert header[4:] == [
        "log_lambda0",
        "C_mu",
        "h_mu",
        "E_mu",
        "E_paper",
        "C_mu_spin",
        "h_mu_spin",
        "E_spin",
        "n_states",
        "n_classes",
        "max_residual",
        "status",
    ]


def test_format_csv_nats_scaling():
    row = {
        "J": 1.0,
        "log_lambda0": 0.5,
        "C_mu": 1.0,
        "h_mu": 1.0,
        "E_mu": 0.0,
        "E_paper": 0.0,
        "C_mu_spin": 1.0,
        "h_mu_spin": 1.0,
        "E_spin": 0.0,
        "n_states": 2,
        "n_classes": 1,
        "max_residual": 1e-16,
        "status": "ok",
    }
    text = format_csv(["J"], [row], units="nats")
    cells = text.splitlines()[1].split(",")
    assert float(cells[3]) == pytest.approx(math.log(2.0))  # C_mu scaled
    assert float(cells[2]) == 0.5  # log_lambda0 untouched
