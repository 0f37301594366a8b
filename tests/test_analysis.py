import dataclasses
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

import spinmech
from spinmech import analysis, markov, transfer
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
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace, SpinAlphabet
from spinmech.machine import block_machines, spin_machines
from spinmech.models import NNParams, nn_ising
from spinmech.transfer import GROUND_STATE_BETA

E2BJ3 = 0.5 * math.log(3.0)

NN_CONFIG = {
    "model": {"preset": "nn"},
    "parameters": {"beta": 1.0, "J": E2BJ3, "B": 0.0},
}

NN_SWEEP = {
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


def _assert_same_fields(got, want):
    """Dataclass fields equal bit for bit, arrays by dtype, shape and bytes."""
    assert type(got) is type(want)
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if dataclasses.is_dataclass(b):
            _assert_same_fields(a, b)
        elif isinstance(b, tuple) and b and dataclasses.is_dataclass(b[0]):
            assert len(a) == len(b)
            for x, y in zip(a, b):
                _assert_same_fields(x, y)
        elif isinstance(b, (np.ndarray, float)):
            a, b = np.asarray(a), np.asarray(b)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), field.name
        else:
            assert a == b, field.name


# (alphabet, field, product couplings, beta): at beta = inf the block
# chains of the range-1 ferromagnet and of the range-2 J1 = 1, J2 = -1
# chain have two classes, and the range-3 chain has transient blocks
SAME_MACHINE_POINTS = [
    pytest.param(BINARY, 0.2, [0.3], 1.0, id="range1"),
    pytest.param(BINARY, 0.0, [1.0], GROUND_STATE_BETA, id="range1-ferro-inf"),
    pytest.param(BINARY, 0.5, [-1.0], GROUND_STATE_BETA, id="range1-antiferro-inf"),
    pytest.param(SpinAlphabet((-1.0, 0.0, 1.0)), 0.3, [0.6], 0.8, id="range1-ternary"),
    pytest.param(BINARY, 0.1, [0.5, 0.3], 1.0, id="range2"),
    pytest.param(BINARY, 0.0, [1.0, -1.0], GROUND_STATE_BETA, id="range2-inf"),
    pytest.param(BINARY, -0.2, [0.8, -0.4, 0.2], 0.7, id="range3"),
    pytest.param(BINARY, 0.3, [0.9, -1.1, 1.0], GROUND_STATE_BETA, id="range3-inf"),
]


@pytest.mark.parametrize("alphabet, field, couplings, beta", SAME_MACHINE_POINTS)
def test_analyze_gives_the_machines_of_its_chain(alphabet, field, couplings, beta):
    space = BlockSpace(alphabet, len(couplings))
    result = analyze(Hamiltonian.pair_product(space, field, couplings), beta)
    _assert_same_fields(result.block, block_machines(result.chain))
    _assert_same_fields(result.spin, spin_machines(result.chain))
    assert result.spin.kind == "spin"
    for machine in result.spin.machines:
        assert machine.kind == "spin"
        assert machine.symbols == tuple(range(alphabet.size))
    if beta == GROUND_STATE_BETA and field == 0.0:
        assert result.block.n_classes == 2
    if len(couplings) == 3 and beta == GROUND_STATE_BETA:
        assert result.chain.transients.size > 0


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
        # JSON booleans are not numbers
        {"mode": "random", "count": True, "seed": 1, "parameters": {"J": interval}},
        {"mode": "random", "count": 5, "seed": False, "parameters": {"J": interval}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": {"low": False, "high": 1}}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": {"J": {"low": 0, "high": True}}},
        {"mode": "grid", "parameters": {"J": {"low": 0, "high": 1, "count": True}}},
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
    config = NN_SWEEP
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


def _row_signature(row: dict) -> list:
    return [(k, v.hex() if isinstance(v, float) else v) for k, v in row.items()]


def _result_metrics(result) -> dict:
    return {
        "log_lambda0": result.log_lambda0,
        "C_mu": result.c_mu,
        "h_mu": result.h_mu,
        "E_mu": result.e_mu,
        "E_paper": result.e_paper,
        "C_mu_spin": result.c_mu_spin,
        "h_mu_spin": result.h_mu_spin,
        "E_spin": result.e_spin,
        "n_states": result.n_states,
        "n_classes": result.n_classes,
        "max_residual": result.max_residual,
    }


def _grid(**axes) -> dict:
    return {
        "mode": "grid",
        "parameters": {k: {"low": lo, "high": hi, "count": n} for k, (lo, hi, n) in axes.items()},
    }


def test_sweep_rows_do_not_depend_on_chunks_or_jobs(monkeypatch):
    # every sweep crosses chunk boundaries, and many more with chunks of 7,
    # so rows sit at every position of a chunk; error rows are mixed in
    longer = 2 * analysis.CHUNK_SIZE + 37
    fig1 = {
        "beta": {"low": 1e-4, "high": 1e2, "scale": "log"},
        "J": {"low": -1.5, "high": 1.5},
        "B": {"low": -3.0, "high": 3.0},
    }
    fig1_nnn = {
        "beta": fig1["beta"],
        "J1": fig1["J"],
        "J2": fig1["J"],
        "B": fig1["B"],
    }
    # 32-block chains: a stack holds _STACK_ENTRIES // 32**2 of them, since
    # the O(S^3) kernels walk it in row blocks
    wide_sweep = (
        {"preset": "custom", "range": 5},
        {"couplings": {"product": [0.7, -0.4, 0.3, 0.2, -0.1]}},
        {
            "mode": "random",
            "count": analysis.CHUNK_SIZE + 10,
            "seed": 5,
            "parameters": {
                "beta": {"low": 1e-2, "high": 5.0, "scale": "log"},
                "field": {"low": -3.0, "high": 3.0},
            },
        },
    )
    configs = [
        # Fig-1 NN points
        ({"preset": "nn"}, {}, {"mode": "random", "count": longer, "seed": 7, "parameters": fig1}),
        # NN ground states, with coexisting phases at J = 0 and B = 0
        ({"preset": "nn"}, {"beta": "inf"}, _grid(J=(-1.5, 1.5, 23), B=(-3.0, 3.0, 25))),
        # NNN ground states at zero field: two- and four-phase coexistence
        (
            {"preset": "nnn"},
            {"beta": "inf", "B": 0.0},
            _grid(J1=(-2.0, 2.0, 23), J2=(-2.0, 2.0, 23)),
        ),
        # the walker's edges are limit_parameter_error rows
        ({"preset": "pbrw"}, {}, _grid(r=(0.0, 1.0, 23), p=(0.0, 1.0, 23))),
        # eight-block chains, evaluated in stacks shorter than a chunk
        (
            {"preset": "custom", "range": 3},
            {"field": 0.3, "couplings": {"product": [0.8, -0.4, 0.2]}},
            {
                "mode": "random",
                "count": analysis.CHUNK_SIZE + 10,
                "seed": 3,
                "parameters": {"beta": {"low": 1e-2, "high": 5.0, "scale": "log"}},
            },
        ),
        wide_sweep,
        # the last two refine several Perron vectors per stack, some of
        # them by squaring: Fig-1 NNN points, and NNN ground states in a field
        (
            {"preset": "nnn"},
            {},
            {"mode": "random", "count": longer, "seed": 1, "parameters": fig1_nnn},
        ),
        (
            {"preset": "nnn"},
            {"beta": "inf", "B": 0.5},
            _grid(J1=(-2.0, 2.0, 23), J2=(-2.0, 2.0, 23)),
        ),
    ]
    statuses, class_counts, refined, stacked = set(), set(), [], []
    refine = transfer._log_refine
    evaluate = analysis.evaluate_stack

    def recording_refine(log_v, log_x):
        refined[-1] = max(refined[-1], len(log_x))
        return refine(log_v, log_x)

    def recording_stack(space, x, y, betas, errors):
        stacked[-1] = max(stacked[-1], len(betas))
        return evaluate(space, x, y, betas, errors)

    for model, base, sweep in configs:
        config = {"model": model, "parameters": base, "sweep": sweep}
        refined.append(0)
        stacked.append(0)
        with monkeypatch.context() as patch:
            patch.setattr(transfer, "_log_refine", recording_refine)
            patch.setattr(analysis, "evaluate_stack", recording_stack)
            names, serial = run_sweep(config, jobs=1)
        assert len(serial) > analysis.CHUNK_SIZE
        expected = [_row_signature(row) for row in serial]
        _, parallel = run_sweep(config, jobs=2)
        assert [_row_signature(row) for row in parallel] == expected
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "CHUNK_SIZE", 7)
            _, small_chunks = run_sweep(config, jobs=1)
        assert [_row_signature(row) for row in small_chunks] == expected
        _, values = sweep_points(sweep)
        for index, (point, row) in enumerate(zip(values.tolist(), expected)):
            single = evaluate_sweep_point(model, base, dict(zip(names, point)))
            assert _row_signature(single) == row
            if index % 16 == 0 and single["status"] == "ok":
                result = analyze(*hamiltonian_from_config(model, {**base, **single}))
                metrics = _result_metrics(result)
                assert _row_signature(metrics) == _row_signature({k: single[k] for k in metrics})
        statuses.update(row["status"] for row in serial)
        class_counts.update(row["n_classes"] for row in serial)
    assert {"ok", "limit_parameter_error"} <= statuses
    assert {1, 2, 4} <= class_counts
    assert min(refined[-2:]) >= 2
    assert stacked[configs.index(wide_sweep)] == analysis._STACK_ENTRIES // 32**2 > 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts nothing."""

    started: list = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_run_sweep_starts_at_most_one_worker_per_chunk(monkeypatch):
    monkeypatch.setattr(analysis, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "started", [])
    interval = {"low": 0.1, "high": 1.0}

    def sweep(count: int) -> dict:
        return {
            "model": {"preset": "nn"},
            "parameters": {"B": 0.2, "J": 0.5},
            "sweep": {
                "mode": "random",
                "count": count,
                "seed": 1,
                "parameters": {"beta": interval},
            },
        }

    _, rows = run_sweep(sweep(100), jobs=64)  # one chunk: no pool at all
    assert len(rows) == 100 and _RecordingPool.started == []
    _, rows = run_sweep(sweep(2 * analysis.CHUNK_SIZE + 1), jobs=64)
    assert len(rows) == 2 * analysis.CHUNK_SIZE + 1 and _RecordingPool.started == [3]
    run_sweep(sweep(4 * analysis.CHUNK_SIZE), jobs=2)
    assert _RecordingPool.started == [3, 2]
    for jobs in (0, -2):
        with pytest.raises(ConfigError):
            run_sweep(sweep(10), jobs=jobs)


def test_benchmark_tracer_installs_on_the_pipeline():
    # bench/tracing.py wraps these names where they are; a rename would
    # break the benchmark's traced runs
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wrapped = [
        (analysis, "build_transfer"),
        (analysis, "solve_stochastic"),
        (analysis, "block_machines"),
        (analysis, "spin_machines"),
        (analysis, "analyze"),
        (analysis, "run_sweep"),
        (markov, "local_characteristics"),
        (markov, "consistency_residual"),
        (markov, "class_decomposition"),
        (Hamiltonian, "intra_energies"),
        (Hamiltonian, "cross_energies"),
    ]
    originals = [owner.__dict__[attr] for owner, attr in wrapped]
    tracer = tracing.Tracer()
    tracer.install(spinmech)
    try:
        assert all(owner.__dict__[attr] is not o for (owner, attr), o in zip(wrapped, originals))
        names, rows = analysis.run_sweep(NN_SWEEP, jobs=1)
        result = spinmech.analyze(nn_ising(NNParams(J=E2BJ3, B=0.0, beta=1.0)), 1.0)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is o for (owner, attr), o in zip(wrapped, originals))
    assert spinmech.analyze is analysis.analyze
    assert all(row["status"] == "ok" for row in rows)
    assert result.c_mu == pytest.approx(1.0, abs=1e-12)
    (point,) = tracer.points
    assert {"analysis.analyze", "hamiltonian.tables"} <= point.keys()
    assert tracer.outside["analysis.sweep"]
