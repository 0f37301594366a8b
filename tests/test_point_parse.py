"""The per-point parameter parse that a sweep chunk once ran, kept as a
reference: ``_point_terms`` read one point's (beta, field, coupling table)
from the base parameters updated by that point's swept values, and the
chunk stacked the terms point by point. The column-wise parse
(``analysis.point_terms``) must give the same rows, float for float, key
for key and status for status, and the same CSV, whatever the chunk size,
the stack size or the number of processes."""

import math

import numpy as np
import pytest

from spinmech import analysis
from spinmech.analysis import (
    _check_model,
    _failed_row,
    _float_list,
    _model_space,
    _number,
    evaluate_chunk,
    evaluate_stack,
    format_csv,
    point_terms,
    resolve_beta,
    run_sweep,
    sweep_points,
)
from spinmech.errors import ConfigError, NumericDomainError, SpinmechError, record_failures
from spinmech.hamiltonian import (
    check_couplings,
    cross_energy_stack,
    finite_models,
    intra_energy_stack,
    product_couplings,
)
from spinmech.info import _STACK_ENTRIES
from spinmech.models import PBRWParams, pbrw_couplings

# ----------------------------------------------------------------------
# reference: the parse as it ran before, one point at a time
# ----------------------------------------------------------------------


def _reference_point_terms(preset, space, parameters):
    try:
        if preset == "nn":
            beta = resolve_beta(parameters["beta"])
            j, b = _number(parameters["J"], "J"), _number(parameters["B"], "B")
            return beta, b, _reference_product(space, [j])
        if preset == "nnn":
            beta = resolve_beta(parameters["beta"])
            j1, j2 = _number(parameters["J1"], "J1"), _number(parameters["J2"], "J2")
            return beta, _number(parameters["B"], "B"), _reference_product(space, [j1, j2])
        if preset == "pbrw":
            nn = pbrw_couplings(
                PBRWParams(p=_number(parameters["p"], "p"), r=_number(parameters["r"], "r"))
            )
            return nn.beta, nn.B, _reference_product(space, [nn.J])
        beta = resolve_beta(parameters["beta"])
    except KeyError as exc:
        raise ConfigError(f"preset {preset!r} needs parameter {exc.args[0]!r}") from exc
    field = _number(parameters.get("field", 0.0), "field")
    couplings = parameters.get("couplings")
    if couplings is None:
        raise ConfigError("custom model needs parameters.couplings")
    if isinstance(couplings, dict) and "product" in couplings:
        j_by_distance = _number(couplings["product"], "couplings.product", _float_list)
        return beta, field, _reference_product(space, j_by_distance)
    return beta, field, check_couplings(space, _number(couplings, "couplings", _float_list))


def _reference_product(space, j_by_distance):
    return product_couplings(space, np.array([j_by_distance], dtype=float))[0]


def _reference_chunk(model, base_parameters, names, values):
    rows = [{name: float(v) for name, v in zip(names, point)} for point in values]
    errors = [None] * len(rows)
    try:
        _check_model(model)
        space = _model_space(model)
    except SpinmechError as exc:
        return [_failed_row(row, exc) for row in rows]

    theta = space.alphabet.size
    neutral = (0.0, 0.0, np.zeros((space.n, theta, theta)))
    terms = []
    for p, row in enumerate(rows):
        parameters = dict(base_parameters)
        parameters.update(row)
        try:
            terms.append(_reference_point_terms(model["preset"], space, parameters))
        except SpinmechError as exc:
            errors[p] = exc
            terms.append(neutral)
    betas = np.array([t[0] for t in terms])
    fields = np.array([t[1] for t in terms])
    couplings = np.stack([t[2] for t in terms])
    finite = finite_models(fields, couplings)
    record_failures(
        errors, ~finite, lambda p: NumericDomainError("couplings and field must be finite")
    )
    fields[~finite] = 0.0
    couplings[~finite] = 0.0
    x = intra_energy_stack(space, fields, couplings)
    y = cross_energy_stack(space, couplings)
    step = max(1, _STACK_ENTRIES // space.size**2)
    for lo in range(0, len(rows), step):
        hi = lo + step
        stack_errors = errors[lo:hi]
        stack = evaluate_stack(space, x[lo:hi], y[lo:hi], betas[lo:hi], stack_errors)
        errors[lo:hi] = stack_errors
        columns = stack.metric_columns()
        for k, row in enumerate(rows[lo:hi]):
            for name, column in columns.items():
                row[name] = column[k]
            row["status"] = "ok"
    return [row if exc is None else _failed_row(row, exc) for row, exc in zip(rows, errors)]


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------


def _signature(rows):
    return [[(k, v.hex() if isinstance(v, float) else v) for k, v in row.items()] for row in rows]


def _grid(**axes):
    return {
        "mode": "grid",
        "parameters": {k: {"low": lo, "high": hi, "count": n} for k, (lo, hi, n) in axes.items()},
    }


FIG1 = {
    "beta": {"low": 1e-4, "high": 1e2, "scale": "log"},
    "J": {"low": -1.5, "high": 1.5},
    "B": {"low": -3.0, "high": 3.0},
}
FIG1_NNN = {"beta": FIG1["beta"], "J1": FIG1["J"], "J2": FIG1["J"], "B": FIG1["B"]}
UNIT = {"low": 0.0, "high": 1.0}
BETAS = {"beta": {"low": 1e-2, "high": 5.0, "scale": "log"}}
TERNARY_TABLE = [[[0.4, -0.2, 0.1], [-0.2, 0.0, 0.3], [0.1, 0.3, -0.5]]]

SWEEPS = {
    # more points than a chunk of 256, so two processes share them
    "nn Fig-1": (
        {"preset": "nn"},
        {},
        {"mode": "random", "count": 300, "seed": 11, "parameters": FIG1},
    ),
    "nn ground states": (
        {"preset": "nn"},
        {"beta": "inf"},
        _grid(J=(-1.5, 1.5, 7), B=(-3.0, 3.0, 7)),
    ),
    "nnn Fig-1": (
        {"preset": "nnn"},
        {},
        {"mode": "random", "count": 60, "seed": 3, "parameters": FIG1_NNN},
    ),
    # p = 1.0, r = 0.0 and r = 1.0 are limit_parameter_error rows
    "pbrw edges": ({"preset": "pbrw"}, {}, _grid(r=(0.0, 1.0, 6), p=(0.0, 1.0, 6))),
    "pbrw base r": ({"preset": "pbrw"}, {"r": 0.3}, _grid(p=(0.05, 1.0, 20))),
    # on two of these walks np.log differs from math.log in the last bit
    "pbrw random": (
        {"preset": "pbrw"},
        {},
        {"mode": "random", "count": 300, "seed": 2, "parameters": {"p": UNIT, "r": UNIT}},
    ),
    "custom product": (
        {"preset": "custom", "range": 3},
        {"field": 0.3, "couplings": {"product": [0.8, -0.4, 0.2]}},
        {"mode": "random", "count": 20, "seed": 5, "parameters": BETAS},
    ),
    "custom explicit": (
        {"preset": "custom", "range": 1},
        {"couplings": [[[0.0, 0.5], [0.5, 0.0]]]},
        {"mode": "random", "count": 20, "seed": 6, "parameters": {**BETAS, "field": FIG1["B"]}},
    ),
    "ternary": (
        {"preset": "custom", "alphabet": [-1.0, 0.0, 1.0], "range": 1},
        {"couplings": TERNARY_TABLE},
        {"mode": "random", "count": 20, "seed": 7, "parameters": {**BETAS, "field": FIG1["B"]}},
    ),
    # base-parameter faults: every row carries the first one
    "missing name": ({"preset": "nn"}, {}, _grid(beta=(0.1, 1.0, 3), J=(0.0, 1.0, 3))),
    "abc": (
        {"preset": "nnn"},
        {"J2": "abc", "B": True},
        _grid(beta=(0.1, 1.0, 3), J1=(0.0, 1.0, 3)),
    ),
    "bool": ({"preset": "nn"}, {"B": True}, _grid(beta=(0.1, 1.0, 3), J=(0.0, 1.0, 3))),
    "inf coupling": ({"preset": "nn"}, {"J": "inf"}, _grid(beta=(0.1, 1.0, 3), B=(0.0, 1.0, 3))),
    "bogus beta": ({"preset": "nn"}, {"beta": "bogus", "J": "abc"}, _grid(B=(0.0, 1.0, 3))),
    # swept values override the bad base values
    "swept over a bad base": (
        {"preset": "nn"},
        {"beta": "bogus", "J": "abc"},
        _grid(beta=(0.1, 1.0, 3), J=(0.0, 1.0, 3), B=(0.0, 1.0, 2)),
    ),
    "pbrw abc": ({"preset": "pbrw"}, {"r": "abc"}, _grid(p=(0.0, 1.0, 4))),
    # a malformed base value is found before an out-of-range walk or table
    "pbrw limit and abc": ({"preset": "pbrw"}, {"p": 1.0, "r": "abc"}, _grid(beta=(0.1, 1.0, 3))),
    "custom field abc": (
        {"preset": "custom", "range": 1},
        {"field": "abc", "couplings": [[[0.0, 0.5], [0.4, 0.0]]]},
        {"mode": "random", "count": 5, "seed": 1, "parameters": BETAS},
    ),
    "no couplings": (
        {"preset": "custom", "range": 2},
        {"field": 0.1},
        {"mode": "random", "count": 5, "seed": 1, "parameters": BETAS},
    ),
    "short product": (
        {"preset": "custom", "range": 2},
        {"couplings": {"product": [0.5]}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": BETAS},
    ),
    "nested product": (
        {"preset": "custom", "range": 2},
        {"couplings": {"product": [[0.5], [0.2]]}},
        {"mode": "random", "count": 5, "seed": 1, "parameters": BETAS},
    ),
    "asymmetric table": (
        {"preset": "custom", "range": 1},
        {"couplings": [[[0.0, 0.5], [0.4, 0.0]]]},
        {"mode": "random", "count": 5, "seed": 1, "parameters": BETAS},
    ),
    "bad model": ({"preset": "what"}, {}, _grid(beta=(0.1, 1.0, 3))),
}


@pytest.mark.parametrize("label", list(SWEEPS))
def test_column_parse_gives_the_rows_of_the_point_parse(label, monkeypatch):
    model, base, sweep = SWEEPS[label]
    config = {"model": model, "parameters": base, "sweep": sweep}
    names, values = sweep_points(sweep)
    expected = _reference_chunk(model, base, names, values.tolist())
    signature = _signature(expected)
    csv = {units: format_csv(names, expected, units) for units in ("bits", "nats")}
    try:
        blocks = _model_space(model).size
    except ConfigError:  # a bad model: every row is its config_error
        blocks = 1
    # chunks cut a sweep across processes, stacks within one
    for size in (1, 7, 256):
        for jobs in (1, 2):
            with monkeypatch.context() as patch:
                patch.setattr(analysis, "CHUNK_SIZE", size)
                patch.setattr(analysis, "_STACK_ENTRIES", size * blocks**2)
                _, rows = run_sweep(config, jobs=jobs)
            assert _signature(rows) == signature, (size, jobs)
            for units, text in csv.items():
                assert format_csv(names, rows, units) == text
    statuses = {row["status"] for row in expected}
    if label in (
        "missing name", "abc", "bool", "bogus beta", "pbrw abc",
        "pbrw limit and abc", "custom field abc", "no couplings", "bad model",
    ):
        assert statuses == {"config_error"}
    elif label in ("inf coupling", "short product", "nested product", "asymmetric table"):
        assert statuses == {"numeric_domain_error"}
    elif label in ("pbrw edges", "pbrw base r"):
        assert statuses == {"ok", "limit_parameter_error"}
    else:
        assert statuses == {"ok"}


NAN, INF = math.nan, math.inf
# swept values the sweep grids never produce: infinities and NaN in every column
ODD_POINTS = {
    "nn": (
        {"preset": "nn"},
        {},
        ["beta", "J", "B"],
        [[INF, 0.5, 0.1], [-INF, 0.5, 0.1], [NAN, 0.5, 0.1], [1.0, INF, 0.1], [1.0, -INF, 0.1],
         [1.0, NAN, 0.1], [1.0, 0.5, INF], [1.0, 0.5, -INF], [1.0, 0.5, NAN], [1.0, 0.5, 0.1],
         [0.0, 0.5, 0.1], [-1.0, 0.5, 0.1]],
    ),
    "nnn": (
        {"preset": "nnn"},
        {"B": 0.2},
        ["J2", "beta", "J1"],
        [[0.3, INF, -0.4], [0.3, 2.0, NAN], [INF, 2.0, -0.4], [0.3, 2.0, -0.4], [-INF, -INF, NAN]],
    ),
    "pbrw": (
        {"preset": "pbrw"},
        {},
        ["p", "r"],
        [[NAN, 0.5], [0.5, NAN], [INF, 0.5], [0.5, -INF], [1.0, 0.5], [0.0, 0.5], [0.75, 0.5],
         [1.0 - 2.0**-53, 0.5], [2.0**-1074, 0.5], [0.3, 0.9]],
    ),
    "custom": (
        {"preset": "custom", "range": 2},
        {"couplings": {"product": [0.8, -0.3]}},
        ["field", "beta"],
        [[INF, 1.0], [NAN, 1.0], [0.1, INF], [0.1, -INF], [0.1, NAN], [-0.2, 1.5]],
    ),
    "no swept name": ({"preset": "nn"}, {"beta": "inf", "J": 0.5, "B": 0.0}, [], [[], []]),
}


@pytest.mark.parametrize("label", list(ODD_POINTS))
def test_column_parse_of_infinite_and_nan_points(label):
    model, base, names, values = ODD_POINTS[label]
    expected = _signature(_reference_chunk(model, base, names, values))
    assert _signature(evaluate_chunk(model, base, names, values)) == expected
    for size in (1, 7):
        rows = []
        for lo in range(0, len(values), size):
            rows += evaluate_chunk(model, base, names, np.array(values[lo : lo + size]))
        assert _signature(rows) == expected
    assert "ok" in {row[-1][1] for row in expected}


def _cases():
    for label, (model, base, sweep) in SWEEPS.items():
        names, values = sweep_points(sweep)
        yield pytest.param(model, base, names, values.tolist(), id=label)
    for label, case in ODD_POINTS.items():
        yield pytest.param(*case, id=label)


@pytest.mark.parametrize("model, base, names, values", _cases())
def test_column_terms_equal_point_terms(model, base, names, values):
    # bit for bit, the pbrw couplings included: np.log would differ from the
    # point parse's math.log on a walk of "pbrw random", though not its row
    reference = []
    for point in values:
        try:
            _check_model(model)
            space = _model_space(model)
            parameters = {**base, **dict(zip(names, point))}
            reference.append(_reference_point_terms(model["preset"], space, parameters))
        except SpinmechError as exc:
            reference.append(type(exc))
    try:
        terms = point_terms(model, base, dict(zip(names, np.array(values).T)), len(values))
    except SpinmechError as exc:
        assert reference == [type(exc)] * len(values)
        return
    for p, expected in enumerate(reference):
        if isinstance(expected, type):
            assert type(terms.errors[p]) is expected
            continue
        beta, field, table = expected
        if not (np.isfinite(field) and np.isfinite(table).all()):
            assert type(terms.errors[p]) is NumericDomainError
            continue
        assert terms.errors[p] is None
        assert terms.betas[p].tobytes() == np.float64(beta).tobytes()
        assert terms.fields[p].tobytes() == np.float64(field).tobytes()
        assert terms.couplings[p].tobytes() == table.tobytes()
