"""The row-wise CSV renderer that format_csv once was, kept as a reference.

``format_csv`` now renders by columns and formats a float column once when
its float64 bits equal an earlier column's. Its text must be the reference's
byte for byte, in bits and in nats: on the sweeps of test_point_parse, and
on hand-made rows where equal values have different bits (0.0 and -0.0),
where rows failed or carry NaN, where cells are ints or numpy floats, and
on one row and on none.
"""

import math

import numpy as np
import pytest
from test_point_parse import SWEEPS

from spinmech.analysis import (
    CSV_METRIC_COLUMNS,
    LN2,
    _failed_row,
    _unit_scale,
    format_csv,
    run_sweep,
)
from spinmech.errors import ConfigError, ConvergenceError


def _reference_format_csv(names: list[str], rows: list[dict], units: str = "bits") -> str:
    """Render sweep rows as CSV with a header; floats use shortest repr."""
    header = ["index"] + names + CSV_METRIC_COLUMNS
    lines = [",".join(header)]
    scale = _unit_scale(units)
    entropic = {"C_mu", "h_mu", "E_mu", "E_paper", "C_mu_spin", "h_mu_spin", "E_spin"}
    for index, row in enumerate(rows):
        cells = [str(index)]
        for name in names:
            cells.append(repr(float(row[name])))
        for col in CSV_METRIC_COLUMNS:
            value = row[col]
            if col == "status":
                cells.append(str(value))
            elif col in ("n_states", "n_classes"):
                cells.append(str(int(value)))
            elif col in entropic:
                cells.append(repr(float(value) * scale))
            else:
                cells.append(repr(float(value)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _assert_same_csv(names, rows):
    for units in ("bits", "nats"):
        assert format_csv(names, rows, units) == _reference_format_csv(names, rows, units), units


@pytest.mark.parametrize("label", list(SWEEPS))
def test_sweep_csv_is_the_row_wise_csv(label):
    model, base, sweep = SWEEPS[label]
    names, rows = run_sweep({"model": model, "parameters": base, "sweep": sweep}, jobs=1)
    _assert_same_csv(names, rows)


def _row(**cells) -> dict:
    row = {
        "J": 0.5,
        "log_lambda0": 1.25,
        "C_mu": 1.0,
        "h_mu": 0.75,
        "E_mu": 0.25,
        "E_paper": 0.25,
        "C_mu_spin": 1.0,
        "h_mu_spin": 0.75,
        "E_spin": 0.25,
        "n_states": 2,
        "n_classes": 1,
        "max_residual": 1e-16,
        "status": "ok",
    }
    row.update(cells)
    return row


HAND_MADE = {
    # equal values, different bits: the columns must not share their text
    "signed zeros": [
        _row(J=0.0, E_mu=-0.0, E_paper=0.0, E_spin=-0.0),
        _row(J=-0.0, E_mu=0.0, E_paper=-0.0, E_spin=0.0),
    ],
    "zero next to negative zero": [_row(E_mu=0.0, E_paper=-0.0), _row(E_mu=0.0, E_paper=-0.0)],
    "nan and failed rows": [
        _row(C_mu=math.nan, h_mu=-math.nan, max_residual=math.inf),
        _failed_row(_row(), ConvergenceError("stalled", math.nan)),
        _row(J=math.nan, E_mu=-math.inf),
        _failed_row(_row(J=math.nan), ConfigError("bad")),
    ],
    # ints and numpy floats format as the floats they convert to
    "int and numpy cells": [
        _row(J=1, C_mu=np.float64(1.0), h_mu=np.float64(-0.0), n_states=np.int64(4)),
        _row(J=np.float64(0.1), C_mu=1, E_mu=np.float64(0.25), n_classes=2.0),
        _row(J=-3, log_lambda0=np.float32(0.1)),
    ],
    # in nats C_mu * ln 2 is log_lambda0's value, bit for bit
    "equal after scaling": [_row(log_lambda0=LN2, C_mu=1.0), _row(log_lambda0=0.0, C_mu=0.0)],
    "one row": [_row()],
    "no rows": [],
}


@pytest.mark.parametrize("label", list(HAND_MADE))
def test_hand_made_csv_is_the_row_wise_csv(label):
    rows = HAND_MADE[label]
    _assert_same_csv(["J"], rows)
    _assert_same_csv([], [{k: v for k, v in row.items() if k != "J"} for row in rows])

