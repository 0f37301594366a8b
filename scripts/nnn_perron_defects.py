#!/usr/bin/env python3
"""Perron-solve defect rates on two fixed NNN draws.

Runs the seed-1 2000-point NNN draw over the Fig-1 box (beta log-uniform in
[1e-4, 1e2], J1, J2 in [-1.5, 1.5], B in [-3, 3]) and a seed-2 500-point
draw at beta = inf through run_sweep(jobs=1), and prints each draw's wall
time, points per second, status histogram, and how many points carry a
Perron residual above PERRON_TOL (recomputed with transfer_stack), with how
many of those still have status ok. Takes no arguments.
"""

import time
from collections import Counter

import numpy as np

from spinmech.analysis import resolve_beta, run_sweep, sweep_points
from spinmech.hamiltonian import cross_energy_stack, intra_energy_stack, product_couplings
from spinmech.models import NNN_SPACE
from spinmech.transfer import PERRON_TOL, transfer_stack

COUPLING = {"low": -1.5, "high": 1.5}
FIELD = {"low": -3.0, "high": 3.0}
DRAWS = {
    "seed-1 Fig-1 NNN draw": {
        "model": {"preset": "nnn"},
        "parameters": {},
        "sweep": {
            "mode": "random",
            "count": 2000,
            "seed": 1,
            "parameters": {
                "beta": {"low": 1e-4, "high": 1e2, "scale": "log"},
                "J1": COUPLING,
                "J2": COUPLING,
                "B": FIELD,
            },
        },
    },
    "seed-2 NNN draw at beta = inf": {
        "model": {"preset": "nnn"},
        "parameters": {"beta": "inf"},
        "sweep": {
            "mode": "random",
            "count": 500,
            "seed": 2,
            "parameters": {"J1": COUPLING, "J2": COUPLING, "B": FIELD},
        },
    },
}


def perron_residuals(config: dict) -> np.ndarray:
    """transfer_stack's perron_residual at every point of a sweep config."""
    names, values = sweep_points(config["sweep"])
    points = [{**config["parameters"], **dict(zip(names, v))} for v in values.tolist()]
    betas = np.array([resolve_beta(p["beta"]) for p in points])
    fields = np.array([p["B"] for p in points])
    couplings = product_couplings(NNN_SPACE, np.array([[p["J1"], p["J2"]] for p in points]))
    x = intra_energy_stack(NNN_SPACE, fields, couplings)
    y = cross_energy_stack(NNN_SPACE, couplings)
    return transfer_stack(NNN_SPACE, x, y, betas, [None] * len(points)).perron_residual


def main() -> None:
    for label, config in DRAWS.items():
        start = time.perf_counter()
        _, rows = run_sweep(config, jobs=1)
        wall = time.perf_counter() - start
        statuses = Counter(row["status"] for row in rows)
        above = perron_residuals(config) > PERRON_TOL
        silent = sum(1 for row, bad in zip(rows, above) if bad and row["status"] == "ok")
        print(f"{label}: {len(rows)} points in {wall:.2f} s ({len(rows) / wall:.0f} points/s)")
        print("  status: " + ", ".join(f"{name} {n}" for name, n in statuses.most_common()))
        print(f"  perron_residual > {PERRON_TOL:g}: {int(above.sum())} ({silent} with status ok)")


if __name__ == "__main__":
    main()
