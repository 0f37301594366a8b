#!/usr/bin/env python3
"""Where an in-process NN sweep round spends its time, stage by stage.

A round is the benchmark's nn-sweep round: 1000 random Fig-1 NN points
(beta log-uniform in [1e-4, 1e2], J in [-1.5, 1.5], B in [-3, 3], from the
sweep seed) through run_sweep(jobs=1), then format_csv. Each stage is
timed by wrapping the function the sweep calls for it: sweep_points,
point_terms, the energy tables (intra_energy_stack and cross_energy_stack)
and evaluate_stack. Row assembly is what is left of run_sweep; format_csv
is timed as a whole. Prints, for each stage and for the round, the median
and quartiles in ms over the rounds (after one warm-up round), the number
of calls per round, and a machine line.

    PYTHONPATH=src python3 scripts/sweep_split.py [--seed 11] [--rounds 200]
"""

import argparse
import os
import platform
import time
from collections import defaultdict

import numpy as np

from spinmech import analysis

STAGES = {
    "sweep_points": ("sweep_points",),
    "point_terms": ("point_terms",),
    "energy tables": ("intra_energy_stack", "cross_energy_stack"),
    "evaluate_stack": ("evaluate_stack",),
}


def sweep_config(seed: int) -> dict:
    return {
        "model": {"preset": "nn"},
        "sweep": {
            "mode": "random",
            "count": 1000,
            "seed": seed,
            "parameters": {
                "beta": {"low": 1e-4, "high": 1e2, "scale": "log"},
                "J": {"low": -1.5, "high": 1.5},
                "B": {"low": -3.0, "high": 3.0},
            },
        },
    }


def install(spent: dict, calls: dict) -> None:
    """Wrap each stage's functions where the sweep looks them up."""

    def timed(stage, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[stage] += time.perf_counter() - start
                calls[stage] += 1

        return wrapper

    for stage, attrs in STAGES.items():
        for attr in attrs:
            setattr(analysis, attr, timed(stage, getattr(analysis, attr)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=11, help="sweep seed")
    parser.add_argument("--rounds", type=int, default=200, help="timed rounds")
    args = parser.parse_args()

    config = sweep_config(args.seed)
    spent, calls = defaultdict(float), defaultdict(int)
    install(spent, calls)
    samples = defaultdict(list)
    for round_ in range(args.rounds + 1):
        spent.clear()
        calls.clear()
        start = time.perf_counter()
        names, rows = analysis.run_sweep(config, jobs=1)
        swept = time.perf_counter()
        analysis.format_csv(names, rows)
        end = time.perf_counter()
        if round_ == 0:  # warm-up
            continue
        for stage in STAGES:
            samples[stage].append(spent[stage])
        samples["row assembly"].append(swept - start - sum(spent.values()))
        samples["format_csv"].append(end - swept)
        samples["round"].append(end - start)
        per_round = dict(calls)

    print(f"nn-sweep round split, seed {args.seed}, {len(rows)} points, {args.rounds} rounds (ms)")
    print(f"{'stage':<16}{'median':>9}{'q1':>9}{'q3':>9}  calls")
    for stage, values in samples.items():
        q1, median, q3 = np.percentile(np.array(values) * 1e3, [25, 50, 75])
        print(f"{stage:<16}{median:9.3f}{q1:9.3f}{q3:9.3f}  {per_round.get(stage, '-')}")
    print(
        f"machine: {os.cpu_count()} cores, Python {platform.python_version()}, "
        f"numpy {np.__version__}, {platform.machine()}"
    )


if __name__ == "__main__":
    main()
