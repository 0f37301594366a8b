#!/usr/bin/env python3
"""A wide-beta draw of random product chains at ranges 1-6.

Per range n, default_rng(100 + n) draws, in this order, the product
couplings J in U[-1.5, 1.5]^n, beta log-uniform in [1e-2, 60] and then
set to inf (GROUND_STATE_BETA) with probability 0.2, and the field in U[-3, 3]:
3000, 3000, 3000, 2000, 1000 and 300 points at ranges 1-6. Each point runs
through analyze, a stack of one. For each range it prints the status
histogram, the largest certified consistency bound (max_residual) and the
largest measured consistency residual on ok rows, and how many ok rows
measure a residual above their bound. Takes no arguments.
"""

import time
from collections import Counter

import numpy as np

from spinmech.analysis import analyze
from spinmech.errors import SpinmechError
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace
from spinmech.markov import consistency_residual, local_characteristics
from spinmech.transfer import GROUND_STATE_BETA, build_transfer

POINTS = {1: 3000, 2: 3000, 3: 3000, 4: 2000, 5: 1000, 6: 300}


def draw(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Product couplings (P, n), betas (P,) and fields (P,) at range n."""
    rng = np.random.default_rng(100 + n)
    size = POINTS[n]
    couplings = -1.5 + 3.0 * rng.random((size, n))
    betas = np.exp(rng.uniform(np.log(1e-2), np.log(60.0), size))
    betas[rng.random(size) < 0.2] = GROUND_STATE_BETA
    fields = rng.uniform(-3.0, 3.0, size)
    return couplings, betas, fields


def main() -> None:
    for n in POINTS:
        space = BlockSpace(BINARY, n)
        statuses = Counter()
        worst_bound = worst_measured = 0.0
        above = 0
        start = time.perf_counter()
        for couplings, beta, field in zip(*draw(n)):
            model = Hamiltonian.pair_product(space, float(field), couplings)
            try:
                result = analyze(model, float(beta))
            except SpinmechError as exc:
                statuses[type(exc).__name__] += 1
                continue
            statuses["ok"] += 1
            lc = local_characteristics(build_transfer(model, float(beta)))
            measured, _ = consistency_residual(lc, result.chain.matrix)
            worst_bound = max(worst_bound, result.max_residual)
            worst_measured = max(worst_measured, measured)
            above += measured > result.max_residual
        wall = time.perf_counter() - start
        print(f"range {n}: {POINTS[n]} points in {wall:.1f} s")
        print("  status: " + ", ".join(f"{name} {k}" for name, k in statuses.most_common()))
        print(f"  ok rows: worst max_residual {worst_bound:.3e}, worst measured {worst_measured:.3e}")
        print(f"  ok rows measured above their bound: {above}")


if __name__ == "__main__":
    main()
