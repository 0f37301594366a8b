#!/usr/bin/env python3
"""Cost of wide block spaces: analyze at ranges 6-8 and sweeps at ranges 4-6.

For each range 6, 7 and 8 a fresh interpreter runs one analyze on the
product chain with couplings J_d drawn from default_rng(1) in
U[-1.5, 1.5], field 0.3, at beta = 0.5, and reports its wall time, status,
and the process's peak resident set (ru_maxrss, so one range per process).
Then run_sweep(jobs=1) evaluates random custom sweeps with product
couplings (0.7, -0.4, 0.3, 0.2, -0.1, 0.05)[:n], beta log-uniform in
[1e-2, 5] and field in [-3, 3] (seed 1) at ranges 4, 5 and 6, and prints
each one's points per second, status histogram and the sha256 of its CSV.
Takes no arguments.
"""

import hashlib
import subprocess
import sys
import time
from collections import Counter

from spinmech.analysis import format_csv, run_sweep

COUPLINGS = (0.7, -0.4, 0.3, 0.2, -0.1, 0.05)
SWEEP_POINTS = {4: 1000, 5: 1000, 6: 200}

# one analyze in a fresh interpreter: argv[1] is the range
ANALYZE = """
import resource, sys, time
import numpy as np
from spinmech.analysis import analyze
from spinmech.errors import SpinmechError
from spinmech.hamiltonian import Hamiltonian
from spinmech.lattice import BINARY, BlockSpace

n = int(sys.argv[1])
couplings = -1.5 + 3.0 * np.random.default_rng(1).random(n)
model = Hamiltonian.pair_product(BlockSpace(BINARY, n), 0.3, couplings)
start = time.perf_counter()
try:
    analyze(model, 0.5)
    status = "ok"
except SpinmechError as exc:
    status = type(exc).__name__
wall = time.perf_counter() - start
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"range {n} ({2**n} blocks): analyze {wall:.3f} s, peak RSS {peak_mb:.0f} MB, {status}")
"""


def sweep_config(n: int) -> dict:
    return {
        "model": {"preset": "custom", "range": n},
        "parameters": {"couplings": {"product": list(COUPLINGS[:n])}},
        "sweep": {
            "mode": "random",
            "count": SWEEP_POINTS[n],
            "seed": 1,
            "parameters": {
                "beta": {"low": 1e-2, "high": 5.0, "scale": "log"},
                "field": {"low": -3.0, "high": 3.0},
            },
        },
    }


def main() -> None:
    for n in (6, 7, 8):
        subprocess.run([sys.executable, "-c", ANALYZE, str(n)], check=True)
    for n in SWEEP_POINTS:
        start = time.perf_counter()
        names, rows = run_sweep(sweep_config(n), jobs=1)
        wall = time.perf_counter() - start
        statuses = Counter(row["status"] for row in rows)
        digest = hashlib.sha256(format_csv(names, rows).encode()).hexdigest()
        print(f"range {n} sweep: {len(rows)} points in {wall:.2f} s ({len(rows) / wall:.0f} points/s)")
        print("  status: " + ", ".join(f"{name} {k}" for name, k in statuses.most_common()))
        print(f"  csv sha256: {digest}")


if __name__ == "__main__":
    main()
