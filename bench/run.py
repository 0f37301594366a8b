#!/usr/bin/env python3
"""spinmech benchmark: sweep throughput, point latency and sampler rate.

Run from the repository root, one workload per process:

    python3 bench/run.py --workload nn-sweep --seed 1 --seconds 15 --trace 0

The workload repeats whole rounds of the same operations until
``--seconds`` have been measured, checks the package's outputs against
computations made apart from it (bench/checks.py), and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run first measures untraced, then repeats the same
rounds with every layer wrapped (bench/tracing.py) and reports the
per-layer figures. See bench/README.md for workloads and metrics.
"""

import os
import sys
import time

# one BLAS/OpenMP thread, set before numpy loads its libraries
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import tracing  # noqa: E402

# bench/checks.py, imported once the rounds have run: it loads mpmath,
# which the package does not use, so it stays out of set-up time and memory
checks = None
FAULT_LINES = 20


def process_age() -> float:
    """Seconds since this process started, by the kernel's start time."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start_ticks = int(fields[19])  # field 22 of proc(5), counted after the name
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOAD_TYPES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_package():
    """The package from ``src/`` of the checkout the benchmark runs in."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "spinmech", "__init__.py")):
        sys.exit(f"bench: no src/spinmech under {os.getcwd()}; run from the repository root")
    sys.path.insert(0, src)
    import spinmech

    return spinmech


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

FIG1_BETA = (1e-4, 1e2)
FIG1_J = (-1.5, 1.5)
FIG1_B = (-3.0, 3.0)


class Round:
    """What one round measured: per-operation wall times and outputs."""

    def __init__(self):
        self.op_seconds: list[float] = []
        self.busy_seconds = 0.0
        self.wall_seconds = 0.0
        self.points = 0
        self.spins = 0
        self.outputs: list = []
        self.signature = ""


def _log_uniform(rng, low, high, size):
    return np.exp(np.log(low) + rng.random(size) * (np.log(high) - np.log(low)))


class NNSweep:
    """Random NN points over the Fig-1 box through run_sweep + format_csv."""

    points = 1000
    closed_form_checked = 200

    def __init__(self, sm, seed):
        self.sm = sm
        self.config = {
            "model": {"preset": "nn"},
            "sweep": {
                "mode": "random",
                "count": self.points,
                "seed": seed,
                "parameters": {
                    "beta": {"low": FIG1_BETA[0], "high": FIG1_BETA[1], "scale": "log"},
                    "J": {"low": FIG1_J[0], "high": FIG1_J[1]},
                    "B": {"low": FIG1_B[0], "high": FIG1_B[1]},
                },
            },
        }
        rng = np.random.default_rng([seed, 1])
        self.closed_form_index = set(
            rng.choice(self.points, self.closed_form_checked, replace=False).tolist()
        )

    def run_round(self) -> Round:
        analysis = self.sm.analysis
        out = Round()
        start = time.perf_counter()
        names, rows = analysis.run_sweep(self.config, jobs=1)
        csv = analysis.format_csv(names, rows)
        out.busy_seconds = time.perf_counter() - start
        out.points = len(rows)
        # point latency: every point again through the sweep's own per-point
        # function, one at a time
        replays = []
        for row in rows:
            point = {name: row[name] for name in names}
            t0 = time.perf_counter()
            replays.append(analysis.evaluate_sweep_point(self.config["model"], {}, point))
            out.op_seconds.append(time.perf_counter() - t0)
        out.wall_seconds = time.perf_counter() - start
        out.outputs = [names, rows, csv, replays]
        out.signature = _digest([csv] + [_row_signature(row) for row in replays])
        return out

    def check(self, rounds: list[Round]) -> tuple[int, list[str]]:
        names, rows, csv, replays = rounds[0].outputs
        faulty, run_faults = set(), []
        for index, row in enumerate(rows):
            faults = checks.check_nn_row_bounds(row)
            if index in self.closed_form_index:
                faults += checks.check_nn_reference({n: row[n] for n in names}, row)
            if faults:
                faulty.add(index)
                report(f"nn-sweep point {index}: {'; '.join(faults)}")
        for index, (replay, row) in enumerate(zip(replays, rows)):
            if not checks.rows_identical(replay, row):
                run_faults.append(f"row {index} replayed by evaluate_sweep_point differs from the sweep")
        run_faults += checks.check_csv(csv, names, rows)
        return len(faulty), run_faults

    def profile_calls(self) -> tuple[int, int]:
        calls = tracing.count_python_calls(lambda: self.sm.analysis.run_sweep(self.config, jobs=1))
        return calls, self.points


class PointSet:
    """Models analysed one at a time, each through ``analyze``.

    The point set is a fixed draw: its typed failures and identity breaks
    are defect classes tracked as rates, so they must not move with the
    seed. The seed orders the evaluation.
    """

    def __init__(self, sm, seed, specs):
        self.sm = sm
        self.specs = specs  # (field, couplings by distance, beta)
        self.order = np.random.default_rng([seed, 2]).permutation(len(specs))
        self.points = len(specs)

    def run_round(self) -> Round:
        analysis = self.sm.analysis
        error_type = self.sm.SpinmechError
        out = Round()
        outcomes = [None] * self.points
        out.op_seconds = [0.0] * self.points
        start = time.perf_counter()
        for index in self.order:
            field, couplings, beta = self.specs[index]
            t0 = time.perf_counter()
            try:
                model = self.model(field, couplings, beta)
                outcomes[index] = analysis.analyze(model, beta)
            except error_type as exc:
                outcomes[index] = exc
            out.op_seconds[index] = time.perf_counter() - t0
        out.wall_seconds = out.busy_seconds = time.perf_counter() - start
        out.points = self.points
        out.outputs = outcomes
        out.signature = _digest(_outcome_signature(o) for o in outcomes)
        return out

    def model(self, field, couplings, beta):
        sm = self.sm
        return sm.Hamiltonian.pair_product(sm.BlockSpace(sm.BINARY, len(couplings)), field, couplings)

    def check(self, rounds: list[Round]) -> tuple[int, list[str]]:
        failed = 0
        for index, outcome in enumerate(rounds[0].outputs):
            field, couplings, beta = self.specs[index]
            if isinstance(outcome, Exception):
                faults = [f"{type(outcome).__name__}: {outcome}"]
            else:
                faults = checks.check_point_identities(field, couplings, beta, outcome)
                faults += checks.check_eigenvalue(field, couplings, beta, outcome.log_lambda0)
            if faults:
                failed += 1
                report(f"point {index} field={field!r} couplings={list(couplings)!r} beta={beta!r}: {'; '.join(faults)}")
        return failed, []

    def profile_calls(self) -> tuple[int, int]:
        subset = self.specs[: self.profiled]

        def run():
            for field, couplings, beta in subset:
                try:
                    self.sm.analysis.analyze(self.model(field, couplings, beta), beta)
                except self.sm.SpinmechError:
                    pass

        return tracing.count_python_calls(run), len(subset)


class NNNPoints(PointSet):
    """The first 1000 points of the seed-1 2000-point NNN draw over
    beta in [1e-4, 1e2] (log), J1, J2 in [-1.5, 1.5], B in [-3, 3]."""

    draw = 2000
    kept = 1000
    profiled = 100

    def __init__(self, sm, seed):
        rng = np.random.default_rng(1)
        beta = _log_uniform(rng, *FIG1_BETA, self.draw)
        j1 = FIG1_J[0] + rng.random(self.draw) * (FIG1_J[1] - FIG1_J[0])
        j2 = FIG1_J[0] + rng.random(self.draw) * (FIG1_J[1] - FIG1_J[0])
        b = FIG1_B[0] + rng.random(self.draw) * (FIG1_B[1] - FIG1_B[0])
        specs = [
            (float(b[k]), (float(j1[k]), float(j2[k])), float(beta[k])) for k in range(self.kept)
        ]
        super().__init__(sm, seed, specs)

    def model(self, field, couplings, beta):
        sm = self.sm
        return sm.nnn_ising(sm.NNNParams(J1=couplings[0], J2=couplings[1], B=field, beta=beta))


class CustomRange(PointSet):
    """Ten seed-1 product-coupling chains per range 3..6: J_d in
    [-1.5, 1.5], field in [-3, 3], beta log-uniform in [1e-2, 5]."""

    per_range = 10
    ranges = (3, 4, 5, 6)
    profiled = 40

    def __init__(self, sm, seed):
        rng = np.random.default_rng(1)
        specs = []
        for n in self.ranges:
            for _ in range(self.per_range):
                beta = float(_log_uniform(rng, 1e-2, 5.0, 1)[0])
                couplings = tuple(float(v) for v in -1.5 + 3.0 * rng.random(n))
                field = float(-3.0 + 6.0 * rng.random())
                specs.append((field, couplings, beta))
        super().__init__(sm, seed, specs)


class Sample(PointSet):
    """Fixed irreducible chains, each analysed, sampled and estimated.

    The couplings are weak, so each chain's entropy rate sits near one bit
    and the estimator's standard error near 1.5e-4 at these lengths; the
    1e-3 floor of the estimate check is then five or more standard errors,
    and a sampler that ignored the transitions would still miss by 5e-3.
    """

    min_spins = 10**6

    def __init__(self, sm, seed):
        specs = [
            (0.05, (0.1,), 1.0),  # NN
            (0.05, (0.1, -0.08), 1.0),  # NNN
            (0.05, (0.1, -0.08, 0.05), 1.0),  # custom, range 3
        ]
        super().__init__(sm, seed, specs)
        self.seeds = np.random.default_rng([seed, 3]).integers(2**63, size=len(specs)).tolist()
        # at least 1e6 spins, and no fewer than the estimator's 1e5 * 2**n
        self.blocks = [
            -(-max(self.min_spins, 10**5 * 2 ** len(c)) // len(c)) for _, c, _ in specs
        ]

    def run_round(self) -> Round:
        analysis, oracle = self.sm.analysis, self.sm.oracle
        out = Round()
        start = time.perf_counter()
        for index, (field, couplings, beta) in enumerate(self.specs):
            t0 = time.perf_counter()
            result = analysis.analyze(self.model(field, couplings, beta), beta)
            sequence = oracle.sample_sequence(result.chain, self.blocks[index], self.seeds[index])
            estimate = oracle.empirical_entropy_rate(sequence, len(couplings), 2)
            out.op_seconds.append(time.perf_counter() - t0)
            out.spins += sequence.size
            out.outputs.append((result, estimate, sequence_digest(sequence)))
        out.wall_seconds = time.perf_counter() - start
        out.busy_seconds = sum(out.op_seconds)  # without the digests
        out.points = len(self.specs)
        out.signature = _digest(
            f"{d} {e.value.hex()} {e.stderr.hex()} {e.samples}" for _, e, d in out.outputs
        )
        return out

    def check(self, rounds: list[Round]) -> tuple[int, list[str]]:
        """Run-level: estimates against the analytic rates, and the same
        seed drawing the same sequence (later rounds already redraw it;
        a single-round run draws once more)."""
        faults = []
        for index, (result, estimate, digest) in enumerate(rounds[0].outputs):
            if not result.chain.irreducible:
                faults.append(f"chain {index} is not irreducible")
            faults += [
                f"chain {index}: {f}"
                for f in checks.check_entropy_estimate(estimate, result.h_mu_spin)
            ]
            if len(rounds) == 1:
                again = self.sm.oracle.sample_sequence(
                    result.chain, self.blocks[index], self.seeds[index]
                )
                faults += [
                    f"chain {index}: {f}"
                    for f in checks.check_same_sequence(digest, sequence_digest(again))
                ]
        return 0, faults

    def profile_calls(self) -> tuple[int, int]:
        def run():
            for field, couplings, beta in self.specs:
                self.sm.analysis.analyze(self.model(field, couplings, beta), beta)

        return tracing.count_python_calls(run), len(self.specs)


def sequence_digest(sequence: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(sequence, dtype=np.int64)).hexdigest()


def _digest(parts) -> str:
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


def _row_signature(row: dict) -> str:
    return " ".join(f"{k}={v.hex() if isinstance(v, float) else v}" for k, v in row.items())


def _outcome_signature(outcome) -> str:
    """Exact rendering of one result, for round-to-round comparison."""
    if isinstance(outcome, Exception):
        return f"{type(outcome).__name__}: {outcome}"
    values = (
        outcome.log_lambda0,
        outcome.c_mu,
        outcome.h_mu,
        outcome.e_mu,
        outcome.e_paper,
        outcome.c_mu_spin,
        outcome.h_mu_spin,
        outcome.e_spin,
        outcome.max_residual,
    )
    return " ".join(float(v).hex() for v in values) + f" {outcome.n_states} {outcome.n_classes}"


WORKLOAD_TYPES = {
    "nn-sweep": NNSweep,
    "nnn-points": NNNPoints,
    "custom-range": CustomRange,
    "sample": Sample,
}


# ----------------------------------------------------------------------
# measuring
# ----------------------------------------------------------------------

_fault_lines = 0


def report(line: str) -> None:
    """A check's finding on stderr; the first few are printed in full."""
    global _fault_lines
    _fault_lines += 1
    if _fault_lines <= FAULT_LINES:
        print(f"bench: {line}", file=sys.stderr)


def run_rounds(workload, seconds: float, count: int | None = None) -> list[Round]:
    """Whole rounds until ``seconds`` of rounds have run, or ``count`` rounds."""
    rounds = []
    elapsed = 0.0
    while True:
        rounds.append(workload.run_round())
        if len(rounds) > 1:
            rounds[-1].outputs = None  # checked through its signature only
        elapsed += rounds[-1].wall_seconds
        if count is not None:
            if len(rounds) == count:
                return rounds
        elif elapsed >= seconds:
            return rounds


def same_rounds(rounds: list[Round], first: Round) -> list[str]:
    return [
        f"round {k} differs from round 0 (outputs are not reproducible)"
        for k, r in enumerate(rounds)
        if r.signature != first.signature
    ]


def end_to_end(rounds: list[Round], setup_s: float, rss_kib: int) -> dict:
    """Throughput is the median over rounds. An operation's latency is its
    median over rounds (every round times the same operations), and the
    percentiles run over the distinct operations: they describe how cost
    spreads over the inputs, not how the machine's noise spreads."""
    rate = float(np.median([r.points / r.busy_seconds for r in rounds]))
    ops_ms = np.median(np.array([r.op_seconds for r in rounds]), axis=0) * 1e3
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "points_per_s": {"value": rate, "unit": "points/s"},
        "point_ms_p50": {"value": float(np.percentile(ops_ms, 50)), "unit": "ms"},
        "point_ms_p99": {"value": float(np.percentile(ops_ms, 99)), "unit": "ms"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


PER_LAYER_UNITS = {
    "analysis.py_calls_per_point": "count",
    "analysis.self_ms_per_point": "ms",
    "analysis.format_csv_ms": "ms",
    "hamiltonian.tables_ms_p50": "ms",
    "transfer.build_ms_p50": "ms",
    "transfer.build_ms_p99": "ms",
    "transfer.perron_residual_points": "count",
    "markov.solve_ms_p50": "ms",
    "markov.certify_ms_p50": "ms",
    "markov.classes_ms_p50": "ms",
    "markov.inversion_errors": "count",
    "markov.reducible_points": "count",
    "machine.block_ms_p50": "ms",
    "machine.block_ms_p99": "ms",
    "machine.spin_ms_p50": "ms",
    "machine.spin_ms_p99": "ms",
    "machine.partition_ambiguity_errors": "count",
    "machine.causal_states_total": "count",
    "oracle.sample_ms": "ms",
    "oracle.entropy_estimate_ms": "ms",
    "trace.overhead_s": "s",
}


def machine_info(sm) -> dict:
    import mpmath
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "spinmech": sm.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    sm = import_package()
    workload = WORKLOAD_TYPES[args.workload](sm, args.seed)
    setup_s = process_age()
    rounds = run_rounds(workload, args.seconds)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    global checks
    import checks
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(sm)
        try:
            traced = run_rounds(workload, args.seconds, count=len(rounds))
        finally:
            tracer.uninstall()
        calls, profiled = workload.profile_calls()

    failed_per_round, run_faults = workload.check(rounds)
    run_faults += same_rounds(rounds, rounds[0])
    if tracer is not None:
        run_faults += same_rounds(traced, rounds[0])
    for fault in run_faults:
        report(f"run check failed: {fault}")

    attempted = sum(r.points for r in rounds)
    if tracer is None:
        metrics = end_to_end(rounds, setup_s, rss_kib)
    else:
        layer = tracer.layer_metrics(len(traced))
        layer["analysis.py_calls_per_point"] = calls / profiled
        layer["trace.overhead_s"] = sum(r.wall_seconds for r in traced) - sum(
            r.wall_seconds for r in rounds
        )
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_points_per_s": [r.points / r.busy_seconds for r in rounds],
        "spins_per_s": sum(r.spins for r in rounds) / sum(r.busy_seconds for r in rounds),
        "machine": machine_info(sm),
    }
    result = {
        "correct": not run_faults,
        "attempted": attempted,
        "failed": failed_per_round * len(rounds),
        "metrics": metrics,
    }
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, "result": result}, fh, indent=1)
    if tracer is not None:
        tracer.write(os.path.join(out_dir, f"trace-{stem}.json"))
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
