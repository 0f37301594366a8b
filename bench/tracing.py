"""Layer spans for the traced run, recorded from outside the package.

The package's modules are the layers. ``Tracer.install`` swaps each
layer's public entry point, at the module attribute its callers look it
up through, for a wrapper that records a span; ``uninstall`` puts the
originals back. Nothing under ``src/`` changes.

A span is (name, start_ns, end_ns, parent span index, point index). A
layer's self time is its span's duration minus the spans it directly
contains, so the self times of one point add up to the point's wall time.
Each ``analysis.analyze`` call opens a point; spans outside any point
(the sweep loop, CSV formatting, the sampler) are kept per call.
"""

import json
import sys
import time
from collections import Counter, defaultdict
from functools import cached_property

import numpy as np

POINT_SPAN = "analysis.analyze"
PERRON_LIMIT = 1e-12


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int, int]] = []
        self.points: list[dict[str, float]] = []
        self.outside: dict[str, list[float]] = defaultdict(list)
        self.counts: Counter = Counter()
        self._stack: list[list] = []
        self._point: dict[str, float] | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # spans

    def _enter(self, name: str) -> None:
        if name == POINT_SPAN:
            self._point = defaultdict(float)
        self._stack.append([name, time.perf_counter_ns(), 0, len(self.spans)])
        self.spans.append(None)  # filled on exit, keeps parents before children

    def _exit(self) -> None:
        name, start, children, index = self._stack.pop()
        end = time.perf_counter_ns()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        if self._stack:
            self._stack[-1][2] += duration
        self.spans[index] = (name, start, end, parent, len(self.points))
        own = (duration - children) * 1e-9
        if self._point is not None:
            self._point[name] += own
            if name == POINT_SPAN:
                self.points.append(dict(self._point))
                self._point = None
        else:
            self.outside[name].append(own)

    def wrap(self, name, fn, inspect=None):
        """``fn`` inside a span; ``inspect(result or exception)`` counts."""

        def traced(*args, **kwargs):
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if inspect is not None:
                    inspect(self.counts, exc)
                raise
            finally:
                self._exit()
            if inspect is not None:
                inspect(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # installing the wrappers

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self, spinmech) -> None:
        from spinmech import analysis, markov, oracle
        from spinmech.errors import InversionError, PartitionAmbiguityError
        from spinmech.hamiltonian import Hamiltonian

        def transfer_counts(counts, out):
            if not isinstance(out, Exception) and out.perron_residual > PERRON_LIMIT:
                counts["transfer.perron_residual_points"] += 1

        def solve_counts(counts, out):
            if isinstance(out, InversionError):
                counts["markov.inversion_errors"] += 1
            elif not isinstance(out, Exception) and not out.irreducible:
                counts["markov.reducible_points"] += 1

        def machine_counts(counts, out):
            if isinstance(out, PartitionAmbiguityError):
                counts["machine.partition_ambiguity_errors"] += 1
            elif not isinstance(out, Exception):
                counts["machine.causal_states_total"] += sum(m.n_states for m in out.machines)

        entry_points = [
            (analysis, "run_sweep", "analysis.sweep", None),
            (analysis, "evaluate_sweep_point", "analysis.sweep_point", None),
            (analysis, "format_csv", "analysis.format_csv", None),
            (analysis, "analyze", POINT_SPAN, None),
            (analysis, "build_transfer", "transfer.build", transfer_counts),
            (analysis, "solve_stochastic", "markov.solve", solve_counts),
            (markov, "local_characteristics", "markov.certify", None),
            (markov, "consistency_residual", "markov.certify", None),
            (markov, "class_decomposition", "markov.classes", None),
            (analysis, "block_machines", "machine.block", machine_counts),
            (analysis, "spin_machines", "machine.spin", machine_counts),
            (oracle, "sample_sequence", "oracle.sample", None),
            (oracle, "empirical_entropy_rate", "oracle.entropy_estimate", None),
        ]
        for module, attr, name, inspect in entry_points:
            self._patch(module, attr, self.wrap(name, getattr(module, attr), inspect))
        # the package namespace re-exports analyze
        self._patch(spinmech, "analyze", analysis.analyze)
        for attr in ("intra_energies", "cross_energies"):
            table = cached_property(self.wrap("hamiltonian.tables", Hamiltonian.__dict__[attr].func))
            table.__set_name__(Hamiltonian, attr)
            self._patch(Hamiltonian, attr, table)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # reduction

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer figures; counts are per round, times in ms."""

        def per_point(name: str) -> np.ndarray:
            return np.array([p.get(name, 0.0) for p in self.points]) * 1e3

        def pct(name: str, q: float) -> float:
            values = per_point(name)
            return float(np.percentile(values, q)) if values.size else 0.0

        def median_call(name: str) -> float:
            calls = self.outside.get(name, [])
            return float(np.median(calls)) * 1e3 if calls else 0.0

        n_points = len(self.points)
        analysis_self = (
            sum(self.outside.get("analysis.sweep", []))
            + sum(self.outside.get("analysis.sweep_point", []))
            + sum(p.get(POINT_SPAN, 0.0) for p in self.points)
        )
        out = {
            "analysis.self_ms_per_point": analysis_self * 1e3 / n_points if n_points else 0.0,
            "analysis.format_csv_ms": sum(self.outside.get("analysis.format_csv", [])) * 1e3 / rounds,
            "hamiltonian.tables_ms_p50": pct("hamiltonian.tables", 50),
            "transfer.build_ms_p50": pct("transfer.build", 50),
            "transfer.build_ms_p99": pct("transfer.build", 99),
            "markov.solve_ms_p50": pct("markov.solve", 50),
            "markov.certify_ms_p50": pct("markov.certify", 50),
            "markov.classes_ms_p50": pct("markov.classes", 50),
            "machine.block_ms_p50": pct("machine.block", 50),
            "machine.block_ms_p99": pct("machine.block", 99),
            "machine.spin_ms_p50": pct("machine.spin", 50),
            "machine.spin_ms_p99": pct("machine.spin", 99),
            "oracle.sample_ms": median_call("oracle.sample"),
            "oracle.entropy_estimate_ms": median_call("oracle.entropy_estimate"),
        }
        for name in COUNT_METRICS:
            total = self.counts.get(name, 0)
            out[name] = total // rounds if total % rounds == 0 else total / rounds
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent", "point"],
                    "spans": self.spans,
                },
                fh,
                separators=(",", ":"),
            )


COUNT_METRICS = (
    "transfer.perron_residual_points",
    "markov.inversion_errors",
    "markov.reducible_points",
    "machine.partition_ambiguity_errors",
    "machine.causal_states_total",
)


def count_python_calls(fn) -> int:
    """Python-level calls made while ``fn()`` runs, from a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls
