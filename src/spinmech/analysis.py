"""Point pipeline, parameter sweeps, and file emission.

The pipeline runs model -> transfer -> stochastic chain -> machines over a
stack of points that share one block space, and collects the information
measures plus diagnostics. A sweep evaluates its points in chunks of
CHUNK_SIZE (optionally across processes; each chunk is pure) and assembles
rows in index order. A single point is a stack of one through the same
functions, and every stage computes each point's values independently of
the others in its stack, so rows are bit-identical for a given config +
seed whatever the chunk boundaries or the number of processes.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import ConfigError, NumericDomainError, SpinmechError, raise_first, record_failures
from .hamiltonian import (
    Hamiltonian,
    check_couplings,
    cross_energy_stack,
    finite_models,
    intra_energy_stack,
    product_couplings,
)
from .info import _STACK_ENTRIES
from .lattice import BlockSpace, SpinAlphabet
from .machine import MachineSet, MachineStack, machine_stacks
from .markov import BlockChain, ChainStack, class_members, invert_stack
from .models import NN_SPACE, NNN_SPACE, PBRWParams, pbrw_couplings
from .transfer import GROUND_STATE_BETA, TransferStack, transfer_stack

# The single-point stage functions stay reachable through this module,
# where bench/tracing.py wraps them; the pipeline calls their stacked forms.
from .machine import block_machines, spin_machines  # noqa: E402,F401
from .markov import solve_stochastic  # noqa: E402,F401
from .transfer import build_transfer  # noqa: E402,F401

# Points per sweep chunk: the unit of work of a process, and the largest
# stack the pipeline evaluates at once.
CHUNK_SIZE = 256

LN2 = math.log(2.0)

CSV_METRIC_COLUMNS = [
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


@dataclass(frozen=True)
class PointResult:
    """Everything measured at one parameter point."""

    beta: float
    log_lambda0: float
    max_residual: float
    chain: BlockChain
    block: MachineSet
    spin: MachineSet

    @property
    def c_mu(self) -> float:
        return self.block.c_mu

    @property
    def h_mu(self) -> float:
        return self.block.h_mu

    @property
    def e_mu(self) -> float:
        return self.block.e_mu

    @property
    def e_paper(self) -> float:
        return self.block.e_paper

    @property
    def c_mu_spin(self) -> float:
        return self.spin.c_mu

    @property
    def h_mu_spin(self) -> float:
        return self.spin.h_mu

    @property
    def e_spin(self) -> float:
        return self.spin.e_mu

    @property
    def n_states(self) -> int:
        return self.block.max_states

    @property
    def n_classes(self) -> int:
        return self.block.n_classes


def analyze(hamiltonian: Hamiltonian, beta: float) -> PointResult:
    """Run the full pipeline at one point."""
    errors = [None]
    stack = evaluate_stack(
        hamiltonian.blocks,
        hamiltonian.intra_energies[None],
        hamiltonian.cross_energies[None],
        np.array([beta], dtype=float),
        errors,
    )
    raise_first(errors)
    return stack.result(0)


@dataclass(frozen=True)
class PointStack:
    """Every stage's output for a stack of points."""

    betas: np.ndarray
    transfer: TransferStack
    chains: ChainStack
    block: MachineStack
    spin: MachineStack

    def result(self, p: int) -> PointResult:
        chain = self.chains.chain(p)
        return PointResult(
            beta=float(self.betas[p]),
            log_lambda0=float(self.transfer.log_lambda0[p]),
            max_residual=chain.consistency_residual,
            chain=chain,
            block=self.block.machine_set(p, chain.classes),
            spin=self.spin.machine_set(p, class_members(self.spin.chains.labels[p])),
        )

    def metric_columns(self) -> dict[str, list]:
        """The CSV metric columns (all but status), one list entry per point."""
        block, spin = self.block, self.spin
        columns = {
            "log_lambda0": self.transfer.log_lambda0,
            "C_mu": block.c_mu,
            "h_mu": block.h_mu,
            "E_mu": block.e_mu,
            "E_paper": block.e_paper,
            "C_mu_spin": spin.c_mu,
            "h_mu_spin": spin.h_mu,
            "E_spin": spin.e_mu,
            "n_states": block.n_states,
            "n_classes": block.n_classes,
            "max_residual": self.chains.residual,
        }
        return {name: values.tolist() for name, values in columns.items()}


def evaluate_stack(
    space: BlockSpace, x: np.ndarray, y: np.ndarray, betas: np.ndarray, errors: list
) -> PointStack:
    """The pipeline over P points of one block space, from their (P, S)
    intra and (P, S, S) cross energies; a point that fails gets its typed
    error in ``errors`` and leaves the others untouched."""
    transfer = transfer_stack(space, x, y, betas, errors)
    chains, windows = invert_stack(
        space, transfer.log_v, transfer.log_right, transfer.log_left, errors
    )
    block, spin = machine_stacks(chains, windows, errors)
    return PointStack(betas=betas, transfer=transfer, chains=chains, block=block, spin=spin)


# ----------------------------------------------------------------------
# configuration handling
# ----------------------------------------------------------------------

PRESET_PARAMETERS = {
    "nn": ("beta", "J", "B"),
    "nnn": ("beta", "J1", "J2", "B"),
    "pbrw": ("p", "r"),
}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply dotted-path overrides like parameters.J=1.5 (values are JSON)."""
    cfg = json.loads(json.dumps(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form path=value")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = cfg
        keys = path.split(".")
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ConfigError(f"override path {path!r} crosses a non-object")
        node[keys[-1]] = value
    return cfg


def _number(value, name: str, kind=float):
    """``kind(value)`` for one config field, or a ConfigError naming the field."""
    # JSON true/false are not numbers, though float() and int() take them
    if _has_bool(value):
        raise ConfigError(f"{name} must be numeric, got {value!r}")
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be numeric, got {value!r}") from None
    # int() truncates: a range or count of 2.5 is malformed, not 2
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return number


def _has_bool(value) -> bool:
    if isinstance(value, list):
        return any(_has_bool(v) for v in value)
    return isinstance(value, bool)


def _float_list(value) -> list:
    """A JSON list of numbers, nested to any depth; a scalar raises TypeError."""
    return list(np.asarray(value, dtype=float))


def resolve_beta(raw) -> float:
    """Numeric beta, with 'inf' mapping to the ground-state stand-in."""
    if isinstance(raw, str):
        if raw.lower() in ("inf", "infinity"):
            return GROUND_STATE_BETA
        raise ConfigError(f"beta must be a number or 'inf', got {raw!r}")
    beta = _number(raw, "beta")
    if math.isinf(beta):
        return GROUND_STATE_BETA
    return beta


def hamiltonian_from_config(model: dict, parameters: dict) -> tuple[Hamiltonian, float]:
    """Build a model and its beta from the config sections."""
    _check_model(model)
    if not isinstance(parameters, dict):
        raise ConfigError("parameters section must be a JSON object")
    space = _model_space(model)
    beta, field, couplings = _point_terms(model["preset"], space, parameters)
    return Hamiltonian(space, field, couplings), beta


def _check_model(model) -> None:
    if not isinstance(model, dict) or "preset" not in model:
        raise ConfigError("model section must carry a 'preset' field")


def _model_space(model: dict) -> BlockSpace:
    """The block space a model section fixes for all its points."""
    preset = model["preset"]
    if preset in ("nn", "pbrw"):
        return NN_SPACE
    if preset == "nnn":
        return NNN_SPACE
    if preset == "custom":
        values = _number(model.get("alphabet", (-1.0, 1.0)), "model.alphabet", _float_list)
        alphabet = SpinAlphabet(tuple(values))
        if "range" not in model:
            raise ConfigError("custom model needs a 'range' field")
        return BlockSpace(alphabet, _number(model["range"], "model.range", int))
    raise ConfigError(f"unknown preset {preset!r}; choose nn, nnn, pbrw, or custom")


def _point_terms(
    preset: str, space: BlockSpace, parameters: dict
) -> tuple[float, float, np.ndarray]:
    """(beta, field, coupling table) of one point's parameters."""
    try:
        if preset == "nn":
            beta = resolve_beta(parameters["beta"])
            j, b = _number(parameters["J"], "J"), _number(parameters["B"], "B")
            return beta, b, _product(space, [j])
        if preset == "nnn":
            beta = resolve_beta(parameters["beta"])
            j1, j2 = _number(parameters["J1"], "J1"), _number(parameters["J2"], "J2")
            return beta, _number(parameters["B"], "B"), _product(space, [j1, j2])
        if preset == "pbrw":
            nn = pbrw_couplings(
                PBRWParams(p=_number(parameters["p"], "p"), r=_number(parameters["r"], "r"))
            )
            return nn.beta, nn.B, _product(space, [nn.J])
        beta = resolve_beta(parameters["beta"])
    except KeyError as exc:
        raise ConfigError(f"preset {preset!r} needs parameter {exc.args[0]!r}") from exc
    field = _number(parameters.get("field", 0.0), "field")
    couplings = parameters.get("couplings")
    if couplings is None:
        raise ConfigError("custom model needs parameters.couplings")
    if isinstance(couplings, dict) and "product" in couplings:
        j_by_distance = _number(couplings["product"], "couplings.product", _float_list)
        return beta, field, _product(space, j_by_distance)
    return beta, field, check_couplings(space, _number(couplings, "couplings", _float_list))


def _product(space: BlockSpace, j_by_distance: list) -> np.ndarray:
    return product_couplings(space, np.array([j_by_distance], dtype=float))[0]


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def sweep_points(sweep: dict) -> tuple[list[str], np.ndarray]:
    """Parameter names and the (count, k) matrix of sweep points.

    Grid mode takes the cartesian product of per-parameter ranges in
    declared order (last parameter fastest); random mode draws each
    parameter independently, log-uniformly where scale says so, from a
    seeded generator. Ordering is deterministic either way.
    """
    if not isinstance(sweep, dict) or "mode" not in sweep:
        raise ConfigError("sweep section must carry a 'mode' field")
    mode = sweep["mode"]
    params = sweep.get("parameters")
    if not isinstance(params, dict) or not params:
        raise ConfigError("sweep.parameters must name at least one parameter")
    if not all(isinstance(s, dict) and {"low", "high"} <= s.keys() for s in params.values()):
        raise ConfigError("every sweep parameter needs low and high")
    names = list(params.keys())

    if mode == "grid":
        axes = []
        for name in names:
            spec = params[name]
            count = _number(spec.get("count", 0), f"{name}.count", int)
            if count < 1:
                raise ConfigError(f"sweep parameter {name!r} needs a positive count")
            low, high = _number(spec["low"], f"{name}.low"), _number(spec["high"], f"{name}.high")
            if spec.get("scale", "linear") == "log":
                if low <= 0 or high <= 0:
                    raise ConfigError(f"log scale needs positive bounds for {name!r}")
                axes.append(np.logspace(np.log10(low), np.log10(high), count))
            else:
                axes.append(np.linspace(low, high, count))
        mesh = np.meshgrid(*axes, indexing="ij")
        values = np.stack([m.ravel() for m in mesh], axis=1)
        return names, values

    if mode == "random":
        count = _number(sweep.get("count", 0), "sweep.count", int)
        if count < 1:
            raise ConfigError("random sweep needs a positive count")
        if "seed" not in sweep:
            raise ConfigError("random sweep needs an explicit seed")
        seed = _number(sweep["seed"], "sweep.seed", int)
        if seed < 0:
            raise ConfigError(f"sweep.seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        columns = []
        for name in names:
            spec = params[name]
            low, high = _number(spec["low"], f"{name}.low"), _number(spec["high"], f"{name}.high")
            draws = rng.random(count)
            if spec.get("scale", "linear") == "log":
                if low <= 0 or high <= 0:
                    raise ConfigError(f"log scale needs positive bounds for {name!r}")
                columns.append(np.exp(np.log(low) + draws * (np.log(high) - np.log(low))))
            else:
                columns.append(low + draws * (high - low))
        return names, np.stack(columns, axis=1)

    raise ConfigError(f"sweep mode must be grid or random, got {mode!r}")


def evaluate_sweep_point(model: dict, base_parameters: dict, point: dict) -> dict:
    """One sweep row: metrics on success, an error status otherwise."""
    return evaluate_chunk(model, base_parameters, list(point), [list(point.values())])[0]


def evaluate_chunk(
    model: dict, base_parameters: dict, names: list[str], values: list[list[float]]
) -> list[dict]:
    """Sweep rows of the points ``values`` (one list per point, aligned
    with ``names``), evaluated as stacks; a failing point gets its error
    status and leaves the other rows untouched."""
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
            terms.append(_point_terms(model["preset"], space, parameters))
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

    # at most _STACK_ENTRIES entries per (P, S, S) array of a stack: the
    # O(S^3) kernels walk a stack in row blocks of that many entries, so
    # its memory grows as P * S**2, and 64-block spaces stack 16 points
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


def _failed_row(row: dict, exc: SpinmechError) -> dict:
    row.update(
        log_lambda0=math.nan,
        C_mu=math.nan,
        h_mu=math.nan,
        E_mu=math.nan,
        E_paper=math.nan,
        C_mu_spin=math.nan,
        h_mu_spin=math.nan,
        E_spin=math.nan,
        n_states=0,
        n_classes=0,
        max_residual=math.nan,
        status=_error_code(exc),
    )
    return row


def _error_code(exc: SpinmechError) -> str:
    name = type(exc).__name__
    out = []
    for ch in name:
        if ch.isupper() and out:
            out.append("_")
        out.append(ch.lower())
    return "".join(out)


def run_sweep(config: dict, jobs: int | None = None) -> tuple[list[str], list[dict]]:
    """Evaluate every sweep point; returns (parameter names, rows in order).

    Points go in chunks of CHUNK_SIZE; with ``jobs`` > 1 whole chunks go to
    a pool of at most one process per chunk. ``jobs`` < 1 is a ConfigError.
    """
    model = config.get("model")
    if model is None:
        raise ConfigError("config needs a model section")
    base_parameters = config.get("parameters", {})
    if not isinstance(base_parameters, dict):
        raise ConfigError("parameters section must be a JSON object")
    names, values = sweep_points(config.get("sweep"))

    chunks = [values[lo : lo + CHUNK_SIZE].tolist() for lo in range(0, len(values), CHUNK_SIZE)]
    args = (repeat(model), repeat(base_parameters), repeat(names), chunks)
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(chunks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(evaluate_chunk, *args))
    else:
        parts = list(map(evaluate_chunk, *args))
    return names, [row for part in parts for row in part]


def _unit_scale(units: str) -> float:
    """Entropies are computed in bits; the factor that reports them in ``units``."""
    if units == "bits":
        return 1.0
    if units == "nats":
        return LN2
    raise ConfigError(f"output.units must be bits or nats, got {units!r}")


def format_csv(names: list[str], rows: list[dict], units: str = "bits") -> str:
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


def metrics_document(config: dict, result: PointResult, units: str = "bits") -> dict:
    """Self-describing JSON document for one analyzed point."""
    scale = _unit_scale(units)

    def classes(mset: MachineSet) -> list[dict]:
        out = []
        for machine in mset.machines:
            out.append(
                {
                    "weight": machine.weight,
                    "n_states": machine.n_states,
                    "state_probs": [float(p) for p in machine.partition.probs],
                    "C_mu": machine.c_mu * scale,
                    "h_mu": machine.h_mu * scale,
                    "E_mu": machine.e_mu * scale,
                    "E_paper": machine.e_paper * scale,
                    "excess_forms_agree": machine.excess_forms_agree,
                }
            )
        return out

    return {
        "config": config,
        "units": units,
        "results": {
            "log_lambda0": result.log_lambda0,
            "C_mu": result.c_mu * scale,
            "h_mu": result.h_mu * scale,
            "E_mu": result.e_mu * scale,
            "E_paper": result.e_paper * scale,
            "C_mu_spin": result.c_mu_spin * scale,
            "h_mu_spin": result.h_mu_spin * scale,
            "E_spin": result.e_spin * scale,
            "n_states": result.n_states,
            "n_classes": result.n_classes,
            "n_classes_spin": result.spin.n_classes,
            "max_residual": result.max_residual,
            "block_classes": classes(result.block),
            "spin_classes": classes(result.spin),
        },
    }
