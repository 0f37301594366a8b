"""Single-point pipeline, parameter sweeps, and file emission.

A point runs model -> transfer -> stochastic chain -> machines and collects
the information measures plus diagnostics into one record. Sweeps evaluate
many points (optionally across processes; each point is pure) and assemble
rows in index order, so output is bit-identical for a given config + seed.
"""

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SpinmechError
from .hamiltonian import Hamiltonian
from .lattice import BlockSpace, SpinAlphabet
from .machine import MachineSet, block_machines, spin_machines
from .markov import BlockChain, solve_stochastic
from .models import NNNParams, NNParams, PBRWParams, nn_ising, nnn_ising, pbrw_ising
from .transfer import GROUND_STATE_BETA, build_transfer

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
    ts = build_transfer(hamiltonian, beta)
    chain = solve_stochastic(ts)
    block = block_machines(chain)
    if hamiltonian.blocks.n == 1:
        # windows of one spin are the blocks themselves; the spin machine is
        # the block machine read per spin
        spin = MachineSet(
            kind="spin",
            machines=block.machines,
            c_mu=block.c_mu,
            h_mu=block.h_mu,
            e_mu=block.e_mu,
            e_paper=block.e_paper,
        )
    else:
        spin = spin_machines(chain)
    return PointResult(
        beta=float(beta),
        log_lambda0=ts.log_lambda0,
        max_residual=float(chain.consistency_residual),
        chain=chain,
        block=block,
        spin=spin,
    )


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
    try:
        number = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be numeric, got {value!r}") from None
    # int() truncates: a range or count of 2.5 is malformed, not 2
    if kind is int and isinstance(value, float) and number != value:
        raise ConfigError(f"{name} must be a whole number, got {value!r}")
    return number


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
    if not isinstance(model, dict) or "preset" not in model:
        raise ConfigError("model section must carry a 'preset' field")
    if not isinstance(parameters, dict):
        raise ConfigError("parameters section must be a JSON object")
    preset = model["preset"]
    try:
        if preset == "nn":
            beta = resolve_beta(parameters["beta"])
            j, b = _number(parameters["J"], "J"), _number(parameters["B"], "B")
            return nn_ising(NNParams(J=j, B=b, beta=beta)), beta
        if preset == "nnn":
            beta = resolve_beta(parameters["beta"])
            return (
                nnn_ising(
                    NNNParams(
                        J1=_number(parameters["J1"], "J1"),
                        J2=_number(parameters["J2"], "J2"),
                        B=_number(parameters["B"], "B"),
                        beta=beta,
                    )
                ),
                beta,
            )
        if preset == "pbrw":
            params = PBRWParams(p=_number(parameters["p"], "p"), r=_number(parameters["r"], "r"))
            return pbrw_ising(params), 1.0
        if preset == "custom":
            return _custom_hamiltonian(model, parameters)
    except KeyError as exc:
        raise ConfigError(f"preset {preset!r} needs parameter {exc.args[0]!r}") from exc
    raise ConfigError(f"unknown preset {preset!r}; choose nn, nnn, pbrw, or custom")


def _custom_hamiltonian(model: dict, parameters: dict) -> tuple[Hamiltonian, float]:
    values = _number(model.get("alphabet", (-1.0, 1.0)), "model.alphabet", _float_list)
    alphabet = SpinAlphabet(tuple(values))
    if "range" not in model:
        raise ConfigError("custom model needs a 'range' field")
    space = BlockSpace(alphabet, _number(model["range"], "model.range", int))
    beta = resolve_beta(parameters["beta"])
    field = _number(parameters.get("field", 0.0), "field")
    couplings = parameters.get("couplings")
    if couplings is None:
        raise ConfigError("custom model needs parameters.couplings")
    if isinstance(couplings, dict) and "product" in couplings:
        j_by_distance = _number(couplings["product"], "couplings.product", _float_list)
        return Hamiltonian.pair_product(space, field, j_by_distance), beta
    table = _number(couplings, "couplings", _float_list)
    return Hamiltonian(space, field, table), beta


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
        rng = np.random.default_rng(_number(sweep["seed"], "sweep.seed", int))
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
    parameters = dict(base_parameters)
    parameters.update(point)
    row = {name: float(value) for name, value in point.items()}
    try:
        hamiltonian, beta = hamiltonian_from_config(model, parameters)
        result = analyze(hamiltonian, beta)
        row.update(
            log_lambda0=result.log_lambda0,
            C_mu=result.c_mu,
            h_mu=result.h_mu,
            E_mu=result.e_mu,
            E_paper=result.e_paper,
            C_mu_spin=result.c_mu_spin,
            h_mu_spin=result.h_mu_spin,
            E_spin=result.e_spin,
            n_states=result.n_states,
            n_classes=result.n_classes,
            max_residual=result.max_residual,
            status="ok",
        )
    except SpinmechError as exc:
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


def _sweep_worker(args: tuple) -> dict:
    model, base_parameters, names, values = args
    point = dict(zip(names, values))
    return evaluate_sweep_point(model, base_parameters, point)


def run_sweep(config: dict, jobs: int | None = None) -> tuple[list[str], list[dict]]:
    """Evaluate every sweep point; returns (parameter names, rows in order)."""
    model = config.get("model")
    if model is None:
        raise ConfigError("config needs a model section")
    base_parameters = config.get("parameters", {})
    if not isinstance(base_parameters, dict):
        raise ConfigError("parameters section must be a JSON object")
    names, values = sweep_points(config.get("sweep"))

    tasks = [(model, base_parameters, names, row.tolist()) for row in values]
    if jobs is None:
        jobs = min(os.cpu_count() or 1, 8)
    if jobs > 1 and len(tasks) > 64:
        chunk = max(16, len(tasks) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            rows = list(pool.map(_sweep_worker, tasks, chunksize=chunk))
    else:
        rows = [_sweep_worker(task) for task in tasks]
    return names, rows


def format_csv(names: list[str], rows: list[dict], units: str = "bits") -> str:
    """Render sweep rows as CSV with a header; floats use shortest repr."""
    header = ["index"] + names + CSV_METRIC_COLUMNS
    lines = [",".join(header)]
    scale = LN2 if units == "nats" else 1.0
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
    scale = LN2 if units == "nats" else 1.0

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
