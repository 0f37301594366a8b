"""Command-line interface: analyze, sweep, machine, sample, validate.

Configs are JSON documents with model / parameters / sweep / output
sections; any field can be overridden from the command line with
``--set path.to.field=value``. Exit codes: 0 success, 1 usage or config
error, 2 numerical or validation failure.
"""

import argparse
import json
import sys

import numpy as np

from .analysis import (
    analyze,
    apply_overrides,
    format_csv,
    hamiltonian_from_config,
    load_config,
    metrics_document,
    run_sweep,
)
from .errors import ConfigError, SpinmechError
from .graphs import machines_to_dot
from .machine import MachineSet, block_machines, spin_machines
from .markov import solve_stochastic
from .oracle import RNG_KIND, sample_sequence
from .transfer import build_transfer
from .validation import render_report, run_validation


class _UsageError(Exception):
    """A flag value outside its range: one line on stderr, exit code 1."""


def _at_least(value: int, minimum: int, flag: str) -> None:
    if value < minimum:
        raise _UsageError(f"argument {flag}: must be at least {minimum}, got {value}")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"{parser.prog} {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SpinmechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinmech",
        description="Analytic epsilon-machines for finite-range 1D spin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, needs_config: bool = True) -> None:
        if needs_config:
            p.add_argument("-c", "--config", required=True, help="JSON config file")
            p.add_argument(
                "--set",
                dest="overrides",
                action="append",
                default=[],
                metavar="PATH=VALUE",
                help="override a config field (JSON value), e.g. parameters.J=1.5",
            )
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        p.add_argument("--nats", action="store_true", help="report entropies in nats")

    p_analyze = sub.add_parser("analyze", help="metrics at a single parameter point")
    common(p_analyze)
    p_analyze.set_defaults(handler=_cmd_analyze)

    p_sweep = sub.add_parser("sweep", help="evaluate a parameter grid or random sweep")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_sweep.add_argument("--seed", type=int, default=None, help="seed for random sweeps")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_machine = sub.add_parser("machine", help="emit the reconstructed machine as DOT")
    common(p_machine)
    p_machine.add_argument(
        "--spin", action="store_true", help="emit the single-spin machine instead of blocks"
    )
    p_machine.set_defaults(handler=_cmd_machine)

    p_sample = sub.add_parser("sample", help="Monte Carlo spin sequence")
    common(p_sample)
    p_sample.add_argument("--blocks", type=int, required=True, help="number of blocks to draw")
    p_sample.add_argument("--seed", type=int, required=True)
    p_sample.add_argument(
        "--class-index",
        type=int,
        default=None,
        help="recurrent class to sample when the chain is reducible",
    )
    p_sample.set_defaults(handler=_cmd_sample)

    p_validate = sub.add_parser("validate", help="run the oracle validation battery")
    p_validate.add_argument("-o", "--output", default=None)
    p_validate.add_argument("--seed", type=int, default=20240)
    p_validate.add_argument(
        "--corrupt",
        action="store_true",
        help="test hook: corrupt the transition matrix to exercise the failure path",
    )
    p_validate.set_defaults(handler=_cmd_validate)

    return parser


def _prepared_config(args) -> dict:
    cfg = load_config(args.config)
    cfg = apply_overrides(cfg, args.overrides)
    return cfg


def _units(args, cfg: dict) -> str:
    if getattr(args, "nats", False):
        return "nats"
    output = cfg.get("output", {})
    if not isinstance(output, dict):
        raise ConfigError("output section must be a JSON object")
    return output.get("units", "bits")


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_analyze(args) -> int:
    cfg = _prepared_config(args)
    hamiltonian, beta = hamiltonian_from_config(cfg.get("model"), cfg.get("parameters", {}))
    result = analyze(hamiltonian, beta)
    document = metrics_document(cfg, result, units=_units(args, cfg))
    _emit(json.dumps(document, indent=2) + "\n", args.output)
    return 0


def _cmd_sweep(args) -> int:
    if args.jobs is not None:
        _at_least(args.jobs, 1, "--jobs")
    cfg = _prepared_config(args)
    if args.seed is not None:
        cfg.setdefault("sweep", {})["seed"] = args.seed
    names, rows = run_sweep(cfg, jobs=args.jobs)
    _emit(format_csv(names, rows, units=_units(args, cfg)), args.output)
    return 0


def _cmd_machine(args) -> int:
    cfg = _prepared_config(args)
    hamiltonian, beta = hamiltonian_from_config(cfg.get("model"), cfg.get("parameters", {}))
    chain = solve_stochastic(build_transfer(hamiltonian, beta))
    mset: MachineSet = spin_machines(chain) if args.spin else block_machines(chain)
    _emit(machines_to_dot(mset, hamiltonian.blocks), args.output)
    return 0


def _cmd_sample(args) -> int:
    _at_least(args.blocks, 1, "--blocks")
    _at_least(args.seed, 0, "--seed")
    if args.class_index is not None:
        _at_least(args.class_index, 0, "--class-index")
    cfg = _prepared_config(args)
    hamiltonian, beta = hamiltonian_from_config(cfg.get("model"), cfg.get("parameters", {}))
    chain = solve_stochastic(build_transfer(hamiltonian, beta))
    sequence = sample_sequence(chain, args.blocks, seed=args.seed, class_index=args.class_index)
    alphabet = hamiltonian.blocks.alphabet
    header = [
        "# spinmech sample",
        f"# generator: {RNG_KIND}",
        f"# seed: {args.seed}",
        f"# blocks: {args.blocks}",
        f"# spins: {sequence.size}",
        f"# class: {args.class_index if args.class_index is not None else 'all'}",
        f"# config: {json.dumps(cfg, sort_keys=True)}",
    ]
    lookup = np.array([alphabet.symbol(i) for i in range(alphabet.size)], dtype="S1")
    symbols = lookup[sequence].tobytes().decode()
    wrapped = [symbols[i : i + 100] for i in range(0, len(symbols), 100)]
    _emit("\n".join(header + wrapped) + "\n", args.output)
    return 0


def _cmd_validate(args) -> int:
    _at_least(args.seed, 0, "--seed")
    checks = run_validation(seed=args.seed, corrupt=args.corrupt)
    _emit(render_report(checks), args.output)
    return 0 if all(c.passed for c in checks) else 2


if __name__ == "__main__":
    sys.exit(main())
