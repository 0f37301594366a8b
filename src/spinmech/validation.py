"""Oracle battery shared by the `validate` subcommand and the acceptance gate.

Each oracle pits the analytic pipeline against an independent route
(closed forms, exhaustive enumeration, the literal consistency-system
solver, Monte Carlo counts) and returns its raw residual; callers pick
their own instances and tolerances. ``run_validation`` is the battery
behind `validate`, which exits nonzero on any failure.
"""

from dataclasses import dataclass

import numpy as np

from .machine import spin_machines
from .markov import BlockChain, consistency_residual, local_characteristics, solve_stochastic
from .models import NNNParams, NNParams, nn_ising, nn_reference_values, nnn_ising
from .oracle import (
    EntropyEstimate,
    conditional_from_enumeration,
    empirical_entropy_rate,
    enumerate_gibbs,
    naive_isolated_conditional,
    quadratic_system_solve,
    sample_sequence,
)
from .transfer import TransferSystem, build_transfer


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool
    note: str = ""


def _systems(seed: int, count: int) -> list[TransferSystem]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        beta = float(np.exp(rng.uniform(np.log(1e-2), np.log(5.0))))
        if rng.random() < 0.5:
            model = nn_ising(NNParams(J=rng.uniform(-1.5, 1.5), B=rng.uniform(-2, 2), beta=beta))
        else:
            model = nnn_ising(
                NNNParams(
                    J1=rng.uniform(-1.5, 1.5),
                    J2=rng.uniform(-1.5, 1.5),
                    B=rng.uniform(-2, 2),
                    beta=beta,
                )
            )
        out.append(build_transfer(model, beta))
    return out


def nn_closed_form_gaps() -> tuple[float, float]:
    """Worst gaps to the NN closed forms over a 27-point (beta, J, B) grid.

    Returns (neighbor conditionals, up-up transition probability).
    """
    worst_lc = 0.0
    worst_p = 0.0
    for beta in (0.1, 1.0, 10.0):
        for j in (-1.5, 0.0, 1.5):
            for b in (-3.0, 0.0, 3.0):
                params = NNParams(J=j, B=b, beta=beta)
                ts = build_transfer(nn_ising(params), beta)
                ref = nn_reference_values(params)
                lc = local_characteristics(ts)
                worst_lc = max(worst_lc, float(np.max(np.abs(lc.interior - ref.conditionals))))
                chain = solve_stochastic(ts)
                worst_p = max(worst_p, abs(chain.matrix[1, 1] - ref.p_up_up))
    return worst_lc, worst_p


def enumeration_gaps(
    ts: TransferSystem, n_blocks: int, positions: tuple[int, ...]
) -> tuple[float, float]:
    """Gaps between the local characteristics and an open-chain enumeration.

    Returns (worst neighbor conditional over ``positions``, first block).
    """
    lc = local_characteristics(ts)
    ens = enumerate_gibbs(ts.hamiltonian, ts.beta, n_blocks)
    worst_triple = 0.0
    for position in positions:
        tables = conditional_from_enumeration(ens, position)
        worst_triple = max(worst_triple, float(np.max(np.abs(tables.triple - lc.interior))))
    head = conditional_from_enumeration(ens, 0)
    return worst_triple, float(np.max(np.abs(head.first - lc.first_block)))


def isolated_subchain_gap(ts: TransferSystem) -> float:
    """How far the isolated-subchain shortcut is from the true step conditional."""
    naive = naive_isolated_conditional(ts)
    pair = enumerate_gibbs(ts.hamiltonian, ts.beta, 2)
    true_step = conditional_from_enumeration(pair, 0).step
    return float(np.max(np.abs(naive - true_step)))


def literal_solver_gap(ts: TransferSystem, chain: BlockChain) -> float:
    """Gap between the literal consistency-system solver and ``chain``.

    Raises QuadraticSolveError where the solver cannot pin the matrix.
    """
    recovered = quadratic_system_solve(local_characteristics(ts))
    return float(np.max(np.abs(recovered - chain.matrix)))


def entropy_error(
    chain: BlockChain, analytic: float, n_blocks: int, seed: int
) -> tuple[float, EntropyEstimate]:
    """Monte Carlo entropy rate of ``n_blocks`` sampled blocks against ``analytic``.

    Returns the absolute error and the estimate, per spin.
    """
    sequence = sample_sequence(chain, n_blocks, seed=seed)
    estimate = empirical_entropy_rate(sequence, chain.space.n)
    return abs(estimate.value - analytic), estimate


def run_validation(seed: int = 20240, corrupt: bool = False) -> list[CheckResult]:
    checks: list[CheckResult] = []
    systems = _systems(seed, 6)
    small = [ts for ts in systems if ts.hamiltonian.blocks.size <= 4]

    worst = max(ts.perron_residual for ts in systems)
    checks.append(CheckResult("perron-residual", worst, 1e-12, worst <= 1e-12))

    # transition-matrix consistency certification (optionally corrupted)
    worst = 0.0
    note = ""
    for ts in systems:
        matrix = solve_stochastic(ts).matrix.copy()
        if corrupt:
            matrix[0] = np.roll(matrix[0], 1)
            matrix[0] /= matrix[0].sum()
            note = "matrix intentionally corrupted"
        residual, _ = consistency_residual(local_characteristics(ts), matrix)
        worst = max(worst, residual)
    checks.append(
        CheckResult("consistency-residual", worst, 1e-10, worst <= 1e-10, note)
    )

    gaps = [enumeration_gaps(ts, 5, (2,)) for ts in small]
    worst_triple = max((g[0] for g in gaps), default=0.0)
    worst_first = max((g[1] for g in gaps), default=0.0)
    checks.append(
        CheckResult("enumeration-conditionals", worst_triple, 1e-12, worst_triple <= 1e-12)
    )
    checks.append(
        CheckResult("enumeration-first-block", worst_first, 1e-12, worst_first <= 1e-12)
    )

    # the isolated-subchain shortcut must visibly disagree somewhere
    biggest = max(isolated_subchain_gap(ts) for ts in systems)
    checks.append(
        CheckResult(
            "isolated-subchain-shortcut-disagrees",
            biggest,
            1e-3,
            biggest > 1e-3,
            "shortcut must differ from the marginalized conditional",
        )
    )

    worst = max((literal_solver_gap(ts, solve_stochastic(ts)) for ts in small), default=0.0)
    checks.append(CheckResult("consistency-system-solver", worst, 1e-8, worst <= 1e-8))

    # Monte Carlo: empirical conditional entropy against the analytic rate
    model, beta = nn_ising(NNParams(J=0.5 * np.log(3.0), B=0.0, beta=1.0)), 1.0
    chain = solve_stochastic(build_transfer(model, beta))
    analytic = spin_machines(chain).h_mu
    err, estimate = entropy_error(chain, analytic, 400_000, seed + 1)
    bound = max(3.0 * estimate.stderr, 1e-3)
    checks.append(
        CheckResult(
            "empirical-entropy",
            err,
            bound,
            err <= bound,
            f"estimate {estimate.value:.5f} vs analytic {analytic:.5f}",
        )
    )

    worst_lc, worst_p = nn_closed_form_gaps()
    checks.append(CheckResult("nn-closed-form-conditionals", worst_lc, 1e-12, worst_lc <= 1e-12))
    checks.append(CheckResult("nn-closed-form-transition", worst_p, 1e-10, worst_p <= 1e-10))

    return checks


def render_report(checks: list[CheckResult]) -> str:
    lines = []
    for check in checks:
        verdict = "PASS" if check.passed else "FAIL"
        extra = f"  ({check.note})" if check.note else ""
        lines.append(
            f"{check.name}: residual {check.residual:.3e} vs tolerance "
            f"{check.tolerance:.1e}: {verdict}{extra}"
        )
    failed = sum(1 for c in checks if not c.passed)
    lines.append(
        f"{len(checks) - failed}/{len(checks)} checks passed"
        + ("" if failed == 0 else f", {failed} FAILED")
    )
    return "\n".join(lines) + "\n"
