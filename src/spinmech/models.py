"""Preset models: NN and NNN binary chains and the persistent biased walk.

Spins take the values -1 (down, index 0) and +1 (up, index 1); couplings
and field absorb any rescaling. The NN closed forms below are algebraic
solutions of the neighbor-conditional consistency system and serve as an
independent check of the generic inversion pipeline.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BoundaryTieError, LimitParameterError
from .hamiltonian import Hamiltonian
from .lattice import BINARY, BlockSpace
from .markov import BlockChain, solve_stochastic
from .transfer import build_transfer


@dataclass(frozen=True)
class NNParams:
    """Nearest-neighbor chain: coupling J, field B, inverse temperature."""

    J: float
    B: float
    beta: float


@dataclass(frozen=True)
class NNNParams:
    """Next-nearest-neighbor chain: distance-1 and distance-2 couplings."""

    J1: float
    J2: float
    B: float
    beta: float


@dataclass(frozen=True)
class PBRWParams:
    """Persistent biased random walk: persistence p, rightward bias r.

    Both probabilities live strictly inside (0, 1); the endpoints are
    zero-temperature limits and go through the ground-state pathway.
    """

    p: float
    r: float


@dataclass(frozen=True)
class NNReference:
    """Closed-form NN conditionals.

    ``conditionals[j, i, m]`` is Pr(middle = i | left = j, right = m) with
    indices 0 = down, 1 = up; ``p_up_up`` is the up-to-up entry of the
    one-sided transition matrix.
    """

    conditionals: np.ndarray
    p_up_up: float


# One block space per preset, shared by every model built from it, so its
# index tables are computed once per process.
NN_SPACE = BlockSpace(BINARY, 1)
NNN_SPACE = BlockSpace(BINARY, 2)


def nn_ising(params: NNParams) -> Hamiltonian:
    """Binary range-1 chain with energy -B*sum(s) - J*sum(s s')."""
    return Hamiltonian.pair_product(NN_SPACE, params.B, [params.J])


def nnn_ising(params: NNNParams) -> Hamiltonian:
    """Binary range-2 chain with distance-resolved couplings J1, J2."""
    return Hamiltonian.pair_product(NNN_SPACE, params.B, [params.J1, params.J2])


def nn_reference_values(params: NNParams) -> NNReference:
    """Closed-form neighbor conditionals and up-to-up transition probability.

    The eight conditionals are evaluated exactly as the algebra gives them.
    The transition entry is the positive root of the quadratic consistency
    system written over the four matrix entries; its surd discriminant
    involves only the printed combination of exponentials.
    """
    b = params.beta
    j = params.J
    h = params.B
    e2b = math.exp(2.0 * b * h)
    e4j = math.exp(4.0 * b * j)
    cond = np.empty((2, 2, 2))
    cond[0, 0, 0] = e4j / (e2b + e4j)
    cond[0, 0, 1] = 1.0 / (e2b + 1.0)
    cond[0, 1, 0] = 1.0 / (math.exp(4.0 * b * j - 2.0 * b * h) + 1.0)
    cond[0, 1, 1] = e2b / (e2b + 1.0)
    cond[1, 0, 0] = 1.0 / (e2b + 1.0)
    cond[1, 0, 1] = 1.0 / (math.exp(2.0 * b * (h + 2.0 * j)) + 1.0)
    cond[1, 1, 0] = e2b / (e2b + 1.0)
    cond[1, 1, 1] = math.exp(2.0 * b * (h + 2.0 * j)) / (
        math.exp(2.0 * b * (h + 2.0 * j)) + 1.0
    )
    discriminant = (
        4.0 * math.exp(2.0 * b * h)
        + math.exp(4.0 * b * (h + j))
        - 2.0 * math.exp(2.0 * b * (h + 2.0 * j))
        + math.exp(4.0 * b * j)
    )
    p_up_up = (
        2.0
        * math.exp(2.0 * b * (h + j))
        / (math.sqrt(discriminant) + math.exp(2.0 * b * (h + j)) + math.exp(2.0 * b * j))
    )
    return NNReference(conditionals=cond, p_up_up=p_up_up)


# Candidate ground-state patterns per phase, as symbol-index tuples.
# Orientation variants matter once the field breaks the flip symmetry.
_PHASE_PATTERNS: dict[str, tuple[tuple[int, ...], ...]] = {
    "P1": ((1,), (0,)),
    "P2": ((1, 0),),
    "P3": ((1, 1, 0), (0, 0, 1)),
    "P4": ((1, 1, 0, 0),),
}


def nnn_ground_state_phase(params: NNNParams, atol: float = 1e-9) -> str:
    """Label of the minimum-energy periodic pattern among the four phases.

    Energies per spin are evaluated on one period with periodic wrapping,
    which reproduces the infinite-pattern energy for any period length.
    An energy tie within ``atol`` means the point sits on a phase boundary.
    """
    model = nnn_ising(params)
    best: dict[str, float] = {}
    for label, patterns in _PHASE_PATTERNS.items():
        energies = [
            model.chain_energy_direct(pattern, boundary="periodic") / len(pattern)
            for pattern in patterns
        ]
        best[label] = min(energies)
    minimum = min(best.values())
    tied = tuple(sorted(lab for lab, e in best.items() if e - minimum <= atol))
    if len(tied) > 1:
        raise BoundaryTieError(
            f"ground-state energies tie between phases {tied}", tied
        )
    return tied[0]


def pbrw_ising(params: PBRWParams) -> Hamiltonian:
    """NN chain equivalent of the walk, at unit inverse temperature.

    The map J = ln(p/(1-p))/2, B = ln(r/(1-r))/2 makes p exactly the
    probability of repeating the previous step when r = 1/2, and r exactly
    the marginal right-step probability when p = 1/2.
    """
    return nn_ising(pbrw_couplings(params))


def pbrw_couplings(params: PBRWParams) -> NNParams:
    """The NN parameters of the walk; see pbrw_ising."""
    if not (0.0 < params.p < 1.0 and 0.0 < params.r < 1.0):
        raise LimitParameterError(
            "p and r must lie strictly inside (0, 1); the endpoints are "
            "zero-temperature limits, use the ground-state pathway instead"
        )
    j = 0.5 * math.log(params.p / (1.0 - params.p))
    b = 0.5 * math.log(params.r / (1.0 - params.r))
    return NNParams(J=j, B=b, beta=1.0)


def pbrw(params: PBRWParams) -> BlockChain:
    """Two-state step chain of the walk; state 0 is left, state 1 is right."""
    return solve_stochastic(build_transfer(pbrw_ising(params), 1.0))
