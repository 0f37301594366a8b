"""Analytic epsilon-machine construction for finite-range 1D spin chains.

From a pairwise Hamiltonian of interaction range n, the package builds the
block transfer matrix, inverts the random field's local characteristics
into the block-to-block stochastic matrix, partitions blocks into causal
states, and reports statistical complexity, entropy density, and excess
entropy at block and single-spin level, with brute-force oracles and sweep
tooling for complexity-entropy diagrams.
"""

from .analysis import PointResult, analyze, metrics_document, run_sweep
from .errors import SpinmechError
from .hamiltonian import Hamiltonian
from .lattice import BINARY, BlockSpace, SpinAlphabet
from .machine import (
    CausalPartition,
    Machine,
    MachineSet,
    block_machines,
    spin_machines,
)
from .markov import (
    BlockChain,
    LocalCharacteristics,
    local_characteristics,
    solve_stochastic,
    window_chain,
)
from .models import (
    NNNParams,
    NNParams,
    PBRWParams,
    nn_ising,
    nn_reference_values,
    nnn_ground_state_phase,
    nnn_ising,
    pbrw,
    pbrw_ising,
)
from .oracle import (
    EntropyEstimate,
    GibbsEnsemble,
    conditional_from_enumeration,
    empirical_entropy_rate,
    enumerate_gibbs,
    quadratic_system_solve,
    sample_sequence,
)
from .transfer import (
    GROUND_STATE_BETA,
    TransferSystem,
    asymptotic_log_partition,
    build_transfer,
    partition_function,
)

__version__ = "0.1.0"

__all__ = [
    "BINARY",
    "BlockChain",
    "BlockSpace",
    "CausalPartition",
    "EntropyEstimate",
    "GROUND_STATE_BETA",
    "GibbsEnsemble",
    "Hamiltonian",
    "LocalCharacteristics",
    "Machine",
    "MachineSet",
    "NNNParams",
    "NNParams",
    "PBRWParams",
    "PointResult",
    "SpinAlphabet",
    "SpinmechError",
    "TransferSystem",
    "analyze",
    "asymptotic_log_partition",
    "block_machines",
    "build_transfer",
    "conditional_from_enumeration",
    "empirical_entropy_rate",
    "enumerate_gibbs",
    "local_characteristics",
    "metrics_document",
    "nn_ising",
    "nn_reference_values",
    "nnn_ground_state_phase",
    "nnn_ising",
    "partition_function",
    "pbrw",
    "pbrw_ising",
    "quadratic_system_solve",
    "run_sweep",
    "sample_sequence",
    "solve_stochastic",
    "spin_machines",
    "window_chain",
]
