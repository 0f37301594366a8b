"""Finite-range pair interactions on a one-dimensional spin chain.

The interaction is stored as a table of pair energies indexed by site
distance d in 1..n and by the ordered pair of symbol indices; the external
field couples linearly to the spin values. Energies use k_B = 1 units, so
temperature only ever enters through beta downstream.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidChainError, NumericDomainError
from .lattice import BlockSpace


@dataclass(frozen=True)
class Hamiltonian:
    """Pairwise interaction of range n plus an external field.

    couplings[d-1, a, b] is the energy of a symbol-a spin and a symbol-b
    spin sitting d sites apart; the table must be symmetric in (a, b).
    Distances beyond n carry zero energy and are never stored.
    """

    blocks: BlockSpace
    field: float
    couplings: np.ndarray

    def __post_init__(self):
        table = check_couplings(self.blocks, self.couplings)
        if not finite_models(np.array([self.field]), table[None])[0]:
            raise NumericDomainError("couplings and field must be finite")
        object.__setattr__(self, "couplings", table)
        object.__setattr__(self, "field", float(self.field))

    @classmethod
    def pair_product(
        cls, blocks: BlockSpace, field: float, j_by_distance: Sequence[float]
    ) -> "Hamiltonian":
        """Product-form couplings: pair energy at distance d is -J_d * s * s'."""
        table = product_couplings(blocks, np.asarray(j_by_distance, dtype=float)[None])[0]
        return cls(blocks, field, table)

    @cached_property
    def intra_energies(self) -> np.ndarray:
        """Vector over blocks of within-block energies (field + inner pairs)."""
        return intra_energy_stack(self.blocks, np.array([self.field]), self.couplings[None])[0]

    @cached_property
    def cross_energies(self) -> np.ndarray:
        """Matrix over ordered block pairs of between-block energies.

        Entry (p, q) couples the spins of block p to those of the block q
        immediately to its right; the matrix is not symmetric in general.
        """
        return cross_energy_stack(self.blocks, self.couplings[None])[0]

    def intra_block_energy(self, block: int) -> float:
        """Energy of the spins inside one block, including the field term."""
        self.blocks._check(block)
        return float(self.intra_energies[block])

    def cross_block_energy(self, block: int, right_block: int) -> float:
        """Interaction energy between a block and the block to its right."""
        self.blocks._check(block)
        self.blocks._check(right_block)
        return float(self.cross_energies[block, right_block])

    def chain_energy_blockwise(self, spins: Sequence[int], boundary: str = "open") -> float:
        """Chain energy assembled from block terms; length must be a multiple of n.

        Open chains sum intra terms plus consecutive cross terms; periodic
        chains add the wrap-around cross term from the last block to the first.
        """
        _check_boundary(boundary)
        n = self.blocks.n
        length = len(spins)
        if length == 0 or length % n != 0:
            raise InvalidChainError(
                f"chain length {length} is not a positive multiple of n={n}"
            )
        blocks = [
            self.blocks.encode(spins[i : i + n]) for i in range(0, length, n)
        ]
        energy = float(np.sum(self.intra_energies[blocks]))
        for a, b in zip(blocks, blocks[1:]):
            energy += self.cross_energies[a, b]
        if boundary == "periodic":
            energy += self.cross_energies[blocks[-1], blocks[0]]
        return energy

    def chain_energy_direct(self, spins: Sequence[int], boundary: str = "open") -> float:
        """Chain energy summed pair by pair over all sites; any length >= 1.

        Serves as the independent check of the blockwise decomposition.
        Periodic chains wrap pair distances modulo the length.
        """
        _check_boundary(boundary)
        length = len(spins)
        if length < 1:
            raise InvalidChainError("need at least one spin")
        vals = np.asarray(self.blocks.alphabet.values, dtype=float)
        idx = [int(s) for s in spins]
        energy = -self.field * float(np.sum(vals[idx]))
        n = self.blocks.n
        for i in range(length):
            for d in range(1, n + 1):
                j = i + d
                if boundary == "periodic":
                    j %= length
                elif j >= length:
                    continue
                energy += self.couplings[d - 1, idx[i], idx[j]]
        return energy


def check_couplings(space: BlockSpace, couplings) -> np.ndarray:
    """The (n, theta, theta) coupling table as floats; raises unless its
    shape fits ``space`` and it is symmetric in the spins."""
    table = np.asarray(couplings, dtype=float)
    theta = space.alphabet.size
    expected = (space.n, theta, theta)
    if table.shape != expected:
        raise NumericDomainError(f"couplings shape {table.shape} != {expected}")
    if not np.array_equal(table, table.transpose(0, 2, 1)):
        raise NumericDomainError("pair couplings must be symmetric in the spins")
    return table


def finite_models(fields: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """(P,) mask of models whose field and couplings are all finite."""
    return np.isfinite(couplings).all(axis=(1, 2, 3)) & np.isfinite(fields)


def product_couplings(space: BlockSpace, j_by_distance: np.ndarray) -> np.ndarray:
    """(P, n, theta, theta) product-form tables from (P, n) couplings J_d.

    The pair energy at distance d is -J_d * s * s'.
    """
    if j_by_distance.shape[1] != space.n:
        raise NumericDomainError(f"need {space.n} couplings, got {j_by_distance.shape[1]}")
    vals = np.asarray(space.alphabet.values, dtype=float)
    return -j_by_distance[:, :, None, None] * np.outer(vals, vals)


def intra_energy_stack(space: BlockSpace, fields: np.ndarray, couplings: np.ndarray) -> np.ndarray:
    """(P, size) within-block energies of P models sharing one block space."""
    digits = space.digit_table
    x = -fields[:, None] * space.value_table.sum(axis=1)
    for i in range(space.n - 1):
        for k in range(i + 1, space.n):
            x = x + couplings[:, k - i - 1, digits[:, i], digits[:, k]]
    return x


def cross_energy_stack(space: BlockSpace, couplings: np.ndarray) -> np.ndarray:
    """(P, size, size) between-block energies of P models sharing one block space."""
    digits = space.digit_table
    y = np.zeros((couplings.shape[0], space.size, space.size))
    for i in range(space.n):
        for k in range(i + 1):
            d = space.n - i + k
            y = y + couplings[:, d - 1, digits[:, i][:, None], digits[:, k][None, :]]
    return y


def _check_boundary(boundary: str) -> None:
    if boundary not in ("open", "periodic"):
        raise InvalidChainError(f"boundary must be open or periodic, got {boundary!r}")
