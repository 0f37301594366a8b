"""Spin alphabets, fixed-width block indexing, and the block-shift map.

Blocks of n consecutive spins are addressed by a single integer throughout
the package: the base-theta value of the symbol digits, most significant
first, which makes index order coincide with lexicographic block order.
"""

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidBlockError

_DIGITS = "0123456789abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class SpinAlphabet:
    """Ordered set of spin values; index order is fixed and total."""

    values: tuple[float, ...] = (-1.0, 1.0)

    def __post_init__(self):
        if len(self.values) < 2:
            raise InvalidBlockError("alphabet needs at least two spin values")
        if len(set(self.values)) != len(self.values):
            raise InvalidBlockError("alphabet values must be distinct")
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @property
    def size(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def value_products(self) -> np.ndarray:
        """(theta, theta) products s * s' of the spin values."""
        values = np.asarray(self.values, dtype=float)
        return np.outer(values, values)

    def symbol(self, index: int) -> str:
        """Single-character rendering of one symbol index."""
        if not 0 <= index < len(self.values):
            raise InvalidBlockError(f"symbol index {index} out of range")
        if len(self.values) > len(_DIGITS):
            raise InvalidBlockError("no single-character symbols beyond base 36")
        return _DIGITS[index]


BINARY = SpinAlphabet()


@dataclass(frozen=True)
class BlockSpace:
    """All blocks of ``n`` consecutive symbols from ``alphabet``."""

    alphabet: SpinAlphabet
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise InvalidBlockError("interaction range n must be >= 1")

    @property
    def size(self) -> int:
        """Number of distinct blocks, theta**n."""
        return self.alphabet.size**self.n

    @cached_property
    def digit_table(self) -> np.ndarray:
        """(size, n) array of symbol indices; row i decodes block i."""
        theta = self.alphabet.size
        idx = np.arange(self.size)
        cols = [(idx // theta ** (self.n - 1 - k)) % theta for k in range(self.n)]
        return np.stack(cols, axis=1)

    @cached_property
    def reversal(self) -> np.ndarray:
        """Index array mapping each block to the block with its symbols reversed."""
        return self.digit_table @ self.alphabet.size ** np.arange(self.n)

    @cached_property
    def shift_table(self) -> np.ndarray:
        """(size, theta) array: entry [b, s] is ``shift_append(b, s)``."""
        theta = self.alphabet.size
        stride = theta ** (self.n - 1)
        return (np.arange(self.size) % stride)[:, np.newaxis] * theta + np.arange(theta)

    @cached_property
    def value_table(self) -> np.ndarray:
        """(size, n) array of spin values, aligned with digit_table."""
        return np.asarray(self.alphabet.values, dtype=float)[self.digit_table]

    def encode(self, symbols: Sequence[int]) -> int:
        """Block index of a length-n symbol sequence (base-theta, MSB first)."""
        if len(symbols) != self.n:
            raise InvalidBlockError(
                f"expected {self.n} symbols, got {len(symbols)}"
            )
        theta = self.alphabet.size
        index = 0
        for s in symbols:
            s = int(s)
            if not 0 <= s < theta:
                raise InvalidBlockError(f"symbol {s} outside alphabet of size {theta}")
            index = index * theta + s
        return index

    def decode(self, index: int) -> tuple[int, ...]:
        """Symbol sequence of a block index; inverse of encode."""
        self._check(index)
        return tuple(int(d) for d in self.digit_table[index])

    def shift_append(self, block: int, symbol: int) -> int:
        """Drop the leading symbol of ``block`` and append ``symbol``.

        This is the one-spin advance of a sliding n-spin window; for n = 1
        it simply returns the new symbol's block.
        """
        self._check(block)
        theta = self.alphabet.size
        symbol = int(symbol)
        if not 0 <= symbol < theta:
            raise InvalidBlockError(f"symbol {symbol} outside alphabet")
        return (block % theta ** (self.n - 1)) * theta + symbol

    def values(self, index: int) -> tuple[float, ...]:
        """Spin values of one block."""
        self._check(index)
        return tuple(float(v) for v in self.value_table[index])

    def label(self, index: int) -> str:
        """Compact string form of a block, one character per symbol."""
        self._check(index)
        return "".join(self.alphabet.symbol(d) for d in self.decode(index))

    def leading_symbol(self, index: int) -> int:
        """First (oldest) symbol of a block."""
        self._check(index)
        return index // self.alphabet.size ** (self.n - 1)

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise InvalidBlockError(
                f"block index {index} outside space of size {self.size}"
            )
