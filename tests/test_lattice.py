import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinmech.errors import InvalidBlockError
from spinmech.lattice import BINARY, BlockSpace, SpinAlphabet


def test_binary_alphabet_defaults():
    assert BINARY.values == (-1.0, 1.0)
    assert BINARY.size == 2
    assert BINARY.symbol(0) == "0"
    assert BINARY.symbol(1) == "1"


def test_alphabet_validation():
    with pytest.raises(InvalidBlockError):
        SpinAlphabet((1.0,))
    with pytest.raises(InvalidBlockError):
        SpinAlphabet((1.0, 1.0))


def test_encode_examples():
    two = BlockSpace(BINARY, 2)
    assert two.encode([0, 0]) == 0
    assert two.encode([1, 0]) == 2
    three = BlockSpace(BINARY, 3)
    assert three.encode([0, 1, 1]) == 3


def test_decode_examples():
    two = BlockSpace(BINARY, 2)
    assert two.decode(3) == (1, 1)
    one = BlockSpace(BINARY, 1)
    assert one.decode(0) == (0,)
    ternary = BlockSpace(SpinAlphabet((-1.0, 0.0, 1.0)), 2)
    assert ternary.decode(5) == (1, 2)


def test_shift_append_examples():
    two = BlockSpace(BINARY, 2)
    # up-down, append up -> down-up
    assert two.shift_append(two.encode([1, 0]), 1) == two.encode([0, 1])
    one = BlockSpace(BINARY, 1)
    assert one.shift_append(one.encode([0]), 1) == one.encode([1])
    three = BlockSpace(BINARY, 3)
    assert three.shift_append(three.encode([1, 1, 0]), 0) == three.encode([1, 0, 0])


def test_encode_errors():
    two = BlockSpace(BINARY, 2)
    with pytest.raises(InvalidBlockError):
        two.encode([0])
    with pytest.raises(InvalidBlockError):
        two.encode([0, 2])
    with pytest.raises(InvalidBlockError):
        two.decode(4)
    with pytest.raises(InvalidBlockError):
        two.shift_append(0, 2)


@pytest.mark.parametrize(
    "theta,n",
    [(2, 1), (2, 4), (2, 12), (3, 4), (4, 6)],
)
def test_roundtrip_exhaustive(theta, n):
    alphabet = SpinAlphabet(tuple(float(v) for v in range(theta)))
    space = BlockSpace(alphabet, n)
    assert space.size == theta**n
    assert space.size <= 4096
    for index in range(space.size):
        assert space.encode(space.decode(index)) == index
        assert space.reversal[index] == space.encode(space.decode(index)[::-1])
    assert np.array_equal(space.reversal[space.reversal], np.arange(space.size))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_shift_sequence_forgets_start(data):
    theta = data.draw(st.integers(2, 4))
    n = data.draw(st.integers(1, 5))
    alphabet = SpinAlphabet(tuple(float(v) for v in range(theta)))
    space = BlockSpace(alphabet, n)
    start = data.draw(st.integers(0, space.size - 1))
    symbols = data.draw(st.lists(st.integers(0, theta - 1), min_size=n, max_size=n))
    block = start
    for s in symbols:
        block = space.shift_append(block, s)
    assert block == space.encode(symbols)


def test_labels_and_values():
    two = BlockSpace(BINARY, 2)
    assert two.label(2) == "10"
    assert two.values(2) == (1.0, -1.0)
    assert two.leading_symbol(2) == 1
    assert two.leading_symbol(1) == 0
