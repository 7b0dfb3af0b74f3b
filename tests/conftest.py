"""Shared fixtures: the expensive corpus systems are built once per session."""

import pytest

import shiftlab as sl


@pytest.fixture(scope="session")
def nested6():
    """Nested block point to level 6 plus its level metadata (about 32 MB)."""
    x = sl.nested_block_sequence(i_max=6)
    return x, sl.nested_block_meta(**x.params)


@pytest.fixture(scope="session")
def nested6_series(nested6):
    """Diam series at the seed cylinder "11", horizon p_6, truncation 64."""
    x, meta = nested6
    word = sl.FiniteWord.from_digits("11", 4)
    return sl.diam_series(x, word, meta.lengths[5], 64)


@pytest.fixture(scope="session")
def sturmian_long():
    """Golden-angle coding long enough for the recurrence probe at 10^6."""
    return sl.sturmian(2_000_100)


@pytest.fixture(scope="session")
def champ23():
    """Length-lex concatenation of all {2,3} words, embedded in alphabet 4: the
    binary full-shift point shifted up by 2."""
    return sl.SymbolicSequence(sl.full_shift_point(10**6).data + 2, 4)


@pytest.fixture(scope="session")
def full_shift_long():
    """Binary full-shift point with room for deep diam probes."""
    return sl.full_shift_point(1 << 21)


@pytest.fixture(scope="session")
def toeplitz_long():
    return sl.toeplitz_regular(1 << 20, (2, 4, 8, 16, 32, 64, 128, 256), (0, 1))


@pytest.fixture(scope="session")
def periodic_01():
    return sl.periodic("01", 131072)
