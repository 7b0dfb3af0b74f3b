"""Shared fixtures: the expensive corpus systems are built once per session,
and `cold_faults` counts the page faults of a call in a fresh interpreter."""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import shiftlab as sl

SRC = Path(sl.__file__).resolve().parent.parent


def run_cold(setup: str, call: str) -> int:
    """The minor page faults (`ru_minflt`) of the statement `call` in a fresh
    interpreter, after `setup` has run there: what a cold run pays to map and
    first touch the memory the call writes, with no heap left by earlier calls.

    The count depends on the allocator, so the tests' budgets assume Linux
    with glibc and its default malloc settings, and are skipped elsewhere.
    The child gets only PATH and PYTHONPATH from its environment, so no
    inherited MALLOC_* setting or LD_PRELOADed allocator moves the count."""
    if sys.platform != "linux" or platform.libc_ver()[0] != "glibc":
        pytest.skip("cold fault budgets assume Linux with glibc")
    code = textwrap.dedent(setup) + textwrap.dedent(f"""
        import resource
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        {call}
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    env = {"PATH": os.environ.get("PATH", ""), "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1])


@pytest.fixture(scope="session")
def cold_faults():
    """`run_cold`: a test pins a cold call's faults against the pages it must write."""
    return run_cold


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
