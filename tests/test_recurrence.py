"""Simultaneous near-return search under the shift and its powers."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab import recurrence


def is_return(x, n, powers, m):
    """Reference check: prefix of length m repeats at every multiple j*n."""
    head = x.data[:m]
    return all(np.array_equal(x.data[j * n : j * n + m], head) for j in range(1, powers + 1))


def test_periodic_point_returns_at_its_period():
    x = sl.periodic("011", 256)
    res = sl.multi_recurrence_search(x, powers=1, epsilon_depth=3, horizon=64)
    assert res.found == 3
    assert res.epsilon == pytest.approx(1 / 3)
    assert is_return(x, res.found, 1, 3)


def test_constant_point_returns_immediately():
    x = sl.periodic("7", 256, alphabet_size=8)
    res = sl.multi_recurrence_search(x, powers=4, epsilon_depth=4, horizon=16)
    assert res.found == 1


def test_found_time_is_minimal():
    x = sl.periodic("0010", 512)
    res = sl.multi_recurrence_search(x, powers=2, epsilon_depth=4, horizon=64)
    assert res.found is not None
    assert is_return(x, res.found, 2, 4)
    for n in range(1, res.found):
        assert not is_return(x, n, 2, 4)


def test_all_distinct_symbols_never_return():
    x = sl.SymbolicSequence(range(256), 256)
    res = sl.multi_recurrence_search(x, powers=1, epsilon_depth=2, horizon=64, depth_cap=8)
    assert res.found is None
    assert res.gaps == ()


def test_gaps_stay_below_the_tolerance_even_with_a_small_cap():
    # the gap bound must honor epsilon even when depth_cap < epsilon_depth
    x = sl.sturmian(4096)
    res = sl.multi_recurrence_search(x, powers=2, epsilon_depth=8, horizon=1024, depth_cap=2)
    assert res.found is not None
    assert all(g < res.epsilon for g in res.gaps)
    assert len(res.gaps) == 2


def test_gap_reads_the_first_disagreement():
    # n = 3 is the first return of "01"; x[4..6] = 011 and x[1..3] = 010 first differ at 3
    x = sl.SymbolicSequence([0, 1, 0, 0, 1, 1, 1, 1], 2)
    res = sl.multi_recurrence_search(x, powers=1, epsilon_depth=2, horizon=3, depth_cap=3)
    assert res.found == 3
    assert res.gaps == (pytest.approx(1 / 3),)


def test_gap_is_one_over_the_cap_on_agreement_through_it():
    x = sl.periodic("01", 64)
    res = sl.multi_recurrence_search(x, powers=2, epsilon_depth=2, horizon=8, depth_cap=16)
    assert res.found == 2
    assert res.gaps == (1 / 16, 1 / 16)


def test_gaps_need_the_cap_past_the_last_power():
    x = sl.periodic("01", 2 * 8 + 16)
    assert sl.multi_recurrence_search(x, 2, 2, 8, depth_cap=16).found == 2
    with pytest.raises(sl.HorizonError):
        sl.multi_recurrence_search(x, 2, 2, 8, depth_cap=17)


def naive_gap(symbols, q, cap):
    """1/i for the first 1-based i <= cap where the orbit from q leaves x, else 1/cap."""
    for i in range(cap):
        if symbols[q + i] != symbols[i]:
            return 1.0 / (i + 1)
    return 1.0 / cap


@settings(max_examples=200)
@given(st.data())
def test_gaps_match_a_per_symbol_loop(data):
    powers = data.draw(st.integers(1, 3), label="powers")
    m = data.draw(st.integers(1, 3), label="m")
    horizon = data.draw(st.integers(1, 24), label="horizon")
    depth_cap = data.draw(st.integers(1, 12), label="depth_cap")
    cap = max(m + 1, depth_cap)
    size = powers * horizon + cap + data.draw(st.integers(0, 8), label="slack")
    if data.draw(st.booleans(), label="periodic"):
        period = data.draw(st.lists(st.integers(0, 2), min_size=1, max_size=6), label="period")
        symbols = (period * size)[:size]
    else:
        symbols = data.draw(st.lists(st.integers(0, 2), min_size=size, max_size=size))
    x = sl.SymbolicSequence(symbols, 3)
    res = sl.multi_recurrence_search(x, powers, m, horizon, depth_cap)
    if res.found is None:
        assert res.gaps == ()
    else:
        want = tuple(naive_gap(symbols, j * res.found, cap) for j in range(1, powers + 1))
        assert res.gaps == want


@settings(max_examples=200)
@given(st.data())
def test_search_finds_the_first_return_of_the_reference_check(data):
    powers = data.draw(st.integers(1, 3), label="powers")
    m = data.draw(st.integers(1, 4), label="m")
    horizon = data.draw(st.integers(1, 24), label="horizon")
    k = data.draw(st.integers(2, 3), label="k")
    size = powers * horizon + max(m + 1, 8)
    symbols = data.draw(st.lists(st.integers(0, k - 1), min_size=size, max_size=size))
    x = sl.SymbolicSequence(symbols, k)
    res = sl.multi_recurrence_search(x, powers, m, horizon, depth_cap=8)
    first = next((n for n in range(1, horizon + 1) if is_return(x, n, powers, m)), None)
    assert res.found == first


BLOCK = recurrence._FIRST_BLOCK


def naive_first_return(symbols, powers, m, horizon):
    """The first n <= horizon with the m-prefix at n, 2n, ..., powers*n, read off
    one compare of every window against the prefix; None where there is none."""
    windows = np.lib.stride_tricks.sliding_window_view(symbols[: powers * horizon + m], m)
    is_return = (windows == symbols[:m]).all(axis=1)
    n = np.arange(1, horizon + 1)
    ok = np.logical_and.reduce([is_return[j * n] for j in range(1, powers + 1)])
    return int(n[ok][0]) if ok.any() else None


# the n each block decides: (0, B], (B, 2B], (2B, 4B]
BLOCK_RANGES = {1: (1, BLOCK), 2: (BLOCK + 1, 2 * BLOCK), 3: (2 * BLOCK + 1, 4 * BLOCK)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_block_search_matches_a_naive_check_across_block_edges(data):
    """Symbol 0 opens the prefix and appears nowhere else in the background, so
    returns sit where the prefix is planted: at n, 2n, ..., powers*n for a first
    return in block 1, 2 or 3 (often at its edges), or nowhere, plus decoys that
    miss the last power. Horizons reach into the third block."""
    powers = data.draw(st.integers(1, 3), label="powers")
    m = data.draw(st.integers(1, 8), label="m")
    k = data.draw(st.integers(2, 3), label="k")
    where = data.draw(st.sampled_from([1, 2, 3, None]), label="block")
    if where is None:
        n = None
        horizon = data.draw(st.sampled_from([BLOCK, BLOCK + 1, 2 * BLOCK, 2 * BLOCK + 1])
                            | st.integers(1, 3 * BLOCK), label="horizon")
    else:
        lo, hi = BLOCK_RANGES[where]
        n = data.draw(st.sampled_from([lo, lo + 1, hi - 1, hi]) | st.integers(lo, hi), label="n")
        horizon = data.draw(st.sampled_from([n, hi]) | st.integers(n, 4 * BLOCK), label="horizon")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = powers * horizon + max(m + 1, 8)
    symbols = rng.integers(1, k, size).astype(np.uint8)
    symbols[0] = 0
    symbols[1:m] = rng.integers(0, k, m - 1)
    prefix = symbols[:m].copy()
    decoys = data.draw(st.lists(st.integers(1, horizon), max_size=3), label="decoys")
    for d in decoys:
        for j in range(1, powers):
            symbols[j * d : j * d + m] = prefix
    if n is not None:
        for j in range(1, powers + 1):
            symbols[j * n : j * n + m] = prefix
    x = sl.SymbolicSequence(symbols, k)
    res = sl.multi_recurrence_search(x, powers, m, horizon, depth_cap=8)
    assert res.found == naive_first_return(symbols, powers, m, horizon)


def peak_of(call):
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_search_stops_at_the_block_of_its_first_return(sturmian_long):
    # the golden point returns at n = 21, so the search scans only the first
    # block's 8,193 starts, not the 2 * 10**6 + 1 a horizon-wide scan would
    res, peak = peak_of(lambda: sl.multi_recurrence_search(sturmian_long, 2, 8, 10**6))
    assert res.found == 21
    assert peak <= 256 * 1024


def test_a_search_with_no_return_keeps_positions_not_a_return_mask():
    # every q <= powers * horizon is scanned, a block at a time, and only the
    # return positions are kept: below the 2,000,001 bytes of one mark per q
    x = sl.full_shift_point(1 << 21, 2, "random", 0)
    res, peak = peak_of(lambda: sl.multi_recurrence_search(x, 2, 16, 10**6))
    assert res.found is None
    assert peak < 2 * 10**6 + 1


def test_returns_are_monotone_in_powers_and_tolerance(sturmian_long):
    x = sturmian_long
    base = sl.multi_recurrence_search(x, 2, 8, 100_000)
    fewer_powers = sl.multi_recurrence_search(x, 1, 8, 100_000)
    looser = sl.multi_recurrence_search(x, 2, 7, 100_000)
    tighter = sl.multi_recurrence_search(x, 2, 16, 100_000)
    more_powers = sl.multi_recurrence_search(x, 3, 8, 100_000)
    assert fewer_powers.found <= base.found
    assert looser.found <= base.found
    assert base.found <= tighter.found
    assert base.found <= more_powers.found


def test_search_validates_inputs():
    x = sl.periodic("01", 128)
    with pytest.raises(ValueError):
        sl.multi_recurrence_search(x, 0, 2, 8)
    with pytest.raises(ValueError):
        sl.multi_recurrence_search(x, 1, 0, 8)
    with pytest.raises(ValueError):
        sl.multi_recurrence_search(x, 1, 2, 0)
    with pytest.raises(sl.HorizonError):
        sl.multi_recurrence_search(x, 2, 2, 64)


def test_result_serialization():
    x = sl.periodic("01", 256)
    res = sl.multi_recurrence_search(x, 2, 2, 32)
    d = res.as_json_dict()
    assert set(d) == {"d", "epsilon", "epsilon_depth", "n", "gaps", "horizon"}
    assert d["d"] == 2
    assert d["n"] == res.found
