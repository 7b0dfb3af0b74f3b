"""Density statistics of a diam series: sliding-window maxima and prefix means.

A 0/1 set reads as a series with gap 1 (value 1.0) on the set and 0
(censored, value 0) off it, so `banach_diam_mean_test`'s per-window maxima
are the set's sliding-window densities and `stable_in_mean_test`'s worst
prefix mean is its largest prefix density. Both are checked against direct
recounts.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab import DiamSeries, FiniteWord


def set_series(mask):
    """The 0/1 set `mask` as a diam series: value 1.0 on the set, censored off it."""
    gaps = np.asarray(mask, dtype=np.int32)
    return DiamSeries(FiniteWord.from_digits("0", 2), gaps.size, 1, gaps, 2)


def per_window(mask, lengths):
    v = sl.banach_diam_mean_test(set_series(mask), window_lengths=lengths)
    return [v.evidence["per_window"][str(n)] for n in lengths]


def naive_window_max(mask, n):
    """Recount every length-n window directly, no prefix-sum shortcut."""
    arr = np.asarray(mask, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(arr, n)
    return float(windows.sum(axis=1).max()) / n


def naive_worst_prefix(mask):
    """(largest count/n over the prefixes [0, n), the first n reaching it), by one count."""
    best, best_n, count = -1.0, 0, 0
    for n, bit in enumerate(mask, start=1):
        count += bool(bit)
        if count / n > best:
            best, best_n = count / n, n
    return best, best_n


# ---------------------------------------------------------------------------
# worked examples


def test_multiples_of_three_have_density_one_third():
    mask = np.arange(3000) % 3 == 0
    series = set_series(mask)
    assert sl.diam_mean_avg_test(series).statistic == 1000 / 3000
    lengths = sl.default_window_lengths(3000)
    assert per_window(mask, lengths) == [-(-n // 3) / n for n in lengths]


def test_sparse_blocks_have_full_banach_density():
    # ever-longer runs [2^j, 2^j + j): vanishing average, but some window of
    # length 19 is entirely filled
    horizon = 1 << 20
    mask = np.zeros(horizon, dtype=bool)
    mask[[2**j + t for j in range(1, 20) for t in range(j)]] = True
    assert per_window(mask, (19,)) == [1.0]
    assert sl.diam_mean_avg_test(set_series(mask)).statistic < 0.01


def test_empty_set_has_zero_density():
    series = set_series(np.zeros(100, dtype=bool))
    assert sl.banach_diam_mean_test(series).statistic == 0.0
    assert sl.stable_in_mean_test(series).statistic == 0.0


# ---------------------------------------------------------------------------
# statistic properties


masks = st.lists(st.booleans(), min_size=32, max_size=128)


@given(masks)
def test_prefix_windows_match_naive_recount(mask):
    v = sl.stable_in_mean_test(set_series(mask))
    assert (v.statistic, v.evidence["worst_prefix"]) == naive_worst_prefix(mask)


@given(masks)
def test_sliding_windows_match_naive_recount(mask):
    lengths = sl.default_window_lengths(len(mask))
    for n, v in zip(lengths, per_window(mask, lengths)):
        assert v == naive_window_max(mask, n)


@given(masks)
def test_sliding_dominates_prefix_per_window(mask):
    # the worst prefix [0, n) is one of the length-n windows
    worst = sl.stable_in_mean_test(set_series(mask))
    n = worst.evidence["worst_prefix"]
    assert worst.statistic <= per_window(mask, (n,))[0]
    lengths = sl.default_window_lengths(len(mask))
    for n, b in zip(lengths, per_window(mask, lengths)):
        assert sum(mask[:n]) / n <= b


@settings(max_examples=50)
@given(masks, st.sets(st.integers(0, 31), max_size=8))
def test_adding_positions_never_lowers_a_window(mask, extra):
    bigger = np.array(mask)
    bigger[list(extra)] = True
    lengths = sl.default_window_lengths(len(mask))
    for u, v in zip(per_window(mask, lengths), per_window(bigger, lengths)):
        assert u <= v
    small = sl.stable_in_mean_test(set_series(mask)).statistic
    assert small <= sl.stable_in_mean_test(set_series(bigger)).statistic


# ---------------------------------------------------------------------------
# the default schedule


def test_schedule_validation():
    series = set_series(np.isin(np.arange(10), [1]))
    for bad in ([], [4, 4], [0, 2], [4, 11]):
        with pytest.raises(ValueError):
            sl.banach_diam_mean_test(series, window_lengths=bad)


def test_default_schedules_are_increasing_and_bounded():
    assert sl.default_window_lengths(1024) == (16, 32, 64, 128, 256, 512)
    assert sl.default_window_lengths(40) == (1, 2, 5, 10, 20)  # 40 // 64 = 0 is raised to 1
    assert sl.default_window_lengths(1) == (1,)
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        sl.default_window_lengths(0)
    series = set_series(np.zeros(1024, dtype=bool))
    v = sl.banach_diam_mean_test(series)
    assert v.params["window_lengths"] == [16, 32, 64, 128, 256, 512, 1024]
