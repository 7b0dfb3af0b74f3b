"""Index sets and the prefix/sliding-window density estimators."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab import IndexSet


def naive_prefix_density(mask, n):
    return float(sum(mask[:n])) / n


def naive_window_max(mask, n):
    """Recount every length-n window directly, no prefix-sum shortcut."""
    arr = np.asarray(mask, dtype=np.int64)
    windows = np.lib.stride_tricks.sliding_window_view(arr, n)
    return float(windows.sum(axis=1).max()) / n


# ---------------------------------------------------------------------------
# index sets


def test_index_set_from_positions():
    F = IndexSet.from_positions([0, 3, 6, 9], 12)
    assert F.count == 4
    assert F.positions.tolist() == [0, 3, 6, 9]
    with pytest.raises(ValueError):
        IndexSet.from_positions([12], 12)
    with pytest.raises(ValueError):
        IndexSet.from_positions([-1], 12)


def test_index_set_from_predicate_vectorized():
    F = IndexSet.from_predicate(lambda i: i % 3 == 0, 30)
    assert F.count == 10


def test_index_set_rejects_wrong_mask_shape():
    with pytest.raises(ValueError):
        IndexSet(4, np.zeros(5, dtype=bool))


# ---------------------------------------------------------------------------
# worked examples


def test_multiples_of_three_have_density_one_third():
    F = IndexSet.from_predicate(lambda i: i % 3 == 0, 3000)
    est = sl.upper_density(F)
    assert est.value == pytest.approx(1 / 3, abs=0.01)
    # the full-horizon window is exact
    assert est.per_window[-1] == pytest.approx(1000 / 3000)


def test_sparse_blocks_have_full_banach_density():
    # ever-longer runs [2^j, 2^j + j): vanishing prefix density, but some
    # window of length 19 is entirely filled
    horizon = 1 << 20
    positions = [2**j + t for j in range(1, 20) for t in range(j)]
    F = IndexSet.from_positions(positions, horizon)
    upper = sl.upper_density(F)
    banach = sl.banach_density(F, (19,))
    assert banach.per_window[0] == 1.0
    assert upper.value < 0.01


def test_empty_set_has_zero_density():
    F = IndexSet.from_positions([], 100)
    assert sl.upper_density(F).value == 0.0
    assert sl.banach_density(F).value == 0.0


# ---------------------------------------------------------------------------
# estimator properties


masks = st.lists(st.booleans(), min_size=32, max_size=128)


@given(masks)
def test_prefix_windows_match_naive_recount(mask):
    F = IndexSet(len(mask), np.array(mask))
    est = sl.upper_density(F)
    for n, v in zip(est.window_lengths, est.per_window):
        assert v == naive_prefix_density(mask, n)


@given(masks)
def test_sliding_windows_match_naive_recount(mask):
    F = IndexSet(len(mask), np.array(mask))
    est = sl.banach_density(F)
    for n, v in zip(est.window_lengths, est.per_window):
        assert v == naive_window_max(mask, n)


@given(masks)
def test_sliding_dominates_prefix_per_window(mask):
    F = IndexSet(len(mask), np.array(mask))
    lengths = sl.default_window_lengths(F.horizon)
    upper = sl.upper_density(F, lengths)
    banach = sl.banach_density(F, lengths)
    for u, b in zip(upper.per_window, banach.per_window):
        assert u <= b


@settings(max_examples=50)
@given(masks, st.sets(st.integers(0, 31), max_size=8))
def test_adding_positions_never_lowers_a_window(mask, extra):
    F = IndexSet(len(mask), np.array(mask))
    bigger = np.array(mask)
    bigger[list(extra)] = True
    G = IndexSet(len(mask), bigger)
    lengths = sl.default_window_lengths(F.horizon)
    for small, large in (
        (sl.upper_density(F, lengths), sl.upper_density(G, lengths)),
        (sl.banach_density(F, lengths), sl.banach_density(G, lengths)),
    ):
        for u, v in zip(small.per_window, large.per_window):
            assert u <= v


# ---------------------------------------------------------------------------
# schedules and serialization


def test_schedule_validation():
    F = IndexSet.from_positions([1], 10)
    with pytest.raises(ValueError):
        sl.upper_density(F, [])
    with pytest.raises(ValueError):
        sl.upper_density(F, [4, 4])
    with pytest.raises(ValueError):
        sl.upper_density(F, [0, 2])
    with pytest.raises(ValueError):
        sl.upper_density(F, [4, 11])


def test_default_schedules_are_increasing_and_bounded():
    sched = sl.default_prefix_schedule(1000)
    assert all(a < b for a, b in zip(sched, sched[1:]))
    assert sched[-1] == 1000
    wins = sl.default_window_lengths(1024)
    assert all(a < b for a, b in zip(wins, wins[1:]))
    assert wins[-1] == 512


def test_estimate_serialization():
    F = IndexSet.from_positions([0, 2, 4], 16)
    est = sl.banach_density(F, (2, 4))
    d = est.as_json_dict()
    assert d["kind"] == "banach"
    assert d["window_lengths"] == [2, 4]
    assert json.loads(json.dumps(d)) == d
