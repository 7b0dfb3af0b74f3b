"""Diam series, averaged statistics, verdicts, modulus, entropy surrogate."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import shiftlab as sl
import shiftlab.cli as cli
import shiftlab.stability as stability
from shiftlab import DiamSeries, FiniteWord, HOLDS, FAILS, INCONCLUSIVE


def series_from_gaps(gaps, depth_cap=8):
    """Build a series directly from first-disagreement offsets (0 = censored)."""
    arr = np.asarray(gaps, dtype=np.int32)
    word = FiniteWord.from_digits("0", 2)
    return DiamSeries(word, len(gaps), depth_cap, arr, 2)


# ---------------------------------------------------------------------------
# pair distances: the Besicovitch value of two orbits, from the diam kernel


def naive_pair_value(x, p, q, horizon, depth_cap):
    """The per-pair `a != b` path the modulus used before the diam kernel: the
    reference oracle. Iterate i has value 1/j for the first offset j <= depth_cap
    at which the orbits from p and q disagree past i, or 0; the pair's value is
    their sum over the horizon, divided by it."""
    span = horizon + depth_cap
    mismatch = x.data[p : p + span] != x.data[q : q + span]
    ahead = np.lib.stride_tricks.sliding_window_view(mismatch, depth_cap)[1 : horizon + 1]
    first = ahead.argmax(axis=1) + 1
    return float(np.where(ahead.any(axis=1), 1.0 / first, 0.0).sum() / horizon)


def pair_series(x, p, q, horizon, depth_cap):
    """The two-point diam series of the orbits from p and q."""
    return sl.diam_series_from_positions(x, x.prefix(1), [p, q], horizon, depth_cap)


def test_besicovitch_identity_is_exactly_zero():
    x = sl.periodic("0110", 4096)
    s = pair_series(x, 0, 2048, horizon=1024, depth_cap=32)
    assert sl.diam_mean_avg_test(s).statistic == 0.0
    assert s.censored_fraction == 1.0
    assert s.bias_bound == pytest.approx(1 / 32)
    assert naive_pair_value(x, 0, 2048, 1024, 32) == 0.0


def test_besicovitch_closed_form_for_alternating_against_zeros():
    # distances cycle through 1 and 1/2, so the time average tends to 3/4
    x = sl.SymbolicSequence([0] * 1100 + [0, 1] * 550, 2)
    assert naive_pair_value(x, 0, 1100, 1000, 32) == pytest.approx(0.75, abs=2 / 1000)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 1), min_size=96, max_size=96))
def test_besicovitch_is_symmetric(symbols):
    x = sl.SymbolicSequence(symbols, 2)
    fwd = pair_series(x, 0, 48, horizon=32, depth_cap=16)
    rev = pair_series(x, 48, 0, horizon=32, depth_cap=16)
    assert fwd.first_disagreement.tolist() == rev.first_disagreement.tolist()
    assert naive_pair_value(x, 0, 48, 32, 16) == naive_pair_value(x, 48, 0, 32, 16)


def test_besicovitch_needs_horizon_plus_cap():
    x = sl.periodic("01", 100)
    with pytest.raises(sl.HorizonError):
        sl.mean_eq_modulus(x, [2], horizon=90, depth_cap=16)


# ---------------------------------------------------------------------------
# diam series construction


def test_periodic_cylinder_never_spreads():
    x = sl.periodic("01", 4096)
    s = sl.diam_series(x, x.prefix(2), horizon=1024, depth_cap=32)
    assert s.sample_count > 2
    assert not s.insufficient
    assert s.censored_fraction == 1.0
    assert (s.values() == 0.0).all()
    assert s.bias_bound == pytest.approx(1 / 32)


def test_single_occurrence_is_flagged_insufficient():
    x = sl.SymbolicSequence(range(32), 32)
    s = sl.diam_series(x, x.prefix(2), horizon=8, depth_cap=8)
    assert s.insufficient
    assert s.sample_count == 1
    assert (s.values() == 0.0).all()


def test_a_sample_of_fewer_than_two_is_insufficient_at_any_horizon():
    """No kernel row is read: an empty sample needs no probe room."""
    x = sl.periodic("01", 64)
    for positions, horizon in (([], 100), ([3], 40)):
        s = sl.diam_series_from_positions(x, x.prefix(2), positions, horizon, 8)
        assert s.insufficient and s.sample_count == len(positions)
        assert not s.first_disagreement.any()


def test_diam_series_demands_scan_room():
    x = sl.periodic("01", 64)
    with pytest.raises(sl.HorizonError):
        sl.diam_series(x, x.prefix(2), horizon=64, depth_cap=16)


def test_a_word_longer_than_the_probe_span_scans_the_whole_buffer():
    # 40 > horizon + depth_cap = 32: every occurrence leaves room for its probes
    x = sl.periodic("01", 4096)
    s = sl.diam_series(x, x.prefix(40), horizon=16, depth_cap=16)
    assert s.sample_count == sl.occurrences(x, x.prefix(40), 4096).positions.size == 2029
    assert not s.insufficient
    curve = sl.mean_eq_modulus(x, [40], 16, 16)
    assert curve.statistics == (0.0,) and curve.shortfall == (False,)
    v = sl.diam_mean_sensitivity_test(x, 40, 16, 16)
    assert (v.verdict, v.statistic, v.evidence["evaluated"]) == (FAILS, 0.0, 2)


def test_diam_series_positions_are_validated():
    x = sl.periodic("01", 64)
    w = x.prefix(2)
    with pytest.raises(ValueError):
        sl.diam_series_from_positions(x, w, [-1], horizon=8, depth_cap=8)
    with pytest.raises(sl.HorizonError):
        sl.diam_series_from_positions(x, w, [60], horizon=8, depth_cap=8)


def test_oversized_diam_scan_hits_the_work_budget():
    x = sl.periodic("0", (1 << 24) + 64)
    positions = np.zeros(2049, dtype=np.int64)
    with pytest.raises(sl.BudgetError):
        sl.diam_series_from_positions(x, x.prefix(1), positions, 1 << 24, 64)


# ---------------------------------------------------------------------------
# the diam kernel against the per-sample loop


def loop_disagreement(x, positions, span):
    """The per-sample loop the bit-packed kernel replaced: the reference oracle."""
    buf = x.data
    qs = np.asarray(positions, dtype=np.int64)
    base = buf[qs[0] : qs[0] + span]
    disagree = np.zeros(span, dtype=bool)
    for q in qs[1:]:
        np.logical_or(disagree, buf[q : q + span] != base, out=disagree)
    return disagree


def kernel_mask(x, positions, span):
    """The diam kernel's mask of one sample: a batch of one group."""
    return stability._disagreement(x, np.asarray(positions, dtype=np.int64)[None], span)[0]


def assert_kernel_matches_the_loop(x, positions, horizon, depth_cap):
    span = horizon + depth_cap
    want = loop_disagreement(x, positions, span)
    got = kernel_mask(x, positions, span)
    assert np.array_equal(got, want)
    s = sl.diam_series_from_positions(x, x.prefix(1), positions, horizon, depth_cap)
    assert s.first_disagreement.tolist() == naive_gaps(want, horizon, depth_cap).tolist()
    assert s.sample_count == len(positions)


@st.composite
def kernel_cases(draw):
    """A suffix of a periodic buffer with a few symbols overwritten, and samples
    mixing the occurrences of a prefix with arbitrary positions."""
    k = draw(st.integers(2, 256))
    period = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=9))
    n = draw(st.integers(200, 1500))
    buf = np.resize(np.array(period, dtype=np.uint8), n)
    for pos, sym in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                                  max_size=12)):
        buf[pos] = sym
    x = sl.SymbolicSequence(buf[draw(st.integers(0, 15)) :], k)
    span = draw(st.sampled_from([7, 8, 9, 63, 64, 65, 127, 128, 129]) | st.integers(2, 180))
    depth_cap = draw(st.integers(1, min(span - 1, 32)))
    room = x.length - span
    occ = sl.occurrences(x, x.prefix(draw(st.integers(1, 3)))).positions
    occ = occ[occ <= room][: draw(st.integers(0, 100))].tolist()
    extra = draw(st.lists(st.integers(0, room), max_size=60))
    positions = draw(st.permutations(occ + extra + [draw(st.integers(0, room))] * 2))
    return x, positions, span - depth_cap, depth_cap


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_the_loop_oracle(case):
    x, positions, horizon, depth_cap = case
    assert_kernel_matches_the_loop(x, positions, horizon, depth_cap)
    assert_kernel_matches_the_loop(x, positions[:1], horizon, depth_cap)


@pytest.mark.parametrize("k", [2, 3, 256])
def test_kernel_matches_the_loop_at_every_bit_offset(k):
    """Every residue of buffer position mod 8, in both row units: two samples
    stay on raw bytes, 300 cover the buffer and are compared packed."""
    rng = np.random.default_rng(k)
    buf = np.resize(rng.integers(0, k, 37, dtype=np.uint8), 3000)
    buf[rng.integers(0, 3000, 40)] = rng.integers(0, k, 40, dtype=np.uint8)
    x = sl.SymbolicSequence(buf, k)
    for shift in (0, 1, 5):
        for span in (63, 64, 65, 127, 128, 129, 511, 512, 513):
            for count in (2, 300):
                positions = (np.arange(count) * 7 + 3) % (x.length - shift - span) + shift
                assert_kernel_matches_the_loop(x, positions, span - 16, 16)
    assert "packed_planes" in x._derived


@pytest.mark.parametrize("k", [2, 4, 256])
def test_packed_rows_see_a_difference_in_every_bit_plane(k):
    for p in range((k - 1).bit_length()):
        row = np.full(64, k - 1, dtype=np.uint8)
        other = row.copy()
        other[40] ^= 1 << p  # both neighbouring bits stay set
        x = sl.SymbolicSequence(np.concatenate([row, other] * 40), k)
        positions = np.arange(800) % 80 * 64  # enough samples to compare packed
        assert kernel_mask(x, positions, 64).tolist() == [j == 40 for j in range(64)]
        assert "packed_planes" in x._derived


def patch_small_blocks(mp):
    """Checks from 2 samples on and blocks of at most 96 bytes, so a row is cut
    into segments of 48 bytes (96 for two samples). Returns the window widths
    of the kernel's row views, as it makes them: one per segment, and one more
    each time a check narrows the segment to its unsettled bytes."""
    mp.setattr(stability, "_FIRST_BLOCK", 2)
    mp.setattr(stability, "_BLOCK_BYTES", 96)
    views, view = [], stability.sliding_window_view

    def recording(src, width, axis):
        views.append(width)
        return view(src, width, axis=axis)

    mp.setattr(stability, "sliding_window_view", recording)
    return views


@pytest.fixture
def small_blocks(monkeypatch):
    return patch_small_blocks(monkeypatch)


@settings(max_examples=150, deadline=None)
@given(kernel_cases())
def test_kernel_matches_the_loop_oracle_with_small_blocks(case):
    """Segmented raw rows, narrowing and the early stop, drawn; a fixture would
    outlive the examples, so the patch is made in the body."""
    x, positions, horizon, depth_cap = case
    with pytest.MonkeyPatch.context() as mp:
        patch_small_blocks(mp)
        assert_kernel_matches_the_loop(x, positions, horizon, depth_cap)
        assert_kernel_matches_the_loop(x, positions[:1], horizon, depth_cap)


def test_kernel_prunes_exactly_with_small_blocks(small_blocks):
    """Blocks of a few samples and rows cut into several segments: each
    segment narrows to its unsettled bytes and stops once all have settled."""
    loud = sl.full_shift_point(1 << 14, mode="random", seed=3)
    calm = sl.periodic("0110", 1 << 14)
    for x in (loud, calm, sl.SymbolicSequence(loud.data[3:], 2)):
        occ = sl.occurrences(x, x.prefix(2)).positions
        for count in (2, 3, 40, 700):
            for span in (100, 1000, 1029):
                positions = occ[occ <= x.length - span][:count]
                assert_kernel_matches_the_loop(x, positions, span - 64, 64)


@pytest.mark.parametrize("k", [2, 3, 256])
def test_kernel_narrows_a_loud_row_to_the_word_and_keeps_a_calm_row_whole(small_blocks, k):
    """Raw rows of 45 bytes, and packed rows of 38 bytes in 1, 2 or 8 planes,
    each one segment. Samples of a period-5 point never disagree and keep one
    full-width view to the end. On a random point whose samples all start with
    a planted 0, every byte but the word's settles, and the checks narrow the
    view to the one byte that holds the word."""
    rng = np.random.default_rng(k)
    calm = sl.SymbolicSequence(np.resize(rng.integers(0, k, 5, dtype=np.uint8), 1 << 12), k)
    for count, span in ((40, 45), (700, 300)):
        width = span if count == 40 else -(-span // 8)
        positions = np.arange(count) * 5 % ((calm.length - span) // 5 * 5)
        small_blocks.clear()
        assert not kernel_mask(calm, positions, span).any()
        assert small_blocks == [width], (count, span)
        buf = rng.integers(0, k, 1 << 12, dtype=np.uint8)
        positions = rng.choice(buf.size - span, count, replace=False)
        buf[positions] = 0
        loud = sl.SymbolicSequence(buf, k)
        small_blocks.clear()
        got = kernel_mask(loud, positions, span)
        assert got.tolist() == loop_disagreement(loud, positions, span).tolist()
        assert small_blocks[0] == width and small_blocks[-1] == 1, (count, span, small_blocks)
        assert got[1:].all() and not got[0]
    assert "packed_planes" in loud._derived


def test_kernel_cuts_rows_wider_than_a_segment(small_blocks):
    """Calm raw rows of 100 bytes and packed rows of 125 bytes go in segments of
    48 bytes and the rest; two samples keep a row of up to 96 bytes whole."""
    x = sl.periodic("01101", 1 << 12)
    for count, span, views in ((40, 100, [48, 48, 4]), (700, 1000, [48, 48, 29]),
                               (2, 90, [90]), (2, 100, [96, 4])):
        positions = np.arange(count) * 5 % ((x.length - span) // 5 * 5)
        small_blocks.clear()
        assert not kernel_mask(x, positions, span).any()
        assert small_blocks == views, (count, span)


@pytest.mark.parametrize("length", [80, 4096])
def test_kernel_reads_no_sample_past_the_check_that_settles_every_byte(small_blocks, length):
    """Sample 1 differs from sample 0 at all 37 offsets and agrees on the 3
    symbols after them, so the check at 2 samples finds every byte settled: raw
    rows of 37 bytes, or, when the samples cover the 80-symbol buffer, packed
    rows of 5 bytes whose pad bits count as settled. The later samples lie
    past the buffer and are never read."""
    buf = np.zeros(length, np.uint8)
    buf[40:77] = 1
    x = sl.SymbolicSequence(buf, 2)
    positions = np.array([0, 40] + [10**6] * 5)
    assert kernel_mask(x, positions, 37).all()
    assert small_blocks == [37 if length > 80 else 5]


def test_kernel_keeps_a_settled_interior_between_unsettled_ends(small_blocks):
    """A raw row of 40 symbols, one segment. Samples 1 to 7 disagree with the
    first at offsets 1 to 35 and samples 8 to 15 at 36 and 37, so the checks at
    8 and 16 find the interior settled and offsets 0, 38 and 39 not: the view
    stays whole. Sample 20 settles offset 39, so the check at 32 narrows the
    view to offsets 0 to 38, where samples 35 and 36 settle the last two."""
    period, span, count = 64, 40, 40
    flips = {s: range(5 * s - 4, 5 * s + 1) for s in range(1, 8)}
    flips |= {s: [36 + s % 2] for s in range(8, 16)} | {20: [39], 35: [38], 36: [0]}
    buf = np.zeros(period * count, np.uint8)
    for s, offsets in flips.items():
        buf[s * period + np.array(offsets)] = 1
    x = sl.SymbolicSequence(buf, 2)
    positions = np.arange(count) * period
    got = kernel_mask(x, positions, span)
    assert small_blocks == [span, span - 1]
    assert got.tolist() == loop_disagreement(x, positions, span).tolist()
    assert got.all()
    assert_kernel_matches_the_loop(x, positions[::-1], span - 16, 16)


@pytest.mark.parametrize("system", ["nested-block", "full-shift"])
def test_kernel_peak_is_a_block_two_row_spans_and_16_bytes_a_sample(nested6, monkeypatch, system):
    """The battery's two large kernel calls: 32 raw rows of 1,198,808 symbols,
    and 100,000 packed rows of 32,832 symbols. The kernel holds the mask, at
    most a row span, beside either one block or the result (a row span), plus
    the row starts with one temporary of them and 32 KiB of numpy's Python
    objects. The first call reads 2.30 MiB; it read 2.74 MiB while the last
    block was still alive beside the result."""
    if system == "nested-block":
        x, meta = nested6
        horizon = meta.lengths[5]
    else:
        x, horizon = sl.full_shift_point(1 << 21, mode="random", seed=0), 32768
        stability._packed_planes(x)  # built once per sequence, not per call
    kernel, calls = stability._disagreement, []

    def traced(x, qs, span):
        tracemalloc.start()
        try:
            mask = kernel(x, qs, span)
            calls.append((tracemalloc.get_traced_memory()[1], qs.size, span))
        finally:
            tracemalloc.stop()
        return mask

    monkeypatch.setattr(stability, "_disagreement", traced)
    sl.diam_series(x, x.prefix(2), horizon, 64)
    [(peak, samples, span)] = calls
    assert (samples, span) == ((32, 1_198_808) if system == "nested-block"
                               else (100_000, 32_832))
    assert peak <= max(stability._BLOCK_BYTES, span) + span + 16 * samples + (1 << 15)


def test_packed_planes_are_built_once_per_sequence_and_reused_by_later_calls():
    x = sl.full_shift_point(4096, mode="random", seed=1)
    sl.diam_series_from_positions(x, x.prefix(1), [0, 9, 17], horizon=64, depth_cap=8)
    assert "packed_planes" not in x._derived  # 2 * 72 compared symbols do not pay for packing
    sl.diam_series_from_positions(x, x.prefix(1), np.arange(3, 103), horizon=64, depth_cap=8)
    planes = x._derived["packed_planes"]
    assert planes.shape == (1, 8, 512)
    np.testing.assert_array_equal(planes[0, 3, :10], np.packbits(x.data[3:83]))
    sl.diam_series_from_positions(x, x.prefix(1), np.arange(100), horizon=64, depth_cap=8)
    assert x._derived["packed_planes"] is planes


@st.composite
def batch_cases(draw):
    """A kernel case's buffer, span and sample, and 1 to 6 more samples of ragged
    sizes, the largest sized so the call compares packed planes or raw bytes as
    drawn (raw when packing would take more than 300 samples)."""
    x, positions, horizon, depth_cap = draw(kernel_cases())
    span = horizon + depth_cap
    room = x.length - span
    need = -(-stability._plane_count(x.alphabet_size) * x.length // span) + 1  # packs from here
    top = need if draw(st.booleans()) and need <= 300 else min(need - 1, 120)
    sizes = draw(st.lists(st.integers(1, top), min_size=0, max_size=5)) + [top]
    samples = [draw(st.lists(st.integers(0, room), min_size=n, max_size=n)) for n in sizes]
    samples = draw(st.permutations(samples + [positions]))
    return x, samples, span, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(batch_cases())
def test_batched_kernel_equals_one_call_per_group_and_the_loop(case):
    """One batched call, each sample padded with its own first position to the
    largest, gives each sample's mask: that of a call of its own and that of the
    per-sample loop. Packed or raw rows, drawn, and blocks of 96 bytes or not."""
    x, samples, span, small = case
    groups = np.array([qs + qs[:1] * (max(map(len, samples)) - len(qs)) for qs in samples])
    packed = (groups.shape[1] - 1) * span >= stability._plane_count(x.alphabet_size) * x.length
    with pytest.MonkeyPatch.context() as mp:
        if small:
            patch_small_blocks(mp)
        masks = stability._disagreement(x, groups, span)
        assert ("packed_planes" in x._derived) == packed
        for qs, mask in zip(samples, masks):
            assert mask.tolist() == kernel_mask(x, qs, span).tolist()
            assert mask.tolist() == loop_disagreement(x, qs, span).tolist()


# ---------------------------------------------------------------------------
# gaps to the next disagreement


def naive_gaps(flags, horizon, cap):
    """`_gaps_to_next_true` as one new int64 array per step, before it worked in
    place: the reference oracle."""
    span = flags.size
    big = span + cap + 2
    idx = np.where(flags, np.arange(1, span + 1, dtype=np.int64), big)
    nxt = np.minimum.accumulate(idx[::-1])[::-1]
    j = nxt[1 : horizon + 1] - np.arange(1, horizon + 1, dtype=np.int64)
    return np.where(j <= cap, j, 0).astype(np.int32)


def int16_below_the_edge(top):
    """`core._key_dtype`'s rule with a 16-bit edge, so a span of 2**15 reaches it."""
    return np.int16 if top <= 1 << 15 else np.int64


@st.composite
def gap_cases(draw):
    """A mask of any density, with any cap up to its span; or, under the 16-bit
    stub, a span near 2**15 whose sentinel span + 1 fits int16 or just does not."""
    edge = draw(st.booleans())
    if edge:
        span = draw(st.integers(2**15 - 40, 2**15 + 2))
        cap = draw(st.integers(1, 64))
        horizon = span - cap  # the diam kernel's span
    else:
        span = draw(st.integers(2, 400))
        horizon = draw(st.integers(1, span - 1))  # each i <= horizon has a position past it
        cap = draw(st.integers(1, span))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    seed = draw(st.integers(0, 2**32 - 1))
    flags = np.random.default_rng(seed).random(span) < density
    return flags, horizon, cap, edge


@settings(max_examples=300, deadline=None)
@given(gap_cases())
def test_gaps_match_the_allocating_formula(case):
    flags, horizon, cap, edge = case
    with pytest.MonkeyPatch.context() as mp:
        if edge:
            mp.setattr(stability, "_key_dtype", int16_below_the_edge)
        got = stability._gaps_to_next_true(flags, horizon, cap)
    assert got.dtype == np.int32
    assert got.tolist() == naive_gaps(flags, horizon, cap).tolist()


@pytest.mark.parametrize("density", ["dense", "sparse"])
def test_gaps_peak_at_8_bytes_per_position(density):
    """The nested-6 battery series' span: one int32 array worked in place, its
    inverted mask and one ramp block measured 5.0 bytes per position (36 when
    each step made a new int64 array)."""
    horizon, cap = 1_198_744, 64
    span = horizon + cap
    rng = np.random.default_rng(0)
    if density == "dense":
        flags = rng.random(span) < 0.5
    else:
        flags = np.zeros(span, bool)
        flags[rng.choice(span, 543, replace=False)] = True
    tracemalloc.start()
    try:
        gaps = stability._gaps_to_next_true(flags, horizon, cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * span
    assert np.array_equal(gaps, naive_gaps(flags, horizon, cap))


@st.composite
def exceed_cases(draw):
    """Masks of any density over the diam kernel's span, and an epsilon at some
    value 1/g exactly (0.1, 0.25, 0.5 among them), at or above 1 (no g
    qualifies), below 1/cap, at or below 0, or anywhere."""
    horizon, cap = draw(st.integers(1, 300)), draw(st.integers(1, 40))
    density = draw(st.sampled_from([0.0, 1.0]) | st.floats(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    masks = rng.random((draw(st.integers(1, 4)), horizon + cap)) < density
    epsilon = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0, 1.5, 0.5 / cap, 0.0, -0.5])
                   | st.integers(1, cap).map(lambda g: 1.0 / g) | st.floats(-1, 2))
    return masks, horizon, cap, epsilon


@settings(max_examples=300, deadline=None)
@given(exceed_cases())
def test_mask_read_counts_are_the_series_exceed_counts(case):
    """The sweep's density numerator, read off a mask, equals the count of the
    mask's `DiamSeries` values above epsilon."""
    masks, horizon, cap, epsilon = case
    want = [int((series_from_gaps(stability._gaps_to_next_true(m, horizon, cap), cap).values()
                 > epsilon).sum()) for m in masks]
    assert stability._exceed_counts(masks.copy(), horizon, cap, epsilon).tolist() == want


@st.composite
def reader_cases(draw):
    """A series of mixed offsets, all censored or one repeated value, across
    _GAP_BLOCK edges: a small block over a short series, or the real block at
    and around its multiples. Returns the series and the block."""
    cap = draw(st.sampled_from([1, 2, 7, 64, 1000]))
    if draw(st.booleans()):
        block, horizon = draw(st.integers(1, 9)), draw(st.integers(1, 60))
    else:
        block = stability._GAP_BLOCK
        horizon = draw(st.sampled_from([1, block - 1, block, block + 1, 2 * block + 1]))
    kind = draw(st.sampled_from(["mixed", "censored", "repeated"]))
    if kind == "mixed":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        gaps = rng.integers(0, cap + 1, horizon)
    else:
        gaps = np.full(horizon, 0 if kind == "censored" else draw(st.integers(0, cap)))
    return series_from_gaps(gaps, cap), block


@settings(max_examples=100, deadline=None)
@given(reader_cases(), st.data())
def test_gap_counts_give_the_censored_fraction_and_both_densities(case, data):
    """The blocked histogram is np.bincount of the offsets, and the censored
    fraction and the density counts read off it are the counts of the series'
    values: at a threshold at some 1/g and one float either side of it, at 0,
    below 0, at or above 1, below 1/cap, and NaN."""
    s, block = case
    g = s.first_disagreement
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stability, "_GAP_BLOCK", block)
        assert s.gap_counts.tolist() == np.bincount(g).tolist()
    assert s.censored_fraction == (g == 0).sum() / s.horizon
    at = 1.0 / data.draw(st.integers(1, s.depth_cap))
    thresholds = [at, np.nextafter(at, np.inf), np.nextafter(at, -np.inf), 0.0, -0.0,
                  -0.5, -1e-300, 1.0, 1.5, 0.5 / s.depth_cap, math.nan]
    values = s.values()
    for t in thresholds:
        want = int((values > t).sum())
        assert stability._exceed_count(s, t) == want, t
        assert sl.diam_mean_density_test(s, t).evidence["exceed_count"] == want
        assert sl.frequent_stability_test(s, t).statistic == want / s.horizon


@pytest.mark.parametrize("gaps", [[0, 9], [-1, 1]])
def test_series_offsets_must_lie_within_the_cap(gaps):
    """The density read takes the offsets above `_reach` as values below the
    threshold, which holds only up to the cap."""
    with pytest.raises(ValueError, match=r"offsets must lie in \[0, depth_cap\]"):
        DiamSeries(FiniteWord.from_digits("0", 2), 2, 8, np.array(gaps, np.int32), 2)


def test_series_csv_marks_censored_entries(tmp_path):
    cfg = {
        "schema_version": 1,
        "systems": [{"id": "nb", "generator": "nested-block", "params": {"i_max": 3}}],
        "tests": [{"name": "diam-mean-avg", "horizon": 182, "depth_cap": 16}],
    }
    out = cli.run_config(cfg, tmp_path)
    lines = (out / "series" / "nb__diam-mean-avg.csv").read_text().splitlines()
    x = sl.nested_block_sequence(i_max=3)
    gaps = sl.diam_series(x, x.prefix(2), 182, 16).first_disagreement.tolist()
    assert 0 in gaps and any(gaps)
    assert lines[0] == "i,diam"
    assert lines[1:] == [
        f"{i},{1.0 / g!r}" if g else f"{i},<=0.0625" for i, g in enumerate(gaps, start=1)
    ]
    assert lines[1] == "1,0.07692307692307693"  # first disagreement at offset 13


def test_series_length_must_match_horizon():
    with pytest.raises(ValueError):
        DiamSeries(FiniteWord.from_digits("0", 2), 5, 8, np.zeros(4, np.int32), 2)


# ---------------------------------------------------------------------------
# averaged statistics and verdict directions


def test_average_test_statistic_and_tie_handling():
    # values of 1/10 everywhere: the average equals epsilon, and ties fail
    s = series_from_gaps([10] * 16, depth_cap=16)
    v = sl.diam_mean_avg_test(s, epsilon=0.1)
    assert v.statistic == pytest.approx(0.1)
    assert v.verdict == FAILS
    looser = sl.diam_mean_avg_test(s, epsilon=0.11)
    assert looser.verdict == HOLDS


def test_density_test_counts_exceedances_over_the_matched_window():
    gaps = [5] + [0] * 9  # one value 0.2, nine censored zeros
    s = series_from_gaps(gaps)
    v = sl.diam_mean_density_test(s, eta=0.1)
    assert v.statistic == pytest.approx(0.1)
    assert v.verdict == FAILS  # ties fail on the density side too
    assert v.evidence["exceed_count"] == 1
    assert v.evidence["matched_window"] == 10


def test_frequent_stability_margin_is_non_strict():
    gaps = [1] * 4 + [0] * 4  # density of large values exactly one half
    s = series_from_gaps(gaps)
    at_margin = sl.frequent_stability_test(s, epsilon=0.1, gamma=0.5)
    assert at_margin.statistic == pytest.approx(0.5)
    assert at_margin.verdict == HOLDS
    past_margin = sl.frequent_stability_test(s, epsilon=0.1, gamma=0.51)
    assert past_margin.verdict == FAILS
    with pytest.raises(ValueError):
        sl.frequent_stability_test(s, epsilon=0.1, gamma=0.0)


SERIES_TESTS = [
    (sl.diam_mean_avg_test, {"epsilon": 0.1}, {}),
    (sl.diam_mean_density_test, {"eta": 0.2}, {}),
    (sl.banach_diam_mean_test, {"epsilon": 0.1}, {"window_lengths": [1, 2, 4, 8]}),
    (sl.stable_in_mean_test, {"epsilon": 0.3}, {}),
    (sl.frequent_stability_test, {"epsilon": 0.1, "gamma": 0.25}, {}),
]


@pytest.mark.parametrize(
    "test, thresholds, derived", SERIES_TESTS, ids=[t.__name__ for t, _, _ in SERIES_TESTS]
)
def test_insufficient_series_yields_inconclusive(test, thresholds, derived):
    word = FiniteWord.from_digits("0", 2)
    s = DiamSeries(word, 8, 8, np.zeros(8, np.int32), 1)
    assert s.insufficient
    v = test(s, **thresholds)
    assert v.verdict == INCONCLUSIVE
    assert v.statistic is None
    assert v.params == {
        "word": "0", "depth": 1, "horizon": 8, "depth_cap": 8, **thresholds, **derived
    }
    assert v.evidence == {"series": s.summary(), "direction": stability._DIRECTION_NOTE}


def test_banach_window_validation():
    s = series_from_gaps([0] * 8)
    for bad, message in (
        ([], "window_lengths must be a nonempty list"),
        ([0, 2], "window_lengths every element must be at least 1"),
        ([4, 4], "window_lengths must be strictly increasing"),
        ([4, 2], "window_lengths must be strictly increasing"),
        ([4, 9], "window length 9 exceeds horizon 8"),
    ):
        with pytest.raises(ValueError, match=message):
            sl.banach_diam_mean_test(s, epsilon=0.1, window_lengths=bad)


gap_arrays = st.lists(st.integers(0, 8), min_size=16, max_size=64)


@settings(max_examples=60)
@given(gap_arrays)
def test_windowed_statistics_dominate_the_plain_average(gaps):
    s = series_from_gaps(gaps)
    avg = sl.diam_mean_avg_test(s, epsilon=0.1).statistic
    banach = sl.banach_diam_mean_test(s, epsilon=0.1).statistic
    stable = sl.stable_in_mean_test(s, epsilon=0.1).statistic
    assert banach >= avg - 1e-9  # the full horizon is always a window
    assert stable >= avg - 1e-9  # the worst prefix is at least the last one


def naive_values(gaps):
    """`DiamSeries.values` as a gather and a scatter: the oracle of its masked divide."""
    gaps = np.asarray(gaps, dtype=np.int32)
    vals = np.zeros(gaps.size)
    nz = gaps > 0
    vals[nz] = 1.0 / gaps[nz]
    return vals


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 1000), min_size=1, max_size=400), st.data())
def test_windowed_statistics_equal_the_allocating_formulas(gaps, data):
    """The running sums, window sums and prefix means go into reused buffers
    with the same IEEE operations in the same order, so every float is equal."""
    s = series_from_gaps(gaps, depth_cap=1000)
    values = naive_values(gaps)
    assert s.values().tobytes() == values.tobytes()
    h = len(gaps)
    lengths = sorted(data.draw(st.sets(st.integers(1, h), min_size=1, max_size=6)))
    per_window = allocating_window_maxima(values, lengths)
    banach = sl.banach_diam_mean_test(s, window_lengths=lengths)
    assert list(banach.evidence["per_window"].values()) == per_window
    assert banach.statistic == max(per_window)
    means = np.cumsum(values) / np.arange(1, h + 1)
    stable = sl.stable_in_mean_test(s)
    assert stable.statistic == float(means.max())
    assert stable.evidence["worst_prefix"] == int(means.argmax()) + 1


def allocating_window_maxima(values, lengths):
    prefix = np.concatenate(([0], np.cumsum(values)))
    return [float((prefix[n:] - prefix[:-n]).max()) / n for n in lengths]


@pytest.mark.parametrize("block", [1, 2, 7, 64])
def test_window_sums_cross_block_edges(block, monkeypatch):
    """Window sums are taken a block at a time; every window length, whole
    blocks or not, gets the allocating formula's maximum."""
    monkeypatch.setattr(stability, "_GAP_BLOCK", block)
    gaps = np.random.default_rng(block).integers(0, 20, 200)
    lengths = [1, 2, 3, 7, 8, 63, 64, 65, 199, 200]
    banach = sl.banach_diam_mean_test(series_from_gaps(gaps, 20), window_lengths=lengths)
    want = allocating_window_maxima(naive_values(gaps), lengths)
    assert list(banach.evidence["per_window"].values()) == want


@pytest.mark.parametrize("name", list(cli._SERIES_TESTS))
def test_series_statistic_peak_is_one_float_buffer(nested6_series, name):
    """The battery's nested-6 series (1,198,744 iterates): each statistic holds
    one float per iterate and at most a byte mask beside it, and any ramp or
    window sums come a block at a time, so it peaks at about 9 bytes an
    iterate (16 with a second full-length buffer). The Banach test's window
    maxima are the allocating formula's, and the worst prefix mean divides
    by the whole ramp at once."""
    s = nested6_series
    tracemalloc.start()
    try:
        v = cli._SERIES_TESTS[name](s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * s.horizon + 16 * stability._GAP_BLOCK + (1 << 16)
    if name == "banach-diam-mean":
        lengths = v.params["window_lengths"]
        want = allocating_window_maxima(s.values(), lengths)
        assert list(v.evidence["per_window"].values()) == want
    if name == "stable-in-mean":
        means = np.cumsum(s.values()) / np.arange(1, s.horizon + 1)
        assert v.statistic == float(means.max())
        assert v.evidence["worst_prefix"] == int(means.argmax()) + 1


@settings(max_examples=60)
@given(gap_arrays)
def test_average_dominates_eta_times_density(gaps):
    s = series_from_gaps(gaps)
    avg = sl.diam_mean_avg_test(s, epsilon=0.1).statistic
    for eta in (0.5, 0.25, 0.1):
        dens = sl.diam_mean_density_test(s, eta=eta).statistic
        assert avg >= eta * dens


@settings(max_examples=60)
@given(gap_arrays)
def test_frequent_stability_statistic_is_the_density_statistic(gaps):
    s = series_from_gaps(gaps)
    dens = sl.diam_mean_density_test(s, eta=0.1).statistic
    freq = sl.frequent_stability_test(s, epsilon=0.1, gamma=0.25).statistic
    assert freq == dens


def test_verdict_serialization_shape():
    s = series_from_gaps([4] * 8)
    v = sl.diam_mean_avg_test(s, epsilon=0.1)
    d = v.as_json_dict("series/x.csv")
    assert set(d) == {"test", "params", "statistic", "bias", "verdict", "evidence_ref"}
    json.dumps(d)  # must be serializable as-is


# ---------------------------------------------------------------------------
# sensitivity sweep


def test_covering_words_enumerate_and_thin():
    x = sl.periodic("01", 64)
    assert [str(w) for w in sl.covering_words(x, 2)] == ["01", "10"]
    c = sl.full_shift_point(512)
    words = sl.covering_words(c, 3, max_words=3)
    assert len(words) == 3
    assert [str(w) for w in words] == sorted(str(w) for w in words)


def test_the_family_leaves_out_words_first_seen_in_the_probe_room():
    # the sweep scans starts 0..320 but draws its words from starts below
    # word_scan - depth + 1 = 320 - 4 + 1; "1111" and its neighbours start later
    symbols = [q % 2 for q in range(400)]
    symbols[319:323] = [1, 1, 1, 1]
    x = sl.SymbolicSequence(symbols, 2)
    v = sl.diam_mean_sensitivity_test(x, 4, horizon=64, depth_cap=16)
    assert v.params["word_count"] == 2
    assert v.evidence["evaluated"] == 2
    assert [str(w) for w in sl.covering_words(x, 4, 320)] == ["0101", "1010"]


def test_full_shift_is_diam_mean_sensitive():
    x = sl.full_shift_point(1 << 17)
    v = sl.diam_mean_sensitivity_test(
        x, 3, horizon=4096, depth_cap=32, epsilon=0.1, occ_cap=512, max_words=8
    )
    assert v.verdict == HOLDS
    assert v.statistic > 0.9


def test_periodic_point_is_not_diam_mean_sensitive():
    x = sl.periodic("01", 1 << 15)
    v = sl.diam_mean_sensitivity_test(x, 2, horizon=1024, depth_cap=32, epsilon=0.1)
    assert v.verdict == FAILS
    assert v.statistic == 0.0
    assert v.evidence["minimizing_word"] in ("01", "10")


def test_sensitivity_with_no_usable_cylinder_is_inconclusive():
    x = sl.SymbolicSequence(range(64), 64)
    # the family comes from the first 64 - 16 - 8 = 40 symbols
    v = sl.diam_mean_sensitivity_test(x, 2, horizon=16, depth_cap=8)
    assert v.verdict == INCONCLUSIVE
    assert v.statistic is None
    assert v.evidence["skipped"]
    with pytest.raises(ValueError):
        sl.diam_mean_sensitivity_test(x, 0, horizon=16, depth_cap=8)


def naive_family(symbols, depth, limit, first_end, max_words):
    """The distinct depth-m words of symbols[:limit] whose first start lies below
    first_end, sorted, thinned evenly to max_words: a slice scan, the oracle of
    the sweep's word family."""
    first = {}
    for q in range(limit - depth + 1):
        first.setdefault(tuple(symbols[q : q + depth]), q)
    words = sorted(w for w, q in first.items() if q < first_end)
    if max_words is not None and len(words) > max_words:
        words = [words[i] for i in np.linspace(0, len(words) - 1, max_words).astype(int)]
    return words


@st.composite
def cylinder_cases(draw):
    """A small random or periodic buffer, a word length, a scan limit, a first-start
    bound and a word cap."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 120))
    if draw(st.booleans()):
        period = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=7))
        symbols = np.resize(period, n).tolist()
    else:
        symbols = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    depth = draw(st.integers(1, min(n, 12)))
    limit = draw(st.integers(depth, n))
    first_end = draw(st.integers(0, limit + 1))
    return k, symbols, depth, limit, first_end, draw(st.none() | st.integers(1, 20))


@settings(max_examples=200, deadline=None)
@given(cylinder_cases())
def test_cylinders_are_the_scanned_words_with_every_start(case):
    k, symbols, depth, limit, first_end, max_words = case
    x = sl.SymbolicSequence(symbols, k)
    got = list(stability._cylinders(x, depth, limit, first_end, max_words))
    words = [x.word(int(starts[0]) + 1, int(starts[0]) + depth) for _, starts in got]
    assert [name for name, _ in got] == [str(w) for w in words]
    for w, (_, starts) in zip(words, got):
        assert starts.tolist() == sl.occurrences(x, w, limit).positions.tolist()
    assert [w.symbols for w in words] == naive_family(symbols, depth, limit, first_end, max_words)


@pytest.mark.parametrize("k", [2, 10, 11, 16])
def test_cylinder_names_are_the_words_str_in_any_alphabet(k):
    """Names are read off the buffer: digits up to 10 symbols, dash-joined above."""
    x = sl.SymbolicSequence(np.random.default_rng(k).integers(0, k, 500), k)
    got = list(stability._cylinders(x, 3, None, x.length, None))
    want = sorted({tuple(x.data[q : q + 3].tolist()) for q in range(x.length - 2)})
    assert [name for name, _ in got] == [str(sl.FiniteWord(w, k)) for w in want]
    assert [w.symbols for w in sl.covering_words(x, 3)] == want


def exhaustive_sweep(x, depth, horizon, depth_cap, epsilon, occ_cap, max_words):
    """The per-word loop the best-first search replaced, every family word's
    series at its full sample (`_sample_scan`'s window, as the sweep takes it):
    the oracle of the sweep's (statistic, minimizing_word, evaluated, skipped,
    word_count)."""
    word_scan = max(depth, min(x.length - horizon - depth_cap, 1 << 20))
    limit = stability._sample_scan(x, depth, horizon, depth_cap)
    evaluated, skipped = [], []
    for _, starts in stability._cylinders(x, depth, limit, word_scan - depth + 1, max_words):
        w = x.word(int(starts[0]) + 1, int(starts[0]) + depth)
        qs = stability._thin_positions(starts, occ_cap)
        s = sl.diam_series_from_positions(x, w, qs, horizon, depth_cap)
        if s.insufficient:
            skipped.append(str(w))
            continue
        evaluated.append((str(w), float((s.values() > epsilon).sum()) / s.horizon))
    word_count = len(evaluated) + len(skipped)
    if not evaluated:
        return None, None, 0, skipped, word_count
    word, density = min(evaluated, key=lambda t: (t[1], t[0]))
    return density, word, len(evaluated), skipped, word_count


def sweep_outcome(v):
    return (v.statistic, v.evidence.get("minimizing_word"), v.evidence.get("evaluated", 0),
            v.evidence["skipped"], v.params["word_count"])


IRRATIONAL_ANGLES = (math.sqrt(2) - 1, math.pi - 3, math.e - 2, math.sqrt(3) - 1)


@st.composite
def sweep_cases(draw):
    """A periodic, random, Sturmian or Toeplitz buffer of a few thousand symbols,
    and sweep parameters whose occ_cap lies above the first stage, so words are
    refined and their densities tie."""
    kind = draw(st.sampled_from(["periodic", "random", "sturmian", "toeplitz"]))
    n = draw(st.integers(2048, 8192))
    if kind == "periodic":
        period = draw(st.lists(st.integers(0, 2), min_size=1, max_size=9))
        x = sl.periodic("".join(map(str, period)), n, alphabet_size=3)
    elif kind == "random":
        x = sl.full_shift_point(n, draw(st.integers(2, 3)), "random", draw(st.integers(0, 999)))
    elif kind == "sturmian":
        x = sl.sturmian(n, draw(st.sampled_from(IRRATIONAL_ANGLES)), draw(st.floats(0, 0.99)))
    else:
        periods = draw(st.sampled_from([(2, 4, 8, 16), (2, 4, 8, 16, 32, 64, 128, 256)]))
        x = sl.toeplitz_regular(n, periods, draw(st.sampled_from([(0, 1), (1, 0)])))
    return (
        x,
        draw(st.integers(1, 6)),
        draw(st.integers(16, 512)),
        draw(st.integers(2, 32)),
        draw(st.sampled_from([0.05, 0.1, 0.25, 0.5])),
        draw(st.integers(stability._FIRST_STAGE + 1, 2048)),
        draw(st.none() | st.integers(1, 24)),
    )


@settings(max_examples=100, deadline=None)
@given(sweep_cases())
def test_the_best_first_sweep_equals_the_exhaustive_scan(case):
    assert sweep_outcome(sl.diam_mean_sensitivity_test(*case)) == exhaustive_sweep(*case)


@st.composite
def window_cases(draw):
    """A rotation coding of 2^13 to 2^15 symbols, one of its words of length 1 to
    64 starting in the `_scan_clamp` window, a horizon and a depth cap."""
    angle = draw(st.sampled_from(["golden", {"d": 2, "add": -1, "div": 1}, *IRRATIONAL_ANGLES]))
    x = sl.sturmian(draw(st.integers(1 << 13, 1 << 15)), angle, draw(st.floats(0, 0.99)))
    depth, horizon, depth_cap = draw(st.integers(1, 64)), draw(st.integers(16, 2048)), draw(
        st.integers(2, 64))
    q = draw(st.integers(0, stability._scan_clamp(x, depth, horizon, depth_cap) - depth))
    return x, x.word(q + 1, q + depth), horizon, depth_cap


@settings(max_examples=200, deadline=None)
@given(window_cases())
def test_a_recurrence_window_gives_the_series_of_every_start(case):
    """Where a rotation coding has a recurrence window, the series `diam_series`
    builds from it, at an occ_cap no window reaches, is the series of every start
    of the word in the `_scan_clamp` window, iterate for iterate, and as sufficient."""
    x, w, horizon, depth_cap = case
    limit = stability._sample_scan(x, len(w), horizon, depth_cap)
    clamp = stability._scan_clamp(x, len(w), horizon, depth_cap)
    assume(limit < clamp)  # a recurrence window, not the clamp
    every = sl.occurrences(x, w, clamp).positions
    want = sl.diam_series_from_positions(x, w, every, horizon, depth_cap)
    got = sl.diam_series(x, w, horizon, depth_cap, occ_cap=x.length)
    assert got.first_disagreement.tolist() == want.first_disagreement.tolist()
    assert got.insufficient == want.insufficient
    assert got.sample_count == sl.occurrences(x, w, limit).positions.size <= every.size


SWEEP_SYSTEMS = {
    "periodic": lambda: sl.periodic("011", 1 << 14),
    "champernowne": lambda: sl.full_shift_point(1 << 14),  # the full shift's default mode
    "sturmian": lambda: sl.sturmian(1 << 14),
}


def record_kernel_calls(monkeypatch):
    """Every batched `_disagreement` call from here on, as its list of (positions,
    mask) per group: the padding (copies of the first position at the end) taken
    off, and the mask copied before the caller reads it in place."""
    kernel, calls = stability._disagreement, []

    def recording(x, groups, span):
        masks = kernel(x, groups, span)
        calls.append([(g[: 1 + np.count_nonzero(g[1:] != g[0])], m.copy())
                      for g, m in zip(groups, masks)])
        return masks

    monkeypatch.setattr(stability, "_disagreement", recording)
    return calls


def recorded_series(x, depth, horizon, depth_cap, calls):
    """The `DiamSeries` of each recorded group, its word read at its first position."""
    for call in calls:
        for positions, mask in call:
            q = int(positions[0])
            gaps = stability._gaps_to_next_true(mask, horizon, depth_cap)
            yield positions, sl.DiamSeries(x.word(q + 1, q + depth), horizon, depth_cap, gaps,
                                           positions.size)


@pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
def test_sweep_series_match_the_occurrence_scan(name, monkeypatch):
    """Every series the sweep's batched kernel calls build is the kernel's on a
    subset of the sample `diam_series` draws from `occurrences`. A word built at its full sample gets
    the series `diam_series` builds, so its density is the one a per-word scan
    gives; on a thinner subset the density is a lower bound on that one. The
    minimizer is built at its full sample, and no word at a thinner stage is
    built again at that stage."""
    x = SWEEP_SYSTEMS[name]()
    depth, horizon, depth_cap, epsilon, occ_cap, max_words = 5, 512, 16, 0.1, 512, 12
    calls = record_kernel_calls(monkeypatch)
    v = sl.diam_mean_sensitivity_test(
        x, depth, horizon, depth_cap, epsilon, occ_cap, max_words
    )
    monkeypatch.undo()
    # the buffers are far below 2^20 symbols, so the words first start where they
    # leave room for the probes, in the scan window of `diam_series`
    room = x.length - horizon - depth_cap
    family = naive_family(x.data.tolist(), depth, room + depth, room - depth + 1, max_words)
    assert v.params["word_count"] == len(family)
    limit = stability._sample_scan(x, depth, horizon, depth_cap)
    densities, full = {}, set()
    for w in family:
        word = FiniteWord(w, x.alphabet_size)
        oracle = sl.diam_series(x, word, horizon, depth_cap, occ_cap=occ_cap)
        if not oracle.insufficient:
            densities[str(word)] = float((oracle.values() > epsilon).sum()) / horizon
    stages = []
    for positions, s in recorded_series(x, depth, horizon, depth_cap, calls):
        word = str(s.word)
        oracle = sl.diam_series(x, s.word, horizon, depth_cap, occ_cap=occ_cap)
        sample = stability._thin_positions(sl.occurrences(x, s.word, limit).positions, occ_cap)
        assert set(positions.tolist()) <= set(sample.tolist())
        stages.append((word, s.sample_count))
        if s.sample_count == oracle.sample_count:
            assert s.first_disagreement.tolist() == oracle.first_disagreement.tolist()
            full.add(word)
        else:
            assert float((s.values() > epsilon).sum()) / horizon <= densities[word]
    assert len(stages) == len(set(stages))
    assert v.evidence["evaluated"] == len(densities)
    assert v.evidence["minimizing_word"] in full
    assert (v.statistic, v.evidence["minimizing_word"]) == min(
        (d, w) for w, d in densities.items()
    )


TOUR_SWEEP_MINIMA = {
    "sturmian": (0.050048828125, "0101101011011010110101101101011011010110101101101011011010110101"
                                 "1011010110101101101011011010110101101101011011010110101101101011"),
    "toeplitz": (0.070037841796875, "0001000100010101000100010001010100010101000101010001000100010101"
                                    "0001010100010101000100010001010100010101000101010001000100010101"),
}


# (kernel calls, samples) of each hierarchy-tour sweep: one batched call takes
# every word's first stage, then each refinement is a call of its own. The
# Sturmian words' samples are their starts in the recurrence window.
TOUR_SWEEP_WORK = {"periodic": (4, 5504), "sturmian": (2, 4473), "toeplitz": (46, 20224),
                   "nested-block": (1, 199), "full-shift": (4, 5888)}


def tour_sweep(sid, monkeypatch):
    """(system, verdict, recorded kernel calls) of the hierarchy tour's sweep on sid."""
    tour = cli.PRESETS["hierarchy-tour"]
    x = sl.build(next(s for s in tour["systems"] if s["id"] == sid))
    depth = next(t for t in tour["tests"] if t["system"] == sid)["sensitivity_depth"]
    calls = record_kernel_calls(monkeypatch)
    v = sl.diam_mean_sensitivity_test(x, depth, 32768, 64, 0.1, 4096, 64)
    monkeypatch.undo()
    return x, v, calls


def kernel_work(calls):
    return len(calls), sum(positions.size for call in calls for positions, _ in call)


@pytest.mark.parametrize("sid", sorted(TOUR_SWEEP_MINIMA))
def test_the_tour_sweeps_keep_the_exhaustive_minima(sid, monkeypatch):
    """The hierarchy tour's depth-128 sweeps give the exhaustive scan's minimum
    (23 Sturmian and 40 Toeplitz words tie at it) while their kernel calls
    hold under a tenth of its 64 x 4096 samples."""
    _, v, calls = tour_sweep(sid, monkeypatch)
    assert sweep_outcome(v) == (*TOUR_SWEEP_MINIMA[sid], 64, [], 64)
    assert kernel_work(calls) == TOUR_SWEEP_WORK[sid]
    assert kernel_work(calls)[1] < 64 * 4096 // 10


def test_the_tour_sweeps_batch_every_first_stage_into_one_call(monkeypatch):
    """All five tour sweeps: 57 kernel calls and 36,288 samples. The first call
    holds one group per evaluated word, at most _FIRST_STAGE samples each unless
    the word has fewer than 4 * _FIRST_STAGE starts."""
    for sid, work in TOUR_SWEEP_WORK.items():
        _, v, calls = tour_sweep(sid, monkeypatch)
        assert kernel_work(calls) == work, sid
        assert len(calls[0]) == v.evidence["evaluated"], sid
        assert all(len(call) == 1 for call in calls[1:]), sid
    assert tuple(map(sum, zip(*TOUR_SWEEP_WORK.values()))) == (57, 36_288)


def test_a_batched_sweep_on_the_nested_block_point_keeps_raw_rows(monkeypatch):
    """The tour's nested-block sweep takes its 13 first stages in one call. The
    packing is decided by the call's largest group, as for one sample, so the
    point's 2-plane packed copy is never built. The call's traced peak is its
    compared bytes and masks (2 bytes a row symbol) beside one block: 1.47 MB,
    under 3 _BLOCK_BYTES. Reading the densities off the masks in place adds at
    most one copy of them (0.43 MB)."""
    kernel, count, peaks = stability._disagreement, stability._exceed_counts, []

    def traced(name, fn, shape):
        def run(*args):
            tracemalloc.start()
            try:
                out = fn(*args)
                peaks.append((name, tracemalloc.get_traced_memory()[1], shape(*args)))
            finally:
                tracemalloc.stop()
            return out
        return run

    x = sl.build(next(s for s in cli.PRESETS["hierarchy-tour"]["systems"]
                      if s["id"] == "nested-block"))
    monkeypatch.setattr(stability, "_disagreement",
                        traced("kernel", kernel, lambda x, groups, span: groups.shape))
    monkeypatch.setattr(stability, "_exceed_counts",
                        traced("count", count, lambda masks, *_: masks.shape))
    v = sl.diam_mean_sensitivity_test(x, 3, 32768, 64, 0.1, 4096, 64)
    assert (v.statistic, v.evidence["evaluated"]) == (0.0, 13)
    assert "packed_planes" not in x._derived
    assert [(name, shape) for name, _, shape in peaks] == [("kernel", (13, 64)),
                                                          ("count", (13, 32832))]
    kernel_peak, count_peak = (peak for _, peak, _ in peaks)
    rows = 13 * 32832
    assert kernel_peak <= 2 * rows + stability._BLOCK_BYTES + (1 << 17)
    assert kernel_peak <= 3 * stability._BLOCK_BYTES
    assert count_peak <= rows + (1 << 12)


def test_the_sweep_refuses_an_over_budget_word_before_any_kernel_run(monkeypatch):
    """A word whose sample breaks the work budget refuses the sweep with the
    message the per-word scan raised at it, before any kernel runs: pruning
    never hides a refusal."""
    x = sl.sturmian(1 << 13)
    depth, horizon, depth_cap, epsilon, occ_cap = 3, 64, 16, 0.1, 4096
    span = horizon + depth_cap
    limit = stability._sample_scan(x, depth, horizon, depth_cap)
    sizes = [stability._thin_positions(starts, occ_cap).size for _, starts in stability._cylinders(
        x, depth, limit, x.length - span - depth + 1, None)]
    assert max(sizes) > sizes[0]  # the exhaustive scan runs the kernel before it refuses
    monkeypatch.setattr(stability, "_WORK_BUDGET", (max(sizes) - 1) * span)
    with pytest.raises(sl.BudgetError) as oracle:
        exhaustive_sweep(x, depth, horizon, depth_cap, epsilon, occ_cap, None)
    calls = record_kernel_calls(monkeypatch)
    with pytest.raises(sl.BudgetError) as refusal:
        sl.diam_mean_sensitivity_test(x, depth, horizon, depth_cap, epsilon, occ_cap, None)
    assert str(refusal.value) == str(oracle.value)
    assert str(refusal.value) == (
        f"diam scan would touch {max(sizes) * span} probes (budget {(max(sizes) - 1) * span})"
    )
    assert calls == []


# ---------------------------------------------------------------------------
# modulus of mean equicontinuity


def test_modulus_is_zero_for_periodic_points():
    x = sl.periodic("0110", 4096)
    curve = sl.mean_eq_modulus(x, (2, 4), horizon=512, depth_cap=16)
    assert curve.statistics == (0.0, 0.0)
    assert curve.shortfall == (False, False)
    assert all(n >= 1 for n in curve.pair_counts)


def test_modulus_flags_depths_without_pairs():
    x = sl.SymbolicSequence(range(64), 64)
    curve = sl.mean_eq_modulus(x, (2,), horizon=16, depth_cap=8)
    assert curve.shortfall == (True,)
    assert curve.statistics == (None,)


@settings(max_examples=200)
@given(
    st.lists(st.integers(0, 1), min_size=64, max_size=96),
    st.integers(1, 3),
    st.integers(1, 24),
    st.integers(2, 12),
)
def test_modulus_is_at_most_the_diam_mean_average(symbols, m, horizon, depth_cap):
    # Finite form of "diam-mean equicontinuous implies mean equicontinuous": on the
    # full occurrence sample, a pair's mismatches are a subset of the sample's, so
    # each pair's Besicovitch value is at most the Cesaro mean of the diam series.
    x = sl.SymbolicSequence(symbols, 2)
    word = x.prefix(m)
    count = sl.occurrences(x, word, len(symbols) - horizon - depth_cap + m).positions.size
    curve = sl.mean_eq_modulus(x, [m], horizon, depth_cap, pair_budget=count)
    series = sl.diam_series(x, word, horizon, depth_cap, occ_cap=count)
    avg = sl.diam_mean_avg_test(series, epsilon=0.1)
    if count < 2:
        assert curve.statistics == (None,) and avg.statistic is None
    else:
        assert curve.statistics[0] <= avg.statistic


def test_modulus_validates_depths():
    x = sl.periodic("01", 64)
    with pytest.raises(ValueError):
        sl.mean_eq_modulus(x, (), horizon=8, depth_cap=8)
    with pytest.raises(ValueError):
        sl.mean_eq_modulus(x, (0,), horizon=8, depth_cap=8)
    with pytest.raises(ValueError, match="strictly increasing"):
        sl.mean_eq_modulus(x, (4, 2), horizon=8, depth_cap=8)


@st.composite
def modulus_cases(draw):
    """A periodic or random buffer with a few symbols overwritten and a few copies
    of its prefix planted, a suffix of it, and a probe span near a multiple of
    8 or of the kernel's column size."""
    k = draw(st.integers(2, 256))
    depth_cap = draw(st.integers(1, 32))
    span = draw(st.sampled_from([7, 8, 9, 63, 64, 65, 1023, 1024, 1025, 2047, 2048, 2049])
                | st.integers(2, 1100))
    span = max(span, depth_cap + 1)
    n = span + draw(st.integers(16, 400))
    if draw(st.booleans()):
        period = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=9))
        buf = np.resize(np.array(period, dtype=np.uint8), n)
    else:
        buf = np.random.default_rng(draw(st.integers(0, 2**32))).integers(0, k, n, dtype=np.uint8)
    for pos, sym in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                                  max_size=12)):
        buf[pos] = sym
    shift = draw(st.integers(0, 15))
    for pos in draw(st.lists(st.integers(shift, n - max(span, 3)), max_size=8)):
        buf[pos : pos + 3] = buf[shift : shift + 3]  # more occurrences of the prefix
    x = sl.SymbolicSequence(buf[shift:], k)
    return x, draw(st.integers(1, 3)), span - depth_cap, depth_cap, draw(st.integers(1, 8))


@settings(max_examples=100, deadline=None)
@given(modulus_cases())
def test_modulus_matches_the_pair_oracle(case):
    x, m, horizon, depth_cap, pair_budget = case
    curve = sl.mean_eq_modulus(x, [m], horizon, depth_cap, pair_budget)
    # a prefix longer than the probe span leaves room for its probes in the whole buffer
    limit = min(x.length, x.length - horizon - depth_cap + m)
    occ = sl.occurrences(x, x.prefix(m), limit).positions
    qs = stability._thin_positions(occ, pair_budget + 1).tolist()
    if len(qs) < 2:
        assert curve.statistics == (None,) and curve.pair_counts == (0,)
    else:
        want = max(naive_pair_value(x, qs[0], q, horizon, depth_cap) for q in qs[1:])
        assert curve.statistics == (want,)
        assert curve.pair_counts == (len(qs) - 1,)


@st.composite
def prefix_depth_cases(draw):
    """A modulus case's buffer and probe span, with up to four depths and one
    longer than horizon + depth_cap, whose last start comes earlier: a copy of
    the buffer's head, cut off by its end, starts between the two last starts."""
    x, _, horizon, depth_cap, pair_budget = draw(modulus_cases())
    span = horizon + depth_cap
    depths = draw(st.lists(st.integers(1, span), max_size=4))
    deep = draw(st.integers(span + 1, x.length))
    buf = x.data.copy()
    if deep > span + 1:
        start = draw(st.integers(x.length - deep + 1, x.length - span))
        buf[start:] = buf[: x.length - start]
    x = sl.SymbolicSequence(buf, x.alphabet_size)
    return x, tuple(sorted({*depths, deep})), horizon, depth_cap, pair_budget


def chained_prefix_starts(x, depths, horizon, depth_cap):
    """(m-prefix, its starts at its clamp) per depth m, as `mean_eq_modulus` scans
    them: each depth's `occurrences` call resumes the shallower depth's."""
    scan, got = None, []
    for m in depths:
        scan = sl.occurrences(x, x.prefix(m), stability._scan_clamp(x, m, horizon, depth_cap), scan)
        got.append((scan.word, scan.positions))
    return got


@settings(max_examples=100, deadline=None)
@given(prefix_depth_cases())
def test_filtered_prefix_starts_match_a_scan_at_each_clamp(case):
    """The starts each deeper prefix filters from the shallower depth's are a
    fresh `occurrences` scan at the depth's own clamp, and every depth's
    statistic is the per-pair oracle's, or None below two starts."""
    x, depths, horizon, depth_cap, pair_budget = case
    got = chained_prefix_starts(x, depths, horizon, depth_cap)
    curve = sl.mean_eq_modulus(x, depths, horizon, depth_cap, pair_budget)
    for m, (w, starts), stat, pairs in zip(depths, got, curve.statistics, curve.pair_counts):
        clamp = stability._scan_clamp(x, m, horizon, depth_cap)
        assert w == x.prefix(m)
        assert starts.tolist() == sl.occurrences(x, w, clamp).positions.tolist()
        qs = stability._thin_positions(starts, pair_budget + 1).tolist()
        if len(qs) < 2:
            assert (stat, pairs) == (None, 0)
        else:
            want = max(naive_pair_value(x, qs[0], q, horizon, depth_cap) for q in qs[1:])
            assert (stat, pairs) == (want, len(qs) - 1)


def test_a_deep_modulus_prefix_keeps_room_for_its_probes():
    """Depth 40 is past the probe span 32: its last start is 4096 - 40, eight
    before depth 2's last start 4096 - 32, on the dense path (a rescan) of a
    periodic point. On a random point the depth-8 prefix is sparse, so depth 40
    is filtered; a copy of its first 36 symbols at 4060 starts at depth 8 but
    is dropped before the filter, which would read past the buffer. On 40
    zeros and 60 ones, depth 2 has 16 pairs of its 39 starts and depth 40 one
    start: statistic None."""
    x = sl.periodic("01", 4096)
    (_, shallow), (_, deep) = chained_prefix_starts(x, (2, 40), 16, 16)
    assert (shallow[-1], deep[-1]) == (4064, 4056)
    assert sl.mean_eq_modulus(x, (2, 40), 16, 16).statistics == (0.0, 0.0)
    buf = np.random.default_rng(5).integers(0, 2, 4096, dtype=np.uint8)
    buf[1000:1040] = buf[2000:2040] = buf[:40]
    buf[4060:] = buf[:36]
    x = sl.SymbolicSequence(buf, 2)
    (_, shallow), (_, deep) = chained_prefix_starts(x, (8, 40), 16, 16)
    assert 16 * shallow.size <= 4096 - 32 + 8 and shallow[-1] == 4060
    assert deep.tolist() == [0, 1000, 2000]
    x = sl.SymbolicSequence(np.concatenate([np.zeros(40, np.uint8), np.ones(60, np.uint8)]), 2)
    curve = sl.mean_eq_modulus(x, (2, 40), 16, 16)
    assert (curve.statistics[1], curve.pair_counts) == (None, (16, 0))


def test_modulus_pairs_are_not_diam_series_builds(monkeypatch):
    # the benchmark counts each diam_series_from_positions call as one kernel build
    def refuse(*args, **kwargs):
        raise AssertionError("mean_eq_modulus called diam_series_from_positions")

    monkeypatch.setattr(stability, "diam_series_from_positions", refuse)
    x = sl.full_shift_point(4096, mode="random", seed=2)
    assert sl.mean_eq_modulus(x, [2, 4], 256, 8, pair_budget=4).pair_counts == (4, 4)


def test_oversized_modulus_scan_hits_the_work_budget(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(stability, "_WORK_BUDGET", 1000)
    x = sl.periodic("01", 4096)
    assert sl.mean_eq_modulus(x, [2], 117, 8, pair_budget=8).pair_counts == (8,)  # 8 * 125
    with pytest.raises(sl.BudgetError, match=r"modulus scan would touch 1008 probes \(budget 1000\)"):
        sl.mean_eq_modulus(x, [2], 118, 8, pair_budget=8)
    cfg = {"schema_version": 1,
           "systems": [{"id": "alt", "generator": "periodic", "params": {"word": "01", "length": 4096}}],
           "tests": [{"name": "mean-eq-modulus", "depths": [2], "horizon": 118, "depth_cap": 8,
                      "pair_budget": 8}],
           "output_dir": str(tmp_path / "out")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 3
    assert "budget exceeded: systems[0], tests[0]: modulus scan" in capsys.readouterr().err


PROBE_SPAN_CALLS = {
    "mean_eq_modulus": lambda x, h, c: sl.mean_eq_modulus(x, [2], h, c),
    "diam_series_from_positions": lambda x, h, c: sl.diam_series_from_positions(
        x, x.prefix(1), [0, 2], h, c
    ),
}


@pytest.mark.parametrize("call", PROBE_SPAN_CALLS.values(), ids=PROBE_SPAN_CALLS.keys())
@pytest.mark.parametrize("horizon, depth_cap, message", [
    pytest.param(0, 8, "horizon must be at least 1", id="0-8-horizon must be positive"),
    pytest.param(-3, 8, "horizon must be at least 1", id="-3-8-horizon must be positive"),
    pytest.param(8, 0, "depth_cap must be at least 1", id="8-0-depth_cap must be positive"),
    pytest.param(8, -1, "depth_cap must be at least 1", id="8--1-depth_cap must be positive"),
])
def test_probe_spans_must_be_positive(call, horizon, depth_cap, message):
    with pytest.raises(ValueError, match=message):
        call(sl.periodic("01", 64), horizon, depth_cap)


@pytest.mark.parametrize("call", [
    lambda x, h, c: sl.diam_series(x, x.prefix(2), h, c),
    lambda x, h, c: sl.diam_mean_sensitivity_test(x, 2, h, c),
], ids=["diam_series", "diam_mean_sensitivity_test"])
@pytest.mark.parametrize("horizon, depth_cap, message", [
    pytest.param(0, 8, "horizon must be at least 1", id="0-8-horizon must be positive"),
    pytest.param(8, 0, "depth_cap must be at least 1", id="8-0-depth_cap must be positive"),
])
def test_a_bad_probe_span_is_refused_before_any_scan(monkeypatch, call, horizon, depth_cap,
                                                     message):
    scans = []
    for name in ("occurrences", "window_groups"):
        real = getattr(stability, name)
        monkeypatch.setattr(stability, name,
                            lambda *a, real=real, name=name, **k: scans.append(name) or real(*a, **k))
    x = sl.periodic("01", 64)
    with pytest.raises(ValueError, match=message):
        call(x, horizon, depth_cap)
    assert scans == []
    call(x, 8, 8)
    assert scans  # the spies see the scan a good span runs


# ---------------------------------------------------------------------------
# entropy surrogate


def test_entropy_of_periodic_point_decays():
    x = sl.periodic("01", 4096)
    curve = sl.entropy_complexity(x, (2, 4, 8))
    assert curve.counts == (2, 2, 2)
    assert curve.trend == "decreasing"
    assert curve.values[-1] == pytest.approx(math.log(2) / 8)


def test_entropy_of_a_full_concatenation_point_is_flat_at_log_two():
    x = sl.SymbolicSequence(sl.full_shift_point(4096).data + 2, 4)  # every {2,3} word
    curve = sl.entropy_complexity(x, (4, 8))
    assert curve.counts == (16, 256)
    assert curve.values[0] == pytest.approx(math.log(2))
    assert curve.trend == "flat"


def test_entropy_of_a_rotation_coding_decreases():
    x = sl.sturmian(100_000)
    curve = sl.entropy_complexity(x, (4, 8, 20))
    assert curve.counts == (5, 9, 21)
    assert curve.values[-1] == pytest.approx(math.log(21) / 20)
    assert curve.trend == "decreasing"


def test_entropy_clamps_its_limit_to_the_built_length():
    x = sl.periodic("01", 4096)
    assert sl.entropy_complexity(x, (2,), limit=10**6).limit == 4096
    assert sl.entropy_complexity(x, (2,)).limit == 4096
    assert sl.entropy_complexity(x, (2,), limit=100).limit == 100


@st.composite
def entropy_window_cases(draw):
    """A rotation coding of 2^11 to 2^14 symbols, strictly increasing lengths 1 to
    300, and a scan limit below or above R(lengths[-1]) where the bound exists."""
    angle = draw(st.sampled_from(["golden", {"d": 2, "add": -1, "div": 1}, *IRRATIONAL_ANGLES]))
    x = sl.sturmian(draw(st.integers(1 << 11, 1 << 14)), angle, draw(st.floats(0, 0.99)))
    lengths = tuple(sorted(draw(st.sets(st.integers(1, 300), min_size=1, max_size=6))))
    bound = sl.recurrence_bound(x, lengths[-1])
    limits = st.integers(lengths[-1], 2 * x.length)
    if bound is not None:
        limits = st.integers(lengths[-1], bound) | st.integers(bound, 2 * x.length)
    return x, lengths, draw(limits)


@settings(max_examples=200, deadline=None)
@given(entropy_window_cases())
def test_entropy_counts_from_a_recurrence_window_equal_the_whole_scan(case):
    """The counts from the first R(lengths[-1]) symbols are those of the whole
    limit, and p(n) = n + 1 wherever the limit holds the window."""
    x, lengths, limit = case
    curve = sl.entropy_complexity(x, lengths, limit)
    assert curve.counts == sl.factor_counts(x, lengths, min(limit, x.length))
    assert curve.limit == min(limit, x.length)
    bound = sl.recurrence_bound(x, lengths[-1])
    if bound is not None and limit >= bound:
        assert curve.counts == tuple(n + 1 for n in lengths)


def spy_factor_counts(monkeypatch):
    """The scan limit of every `factor_counts` call `entropy_complexity` makes."""
    real, limits = stability.factor_counts, []
    monkeypatch.setattr(stability, "factor_counts",
                        lambda x, lengths, limit: limits.append(limit) or real(x, lengths, limit))
    return limits


def test_the_returns_entropy_reads_the_first_r_of_128_symbols(monkeypatch):
    limits = spy_factor_counts(monkeypatch)
    curve = sl.entropy_complexity(sl.sturmian(2_000_100), (8, 16, 32, 64, 128), 10**6)
    assert limits == [128 + 144 + 89 - 1] == [360]
    assert curve.counts == (9, 17, 33, 65, 129)
    assert curve.limit == 1_000_000


@pytest.mark.parametrize("x, lengths", [
    (sl.sturmian(300), (8, 128)),  # R(128) = 360 > 300: no bound on this prefix
    (sl.full_shift_point(4096, 2, "random", 3), (4, 8)),
    (sl.toeplitz_regular(4096), (4, 8)),
])
def test_entropy_without_a_bound_scans_its_whole_limit(monkeypatch, x, lengths):
    limits = spy_factor_counts(monkeypatch)
    curve = sl.entropy_complexity(x, lengths, 10**6)
    assert limits == [x.length] == [curve.limit]


def test_entropy_validates_lengths():
    x = sl.periodic("01", 64)
    with pytest.raises(ValueError):
        sl.entropy_complexity(x, ())
    with pytest.raises(ValueError):
        sl.entropy_complexity(x, (4, 4))


# ---------------------------------------------------------------------------
# envelope counts for the nested block point


def nested_block(**params):
    x = sl.nested_block_sequence(**params)
    return x, sl.nested_block_meta(**x.params)


def test_support_counts_grow_with_the_horizon():
    x, meta = nested_block(i_max=4)
    counts = sl.nonzero_support_counts(x, meta, levels=(1, 2))
    assert counts.levels == (1, 2)
    assert counts.horizons == (16, 182)
    assert counts.counts[0] <= counts.counts[1]
    assert counts.sample_count >= 2
    for level, c, n in zip(counts.levels, counts.counts, counts.horizons):
        if level >= 2:
            assert level * c <= n
    ratios = counts.ratios
    assert all(0 < float(r) <= 1 for r in ratios)


def loop_support_counts(x, meta, levels, word, occ_cap):
    """The per-sample loop nonzero_support_counts ran before the kernel: the reference oracle."""
    horizons = [meta.lengths[i] for i in levels]
    top = horizons[-1]
    occ = sl.occurrences(x, word, stability._scan_clamp(x, len(word), top, 0))
    qs = stability._thin_positions(occ.positions, occ_cap)
    nz = x.data != 0
    touched = np.zeros(top, dtype=bool)
    for q in qs:
        np.logical_or(touched, nz[q : q + top], out=touched)
    csum = np.cumsum(touched, dtype=np.int64)
    return tuple(int(csum[n - 1]) for n in horizons), int(qs.size)


# "0" with the full cap covers the buffer and is compared packed; the rest stay on raw bytes
SUPPORT_CASES = [
    ({}, "11", 4096),
    ({}, "0", 4096),
    ({}, "0", 16),
    ({}, "10", 3),
    ({"driver": "alternating"}, "3", 4096),
    ({"driver": "alternating"}, "0000", 200),
    ({"driver": [3, 3, 2, 3]}, "21", 4096),  # a single sample
    ({"driver": [3, 3, 2, 3]}, "33", 4096),
    ({"zero_runs": [3, 30, 400, 6000]}, "11", 4096),
    ({"zero_runs": [3, 30, 400, 6000]}, "0", 4096),
]


@pytest.mark.parametrize("params, digits, occ_cap", SUPPORT_CASES)
def test_support_counts_match_the_loop_oracle(params, digits, occ_cap):
    x, meta = nested_block(i_max=4, **params)
    word = FiniteWord.from_digits(digits, x.alphabet_size)
    for levels in ((1, 2, 3), (3,), (1, 4)):
        got = sl.nonzero_support_counts(x, meta, levels, occ_cap, word=word)
        want = loop_support_counts(x, meta, levels, word, occ_cap)
        assert (got.counts, got.sample_count) == want


def test_support_counts_of_a_word_with_no_occurrence_are_zero():
    x, meta = nested_block(i_max=4)
    counts = sl.nonzero_support_counts(x, meta, word=FiniteWord.from_digits("3333", 4))
    assert counts.counts == (0, 0, 0)
    assert counts.sample_count == 0


def test_support_counts_validate_levels():
    x, meta = nested_block(i_max=4)
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=())
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=(0,))
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=(2, 2))
    deeper = sl.nested_block_meta(5, "champernowne", "auto")
    with pytest.raises(sl.HorizonError):
        sl.nonzero_support_counts(x, deeper, levels=(5,))


# ---------------------------------------------------------------------------
# classification report


def test_classify_periodic_point_holds_everywhere():
    x = sl.periodic("01", 131072)
    rep = sl.classify_hierarchy(
        x, base_depth=2, sensitivity_depth=2, horizon=1024, depth_cap=16,
        occ_cap=256, pair_budget=4, entropy_lengths=(2, 4), system_id="alt",
    )
    assert rep.system_id == "alt"
    for rung in rep.rungs:
        assert rung.verdict == HOLDS
    for v in rep.battery:
        assert v.verdict == HOLDS
    assert rep.sensitivity.verdict == FAILS
    assert rep.rungs[2].test == "ladder-mean-equicontinuity"
    assert rep.rungs[2].statistic == 0.0
    assert rep.battery[4].test == "frequent-stability"
    assert rep.battery[4].statistic == 0.0
    json.dumps(rep.as_json_dict())
    assert rep.notes


def test_classify_default_modulus_depths_double_the_base():
    x = sl.periodic("01", 4096)
    small = {"horizon": 256, "depth_cap": 16, "occ_cap": 64, "entropy_limit": 1024}
    rep = sl.classify_hierarchy(x, base_depth=3, **small)
    assert rep.params["modulus_depths"] == [3, 6]
    assert rep.modulus.depths == (3, 6)
    rep = sl.classify_hierarchy(x, base_depth=3, modulus_depths=(5, 7, 11), **small)
    assert rep.params["modulus_depths"] == [5, 7, 11]
