"""Diam series, averaged statistics, verdicts, modulus, entropy surrogate."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
import shiftlab.cli as cli
import shiftlab.stability as stability
from shiftlab import DiamSeries, FiniteWord, HOLDS, FAILS, INCONCLUSIVE


def series_from_gaps(gaps, depth_cap=8):
    """Build a series directly from first-disagreement offsets (0 = censored)."""
    arr = np.asarray(gaps, dtype=np.int32)
    word = FiniteWord.from_digits("0", 2)
    return DiamSeries(word, len(gaps), depth_cap, arr, 2, False)


# ---------------------------------------------------------------------------
# besicovitch averages


def test_besicovitch_identity_is_exactly_zero():
    x = sl.periodic("0110", 2048)
    est = sl.besicovitch(x, x, horizon=1024, depth_cap=32)
    assert est.value == 0.0
    assert est.censored_fraction == 1.0
    assert est.bias_bound == pytest.approx(1 / 32)


def test_besicovitch_closed_form_for_alternating_against_zeros():
    # distances cycle through 1 and 1/2, so the time average tends to 3/4
    zeros = sl.periodic("0", 1100)
    alt = sl.periodic("01", 1100)
    est = sl.besicovitch(zeros, alt, horizon=1000, depth_cap=32)
    assert est.value == pytest.approx(0.75, abs=2 / 1000)


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 1), min_size=48, max_size=48),
    st.lists(st.integers(0, 1), min_size=48, max_size=48),
)
def test_besicovitch_is_symmetric(a, b):
    x = sl.SymbolicSequence.from_symbols(a, 2)
    y = sl.SymbolicSequence.from_symbols(b, 2)
    fwd = sl.besicovitch(x, y, horizon=32, depth_cap=16)
    rev = sl.besicovitch(y, x, horizon=32, depth_cap=16)
    assert fwd.value == rev.value
    assert fwd.censored_fraction == rev.censored_fraction


def test_besicovitch_needs_horizon_plus_cap():
    x = sl.periodic("01", 100)
    with pytest.raises(sl.HorizonError):
        sl.besicovitch(x, x, horizon=90, depth_cap=16)


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
    x = sl.SymbolicSequence.from_symbols(range(32), 32)
    s = sl.diam_series(x, x.prefix(2), horizon=8, depth_cap=8)
    assert s.insufficient
    assert s.sample_count == 1
    assert (s.values() == 0.0).all()


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


def assert_kernel_matches_the_loop(x, positions, horizon, depth_cap):
    span = horizon + depth_cap
    want = loop_disagreement(x, positions, span)
    got = stability._disagreement(x, np.asarray(positions, dtype=np.int64), span)
    assert np.array_equal(got, want)
    s = sl.diam_series_from_positions(x, x.prefix(1), positions, horizon, depth_cap)
    gaps = stability._gaps_to_next_true(want, horizon, depth_cap)
    assert s.first_disagreement.tolist() == gaps.tolist()
    assert s.sample_count == len(positions)


@st.composite
def kernel_cases(draw):
    """A periodic buffer with a few symbols overwritten, a shift view of it, and
    samples mixing the occurrences of a prefix with arbitrary positions."""
    k = draw(st.integers(2, 256))
    period = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=9))
    n = draw(st.integers(200, 1500))
    buf = np.resize(np.array(period, dtype=np.uint8), n)
    for pos, sym in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, k - 1)),
                                  max_size=12)):
        buf[pos] = sym
    x = sl.SymbolicSequence(buf, k).shift(draw(st.integers(0, 15)))
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
    assert_kernel_matches_the_loop(*case)


@pytest.mark.parametrize("k", [2, 3, 256])
def test_kernel_matches_the_loop_at_every_bit_offset(k):
    """Every residue of buffer position mod 8, in both row units: two samples
    stay on raw bytes, 300 cover the buffer and are compared packed."""
    rng = np.random.default_rng(k)
    buf = np.resize(rng.integers(0, k, 37, dtype=np.uint8), 3000)
    buf[rng.integers(0, 3000, 40)] = rng.integers(0, k, 40, dtype=np.uint8)
    base = sl.SymbolicSequence(buf, k)
    for shift in (0, 1, 5):
        x = base.shift(shift)
        for span in (63, 64, 65, 127, 128, 129, 511, 512, 513):
            for count in (2, 300):
                positions = (np.arange(count) * 7 + 3) % (x.length - span)
                assert_kernel_matches_the_loop(x, positions, span - 16, 16)
    assert "packed_planes" in base._derived


@pytest.mark.parametrize("k", [2, 4, 256])
def test_packed_rows_see_a_difference_in_every_bit_plane(k):
    for p in range((k - 1).bit_length()):
        row = np.full(64, k - 1, dtype=np.uint8)
        other = row.copy()
        other[40] ^= 1 << p  # both neighbouring bits stay set
        x = sl.SymbolicSequence(np.concatenate([row, other] * 40), k)
        positions = np.arange(800) % 80 * 64  # enough samples to compare packed
        assert stability._disagreement(x, positions, 64).tolist() == [j == 40 for j in range(64)]
        assert "packed_planes" in x._derived


def test_kernel_prunes_exactly_with_small_blocks(monkeypatch):
    """Blocks of a few samples, columns of a few bytes and column groups
    narrower than a row: the settled columns drop out mid-run."""
    monkeypatch.setattr(stability, "_FIRST_BLOCK", 2)
    monkeypatch.setattr(stability, "_BLOCK_BYTES", 96)
    monkeypatch.setattr(stability, "_COLUMN_BYTES", 8)
    loud = sl.full_shift_point(2, 1 << 14, mode="random", seed=3)
    calm = sl.periodic("0110", 1 << 14)
    for x in (loud, calm, loud.shift(3)):
        occ = sl.occurrences(x, x.prefix(2)).positions
        for count in (2, 3, 40, 700):
            for span in (100, 1000, 1029):
                positions = occ[occ <= x.length - span][:count]
                assert_kernel_matches_the_loop(x, positions, span - 64, 64)


def test_packed_planes_are_built_once_and_shared_with_shift_views():
    x = sl.full_shift_point(2, 4096, mode="random", seed=1)
    sl.diam_series_from_positions(x, x.prefix(1), [0, 9, 17], horizon=64, depth_cap=8)
    assert "packed_planes" not in x._derived  # 2 * 72 compared symbols do not pay for packing
    view = x.shift(3)
    sl.diam_series_from_positions(view, view.prefix(1), np.arange(100), horizon=64, depth_cap=8)
    planes = x._derived["packed_planes"]
    assert planes.shape == (1, 8, 512)
    assert x.shift(11)._derived is x._derived
    np.testing.assert_array_equal(planes[0, 3, :10], np.packbits(x.data[3:83]))
    sl.diam_series_from_positions(x, x.prefix(1), np.arange(100), horizon=64, depth_cap=8)
    assert x._derived["packed_planes"] is planes


def test_series_csv_marks_censored_entries(tmp_path):
    cfg = {
        "schema_version": 1,
        "systems": [{"id": "nb", "generator": "nested-block", "params": {"i_max": 3}}],
        "tests": [{"name": "diam-mean-avg", "horizon": 182, "depth_cap": 16}],
    }
    out = cli.run_config(cfg, tmp_path)
    lines = (out / "series" / "nb__diam-mean-avg.csv").read_text().splitlines()
    x, _ = sl.nested_block_sequence(sl.NestedBlockParams(i_max=3))
    gaps = sl.diam_series(x, x.prefix(2), 182, 16).first_disagreement.tolist()
    assert 0 in gaps and any(gaps)
    assert lines[0] == "i,diam"
    assert lines[1:] == [
        f"{i},{1.0 / g!r}" if g else f"{i},<=0.0625" for i, g in enumerate(gaps, start=1)
    ]
    assert lines[1] == "1,0.07692307692307693"  # first disagreement at offset 13


def test_series_length_must_match_horizon():
    with pytest.raises(ValueError):
        DiamSeries(FiniteWord.from_digits("0", 2), 5, 8, np.zeros(4, np.int32), 2, False)


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
    s = DiamSeries(word, 8, 8, np.zeros(8, np.int32), 1, True)
    v = test(s, **thresholds)
    assert v.verdict == INCONCLUSIVE
    assert v.statistic is None
    assert v.params == {
        "word": "0", "depth": 1, "horizon": 8, "depth_cap": 8, **thresholds, **derived
    }
    assert v.evidence == {"series": s.summary(), "direction": stability._DIRECTION_NOTE}


def test_banach_window_validation():
    s = series_from_gaps([0] * 8)
    for bad in ([], [0, 2], [4, 2], [4, 9]):
        with pytest.raises(ValueError):
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
    c = sl.champernowne(512)
    words = sl.covering_words(c, 3, max_words=3)
    assert len(words) == 3
    assert [str(w) for w in words] == sorted(str(w) for w in words)


def test_full_shift_is_diam_mean_sensitive():
    x = sl.champernowne(1 << 17)
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
    x = sl.SymbolicSequence.from_symbols(range(64), 64)
    # the family comes from the first 64 - 16 - 8 = 40 symbols
    v = sl.diam_mean_sensitivity_test(x, 2, horizon=16, depth_cap=8)
    assert v.verdict == INCONCLUSIVE
    assert v.statistic is None
    assert v.evidence["skipped"]
    with pytest.raises(ValueError):
        sl.diam_mean_sensitivity_test(x, 0, horizon=16, depth_cap=8)


SWEEP_SYSTEMS = {
    "periodic": lambda: sl.periodic("011", 1 << 14),
    "champernowne": lambda: sl.champernowne(1 << 14),
    "sturmian": lambda: sl.sturmian(sl.RotationParams.golden(), 1 << 14),
}


@pytest.mark.parametrize("name", sorted(SWEEP_SYSTEMS))
def test_sweep_series_match_the_occurrence_scan(name, monkeypatch):
    """Every cylinder the sweep evaluates gets the series `diam_series` builds
    from `occurrences`, so its density is the one a per-word scan gives."""
    x = SWEEP_SYSTEMS[name]()
    depth, horizon, depth_cap, epsilon, occ_cap, max_words = 5, 512, 16, 0.1, 64, 12
    kernel = stability.diam_series_from_positions
    built = []

    def recording(*args, **kwargs):
        built.append(kernel(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(stability, "diam_series_from_positions", recording)
    v = sl.diam_mean_sensitivity_test(
        x, depth, horizon, depth_cap, epsilon, occ_cap, max_words
    )
    monkeypatch.undo()
    # the buffers are far below 2^20 symbols, so the family scan stops at the probe room
    family = sl.covering_words(x, depth, x.length - horizon - depth_cap, max_words)
    assert [s.word for s in built] == list(family)
    assert v.params["word_count"] == len(family)
    densities = {}
    for s in built:
        oracle = sl.diam_series(x, s.word, horizon, depth_cap, occ_cap=occ_cap)
        assert s.first_disagreement.tolist() == oracle.first_disagreement.tolist()
        assert s.sample_count == oracle.sample_count
        if not oracle.insufficient:
            densities[str(s.word)] = float((oracle.values() > epsilon).sum()) / horizon
    assert v.evidence["evaluated"] == len(densities)
    assert (v.statistic, v.evidence["minimizing_word"]) == min(
        (d, w) for w, d in densities.items()
    )


# ---------------------------------------------------------------------------
# modulus of mean equicontinuity


def test_modulus_is_zero_for_periodic_points():
    x = sl.periodic("0110", 4096)
    curve = sl.mean_eq_modulus(x, (2, 4), horizon=512, depth_cap=16)
    assert curve.statistics == (0.0, 0.0)
    assert curve.shortfall == (False, False)
    assert all(n >= 1 for n in curve.pair_counts)


def test_modulus_flags_depths_without_pairs():
    x = sl.SymbolicSequence.from_symbols(range(64), 64)
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
    x = sl.SymbolicSequence.from_symbols(symbols, 2)
    word = x.prefix(m)
    count = sl.occurrences(x, word, len(symbols) - horizon - depth_cap + m).count
    curve = sl.mean_eq_modulus(x, [m], horizon, depth_cap, pair_budget=count, occ_cap=count)
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


PROBE_SPAN_CALLS = {
    "mean_eq_modulus": lambda x, h, c: sl.mean_eq_modulus(x, [2], h, c),
    "besicovitch": lambda x, h, c: sl.besicovitch(x, x, h, c),
    "diam_series_from_positions": lambda x, h, c: sl.diam_series_from_positions(
        x, x.prefix(1), [0, 2], h, c
    ),
}


@pytest.mark.parametrize("call", PROBE_SPAN_CALLS.values(), ids=PROBE_SPAN_CALLS.keys())
@pytest.mark.parametrize("horizon, depth_cap, message", [
    (0, 8, "horizon must be positive"),
    (-3, 8, "horizon must be positive"),
    (8, 0, "depth_cap must be positive"),
    (8, -1, "depth_cap must be positive"),
])
def test_probe_spans_must_be_positive(call, horizon, depth_cap, message):
    with pytest.raises(ValueError, match=message):
        call(sl.periodic("01", 64), horizon, depth_cap)


# ---------------------------------------------------------------------------
# entropy surrogate


def test_entropy_of_periodic_point_decays():
    x = sl.periodic("01", 4096)
    curve = sl.entropy_complexity(x, (2, 4, 8))
    assert curve.counts == (2, 2, 2)
    assert curve.trend == "decreasing"
    assert curve.values[-1] == pytest.approx(math.log(2) / 8)


def test_entropy_of_a_full_concatenation_point_is_flat_at_log_two():
    x = sl.champernowne(4096, (2, 3), alphabet_size=4)
    curve = sl.entropy_complexity(x, (4, 8))
    assert curve.counts == (16, 256)
    assert curve.values[0] == pytest.approx(math.log(2))
    assert curve.trend == "flat"


def test_entropy_of_a_rotation_coding_decreases():
    x = sl.sturmian(sl.RotationParams.golden(), 100_000)
    curve = sl.entropy_complexity(x, (4, 8, 20))
    assert curve.counts == (5, 9, 21)
    assert curve.values[-1] == pytest.approx(math.log(21) / 20)
    assert curve.trend == "decreasing"


def test_entropy_validates_lengths():
    x = sl.periodic("01", 64)
    with pytest.raises(ValueError):
        sl.entropy_complexity(x, ())
    with pytest.raises(ValueError):
        sl.entropy_complexity(x, (4, 4))


# ---------------------------------------------------------------------------
# envelope counts for the nested block point


def test_support_counts_grow_with_the_horizon():
    x, meta = sl.nested_block_sequence(sl.NestedBlockParams(i_max=4))
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
    x, meta = sl.nested_block_sequence(sl.NestedBlockParams(i_max=4, **params))
    word = FiniteWord.from_digits(digits, x.alphabet_size)
    for levels in ((1, 2, 3), (3,), (1, 4)):
        got = sl.nonzero_support_counts(x, meta, levels, word, occ_cap)
        want = loop_support_counts(x, meta, levels, word, occ_cap)
        assert (got.counts, got.sample_count) == want


def test_support_counts_of_a_word_with_no_occurrence_are_zero():
    x, meta = sl.nested_block_sequence(sl.NestedBlockParams(i_max=4))
    counts = sl.nonzero_support_counts(x, meta, word=FiniteWord.from_digits("3333", 4))
    assert counts.counts == (0, 0, 0)
    assert counts.sample_count == 0


def test_support_counts_validate_levels():
    x, meta = sl.nested_block_sequence(sl.NestedBlockParams(i_max=4))
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=())
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=(0,))
    with pytest.raises(ValueError):
        sl.nonzero_support_counts(x, meta, levels=(2, 2))
    deeper = sl.nested_block_meta(sl.NestedBlockParams(i_max=5))
    with pytest.raises(sl.HorizonError):
        sl.nonzero_support_counts(x, deeper, levels=(5,))


# ---------------------------------------------------------------------------
# classification report


def test_classify_periodic_point_holds_everywhere():
    x = sl.periodic("01", 131072)
    p = sl.ClassifyParams(
        base_depth=2, sensitivity_depth=2, horizon=1024, depth_cap=16,
        occ_cap=256, pair_budget=4, entropy_lengths=(2, 4),
    )
    rep = sl.classify_hierarchy(x, p, system_id="alt")
    assert rep.system_id == "alt"
    for rung in rep.rungs:
        assert rung.verdict == HOLDS
    for v in rep.battery:
        assert v.verdict == HOLDS
    assert rep.sensitivity.verdict == FAILS
    assert rep.rung("ladder-mean-equicontinuity").statistic == 0.0
    assert rep.battery_verdict("frequent-stability").statistic == 0.0
    with pytest.raises(KeyError):
        rep.rung("ladder-unknown")
    json.dumps(rep.as_json_dict())
    assert rep.notes


def test_classify_default_modulus_depths_double_the_base():
    p = sl.ClassifyParams(base_depth=3)
    assert p.resolved_modulus_depths() == (3, 6)
    q = sl.ClassifyParams(base_depth=3, modulus_depths=(5, 7, 11))
    assert q.resolved_modulus_depths() == (5, 7, 11)
