"""End-to-end acceptance battery.

Each test covers one numbered criterion and finishes with a single PASS line
(visible under -s); the pytest verdict for the test is the pass/fail signal.
Heavy systems come from session fixtures so the whole battery stays fast.
"""

import csv
import math
import time

import numpy as np
import pytest

import shiftlab as sl
import shiftlab.cli as cli
from shiftlab import FAILS, HOLDS, FiniteWord

LEVEL_LENGTHS = (2, 16, 182, 2742, 52118, 1198744, 32366130)


def report_rows(out_dir):
    lines = (out_dir / "report.csv").read_text().splitlines()
    assert lines[0].startswith("# generated-at ")
    return list(csv.DictReader(lines[1:]))


@pytest.fixture(scope="module")
def tour_runs(tmp_path_factory):
    """Two cold runs of the hierarchy-tour preset, with the first run timed."""
    outs = []
    elapsed = []
    for tag in ("one", "two"):
        base = tmp_path_factory.mktemp(f"tour-{tag}")
        t0 = time.perf_counter()
        outs.append(cli.run_config(cli.PRESETS["hierarchy-tour"], base))
        elapsed.append(time.perf_counter() - t0)
    return outs[0], outs[1], elapsed[0]


def test_criterion_01_level_recursion_and_buffer_size():
    t0 = time.perf_counter()
    x = sl.nested_block_sequence(i_max=6)
    meta = sl.nested_block_meta(**x.params)
    built = time.perf_counter() - t0
    assert meta.lengths == LEVEL_LENGTHS
    for n in range(1, 7):
        assert meta.lengths[n] == 2 * meta.lengths[n - 1] + meta.zero_runs[n - 1] + n
    assert x.length == LEVEL_LENGTHS[-1]
    data = x.data
    for n in range(1, 7):
        p, run = meta.lengths[n - 1], meta.zero_runs[n - 1]
        assert np.array_equal(data[p + run + n : meta.lengths[n]], data[:p])
    assert built < 60.0
    assert x.data.nbytes < 64 * 1024 * 1024
    print("criterion 01 (level recursion, size, runtime): PASS")


def test_criterion_02_activity_ratio_law(nested6):
    _, meta = nested6
    for i, ratio in enumerate(meta.activity_ratios, start=1):
        assert ratio * i == 1
    print("criterion 02 (activity ratio i * ratio_i == 1): PASS")


def test_criterion_03_envelope_count_bound(nested6):
    x, meta = nested6
    t0 = time.perf_counter()
    counts = sl.nonzero_support_counts(x, meta, levels=(2, 3, 4, 5))
    elapsed = time.perf_counter() - t0
    assert counts.horizons == LEVEL_LENGTHS[2:6]
    for level, c, n in zip(counts.levels, counts.counts, counts.horizons):
        assert level * c <= n
    assert all(a <= b for a, b in zip(counts.counts, counts.counts[1:]))
    ratios = counts.ratios
    assert ratios[3] < ratios[1]  # level 5 strictly below level 3
    assert elapsed < 300.0
    print("criterion 03 (envelope bound, monotone, timed): PASS")


def test_criterion_04_diam_mean_average_split(nested6_series, full_shift_long):
    horizon = LEVEL_LENGTHS[5]
    v = sl.diam_mean_avg_test(nested6_series, epsilon=0.1)
    assert v.verdict == HOLDS
    assert v.statistic < 0.1
    for digits in ("00", "01", "10", "11"):
        w = FiniteWord.from_digits(digits, 2)
        s = sl.diam_series(full_shift_long, w, horizon, 64, occ_cap=256)
        stat = float(s.values().mean())
        assert stat > 0.9
    print("criterion 04 (seed cylinder calm, full shift loud): PASS")


def test_criterion_05_zero_block_censoring_is_exact(nested6, nested6_series):
    _, meta = nested6
    gaps = nested6_series.first_disagreement
    for i in (3, 4):
        p_i = meta.lengths[i - 1]
        k_i = meta.zero_runs[i - 1]
        lo, hi = p_i + 1, k_i - p_i - 64
        window = gaps[lo - 1 : hi]
        assert window.size == hi - lo + 1
        assert (window == 0).all()
    print("criterion 05 (zero-window censoring exact): PASS")


def test_criterion_06_density_estimators_match_a_recount_oracle():
    # each mask read as a diam series: gap 1 (value 1.0) where set, censored elsewhere
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    horizon = 10**4
    lengths = (10, 100, 1000, 10000)
    word = FiniteWord.from_digits("0", 2)
    for _ in range(50):
        mask = rng.random(horizon) < rng.uniform(0.05, 0.95)
        series = sl.DiamSeries(word, horizon, 1, mask.astype(np.int32), 2)
        banach = sl.banach_diam_mean_test(series, window_lengths=lengths)
        worst = sl.stable_in_mean_test(series)
        counts = np.cumsum(mask, dtype=np.int64).tolist()
        prefix = [c / n for n, c in enumerate(counts, start=1)]
        assert worst.statistic == max(prefix)
        assert worst.evidence["worst_prefix"] == prefix.index(max(prefix)) + 1
        for n in lengths:
            u = prefix[n - 1]
            b = banach.evidence["per_window"][str(n)]
            windows = np.lib.stride_tricks.sliding_window_view(mask, n)
            assert b == float(windows.sum(axis=1).max()) / n
            assert u <= b
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("criterion 06 (50 random sets vs naive recount, timed): PASS")


def test_criterion_07_besicovitch_closed_form():
    # the orbits from 0 (all 0s) and from horizon + 32 (alternating 01s) have
    # distances cycling through 1 and 1/2, so their time average tends to 3/4
    horizon = 10**4
    span = horizon + 32
    x = sl.SymbolicSequence([0] * span + [0, 1] * (span // 2), 2)
    series = sl.diam_series_from_positions(x, x.prefix(1), [0, span], horizon, 32)
    avg = sl.diam_mean_avg_test(series)
    assert avg.statistic == pytest.approx(0.75, abs=2 / horizon)
    print("criterion 07 (0.75 closed form): PASS")


def test_criterion_08_coupling_inequality_on_the_corpus(
    nested6, sturmian_long, toeplitz_long, periodic_01, full_shift_long
):
    corpus = [
        ("periodic", periodic_01, 2),
        ("sturmian", sturmian_long, 256),
        ("toeplitz", toeplitz_long, 128),
        ("nested-block", nested6[0], 2),
        ("full-shift", full_shift_long, 2),
    ]
    epsilon = 0.1
    for sid, x, depth in corpus:
        series = sl.diam_series(x, x.prefix(depth), 32768, 64, occ_cap=4096)
        avg = sl.diam_mean_avg_test(series, epsilon=epsilon)
        for eta in (0.5, 0.25, 0.1):
            dens = sl.diam_mean_density_test(series, eta=eta)
            assert avg.statistic >= eta * dens.statistic, (sid, eta)
        banach = sl.banach_diam_mean_test(series, epsilon=epsilon)
        assert banach.statistic >= avg.statistic - 1e-9, sid
        if avg.verdict == HOLDS:
            freq = sl.frequent_stability_test(series, epsilon=epsilon, gamma=1 - epsilon)
            assert freq.verdict == HOLDS, sid
    print("criterion 08 (average >= eta * density corpus-wide): PASS")


def test_criterion_09_entropy_surrogate_oracles(champ23, sturmian_long):
    curve = sl.entropy_complexity(champ23, (12,), limit=10**6)
    assert curve.counts == (4096,)
    assert curve.values[0] == pytest.approx(math.log(2), abs=0.05)
    for n in range(1, 31):
        assert len(sl.factors(sturmian_long, n, limit=10**6)) == n + 1
    print("criterion 09 (log 2 surrogate and n+1 factor law): PASS")


def test_criterion_10_hierarchy_tour_cells(tour_runs):
    out, _, elapsed = tour_runs
    assert elapsed < 900.0
    rows = report_rows(out)
    by_system = {}
    for r in rows:
        by_system.setdefault(r["system"], {})[r["test"]] = r["verdict"]

    periodic = by_system["periodic"]
    for rung in (
        "classify/ladder-diam-mean-equicontinuity",
        "classify/ladder-mean-eq-and-frequent-stability",
        "classify/ladder-mean-equicontinuity",
    ):
        assert periodic[rung] == HOLDS

    full = by_system["full-shift"]
    assert full["classify/diam-mean-sensitivity"] == HOLDS
    for eq_side in (
        "classify/diam-mean-avg",
        "classify/diam-mean-density",
        "classify/banach-diam-mean",
        "classify/stable-in-mean",
        "classify/frequent-stability",
        "classify/mean-equicontinuity",
    ):
        assert full[eq_side] == FAILS

    nested = by_system["nested-block"]
    assert nested["classify/ladder-diam-mean-equicontinuity"] == HOLDS

    for sid, verdicts in by_system.items():
        both = (
            verdicts["classify/ladder-diam-mean-equicontinuity"] == HOLDS
            and verdicts["classify/diam-mean-sensitivity"] == HOLDS
        )
        assert not both, sid
    print("criterion 10 (tour cells and dichotomy, timed): PASS")


def test_criterion_11_simultaneous_returns(sturmian_long):
    x = sturmian_long
    res = sl.multi_recurrence_search(x, powers=2, epsilon_depth=8, horizon=10**6)
    n = res.found
    assert n is not None and n <= 10**6
    head = x.data[:8]
    assert np.array_equal(x.data[n : n + 8], head)
    assert np.array_equal(x.data[2 * n : 2 * n + 8], head)
    assert all(g < res.epsilon for g in res.gaps)

    fewer = sl.multi_recurrence_search(x, 1, 8, 10**5)
    looser = sl.multi_recurrence_search(x, 2, 7, 10**5)
    tighter = sl.multi_recurrence_search(x, 2, 16, 10**5)
    more = sl.multi_recurrence_search(x, 3, 8, 10**5)
    base = sl.multi_recurrence_search(x, 2, 8, 10**5)
    assert fewer.found <= base.found
    assert looser.found <= base.found
    assert tighter.found >= base.found
    assert more.found >= base.found
    print("criterion 11 (return found and verified, monotone): PASS")


def test_criterion_12_reports_are_deterministic(tour_runs):
    one, two, _ = tour_runs
    a = (one / "report.csv").read_text().splitlines()
    b = (two / "report.csv").read_text().splitlines()
    assert a[0].startswith("# generated-at ")
    assert b[0].startswith("# generated-at ")
    assert a[1:] == b[1:]
    for sub in ("series", "verdicts"):
        names_a = sorted(p.name for p in (one / sub).iterdir())
        names_b = sorted(p.name for p in (two / sub).iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (one / sub / name).read_bytes() == (two / sub / name).read_bytes()
    print("criterion 12 (cold reruns byte-identical sans stamp): PASS")
