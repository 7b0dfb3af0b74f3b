"""Finite-horizon stability and sensitivity statistics.

The orbit of a transitive point is the only computable handle on its orbit
closure, so every cylinder here is sampled by occurrence shifts: the points
sigma^q x for each scan hit q of the base word. That under-approximates the
true cylinder (limit points are missing), so diameter values are lower
bounds, except where the system has a recurrence bound (`recurrence_bound`):
there the sample is a recurrence window that holds every row of the
cylinder, and its series is exact at the stated horizon when the window
holds at most occ_cap starts. Distances are truncated at a depth cap K;
censored terms count 0 in averages and every statistic carries the additive
bias bound 1/K. Both effects push the statistics down, so on the
equicontinuity side "fails" is the sound verdict and "holds" is the
optimistic one. The sensitivity sweep thins its cylinders to max_words, so
its minimum is taken over a subset of all cylinders.

No verdict claims anything beyond the stated horizon.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DEFAULT_DEPTH_CAP,
    BudgetError,
    Count,
    FiniteWord,
    HorizonError,
    Increasing,
    Share,
    SymbolicSequence,
    _key_dtype,
    checked,
    factor_counts,
    occurrences,
    window_groups,
)
from .generate import NestedBlockMeta, recurrence_bound

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "DEFAULT_OCC_CAP",
    "DiamSeries",
    "diam_series",
    "diam_series_from_positions",
    "SupportCounts",
    "nonzero_support_counts",
    "ModulusCurve",
    "mean_eq_modulus",
    "StabilityVerdict",
    "diam_mean_avg_test",
    "diam_mean_density_test",
    "default_window_lengths",
    "banach_diam_mean_test",
    "stable_in_mean_test",
    "frequent_stability_test",
    "covering_words",
    "diam_mean_sensitivity_test",
    "ComplexityCurve",
    "entropy_complexity",
    "HierarchyReport",
    "classify_hierarchy",
]

HOLDS = "holds-at-horizon"
FAILS = "fails-at-horizon"
INCONCLUSIVE = "inconclusive"

DEFAULT_OCC_CAP = 100_000
_WORK_BUDGET = 1 << 34  # probes per scan; beyond this the call refuses
_FIRST_BLOCK = 32  # diam kernel: samples before its first settled-byte check; checks double
_FIRST_STAGE = 2 * _FIRST_BLOCK  # sensitivity sweep: samples of a word's first lower bound
_BLOCK_BYTES = 1 << 19  # bytes one gathered block of rows may hold
_GAP_BLOCK = 1 << 16  # positions per index ramp in _gaps_to_next_true


def _thin_positions(positions: np.ndarray, cap: int | None) -> np.ndarray:
    """Deterministic uniform subsample of cap >= 1 positions, order preserved; None keeps all."""
    if cap is None or positions.size <= cap:
        return positions
    idx = np.linspace(0, positions.size - 1, cap).astype(np.int64)
    idx = idx[np.concatenate(([True], idx[1:] != idx[:-1]))]
    return positions[idx]


def _gaps_to_next_true(flags: np.ndarray, horizon: int, cap: int) -> np.ndarray:
    """For i = 1..horizon: offset j <= cap to the first True strictly past i.

    flags[t-1] says whether something happens at position t; the result holds
    j = t - i for the smallest flagged t > i, or 0 when no flagged position
    lies within (i, i + cap].

    One array of span entries is worked in place, int32 unless the
    sentinel needs int64: nxt[t-1] = t where flagged, the sentinel
    max(span, horizon + cap) + 1 (span + 1 for the diam kernel's span =
    horizon + cap) elsewhere, then a reversed running minimum makes nxt[i]
    the first flagged position past i, from which i is subtracted a block at
    a time. That peaks at about 5 bytes per position.
    """
    span = flags.size
    sentinel = max(span, horizon + cap) + 1  # so no gap read off it is within the cap
    nxt = np.arange(1, span + 1, dtype=_key_dtype(sentinel + 1))
    np.copyto(nxt, sentinel, where=~flags)
    np.minimum.accumulate(nxt[::-1], out=nxt[::-1])
    gaps = nxt[1 : horizon + 1]
    for lo in range(0, horizon, _GAP_BLOCK):
        block = gaps[lo : lo + _GAP_BLOCK]
        block -= np.arange(lo + 1, lo + 1 + block.size, dtype=nxt.dtype)
    gaps[gaps > cap] = 0
    return gaps.astype(np.int32, copy=False)


@dataclass(frozen=True, eq=False)
class DiamSeries:
    """Per-iterate diameter estimates of a cylinder sample.

    first_disagreement[i-1] is the offset j in [1, depth_cap] at which the
    sampled points of the cylinder first disagree after iterate i, or 0 when
    they agree through the cap (value censored at 1/depth_cap). A series
    built from fewer than two sample points is flagged insufficient and is
    all-censored by construction.

    The statistics read the offsets through three readers: `values()` (the average
    and the modulus), the cached `gap_counts` histogram (the series CSV, the censored
    fraction, both densities) and `_running_sums` (both worst averages).
    """

    word: FiniteWord
    horizon: int
    depth_cap: int
    first_disagreement: np.ndarray
    sample_count: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.first_disagreement, dtype=np.int32)
        if arr.size != self.horizon:
            raise ValueError("series length must equal the horizon")
        if arr.size and not (arr.min() >= 0 and arr.max() <= self.depth_cap):
            raise ValueError("offsets must lie in [0, depth_cap]")
        arr.setflags(write=False)
        object.__setattr__(self, "first_disagreement", arr)

    @property
    def insufficient(self) -> bool:
        return self.sample_count < 2

    def values(self) -> np.ndarray:
        """Diameter estimates with censored entries as 0."""
        gaps = self.first_disagreement
        vals = np.zeros(gaps.size, dtype=np.float64)
        np.divide(1.0, gaps, out=vals, where=gaps > 0)
        return vals

    @cached_property
    def gap_counts(self) -> np.ndarray:
        """counts[g] = #{i : first_disagreement[i-1] == g}, g up to the largest offset, by
        np.bincount _GAP_BLOCK offsets at a time (it casts to intp). It is slowest on one
        repeated value, so the first block's mode is left out and counted as the rest."""
        gaps = self.first_disagreement
        guess = int(np.bincount(gaps[:_GAP_BLOCK]).argmax())
        counts = np.zeros(int(gaps.max()) + 1, np.int64)
        for lo in range(0, gaps.size, _GAP_BLOCK):
            part = gaps[lo : lo + _GAP_BLOCK]
            counts += np.bincount(part[part != guess], minlength=counts.size)
        counts[guess] = gaps.size - counts.sum()
        counts.setflags(write=False)
        return counts

    @property
    def censored_fraction(self) -> float:
        return float(self.gap_counts[0]) / self.horizon

    @property
    def bias_bound(self) -> float:
        return 1.0 / self.depth_cap

    def summary(self) -> dict:
        return {
            "word": str(self.word),
            "horizon": self.horizon,
            "depth_cap": self.depth_cap,
            "sample_count": self.sample_count,
            "insufficient": self.insufficient,
            "censored_fraction": self.censored_fraction,
        }


def _check_budget(scan: str, probes: int) -> None:
    if probes > _WORK_BUDGET:
        raise BudgetError(f"{scan} scan would touch {probes} probes (budget {_WORK_BUDGET})")


@checked
def diam_series_from_positions(
    x: SymbolicSequence,
    word: FiniteWord,
    positions: Sequence[int] | np.ndarray,
    horizon: Count,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
) -> DiamSeries:
    """Series from an explicit sample of occurrence shifts.

    Every position q must keep q + horizon + depth_cap within the buffer.
    """
    qs = np.asarray(positions, dtype=np.int64)
    span = horizon + depth_cap
    if qs.size:
        if int(qs.min()) < 0:
            raise ValueError("occurrence positions must be nonnegative")
        if int(qs.max()) + span > x.length:
            raise HorizonError(
                f"occurrence at {int(qs.max())} needs {span} probe symbols past it;"
                f" buffer holds {x.length}"
            )
    _check_budget("diam", qs.size * span)
    gaps = _gaps_to_next_true(_disagreement(x, qs[None], span)[0], horizon, depth_cap)
    return DiamSeries(word, horizon, depth_cap, gaps, int(qs.size))


def _plane_count(alphabet_size: int) -> int:
    return max(1, (alphabet_size - 1).bit_length())


def _packed_planes(x: SymbolicSequence) -> np.ndarray:
    """Bit planes of x's whole buffer, packed at each of the 8 bit offsets.

    planes[p, r] is bit p of symbols r, r + 1, ... packed eight to a byte
    (first symbol in the high bit) and zero-padded, so the symbols from
    buffer position a on are planes[p, a % 8, a // 8 :]. Built on first use
    and kept in `x._derived`.
    """
    planes = x._derived.get("packed_planes")
    if planes is None:
        buf = x.data
        count = _plane_count(x.alphabet_size)
        planes = np.zeros((count, 8, (buf.size + 7) // 8), np.uint8)
        for p in range(count):
            bits = buf if count == 1 else (buf >> p) & 1
            for r in range(8):
                packed = np.packbits(bits[r:])
                planes[p, r, : packed.size] = packed
        planes.setflags(write=False)
        x._derived["packed_planes"] = planes
    return planes


def _disagreement(x: SymbolicSequence, groups: np.ndarray, span: int) -> np.ndarray:
    """masks[g, j] says whether x.data[q + j] != x.data[groups[g, 0] + j] for some q in groups[g].

    Each group is one sample (padding repeats a row: no disagreement). Rows of
    span symbols are compared as bytes: raw symbols, or, when the largest group's
    samples cover at least as many symbols as the packed planes hold, the offset
    copies of `_packed_planes`, eight symbols per byte (a symbol differs when any
    of its planes does). A byte settles once every symbol in it has disagreed. A
    row is cut into segments so that _FIRST_BLOCK samples of every group fit in a
    block of _BLOCK_BYTES, taken in blocks of at most that size. Each time the
    sample count doubles from _FIRST_BLOCK, a check narrows the segment to the
    bytes from the first unsettled in any group to the last; it is done once all
    have settled. The masks only grow, so the result is exact for any positions
    in any order. Besides a block, only the compared bytes and the result span
    whole rows: more fragment the malloc heap (18 MiB more battery peak RSS).
    """
    n = groups.shape[1]
    packed = (n - 1) * span >= _plane_count(x.alphabet_size) * x.length
    if packed:
        planes = _packed_planes(x)
        src = planes.reshape(planes.shape[0], -1)
        rows = groups % 8 * planes.shape[2] + groups // 8
        flat, full = np.zeros((len(groups), -(-span // 8)), np.uint8), 0xFF  # settled at >= full
        flat[:, -1] = (1 << (-span % 8)) - 1  # pad bits past the row count as settled
    else:
        src, rows, flat, full = x.data[None, :], groups, np.zeros((len(groups), span), np.uint8), 1
    step = max(1, _BLOCK_BYTES // (len(groups) * max(1, min(n - 1, _FIRST_BLOCK))))
    for lo in range(0, flat.shape[1] if n > 1 else 0, step):  # one row: nothing to compare
        seg, i, check = flat[:, lo : lo + step], 1, _FIRST_BLOCK
        view = sliding_window_view(src[:, lo:], seg.shape[1], axis=1)
        while i < n:
            b = max(1, min(check - i, n - i, _BLOCK_BYTES // seg.size))
            for p in range(src.shape[0]):
                got = view[p][rows[:, i : i + b]]
                got ^= view[p][rows[:, :1]]
                got[:, 0] |= seg
                np.bitwise_or.reduce(got, axis=1, out=seg)
            i += b
            if i == check < n:
                check *= 2
                live = (seg < full).any(axis=0)
                first, last = live.argmax(), live.size - live[::-1].argmax()
                if not live[first]:
                    break
                if last - first < live.size:  # narrow to the unsettled bytes
                    lo, seg = lo + first, seg[:, first:last]
                    view = sliding_window_view(src[:, lo:], seg.shape[1], axis=1)
    got = None  # the last block goes before the row-sized result comes
    if packed:
        return np.unpackbits(flat, axis=1, count=span).view(bool)
    return flat != 0


def _group_masks(x: SymbolicSequence, samples: list[np.ndarray], span: int) -> Iterator[np.ndarray]:
    """`_disagreement` masks of the samples, in order, from calls of at most 8 _BLOCK_BYTES
    of masks or one sample, each padded with its first position to the call's largest."""
    per = max(1, 8 * _BLOCK_BYTES // span)
    for chunk in (samples[lo : lo + per] for lo in range(0, len(samples), per)):
        width = max(qs.size for qs in chunk)
        yield _disagreement(x, np.stack([np.append(qs, qs[:1].repeat(width - qs.size))
                                         for qs in chunk]), span)


def _reach(depth_cap: int, epsilon: float) -> int:
    """The largest j <= depth_cap with 1/j > epsilon, or 0: a value 1/j exceeds epsilon
    iff 1 <= j <= reach, and a censored 0 iff 0 > epsilon."""
    return int(np.count_nonzero(1.0 / np.arange(1, depth_cap + 1) > epsilon))


def _exceed_counts(masks: np.ndarray, horizon: int, depth_cap: int, epsilon: float) -> np.ndarray:
    """Per mask row: #{i <= horizon : diam value > epsilon}, read off the mask in place.

    The value of i, 1/j for the first set position i + j (j <= depth_cap) or else 0,
    exceeds epsilon iff some set position lies in (i, i + `_reach`]; or always, if
    0 > epsilon. A doubling window OR reads them.
    """
    reach = _reach(depth_cap, epsilon)
    if 0.0 > epsilon or reach == 0:
        return np.full(len(masks), horizon if 0.0 > epsilon else 0)
    hit, width = masks[:, 1 : horizon + reach], 1  # hit[:, i - 1] covers position i + 1 on
    while width < reach:
        grow = min(width, reach - width)
        hit[:, :-grow] |= hit[:, grow:]
        width += grow
    return np.count_nonzero(hit[:, :horizon], axis=1)


def _scan_clamp(x: SymbolicSequence, n: int, horizon: int, depth_cap: int) -> int:
    """Scan limit for n-words whose occurrences are probed through horizon + depth_cap symbols.

    A word longer than horizon + depth_cap leaves room for its own probes, so
    the limit is the whole buffer.
    """
    clamp = min(x.length, x.length - horizon - depth_cap + n)
    if clamp < n:
        raise HorizonError(
            f"horizon {horizon} + depth cap {depth_cap} leave no room to scan"
            f" (buffer {x.length})"
        )
    return clamp


def _sample_scan(x: SymbolicSequence, n: int, horizon: int, depth_cap: int) -> int:
    """Scan limit of the n-word samples `diam_series` and the sweep take.

    Where x has a recurrence bound R (`recurrence_bound`) at the probe length
    P = max(n, horizon + depth_cap), every P-word of its orbit closure starts in
    x at or below R(P) - P, and every n-word first starts at or below R(n) - n
    and recurs within R(n) - n + 1. So the starts up to max(R(P) - P, 2(R(n) - n) + 1)
    hold every row the kernel compares for a word, and at least two of them: their
    series is the cylinder's exact one at this horizon and depth cap whenever the
    caller's thinning keeps them all. Else the `_scan_clamp` window.
    """
    probe = max(n, horizon + depth_cap)
    bound = recurrence_bound(x, probe)
    if bound is not None:
        last = max(bound - probe, 2 * (recurrence_bound(x, n) - n) + 1)
        if last + probe <= x.length:
            return last + n
    return _scan_clamp(x, n, horizon, depth_cap)


@checked
def diam_series(
    x: SymbolicSequence,
    word: FiniteWord,
    horizon: Count,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
    occ_cap: Count = DEFAULT_OCC_CAP,
) -> DiamSeries:
    """Scan for the word, sample its occurrence shifts, build the series.

    The sample is the word's starts in `_sample_scan`'s window, which leaves
    every sample room for horizon + depth_cap probe symbols. Above occ_cap
    occurrences the sample is thinned uniformly; a subsample only lowers
    diameter values, so the under-approximation direction is preserved. Where
    x has a recurrence bound and the window holds at most occ_cap starts, the
    series is the cylinder's exact one.
    """
    limit = _sample_scan(x, len(word), horizon, depth_cap)
    qs = _thin_positions(occurrences(x, word, limit).positions, occ_cap)
    return diam_series_from_positions(x, word, qs, horizon, depth_cap)


@dataclass(frozen=True)
class SupportCounts:
    """How much of the horizon is touched by nonzero symbols across a cylinder sample.

    counts[j] = #{1 <= m <= horizons[j] : some sampled occurrence shift has a
    nonzero symbol at position m}. Ratios are exact integer fractions.
    """

    word: FiniteWord
    levels: tuple[int, ...]
    horizons: tuple[int, ...]
    counts: tuple[int, ...]
    sample_count: int

    @property
    def ratios(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, n) for c, n in zip(self.counts, self.horizons))

    def as_json_dict(self) -> dict:
        ratios = [(r.numerator, r.denominator) for r in self.ratios]
        return asdict(self) | {"word": str(self.word), "ratios": ratios}


@checked
def nonzero_support_counts(
    x: SymbolicSequence,
    meta: NestedBlockMeta,
    levels: Increasing | None = None,
    occ_cap: Count = DEFAULT_OCC_CAP,
    *,
    word: FiniteWord | None = None,
) -> SupportCounts:
    """Envelope statistic of the nested block point at its level horizons.

    For level i the horizon is the next block length, meta.lengths[i]. The
    base cylinder defaults to the seed word "11". A position is touched when
    some sampled shift has a nonzero symbol there: where the first sample has
    a 0, that is where some sample differs from it (the diam kernel's OR over
    the samples); elsewhere the first sample touches it. The touched
    positions are then counted up to each horizon.
    """
    if word is None:
        word = FiniteWord((1, 1), x.alphabet_size)
    if levels is None:
        levels = tuple(range(1, meta.i_max))
    levels = tuple(int(i) for i in levels)
    if not levels:
        raise ValueError("need at least one level")
    if any(not 1 <= i <= meta.i_max for i in levels):
        raise ValueError(f"levels must lie in [1, {meta.i_max}]")
    horizons = tuple(meta.lengths[i] for i in levels)
    top = horizons[-1]
    if top > x.length:
        raise HorizonError(
            f"level {levels[-1]} horizon {top} exceeds the built length {x.length};"
            " build one level deeper"
        )
    occ = occurrences(x, word, _scan_clamp(x, len(word), top, 0))
    qs = _thin_positions(occ.positions, occ_cap)
    _check_budget("envelope", qs.size * top)
    if qs.size:
        touched = _disagreement(x, qs[None], top)[0] | (x.data[qs[0] : qs[0] + top] != 0)
    else:
        touched = np.zeros(top, dtype=bool)
    counts = tuple(int(np.count_nonzero(touched[:n])) for n in horizons)
    return SupportCounts(word, levels, horizons, counts, int(qs.size))


@dataclass(frozen=True)
class ModulusCurve:
    """depth m -> worst sampled Besicovitch value among pairs sharing m symbols, or None."""

    depths: tuple[int, ...]
    statistics: tuple[float | None, ...]
    pair_counts: tuple[int, ...]
    horizon: int
    depth_cap: int

    @property
    def shortfall(self) -> tuple[bool, ...]:
        return tuple(stat is None for stat in self.statistics)

    @property
    def bias_bound(self) -> float:
        return 1.0 / self.depth_cap

    def as_json_dict(self) -> dict:
        return asdict(self) | {"shortfall": self.shortfall, "bias_bound": self.bias_bound}


@checked
def mean_eq_modulus(
    x: SymbolicSequence,
    depths: Increasing = (2, 4),
    horizon: Count = 32768,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
    pair_budget: Count = 16,
) -> ModulusCurve:
    """Finite modulus of mean equicontinuity along prefix cylinders.

    For each depth m, pairs are occurrence shifts of the m-prefix of x
    (thinned to pair_budget + 1 representatives, compared against the
    first); the statistic is the maximum Besicovitch value over the pairs.
    A pair's value is the Cesaro average of the `DiamSeries` of its two
    points, whose gaps the diam kernel gives, a depth's pairs batched. A depth
    with fewer than two occurrences has statistic None.
    """
    depths = tuple(int(m) for m in depths)
    span = horizon + depth_cap
    stats: list[float | None] = []
    pairs: list[int] = []
    scan = None  # a deeper prefix's starts resume the shallower one's scan
    for m in depths:
        scan = occurrences(x, x.prefix(m), _scan_clamp(x, m, horizon, depth_cap), scan)
        qs = _thin_positions(scan.positions, pair_budget + 1)
        _check_budget("modulus", (qs.size - 1) * span)
        masks = _group_masks(x, [qs[[0, r]] for r in range(1, qs.size)], span)
        values = [DiamSeries(scan.word, horizon, depth_cap,
                             _gaps_to_next_true(mask, horizon, depth_cap), 2).values().mean()
                  for batch in masks for mask in batch]
        stats.append(float(max(values)) if values else None)
        pairs.append(len(values))
    return ModulusCurve(depths, tuple(stats), tuple(pairs), horizon, depth_cap)


@dataclass(frozen=True)
class StabilityVerdict:
    """One test outcome, and one row of a run's report: statistic, thresholds, and a
    horizon-stamped verdict. `bias_bound` is None for a statistic without a bias (recurrence).
    """

    test: str
    params: dict
    statistic: float | None
    bias_bound: float | None
    verdict: str
    evidence: dict = field(default_factory=dict)

    def as_json_dict(self, evidence_ref: str | None = None) -> dict:
        return {
            "test": self.test,
            "params": self.params,
            "statistic": self.statistic,
            "bias": self.bias_bound,
            "verdict": self.verdict,
            "evidence_ref": evidence_ref,
        }


_DIRECTION_NOTE = (
    "cylinder sampled by occurrence shifts; diam values are lower bounds,"
    " censored terms count 0 with the stated bias bound"
)


def _series_verdict(
    test: str, series: DiamSeries, thresholds: dict, statistic: float, holds: bool,
    evidence: dict | None = None,
) -> StabilityVerdict:
    """A series test's verdict: inconclusive, statistic None, below two sample points."""
    params = {
        "word": str(series.word),
        "depth": len(series.word),
        "horizon": series.horizon,
        "depth_cap": series.depth_cap,
        **thresholds,
    }
    base = {"series": series.summary(), "direction": _DIRECTION_NOTE}
    if series.insufficient:
        return StabilityVerdict(test, params, None, series.bias_bound, INCONCLUSIVE, base)
    verdict = HOLDS if holds else FAILS
    return StabilityVerdict(
        test, params, statistic, series.bias_bound, verdict, {**base, **(evidence or {})}
    )


def diam_mean_avg_test(series: DiamSeries, epsilon: float = 0.1) -> StabilityVerdict:
    """Cesaro average of the diam series; holds iff the average < epsilon."""
    stat = float(series.values().mean())
    return _series_verdict("diam-mean-avg", series, {"epsilon": epsilon}, stat, stat < epsilon)


def _exceed_count(series: DiamSeries, threshold: float) -> int:
    """#{i : value > threshold}: the offsets in [1, `_reach`], or all if 0 > threshold."""
    if 0.0 > threshold:
        return series.horizon
    return int(series.gap_counts[1 : _reach(series.depth_cap, threshold) + 1].sum())


def diam_mean_density_test(series: DiamSeries, eta: float = 0.1) -> StabilityVerdict:
    """Density of iterates with diam value above eta; holds iff < eta.

    The density is taken on the full matched window (count / horizon), which
    makes the coupling inequality average >= eta * density exact against the
    shared series.
    """
    exceed = _exceed_count(series, eta)
    stat = exceed / series.horizon
    evidence = {"exceed_count": exceed, "matched_window": series.horizon}
    return _series_verdict("diam-mean-density", series, {"eta": eta}, stat, stat < eta, evidence)


@checked
def default_window_lengths(horizon: Count) -> tuple[int, ...]:
    """Dyadic sliding-window lengths N/2, N/4, ..., N/64."""
    raw = {max(1, horizon // (1 << j)) for j in range(1, 7)}
    return tuple(sorted(raw))


def _running_sums(series: DiamSeries) -> np.ndarray:
    """sums[i] = the sum of the first i values, i = 0..horizon, summed in place."""
    gaps = series.first_disagreement
    sums = np.zeros(gaps.size + 1)
    np.divide(1.0, gaps, out=sums[1:], where=gaps > 0)  # series.values(), one slot later
    np.cumsum(sums, out=sums)
    return sums


def _window_maxima(sums: np.ndarray, lengths: Sequence[int]) -> tuple[float, ...]:
    """Per length n: the largest sum of n consecutive values over n, _GAP_BLOCK at a time."""
    maxima = []
    for n in lengths:
        best = 0.0
        for lo in range(0, sums.size - n, _GAP_BLOCK):
            ends = sums[lo + n : lo + n + _GAP_BLOCK]
            best = max(best, float((ends - sums[lo : lo + ends.size]).max()))
        maxima.append(best / n)
    return tuple(maxima)


@checked
def banach_diam_mean_test(
    series: DiamSeries, epsilon: float = 0.1, window_lengths: Increasing | None = None
) -> StabilityVerdict:
    """Worst sliding-window average of the diam series; holds iff < epsilon.

    The default window schedule is dyadic and includes the full horizon, so
    the statistic dominates the plain Cesaro average by construction.
    """
    if window_lengths is None:
        lengths = tuple(sorted(set(default_window_lengths(series.horizon)) | {series.horizon}))
    else:
        lengths = tuple(int(n) for n in window_lengths)
        if lengths[-1] > series.horizon:
            raise ValueError(f"window length {lengths[-1]} exceeds horizon {series.horizon}")
    per_window = _window_maxima(_running_sums(series), lengths)
    stat = max(per_window)
    return _series_verdict(
        "banach-diam-mean", series, {"epsilon": epsilon, "window_lengths": list(lengths)},
        stat, stat < epsilon, {"per_window": {str(n): v for n, v in zip(lengths, per_window)}},
    )


def stable_in_mean_test(series: DiamSeries, epsilon: float = 0.1) -> StabilityVerdict:
    """Worst prefix average of the diam series; holds iff < epsilon.

    Dominates the final Cesaro average, so this is the strictest of the
    averaged statistics at a fixed base depth.
    """
    means = _running_sums(series)[1:]
    for lo in range(0, means.size, _GAP_BLOCK):  # each prefix sum over its length, as a double
        block = means[lo : lo + _GAP_BLOCK]
        np.divide(block, np.arange(lo + 1, lo + 1 + block.size, dtype=np.float64), out=block)
    stat = float(means.max())
    return _series_verdict(
        "stable-in-mean", series, {"epsilon": epsilon}, stat, stat < epsilon,
        {"worst_prefix": int(means.argmax()) + 1},
    )


@checked
def frequent_stability_test(
    series: DiamSeries, epsilon: float = 0.1, gamma: Share = 0.25
) -> StabilityVerdict:
    """Density of iterates with diam value above epsilon; holds iff <= 1 - gamma.

    The margin gamma quantifies "density strictly below one" at a finite
    horizon; the comparison is non-strict by definition of the margin.
    """
    stat = _exceed_count(series, epsilon) / series.horizon
    return _series_verdict(
        "frequent-stability", series, {"epsilon": epsilon, "gamma": gamma}, stat,
        stat <= 1.0 - gamma,
    )


def _cylinders(
    x: SymbolicSequence, depth: int, limit: int | None, first_end: int, max_words: int | None
) -> Iterator[tuple[str, np.ndarray]]:
    """(name, starts) of the depth-m words in one `window_groups` scan of `limit` symbols.

    The words first start below first_end and come in word order, thinned
    evenly to max_words; each word's starts ascend and are not thinned. A
    name is the word's `str`, read off the buffer at its first start.
    """
    order, heads = window_groups(x, depth, limit)
    ends = np.append(heads[1:], order.size)
    family = _thin_positions(np.flatnonzero(order[heads] < first_end), max_words)
    for b, e in zip(heads[family].tolist(), ends[family].tolist()):
        symbols = x.data[order[b] : order[b] + depth]
        if x.alphabet_size <= 10:
            name = (symbols + ord("0")).tobytes().decode()
        else:
            name = "-".join(map(str, symbols.tolist()))
        yield name, order[b:e]


@checked
def covering_words(
    x: SymbolicSequence,
    depth: Count,
    limit: int | None = None,
    max_words: Count | None = None,
) -> tuple[FiniteWord, ...]:
    """All depth-m words of the first `limit` symbols (sorted), optionally thinned evenly."""
    firsts = [int(starts[0]) for _, starts in _cylinders(x, depth, limit, x.length, max_words)]
    return tuple(x.word(q + 1, q + depth) for q in firsts)


@checked
def diam_mean_sensitivity_test(
    x: SymbolicSequence,
    depth: Count = 3,
    horizon: Count = 32768,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
    epsilon: float = 0.1,
    occ_cap: Count = 4096,
    max_words: Count | None = 64,
) -> StabilityVerdict:
    """Sensitivity sweep over the depth-m cylinders, thinned evenly to max_words.

    The family is `_cylinders`: words first starting where they leave room for
    horizon + depth_cap probe symbols, within 2^20 symbols; each word's sample
    is its starts in `diam_series`'s window (`_sample_scan`), thinned to occ_cap.

    Holds iff every evaluated cylinder has density of large-diam iterates
    strictly above epsilon; a single small-density cylinder is a witness
    against sensitivity and is reported as the minimizer. Words with fewer
    than two occurrences in the scan window are skipped with notice.

    The minimum is exact over the evaluated words; the search only skips work.
    The kernel's mask, the columns where the sampled rows are not all equal,
    does not depend on the reference row and only grows with rows, so on a
    subset of a word's sample every gap is as long or longer, or censored, and
    the density is a lower bound, read off the mask (`_exceed_counts`). Every
    word's first stage, _FIRST_STAGE samples (all below 4 * _FIRST_STAGE), runs
    in batched kernel calls; a heap keyed (bound, word) then refines its top word
    at 4 * _FIRST_STAGE, ... samples while a stage is at most a quarter of the
    sample, then at the full sample. The first word on top with its full density
    is the minimizer, ties going to the smaller word. Budget refusals come first.
    If nothing is pruned, the stages add at most a third to the samples a plain
    scan takes: (64 + 256 + 1024) / 4096 at the default occ_cap.
    """
    word_scan = max(depth, min(x.length - horizon - depth_cap, 1 << 20))
    limit = _sample_scan(x, depth, horizon, depth_cap)
    family = [
        (w, _thin_positions(starts, occ_cap))
        for w, starts in _cylinders(x, depth, limit, word_scan - depth + 1, max_words)
    ]
    for _, qs in family:
        _check_budget("diam", qs.size * (horizon + depth_cap))

    def refined(stages: list[tuple[str, int, int]]) -> list[tuple[float, str, int, int]]:
        """Heap keys of (word, index, stage) triples; a call pads to its largest sample."""
        work = sorted(((qs, w, i, 0) if 4 * n > qs.size else (_thin_positions(qs, n), w, i, 4 * n)
                       for w, i, n in stages for qs in [family[i][1]]), key=lambda t: t[0].size)
        masks = _group_masks(x, [qs for qs, *_ in work], horizon + depth_cap)
        counts = [c for m in masks for c in _exceed_counts(m, horizon, depth_cap, epsilon).tolist()]
        return [(c / horizon, w, i, nxt) for c, (_, w, i, nxt) in zip(counts, work)]

    skipped = [w for w, qs in family if qs.size < 2]
    heap = refined([(w, i, _FIRST_STAGE) for i, (w, qs) in enumerate(family) if qs.size >= 2])
    heapq.heapify(heap)
    while heap and heap[0][3]:  # a stage of 0: the key is the word's full density
        _, name, i, n = heapq.heappop(heap)
        heapq.heappush(heap, refined([(name, i, n)])[0])
    params = {"depth": depth, "word_count": len(family), "horizon": horizon,
              "depth_cap": depth_cap, "epsilon": epsilon}
    bias = 1.0 / depth_cap
    if not heap:
        evidence = {"skipped": skipped, "note": "no cylinder had two occurrences"}
        return StabilityVerdict("diam-mean-sensitivity", params, None, bias, INCONCLUSIVE, evidence)
    min_density, min_word = heap[0][:2]
    verdict = HOLDS if min_density > epsilon else FAILS
    evidence = {
        "minimizing_word": min_word,
        "evaluated": len(heap),
        "skipped": skipped,
        "direction": _DIRECTION_NOTE,
    }
    return StabilityVerdict("diam-mean-sensitivity", params, min_density, bias, verdict, evidence)


@dataclass(frozen=True)
class ComplexityCurve:
    """Word-complexity entropy surrogate: n -> ln(#factors)/n."""

    lengths: tuple[int, ...]
    counts: tuple[int, ...]
    values: tuple[float, ...]
    limit: int
    trend: str

    def as_json_dict(self) -> dict:
        return asdict(self)


@checked
def entropy_complexity(
    x: SymbolicSequence, lengths: Increasing = (4, 8, 12), limit: Count = 1 << 20
) -> ComplexityCurve:
    """ln(#distinct n-words)/n for each n, in the first min(limit, x.length) symbols.

    Where x has a recurrence bound R (`recurrence_bound`) at the longest n, the
    scan reads only the first min(limit, R) symbols, and `limit` still reports the
    clamp. The counts are the same: those R symbols hold every word of the orbit
    closure X at the longest n, every shorter word of X is a prefix of one of
    them, and any prefix holds only words of X, so both scans count p_X(n).
    """
    lengths = tuple(int(n) for n in lengths)
    limit = min(x.length, limit)
    bound = recurrence_bound(x, lengths[-1])
    counts = factor_counts(x, lengths, limit if bound is None else min(limit, bound))
    values = tuple(math.log(c) / n for c, n in zip(counts, lengths))
    if len(values) < 2 or abs(values[-1] - values[0]) < 1e-12:
        trend = "flat"
    elif values[-1] < values[0]:
        trend = "decreasing"
    else:
        trend = "increasing"
    return ComplexityCurve(lengths, counts, values, limit, trend)


@dataclass(frozen=True)
class HierarchyReport:
    """Ordered ladder verdicts plus the component battery for one system."""

    system_id: str
    params: dict
    rungs: tuple[StabilityVerdict, ...]
    battery: tuple[StabilityVerdict, ...]
    sensitivity: StabilityVerdict
    modulus: ModulusCurve
    complexity: ComplexityCurve
    notes: tuple[str, ...]

    def as_json_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "params": self.params,
            "rungs": [v.as_json_dict() for v in self.rungs],
            "battery": [v.as_json_dict() for v in self.battery],
            "sensitivity": self.sensitivity.as_json_dict(),
            "modulus": self.modulus.as_json_dict(),
            "complexity": self.complexity.as_json_dict(),
            "notes": list(self.notes),
        }


def _combine(verdicts: Sequence[str]) -> str:
    if any(v == INCONCLUSIVE for v in verdicts):
        return INCONCLUSIVE
    if all(v == HOLDS for v in verdicts):
        return HOLDS
    return FAILS


@checked
def classify_hierarchy(
    x: SymbolicSequence,
    base_depth: Count = 2,
    sensitivity_depth: Count = 3,
    horizon: Count = 32768,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
    epsilon: float = 0.1,
    eta: float = 0.1,
    gamma: Share = 0.25,
    modulus_depths: Increasing | None = None,
    pair_budget: Count = 8,
    occ_cap: Count = 4096,
    entropy_lengths: Increasing = (4, 8, 12),
    entropy_limit: Count = 1 << 20,
    max_words: Count | None = 64,
    *,
    system_id: str | None = None,
) -> HierarchyReport:
    """Run the stability ladder on one system and aggregate the verdicts.

    Ladder order (strongest first): diam-mean equicontinuity, then mean
    equicontinuity together with frequent stability, then mean
    equicontinuity alone. For a minimal system, diam-mean equicontinuity
    is equivalent to a regular maximal equicontinuous factor and implies
    almost automorphy together with mean equicontinuity, which in turn
    implies mean equicontinuity.
    Rung 2 reads frequent stability as the middle criterion; PAPER.md holds
    only the paper's abstract, so that reading cannot be checked against
    the full text offline. Any inconclusive component makes its rung
    inconclusive. The sensitivity sweep and the entropy surrogate ride
    along as context; no rung claims anything beyond the horizon.

    The keywords past x are the fields of the `classify` config test.
    modulus_depths None means (base_depth, 2 * base_depth); the
    report's params hold every field, with modulus_depths resolved.
    """
    params = {k: v for k, v in locals().items() if k not in ("x", "system_id")}
    modulus_depths = tuple(modulus_depths or (base_depth, 2 * base_depth))
    params.update(modulus_depths=list(modulus_depths), entropy_lengths=list(entropy_lengths))
    w = x.prefix(base_depth)
    series = diam_series(x, w, horizon, depth_cap, occ_cap=occ_cap)
    avg = diam_mean_avg_test(series, epsilon)
    dens = diam_mean_density_test(series, eta)
    ban = banach_diam_mean_test(series, epsilon)
    stab = stable_in_mean_test(series, epsilon)
    freq = frequent_stability_test(series, epsilon, gamma)
    modulus = mean_eq_modulus(x, modulus_depths, horizon, depth_cap, pair_budget)
    sens = diam_mean_sensitivity_test(
        x, sensitivity_depth, horizon, depth_cap, epsilon, occ_cap, max_words
    )
    complexity = entropy_complexity(x, entropy_lengths, entropy_limit)

    deepest = modulus.statistics[-1]  # None exactly when the deepest depth is short
    if deepest is None:
        mean_eq_verdict = INCONCLUSIVE
    else:
        mean_eq_verdict = HOLDS if deepest < epsilon else FAILS
    mean_eq = StabilityVerdict(
        "mean-equicontinuity",
        {
            "depth": modulus.depths[-1],
            "horizon": horizon,
            "depth_cap": depth_cap,
            "epsilon": epsilon,
            "pair_budget": pair_budget,
        },
        deepest,
        modulus.bias_bound,
        mean_eq_verdict,
        {"curve": modulus.as_json_dict()},
    )

    rung1 = replace(
        avg, test="ladder-diam-mean-equicontinuity", evidence={"from": ["diam-mean-avg"]}
    )
    rung2_verdict = _combine([mean_eq.verdict, freq.verdict])
    rung2 = StabilityVerdict(
        "ladder-mean-eq-and-frequent-stability",
        {"epsilon": epsilon, "gamma": gamma, "depth": modulus.depths[-1]},
        None,
        modulus.bias_bound,
        rung2_verdict,
        {"from": ["mean-equicontinuity", "frequent-stability"]},
    )
    rung3 = replace(
        mean_eq, test="ladder-mean-equicontinuity", evidence={"from": ["mean-equicontinuity"]}
    )
    notes = (
        _DIRECTION_NOTE,
        "all verdicts are statements at the stated horizon, not limits",
        "orbit closure of a transitive point; no minimality claim",
    )
    return HierarchyReport(
        system_id or x.generator_id,
        params,
        (rung1, rung2, rung3),
        (avg, dens, ban, stab, freq, mean_eq),
        sens,
        modulus,
        complexity,
        notes,
    )
