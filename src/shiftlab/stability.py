"""Finite-horizon stability and sensitivity statistics.

The orbit of a transitive point is the only computable handle on its orbit
closure, so every cylinder here is sampled by occurrence shifts: the points
sigma^q x for each scan hit q of the base word. That under-approximates the
true cylinder (limit points are missing), so diameter values are lower
bounds. Distances are truncated at a depth cap K; censored terms count 0
in averages and every statistic carries the additive bias bound 1/K. Both
effects push the statistics down, so on the equicontinuity side "fails" is
the sound verdict and "holds" is the optimistic one. The sensitivity sweep
thins its cylinders to max_words, so its minimum is taken over a subset of
all cylinders.

No verdict claims anything beyond the stated horizon.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    DEFAULT_DEPTH_CAP,
    BudgetError,
    FiniteWord,
    HorizonError,
    SymbolicSequence,
    occurrences,
    window_codes,
)
from .density import _validate_schedule, default_window_lengths, sliding_window_maxima
from .generate import NestedBlockMeta

__all__ = [
    "HOLDS",
    "FAILS",
    "INCONCLUSIVE",
    "DEFAULT_OCC_CAP",
    "DiamSeries",
    "diam_series",
    "diam_series_from_positions",
    "BesicovitchEstimate",
    "besicovitch",
    "SupportCounts",
    "nonzero_support_counts",
    "ModulusCurve",
    "mean_eq_modulus",
    "StabilityVerdict",
    "diam_mean_avg_test",
    "diam_mean_density_test",
    "banach_diam_mean_test",
    "stable_in_mean_test",
    "frequent_stability_test",
    "covering_words",
    "diam_mean_sensitivity_test",
    "ComplexityCurve",
    "entropy_complexity",
    "ClassifyParams",
    "HierarchyReport",
    "classify_hierarchy",
]

HOLDS = "holds-at-horizon"
FAILS = "fails-at-horizon"
INCONCLUSIVE = "inconclusive"

DEFAULT_OCC_CAP = 100_000
_WORK_BUDGET = 1 << 34  # probes per scan; beyond this the call refuses
_FIRST_BLOCK = 32  # samples the diam kernel compares first; later blocks double
_BLOCK_BYTES = 1 << 19  # bytes one gathered block of rows may hold
_COLUMN_BYTES = 1024  # about this many row bytes form one prunable column


def _thin_positions(positions: np.ndarray, cap: int) -> np.ndarray:
    """Deterministic uniform subsample, order preserved."""
    if cap < 1:
        raise ValueError(f"sample cap must be at least 1, got {cap}")
    if positions.size <= cap:
        return positions
    idx = np.unique(np.linspace(0, positions.size - 1, cap).astype(np.int64))
    return positions[idx]


def _gaps_to_next_true(flags: np.ndarray, horizon: int, cap: int) -> np.ndarray:
    """For i = 1..horizon: offset j <= cap to the first True strictly past i.

    flags[t-1] says whether something happens at position t; the result holds
    j = t - i for the smallest flagged t > i, or 0 when no flagged position
    lies within (i, i + cap].
    """
    span = flags.size
    big = span + cap + 2
    idx = np.where(flags, np.arange(1, span + 1, dtype=np.int64), big)
    nxt = np.minimum.accumulate(idx[::-1])[::-1]
    j = nxt[1 : horizon + 1] - np.arange(1, horizon + 1, dtype=np.int64)
    return np.where(j <= cap, j, 0).astype(np.int32)


def _values_from_gaps(gaps: np.ndarray) -> np.ndarray:
    vals = np.zeros(gaps.size, dtype=np.float64)
    nz = gaps > 0
    vals[nz] = 1.0 / gaps[nz]
    return vals


@dataclass(frozen=True, eq=False)
class DiamSeries:
    """Per-iterate diameter estimates of a cylinder sample.

    first_disagreement[i-1] is the offset j in [1, depth_cap] at which the
    sampled points of the cylinder first disagree after iterate i, or 0 when
    they agree through the cap (value censored at 1/depth_cap). A series
    built from fewer than two sample points is flagged insufficient and is
    all-censored by construction.
    """

    word: FiniteWord
    horizon: int
    depth_cap: int
    first_disagreement: np.ndarray
    sample_count: int
    insufficient: bool

    def __post_init__(self) -> None:
        arr = np.asarray(self.first_disagreement, dtype=np.int32)
        if arr.size != self.horizon:
            raise ValueError("series length must equal the horizon")
        arr.setflags(write=False)
        object.__setattr__(self, "first_disagreement", arr)

    def values(self) -> np.ndarray:
        """Diameter estimates with censored entries as 0."""
        return _values_from_gaps(self.first_disagreement)

    @property
    def censored_fraction(self) -> float:
        return float((self.first_disagreement == 0).sum()) / self.horizon

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


def _check_probe_span(horizon: int, depth_cap: int) -> None:
    if horizon < 1:
        raise ValueError("horizon must be positive")
    if depth_cap < 1:
        raise ValueError("depth_cap must be positive")


def diam_series_from_positions(
    x: SymbolicSequence,
    word: FiniteWord,
    positions: Sequence[int] | np.ndarray,
    horizon: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> DiamSeries:
    """Series from an explicit sample of occurrence shifts.

    Every position q must keep q + horizon + depth_cap within the buffer.
    """
    qs = np.asarray(positions, dtype=np.int64)
    _check_probe_span(horizon, depth_cap)
    span = horizon + depth_cap
    if qs.size:
        if int(qs.min()) < 0:
            raise ValueError("occurrence positions must be nonnegative")
        if int(qs.max()) + span > x.length:
            raise HorizonError(
                f"occurrence at {int(qs.max())} needs {span} probe symbols past it;"
                f" buffer exposes {x.length}"
            )
    if qs.size * span > _WORK_BUDGET:
        raise BudgetError(
            f"diam scan would touch {qs.size * span} probes (budget {_WORK_BUDGET})"
        )
    if qs.size < 2:
        return DiamSeries(
            word, horizon, depth_cap, np.zeros(horizon, np.int32), int(qs.size), True
        )
    gaps = _gaps_to_next_true(_disagreement(x, qs, span), horizon, depth_cap)
    return DiamSeries(word, horizon, depth_cap, gaps, int(qs.size), False)


def _plane_count(alphabet_size: int) -> int:
    return max(1, (alphabet_size - 1).bit_length())


def _packed_planes(x: SymbolicSequence) -> np.ndarray:
    """Bit planes of x's whole buffer, packed at each of the 8 bit offsets.

    planes[p, r] is bit p of symbols r, r + 1, ... packed eight to a byte
    (first symbol in the high bit) and zero-padded, so the symbols from
    buffer position a on are planes[p, a % 8, a // 8 :]. Built on first use
    and kept in `x._derived`, which x's shift views share.
    """
    planes = x._derived.get("packed_planes")
    if planes is None:
        buf = x._buf
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


def _disagreement(x: SymbolicSequence, qs: np.ndarray, span: int) -> np.ndarray:
    """mask[j] says whether x.data[q + j] != x.data[qs[0] + j] for some q in qs.

    Rows of span symbols are compared as bytes: raw symbols, one per byte, or,
    when the samples cover at least as many symbols as the packed planes
    hold, the offset copies of `_packed_planes`, eight symbols per byte (a
    symbol differs when any of its planes does). A row splits into columns
    of about _COLUMN_BYTES bytes, taken a group at a time. Within a group,
    samples are taken in blocks that double from _FIRST_BLOCK, each gathered
    only on the columns still live and holding at most _BLOCK_BYTES bytes; a
    column drops out once every symbol in it has disagreed. The mask only
    grows, so the result is exact for any positions, in any order. Besides
    `seen`, only the result and its bytes span a whole row: more row-sized
    temporaries fragment the malloc heap (18 MiB more peak RSS on the
    benchmark's battery workload).
    """
    starts = qs + x._offset
    packed = (qs.size - 1) * span >= _plane_count(x.alphabet_size) * x._buf.size
    if packed:
        planes = _packed_planes(x)
        src = planes.reshape(planes.shape[0], -1)
        rows = starts % 8 * planes.shape[2] + starts // 8
        width = -(-span // 8)
    else:
        src = x._buf[None, :]
        rows = starts
        width = span
    chunk = -(-width // -(-width // _COLUMN_BYTES))
    cols = np.minimum(np.arange(0, width, chunk), width - chunk)  # the last may overlap
    windows = sliding_window_view(src, chunk, axis=1)
    seen = np.zeros((cols.size, chunk), np.uint8)
    if packed and span % 8:
        seen[-1, -1] = 0xFF >> (span % 8)  # pad bits past the row count as settled
    group = max(1, _BLOCK_BYTES // (_FIRST_BLOCK * chunk))
    for lo in range(0, cols.size, group):
        live = np.arange(lo, min(lo + group, cols.size))
        base = windows[:, rows[0] + cols[live]]
        i, block = 1, _FIRST_BLOCK
        while i < qs.size and live.size:
            b = min(block, qs.size - i, max(1, _BLOCK_BYTES // (live.size * chunk)))
            at = rows[i : i + b, None] + cols[live]
            acc = seen[live]
            for p in range(src.shape[0]):
                got = windows[p][at]
                got ^= base[p, live - lo]
                acc |= np.bitwise_or.reduce(got, axis=0)
            seen[live] = acc
            i += b
            block *= 2
            settled = acc == 0xFF if packed else acc != 0
            live = live[~settled.all(axis=1)]
    flat = np.empty(width, np.uint8)
    flat[: chunk * (cols.size - 1)] = seen[:-1].ravel()
    flat[width - chunk :] = seen[-1]  # every column ends exact, so overlaps agree
    if packed:
        return np.unpackbits(flat, count=span).view(bool)
    return flat != 0


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


def diam_series(
    x: SymbolicSequence,
    word: FiniteWord,
    horizon: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    occ_cap: int = DEFAULT_OCC_CAP,
) -> DiamSeries:
    """Scan for the word, sample its occurrence shifts, build the series.

    The scan limit is clamped so every sample can be probed through
    horizon + depth_cap symbols. Above occ_cap occurrences the sample is
    thinned uniformly; a subsample only lowers diameter values, so the
    under-approximation direction is preserved.
    """
    occ = occurrences(x, word, _scan_clamp(x, len(word), horizon, depth_cap))
    qs = _thin_positions(occ.positions, occ_cap)
    return diam_series_from_positions(x, word, qs, horizon, depth_cap)


@dataclass(frozen=True)
class BesicovitchEstimate:
    """Truncated time-averaged distance between two orbits."""

    value: float
    horizon: int
    depth_cap: int
    censored_fraction: float

    @property
    def bias_bound(self) -> float:
        return 1.0 / self.depth_cap

    def as_json_dict(self) -> dict:
        return {
            "value": self.value,
            "horizon": self.horizon,
            "depth_cap": self.depth_cap,
            "censored_fraction": self.censored_fraction,
            "bias_bound": self.bias_bound,
        }


def _besicovitch_arrays(
    a: np.ndarray, b: np.ndarray, horizon: int, depth_cap: int
) -> tuple[float, float]:
    mismatch = a != b
    gaps = _gaps_to_next_true(mismatch, horizon, depth_cap)
    vals = _values_from_gaps(gaps)
    return float(vals.sum() / horizon), float((gaps == 0).sum() / horizon)


def besicovitch(
    x: SymbolicSequence,
    y: SymbolicSequence,
    horizon: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
) -> BesicovitchEstimate:
    """(1/N) sum over i <= N of the truncated distance between the shifted orbits.

    Censored terms (agreement through the cap) count 0, so the true
    time-average at this horizon exceeds the value by at most 1/depth_cap.
    Symmetric in x and y; exactly 0 when the exposed prefixes coincide.
    """
    _check_probe_span(horizon, depth_cap)
    span = horizon + depth_cap
    for name, s in (("x", x), ("y", y)):
        if s.length < span:
            raise HorizonError(
                f"{name} exposes {s.length} symbols; need horizon + depth_cap = {span}"
            )
    value, censored = _besicovitch_arrays(x.data[:span], y.data[:span], horizon, depth_cap)
    return BesicovitchEstimate(value, horizon, depth_cap, censored)


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
        return {
            "word": str(self.word),
            "levels": list(self.levels),
            "horizons": list(self.horizons),
            "counts": list(self.counts),
            "ratios": [[r.numerator, r.denominator] for r in self.ratios],
            "sample_count": self.sample_count,
        }


def nonzero_support_counts(
    x: SymbolicSequence,
    meta: NestedBlockMeta,
    levels: Sequence[int] | None = None,
    word: FiniteWord | None = None,
    occ_cap: int = DEFAULT_OCC_CAP,
) -> SupportCounts:
    """Envelope statistic of the nested block point at its level horizons.

    For level i the horizon is the next block length, meta.lengths[i]. The
    base cylinder defaults to the seed word "11". A position is touched when
    some sampled shift has a nonzero symbol there: where the first sample has
    a 0, that is where some sample differs from it (the diam kernel's OR over
    the samples); elsewhere the first sample touches it. Cumulative counts
    are then read off at each horizon.
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
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    horizons = tuple(meta.lengths[i] for i in levels)
    top = horizons[-1]
    if top > x.length:
        raise HorizonError(
            f"level {levels[-1]} horizon {top} exceeds the built length {x.length};"
            " build one level deeper"
        )
    occ = occurrences(x, word, _scan_clamp(x, len(word), top, 0))
    qs = _thin_positions(occ.positions, occ_cap)
    if qs.size * top > _WORK_BUDGET:
        raise BudgetError(
            f"envelope scan would touch {int(qs.size) * top} probes (budget {_WORK_BUDGET})"
        )
    if qs.size:
        touched = _disagreement(x, qs, top) | (x.data[qs[0] : qs[0] + top] != 0)
    else:
        touched = np.zeros(top, dtype=bool)
    csum = np.cumsum(touched, dtype=np.int64)
    counts = tuple(int(csum[n - 1]) for n in horizons)
    return SupportCounts(word, levels, horizons, counts, int(qs.size))


@dataclass(frozen=True)
class ModulusCurve:
    """depth m -> worst sampled Besicovitch value among pairs sharing m symbols."""

    depths: tuple[int, ...]
    statistics: tuple[float | None, ...]
    pair_counts: tuple[int, ...]
    shortfall: tuple[bool, ...]
    horizon: int
    depth_cap: int

    @property
    def bias_bound(self) -> float:
        return 1.0 / self.depth_cap

    def as_json_dict(self) -> dict:
        return {
            "depths": list(self.depths),
            "statistics": list(self.statistics),
            "pair_counts": list(self.pair_counts),
            "shortfall": list(self.shortfall),
            "horizon": self.horizon,
            "depth_cap": self.depth_cap,
            "bias_bound": self.bias_bound,
        }


def mean_eq_modulus(
    x: SymbolicSequence,
    depths: Sequence[int],
    horizon: int,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    pair_budget: int = 16,
    occ_cap: int = DEFAULT_OCC_CAP,
) -> ModulusCurve:
    """Finite modulus of mean equicontinuity along prefix cylinders.

    For each depth m, pairs are occurrence shifts of the m-prefix of x
    (thinned to pair_budget + 1 representatives, compared against the
    first); the statistic is the maximum Besicovitch value over the pairs.
    Depths with fewer than two occurrences are flagged as shortfall.
    """
    depths = tuple(int(m) for m in depths)
    if not depths or any(m < 1 for m in depths):
        raise ValueError("depths must be positive")
    _check_probe_span(horizon, depth_cap)
    span = horizon + depth_cap
    stats: list[float | None] = []
    pairs: list[int] = []
    short: list[bool] = []
    buf = x.data
    for m in depths:
        w = x.prefix(m)
        occ = occurrences(x, w, _scan_clamp(x, m, horizon, depth_cap))
        qs = _thin_positions(occ.positions, min(occ_cap, pair_budget + 1))
        if qs.size < 2:
            stats.append(None)
            pairs.append(0)
            short.append(True)
            continue
        base = buf[qs[0] : qs[0] + span]
        worst = 0.0
        for q in qs[1:]:
            val, _ = _besicovitch_arrays(base, buf[q : q + span], horizon, depth_cap)
            worst = max(worst, val)
        stats.append(worst)
        pairs.append(int(qs.size) - 1)
        short.append(False)
    return ModulusCurve(
        depths, tuple(stats), tuple(pairs), tuple(short), horizon, depth_cap
    )


@dataclass(frozen=True)
class StabilityVerdict:
    """One test outcome: statistic, thresholds, and a horizon-stamped verdict."""

    test: str
    params: dict
    statistic: float | None
    bias_bound: float
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


def diam_mean_avg_test(series: DiamSeries, epsilon: float) -> StabilityVerdict:
    """Cesaro average of the diam series; holds iff the average < epsilon."""
    stat = float(series.values().mean())
    return _series_verdict("diam-mean-avg", series, {"epsilon": epsilon}, stat, stat < epsilon)


def diam_mean_density_test(series: DiamSeries, eta: float) -> StabilityVerdict:
    """Density of iterates with diam value above eta; holds iff < eta.

    The density is taken on the full matched window (count / horizon), which
    makes the coupling inequality average >= eta * density exact against the
    shared series.
    """
    exceed = int((series.values() > eta).sum())
    stat = exceed / series.horizon
    evidence = {"exceed_count": exceed, "matched_window": series.horizon}
    return _series_verdict("diam-mean-density", series, {"eta": eta}, stat, stat < eta, evidence)


def banach_diam_mean_test(
    series: DiamSeries, epsilon: float, window_lengths: Sequence[int] | None = None
) -> StabilityVerdict:
    """Worst sliding-window average of the diam series; holds iff < epsilon.

    The default window schedule is dyadic and includes the full horizon, so
    the statistic dominates the plain Cesaro average by construction.
    """
    if window_lengths is None:
        lengths = tuple(sorted(set(default_window_lengths(series.horizon)) | {series.horizon}))
    else:
        lengths = _validate_schedule(window_lengths, series.horizon)
    per_window = sliding_window_maxima(series.values(), lengths)
    stat = max(per_window)
    return _series_verdict(
        "banach-diam-mean", series, {"epsilon": epsilon, "window_lengths": list(lengths)},
        stat, stat < epsilon, {"per_window": {str(n): v for n, v in zip(lengths, per_window)}},
    )


def stable_in_mean_test(series: DiamSeries, epsilon: float) -> StabilityVerdict:
    """Worst prefix average of the diam series; holds iff < epsilon.

    Dominates the final Cesaro average, so this is the strictest of the
    averaged statistics at a fixed base depth.
    """
    means = np.cumsum(series.values()) / np.arange(1, series.horizon + 1)
    stat = float(means.max())
    return _series_verdict(
        "stable-in-mean", series, {"epsilon": epsilon}, stat, stat < epsilon,
        {"worst_prefix": int(means.argmax()) + 1},
    )


def frequent_stability_test(
    series: DiamSeries, epsilon: float, gamma: float
) -> StabilityVerdict:
    """Density of iterates with diam value above epsilon; holds iff <= 1 - gamma.

    The margin gamma quantifies "density strictly below one" at a finite
    horizon; the comparison is non-strict by definition of the margin.
    """
    if not 0 < gamma <= 1:
        raise ValueError("gamma must lie in (0, 1]")
    stat = float((series.values() > epsilon).sum()) / series.horizon
    return _series_verdict(
        "frequent-stability", series, {"epsilon": epsilon, "gamma": gamma}, stat,
        stat <= 1.0 - gamma,
    )


def _word_family(codes: np.ndarray, max_words: int | None) -> tuple[np.ndarray, np.ndarray]:
    """The distinct codes in word order, thinned evenly to max_words, and a start of each."""
    family, starts = np.unique(codes, return_index=True)
    if max_words is not None:
        keep = _thin_positions(np.arange(family.size), max_words)
        family, starts = family[keep], starts[keep]
    return family, starts


def covering_words(
    x: SymbolicSequence,
    depth: int,
    limit: int | None = None,
    max_words: int | None = None,
) -> tuple[FiniteWord, ...]:
    """All depth-m words occurring in x (sorted), optionally thinned evenly."""
    _, starts = _word_family(window_codes(x, depth, limit), max_words)
    return tuple(x.word(q + 1, q + depth) for q in starts.tolist())


def diam_mean_sensitivity_test(
    x: SymbolicSequence,
    depth: int,
    horizon: int = 32768,
    depth_cap: int = DEFAULT_DEPTH_CAP,
    epsilon: float = 0.1,
    occ_cap: int = DEFAULT_OCC_CAP,
    max_words: int | None = None,
) -> StabilityVerdict:
    """Sensitivity sweep over the depth-m cylinders, thinned evenly to max_words.

    The words come from the part of the buffer that leaves room for
    horizon + depth_cap probe symbols, capped at 2^20 symbols; one
    `window_codes` scan finds their occurrences in `diam_series`'s window.

    Holds iff every evaluated cylinder has density of large-diam iterates
    strictly above epsilon; a single small-density cylinder is a witness
    against sensitivity and is reported as the minimizer. Words with fewer
    than two occurrences in the scan window are skipped with notice.
    """
    codes = window_codes(x, depth, _scan_clamp(x, depth, horizon, depth_cap))
    word_scan = max(depth, min(x.length - horizon - depth_cap, 1 << 20))
    family, starts = _word_family(codes[: word_scan - depth + 1], max_words)
    evaluated: list[tuple[str, float]] = []
    skipped: list[str] = []
    for c, q in zip(family.tolist(), starts.tolist()):
        w = x.word(q + 1, q + depth)
        qs = _thin_positions(np.flatnonzero(codes == c), occ_cap)
        s = diam_series_from_positions(x, w, qs, horizon, depth_cap)
        if s.insufficient:
            skipped.append(str(w))
            continue
        vals = s.values()
        density = float((vals > epsilon).sum()) / s.horizon
        evaluated.append((str(w), density))
    params = {
        "depth": depth,
        "word_count": int(family.size),
        "horizon": horizon,
        "depth_cap": depth_cap,
        "epsilon": epsilon,
    }
    bias = 1.0 / depth_cap
    if not evaluated:
        return StabilityVerdict(
            "diam-mean-sensitivity",
            params,
            None,
            bias,
            INCONCLUSIVE,
            {"skipped": skipped, "note": "no cylinder had two occurrences"},
        )
    min_word, min_density = min(evaluated, key=lambda t: (t[1], t[0]))
    verdict = HOLDS if min_density > epsilon else FAILS
    evidence = {
        "minimizing_word": min_word,
        "evaluated": len(evaluated),
        "skipped": skipped,
        "direction": _DIRECTION_NOTE,
    }
    return StabilityVerdict(
        "diam-mean-sensitivity", params, min_density, bias, verdict, evidence
    )


@dataclass(frozen=True)
class ComplexityCurve:
    """Word-complexity entropy surrogate: n -> ln(#factors)/n."""

    lengths: tuple[int, ...]
    counts: tuple[int, ...]
    values: tuple[float, ...]
    limit: int
    trend: str

    def as_json_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "counts": list(self.counts),
            "values": list(self.values),
            "limit": self.limit,
            "trend": self.trend,
        }


def entropy_complexity(
    x: SymbolicSequence, lengths: Sequence[int], limit: int | None = None
) -> ComplexityCurve:
    """ln(#distinct n-words)/n over a range of n, within a scan limit."""
    lengths = tuple(int(n) for n in lengths)
    if not lengths or any(n < 1 for n in lengths):
        raise ValueError("word lengths must be positive")
    if any(b <= a for a, b in zip(lengths, lengths[1:])):
        raise ValueError("word lengths must be strictly increasing")
    if limit is None:
        limit = min(x.length, 1 << 20)
    counts = tuple(np.unique(window_codes(x, n, limit)).size for n in lengths)
    values = tuple(math.log(c) / n for c, n in zip(counts, lengths))
    if len(values) < 2 or abs(values[-1] - values[0]) < 1e-12:
        trend = "flat"
    elif values[-1] < values[0]:
        trend = "decreasing"
    else:
        trend = "increasing"
    return ComplexityCurve(lengths, counts, values, limit, trend)


@dataclass(frozen=True)
class ClassifyParams:
    """Knobs for the full classification battery of one system.

    This is also the schema of the `classify` test in a run config.
    modulus_depths None (or empty) means (base_depth, 2 * base_depth).
    """

    base_depth: int = 2
    sensitivity_depth: int = 3
    horizon: int = 32768
    depth_cap: int = DEFAULT_DEPTH_CAP
    epsilon: float = 0.1
    eta: float = 0.1
    gamma: float = 0.25
    modulus_depths: tuple[int, ...] | None = None
    pair_budget: int = 8
    occ_cap: int = 4096
    entropy_lengths: tuple[int, ...] = (4, 8, 12)
    entropy_limit: int = 1 << 20
    max_words: int | None = 64

    def resolved_modulus_depths(self) -> tuple[int, ...]:
        if self.modulus_depths:
            return tuple(self.modulus_depths)
        return (self.base_depth, 2 * self.base_depth)

    def as_json_dict(self) -> dict:
        return {
            **asdict(self),
            "modulus_depths": list(self.resolved_modulus_depths()),
            "entropy_lengths": list(self.entropy_lengths),
        }


@dataclass(frozen=True)
class HierarchyReport:
    """Ordered ladder verdicts plus the component battery for one system."""

    system_id: str
    params: ClassifyParams
    rungs: tuple[StabilityVerdict, ...]
    battery: tuple[StabilityVerdict, ...]
    sensitivity: StabilityVerdict
    modulus: ModulusCurve
    complexity: ComplexityCurve
    notes: tuple[str, ...]

    def rung(self, name: str) -> StabilityVerdict:
        for v in self.rungs:
            if v.test == name:
                return v
        raise KeyError(name)

    def battery_verdict(self, name: str) -> StabilityVerdict:
        for v in self.battery:
            if v.test == name:
                return v
        raise KeyError(name)

    def as_json_dict(self) -> dict:
        return {
            "system_id": self.system_id,
            "params": self.params.as_json_dict(),
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


def classify_hierarchy(
    x: SymbolicSequence, params: ClassifyParams | None = None, system_id: str | None = None
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
    """
    p = params or ClassifyParams()
    sid = system_id or x.generator_id
    w = x.prefix(p.base_depth)
    series = diam_series(x, w, p.horizon, p.depth_cap, occ_cap=p.occ_cap)
    avg = diam_mean_avg_test(series, p.epsilon)
    dens = diam_mean_density_test(series, p.eta)
    ban = banach_diam_mean_test(series, p.epsilon)
    stab = stable_in_mean_test(series, p.epsilon)
    freq = frequent_stability_test(series, p.epsilon, p.gamma)
    modulus = mean_eq_modulus(
        x, p.resolved_modulus_depths(), p.horizon, p.depth_cap, p.pair_budget, p.occ_cap
    )
    sens = diam_mean_sensitivity_test(
        x, p.sensitivity_depth, p.horizon, p.depth_cap, p.epsilon, p.occ_cap, p.max_words
    )
    complexity = entropy_complexity(x, p.entropy_lengths, min(p.entropy_limit, x.length))

    deepest = modulus.statistics[-1]  # None exactly when the deepest depth is short
    if deepest is None:
        mean_eq_verdict = INCONCLUSIVE
    else:
        mean_eq_verdict = HOLDS if deepest < p.epsilon else FAILS
    mean_eq = StabilityVerdict(
        "mean-equicontinuity",
        {
            "depth": modulus.depths[-1],
            "horizon": p.horizon,
            "depth_cap": p.depth_cap,
            "epsilon": p.epsilon,
            "pair_budget": p.pair_budget,
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
        {"epsilon": p.epsilon, "gamma": p.gamma, "depth": modulus.depths[-1]},
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
        sid,
        p,
        (rung1, rung2, rung3),
        (avg, dens, ban, stab, freq, mean_eq),
        sens,
        modulus,
        complexity,
        notes,
    )
