"""Deterministic builders for the study corpus.

Each builder, declared with `_generator(<id>)`, is that generator's
`GENERATORS` entry: its keyword signature declares the config params, and it
returns a `SymbolicSequence(buffer, k)`. The registrar runs it on the JSON of
the bound keywords, defaults filled in, and records these on the sequence as
`params`, with the id, so `build({"generator": x.generator_id, "params":
x.params})` rebuilds x bit for bit. Buffers above MAX_SYMBOLS symbols are
refused up front with BudgetError.
"""

from __future__ import annotations

import functools
import inspect
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .core import BudgetError, Count, FiniteWord, PrecisionError, SymbolicSequence, checked

__all__ = [
    "MAX_SYMBOLS",
    "NestedBlockMeta",
    "auto_zero_run",
    "nested_block_meta",
    "nested_block_sequence",
    "RotationParams",
    "sturmian",
    "recurrence_bound",
    "toeplitz_regular",
    "periodic",
    "full_shift_point",
    "GENERATORS",
    "build",
]

MAX_SYMBOLS = 2**31

# A builder's annotations name the kinds of its params that `shiftlab.cli` checks,
# and a direct call meets the same range rules (`checked`). Its defaults are the
# config defaults, and a param without a default is required. Builders take the
# JSON values `_generator` hands them (a list where a tuple is declared).
Angle = str | float | dict  # "golden", a number, or integers {"d", "add", "div"}
Driver = str | tuple[int, ...]  # "champernowne", "alternating" or the symbols
ZeroRuns = str | tuple[int, ...]  # "auto" or one run per level
Mode = str  # "champernowne" or "random"
Digits = str  # a word written in the digits 0-9


def _guard_length(n: int) -> int:
    if n > MAX_SYMBOLS:
        raise BudgetError(f"length {n} exceeds the {MAX_SYMBOLS} symbol budget")
    return int(n)


GENERATORS: dict = {}  # generator id -> builder, filled by `_generator`


def _generator(gid: str):
    """Register a builder as generator `gid`. A call is range-checked (`checked`),
    its keywords, defaults filled in, go through JSON (a numpy integer becomes an
    int, a tuple a list; a value JSON cannot hold is refused with TypeError), and
    the builder runs on exactly those params, which its sequence records."""

    def register(fn):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def record(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            params = json.loads(json.dumps(bound.arguments, default=operator.index))
            x = fn(**params)
            x.generator_id, x.params = gid, params
            return x

        GENERATORS[gid] = checked(record)
        return GENERATORS[gid]

    return register


# ---------------------------------------------------------------------------
# nested block construction


def auto_zero_run(p: int, i: int) -> int:
    """Default zero-run length at level i for current block length p.

    Chosen so that (2p + p_next - k) / (k - p) collapses to exactly 1/i,
    which certifies that the inserted blocks become negligible relative to
    the zero stretches.
    """
    return p + i * (4 * p + i)


@dataclass(frozen=True)
class NestedBlockMeta:
    """Derived level data: block lengths, zero runs, and activity ratios.

    lengths[n] is the block length after n levels (lengths[0] = 2 is the
    seed "11"); zero_runs[n-1] is the zero stretch inserted at level n;
    activity_ratios[n-1] bounds, per level, the worst-case share of non-zero
    activity against the guaranteed zero stretch. Under the "auto" rule the
    ratio at level n is exactly 1/n.
    """

    lengths: tuple[int, ...]
    zero_runs: tuple[int, ...]
    activity_ratios: tuple[Fraction, ...]
    driver_used: tuple[int, ...]

    @property
    def i_max(self) -> int:
        return len(self.zero_runs)

    @property
    def final_length(self) -> int:
        return self.lengths[-1]


@checked
def nested_block_meta(i_max: Count, driver: Driver, zero_runs: ZeroRuns) -> NestedBlockMeta:
    """Level arithmetic of `nested_block_sequence(i_max, driver, zero_runs)`; no buffer.

    The recursion is p_next = 2p + run + n at level n: zeros, the n driver
    symbols, then a fresh copy of the current block.
    """
    if driver == "champernowne":
        used = tuple(int(s) for s in _champernowne_symbols((2, 3), i_max))
    elif driver == "alternating":
        used = tuple(2 + (j % 2) for j in range(i_max))
    elif isinstance(driver, str):
        raise ValueError(f"unknown driver {driver!r}")
    else:
        used = tuple(int(s) for s in driver)
        if len(used) < i_max:
            raise ValueError("explicit driver shorter than i_max")
        if any(s not in (2, 3) for s in used):
            raise ValueError("driver symbols must be 2 or 3")
        used = used[:i_max]
    if isinstance(zero_runs, str):
        if zero_runs != "auto":
            raise ValueError(f"unknown zero_runs rule {zero_runs!r}")
    elif len(zero_runs) != i_max:
        raise ValueError("explicit zero_runs must list one run per level")
    lengths = [2]
    runs: list[int] = []
    ratios: list[Fraction] = []
    for n in range(1, i_max + 1):
        p = lengths[-1]
        run = auto_zero_run(p, n) if zero_runs == "auto" else int(zero_runs[n - 1])
        if run <= p:
            raise ValueError(
                f"zero run {run} at level {n} must exceed the block length {p}"
            )
        p_next = 2 * p + run + n
        if p_next > MAX_SYMBOLS:
            raise BudgetError(
                f"level {n} block length {p_next} exceeds the {MAX_SYMBOLS} symbol budget"
            )
        lengths.append(p_next)
        runs.append(run)
        ratios.append(Fraction(2 * p + p_next - run, run - p))
    return NestedBlockMeta(tuple(lengths), tuple(runs), tuple(ratios), used)


@_generator("nested-block")
def nested_block_sequence(
    i_max: Count = 6, driver: Driver = "champernowne", zero_runs: ZeroRuns = "auto"
) -> SymbolicSequence:
    """The nested block point over {0,1,2,3}, materialized up to level i_max.

    Level n extends the current block A by a run of zeros, an n-symbol
    prefix of the driver word over {2,3}, and a second copy of A. The driver
    selects which {2,3} insertions appear; "champernowne" walks every {2,3}
    word and is the positive-entropy regime, "alternating" is the smallest
    deterministic choice, and explicit symbols pin the insertions directly.
    Zero runs follow `auto_zero_run` or are listed one per level.

    Builds in place: the current block is always a prefix of the buffer, so
    each level writes only the driver insert and one block copy.
    """
    meta = nested_block_meta(i_max, driver, zero_runs)
    buf = np.zeros(meta.final_length, dtype=np.uint8)
    buf[0:2] = 1
    for n in range(1, meta.i_max + 1):
        p = meta.lengths[n - 1]
        run = meta.zero_runs[n - 1]
        insert_at = p + run
        buf[insert_at : insert_at + n] = meta.driver_used[:n]
        buf[insert_at + n : insert_at + n + p] = buf[0:p]
        if insert_at + n + p != meta.lengths[n]:
            raise RuntimeError("level arithmetic does not match the written layout")
    return SymbolicSequence(buf, 4)


# ---------------------------------------------------------------------------
# concatenation and rotation codings


def _champernowne_symbols(symbols: tuple[int, ...], length: int) -> np.ndarray:
    """Concatenate all words over `symbols` in length-lexicographic order.

    The n-words are a block of n columns, column c each symbol k^(n - 1 - c) times
    over, cyclically. The last word may overrun by under n <= length.bit_length().
    """
    k = len(symbols)
    lut = np.array(symbols, dtype=np.uint8)
    out = np.empty(length + length.bit_length(), dtype=np.uint8)
    pos, n = 0, 1
    while pos < length:
        rows = min(k**n, -(-(length - pos) // n))  # the n-words that reach into the buffer
        block = out[pos : pos + rows * n].reshape(rows, n)
        for c in range(n):
            run = k ** (n - 1 - c)
            runs = -(-rows // run)
            block[:, c] = np.repeat(np.tile(lut, -(-runs // k))[:runs], run)[:rows]
        pos += rows * n
        n += 1
    return out[:length]


SCALE_BITS = 96
_SCALE = 1 << SCALE_BITS
_ENDPOINT_EPS = _SCALE // 10**12
_RESEED_STEP = _SCALE // 10**6


@dataclass(frozen=True)
class RotationParams:
    """An irrational circle rotation held as integers scaled by 2**96.

    The angle is alpha_scaled / 2**96. Angles that agree with a rational of
    denominator at most 10**4 to within 10**-13 are refused: the coding of a
    rational rotation is eventually periodic and the statistics downstream
    assume otherwise.
    """

    alpha_scaled: int
    theta_scaled: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.alpha_scaled < _SCALE:
            raise ValueError("angle must lie strictly between 0 and 1")
        if not 0 <= self.theta_scaled < _SCALE:
            raise ValueError("base point must lie in [0, 1)")
        exact = Fraction(self.alpha_scaled, _SCALE)
        near = exact.limit_denominator(10**4)
        if abs(near - exact) < Fraction(1, 10**13):
            raise ValueError(
                f"angle is rational to working precision (about {near}); "
                "the coding would be periodic"
            )

    @classmethod
    def from_float(cls, alpha: float, theta: float = 0.0) -> "RotationParams":
        return cls(int(round(alpha * _SCALE)) % _SCALE, int(round(theta * _SCALE)) % _SCALE)

    @classmethod
    def quadratic(cls, d: int, add: int = 0, div: int = 1, theta: float = 0.0) -> "RotationParams":
        """(sqrt(d) + add) / div, computed with integer square roots."""
        if div == 0:
            raise ValueError("div must be nonzero")
        num = (isqrt(d << (2 * SCALE_BITS)) + (add << SCALE_BITS)) // div
        return cls(num % _SCALE, int(round(theta * _SCALE)) % _SCALE)

    @classmethod
    def golden(cls, theta: float = 0.0) -> "RotationParams":
        return cls.quadratic(5, -1, 2, theta)


_ROTATION_CHUNK = 1 << 14  # orbit points per vectorized step: 128 KiB per scratch word
_32 = np.uint64(32)


def _top(v: int) -> np.uint64:
    """The top 64 bits of a 96-bit integer, taken modulo 2**64."""
    return np.uint64(v >> 32 & 0xFFFFFFFFFFFFFFFF)


def _code_rotation(rot: RotationParams, length: int) -> tuple[np.ndarray, int]:
    """The coding of `rot`'s orbit and the number of reseeds it took.

    All arithmetic is exact integer work modulo 2**96, and the vectorized
    part keeps only the top 64 bits of each orbit point, in uint64: a chunk
    adds its first point's top word to the tabled top words of the offsets
    j*alpha, j < _ROTATION_CHUNK, wrapping modulo 2**64, and drops the carry
    out of the low 32 bits, so a point's top word is that sum or one more.
    If any orbit point falls within eps = 10**-12 of an arc endpoint the
    base point is nudged deterministically and the coding restarts, so
    near-boundary rounding can never flip a symbol silently. The rotation
    carries the cut onto 0, so a point within eps of 0 follows one within
    eps of the cut: past the first point, which is checked on its own, the
    cut finds every graze. Only points whose sum is within 2*(eps >> 32) + 3
    above one less than the top word of cut - eps can be near it, and those
    few are checked as integers; as eps > 2**33, one whose top word is within
    one of the cut's grazes, so in a clean chunk the sums decide each
    symbol. The chunks write into scratch arrays made once per call, and the
    symbols straight into the buffer: a fresh temporary per chunk is memory
    a cold process faults in again each time the allocator returns it to
    the system.
    """
    a = rot.alpha_scaled
    cut, eps = _SCALE - a, _ENDPOINT_EPS

    def grazes(t: int) -> bool:
        return t < eps or t > _SCALE - eps or cut - eps < t < cut + eps

    word_s = np.arange(min(length, _ROTATION_CHUNK), dtype=np.uint64)
    step_top = word_s * _top(a)
    word_s *= np.uint64(a & 0xFFFFFFFF)  # below 2**48
    word_s >>= _32
    step_top += word_s  # the top word of j*alpha
    top_s = np.empty_like(step_top)  # with word_s and near_s, the scratch made once per build
    near_s = np.empty(step_top.size, bool)
    span = np.uint64(2 * (eps >> 32) + 3)
    edge = _top(cut - eps - (1 << 32))  # the top word of cut - eps, minus one
    cut_top = _top(cut)
    for attempt in range(3):
        theta = (rot.theta_scaled + attempt * _RESEED_STEP) % _SCALE
        if grazes((theta + a) % _SCALE):
            continue
        buf = np.empty(length, dtype=np.uint8)
        for lo in range(0, length, _ROTATION_CHUNK):
            m = min(_ROTATION_CHUNK, length - lo)
            top, word, near = top_s[:m], word_s[:m], near_s[:m]
            first = theta + (lo + 1) * a
            np.add(step_top[:m], _top(first % _SCALE), out=top)
            np.subtract(top, edge, out=word)
            np.less_equal(word, span, out=near)
            if any(grazes((first + int(i) * a) % _SCALE) for i in np.flatnonzero(near)):
                break
            np.greater(top, cut_top, out=buf[lo : lo + m].view(bool))
        else:
            return buf, attempt
    raise PrecisionError(
        "orbit keeps grazing an arc endpoint at working precision; "
        "choose a different base point"
    )


def _rotation(angle: Angle, theta: float) -> RotationParams:
    """The rotation of a `sturmian` angle and base point: "golden", a float, or
    {"d", "add", "div"} for (sqrt(d) + add) / div."""
    if angle == "golden":
        return RotationParams.golden(theta)
    if isinstance(angle, dict):
        return RotationParams.quadratic(**angle, theta=theta)
    return RotationParams.from_float(angle, theta)


@_generator("sturmian")
def sturmian(length: Count, angle: Angle = "golden", theta: float = 0.0) -> SymbolicSequence:
    """Code the rotation by `angle` from `theta` against the arc [1 - angle, 1).

    x_n = 1 when theta + n*angle lands in the arc. The angle is "golden",
    a float, or {"d", "add", "div"} for (sqrt(d) + add) / div (see
    `RotationParams`).
    """
    length = _guard_length(length)
    buf, _ = _code_rotation(_rotation(angle, theta), length)
    return SymbolicSequence(buf, 2)


@checked
def recurrence_bound(x: SymbolicSequence, n: Count) -> int | None:
    """R(n), a proven recurrence bound of x's orbit closure X: every R(n) consecutive
    symbols of a point of X hold every n-word of X. None where no bound is proved, or
    where x holds fewer than R(n) symbols.

    Only Sturmian points have one: R(n) = n + q_k + q_(k-1) - 1 for
    q_(k-1) <= n < q_k, the q the continued-fraction denominators of the angle
    (Morse & Hedlund, "Symbolic dynamics II. Sturmian trajectories", 1940;
    Lothaire, "Algebraic Combinatorics on Words", ch. 2), read off the 96-bit
    angle alpha_scaled / 2**96 that the coding rotates by. Periodic points,
    where R(n) <= n + |w| - 1 holds too, are left out for now; no bound is
    proved here for Toeplitz points.
    """
    if x.generator_id != "sturmian":
        return None
    num, den = _rotation(x.params["angle"], x.params["theta"]).alpha_scaled, _SCALE
    prev, q = 0, 1  # q_(k-1), q_k from k = 0
    while q <= n:
        if num == 0:  # the expansion ends before q_k passes n: a short dyadic angle
            return None
        a, num, den = den // num, den % num, num
        prev, q = q, a * q + prev
    bound = n + q + prev - 1
    return bound if bound <= x.length else None


# ---------------------------------------------------------------------------
# almost periodic and periodic points


@_generator("toeplitz")
def toeplitz_regular(
    length: Count,
    periods: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
    fill_symbols: tuple[int, ...] = (0, 1),
    alphabet_size: int | None = None,
) -> SymbolicSequence:
    """Regular Toeplitz skeleton: level j fills an arithmetic progression.

    periods must be strictly increasing with each dividing the next; level j
    writes fill_symbols[(j-1) mod len] on every position congruent to the
    first still-unfilled index mod periods[j-1]. When the listed periods run
    out before the prefix is fully determined the schedule extends
    geometrically with the ratio of the last two periods.
    """
    periods = tuple(int(p) for p in periods)
    fills = tuple(int(s) for s in fill_symbols)
    if not periods:
        raise ValueError("need at least one period")
    if periods[0] < 2:
        raise ValueError("the first period must be >= 2")
    for a, b in zip(periods, periods[1:]):
        if b <= a or b % a != 0:
            raise ValueError("periods must be strictly increasing and nested")
    if not fills:
        raise ValueError("need at least one fill symbol")
    k = alphabet_size if alphabet_size is not None else max(fills) + 1
    if any(not 0 <= s < k for s in fills):
        raise ValueError("fill symbols outside the alphabet")
    length = _guard_length(length)
    ratio = periods[-1] // periods[-2] if len(periods) >= 2 else periods[0]
    buf = np.zeros(length, dtype=np.uint8)
    filled = np.zeros(length, dtype=bool)
    max_levels = len(periods) + 4 * max(8, length.bit_length()) + 8
    level = 0
    period = periods[0]
    while not filled.all():
        if level >= max_levels:
            raise BudgetError(
                "period schedule grows too fast to determine the prefix; "
                f"{int((~filled).sum())} positions undetermined after {level} levels"
            )
        if level < len(periods):
            period = periods[level]
        elif level > 0:
            period = period * ratio
        u = int(filled.argmin())  # the first hole, with no inverted copy of `filled`
        buf[u::period] = fills[level % len(fills)]
        filled[u::period] = True
        level += 1
    return SymbolicSequence(buf, k)


@_generator("periodic")
def periodic(word: Digits, length: Count, alphabet_size: int | None = None) -> SymbolicSequence:
    """The periodic point repeating `word`, a string of digits."""
    length = _guard_length(length)
    w = FiniteWord.from_digits(word, alphabet_size)
    if len(w) == 0:
        raise ValueError("repeating word must be nonempty")
    buf = np.tile(w.as_array(), -(-length // len(w)))[:length]
    return SymbolicSequence(buf, w.alphabet_size)


@_generator("full-shift")
def full_shift_point(
    length: Count, alphabet_size: int = 2, mode: Mode = "champernowne", seed: int = 0
) -> SymbolicSequence:
    """A point whose orbit closure is the whole k-shift at every tested depth.

    "champernowne" contains every word deterministically; "random" draws iid
    symbols from a seeded generator (every short word occurs with
    overwhelming probability but this is not certified).
    """
    length = _guard_length(length)
    if alphabet_size < 2:
        raise ValueError("the full shift needs at least two symbols")
    if mode == "champernowne":
        buf = _champernowne_symbols(tuple(range(alphabet_size)), length)
    elif mode == "random":
        rng = np.random.default_rng(seed)
        buf = rng.integers(0, alphabet_size, size=length, dtype=np.uint8)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SymbolicSequence(buf, alphabet_size)


# ---------------------------------------------------------------------------
# registry


def build(spec: dict) -> SymbolicSequence:
    """Build from a {"generator": id, "params": {...}} request; params are the builder's keywords."""
    gid = spec.get("generator")
    if gid not in GENERATORS:
        known = ", ".join(sorted(GENERATORS))
        raise ValueError(f"unknown generator {gid!r} (known: {known})")
    return GENERATORS[gid](**(spec.get("params") or {}))


def build_cached(spec: dict) -> SymbolicSequence:
    """`build(spec)`, as the one build call a run makes.

    bench/layers.py times the `generate.build` layer by wrapping this name.
    It wraps by function identity, so an alias of `build` would also time
    the rebuilds bench/checks.py makes after a run.
    """
    return build(spec)
