"""Deterministic builders for the study corpus.

Each builder returns a SymbolicSequence whose generator_id/params record the
construction, so any sequence can be rebuilt from its JSON sidecar. Buffers
above MAX_SYMBOLS symbols are refused up front with SizingError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .core import FiniteWord, PrecisionError, SizingError, SymbolicSequence

__all__ = [
    "MAX_SYMBOLS",
    "NestedBlockParams",
    "NestedBlockMeta",
    "auto_zero_run",
    "nested_block_meta",
    "nested_block_sequence",
    "champernowne",
    "RotationParams",
    "sturmian",
    "ToeplitzParams",
    "toeplitz_regular",
    "periodic",
    "full_shift_point",
    "GENERATORS",
    "build",
]

MAX_SYMBOLS = 2**31


def _guard_length(n: int, what: str) -> int:
    if n < 1:
        raise ValueError(f"{what} must be positive")
    if n > MAX_SYMBOLS:
        raise SizingError(f"{what} {n} exceeds the {MAX_SYMBOLS} symbol budget")
    return int(n)


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
class NestedBlockParams:
    """Parameters for the nested block point over the alphabet {0,1,2,3}.

    Level n extends the current block A by a run of zeros, an n-symbol
    prefix of the driver word over {2,3}, and a second copy of A. The driver
    selects which {2,3} insertions appear; "champernowne" walks every {2,3}
    word and is the positive-entropy regime, "alternating" is the smallest
    deterministic choice, and an explicit tuple pins the insertions directly.
    """

    i_max: int = 6
    driver: str | tuple[int, ...] = "champernowne"
    zero_runs: str | tuple[int, ...] = "auto"

    def __post_init__(self) -> None:
        if self.i_max < 1:
            raise ValueError("i_max must be >= 1")
        if isinstance(self.driver, str):
            if self.driver not in ("champernowne", "alternating"):
                raise ValueError(f"unknown driver {self.driver!r}")
        else:
            driver = tuple(int(s) for s in self.driver)
            if len(driver) < self.i_max:
                raise ValueError("explicit driver shorter than i_max")
            if any(s not in (2, 3) for s in driver):
                raise ValueError("driver symbols must be 2 or 3")
            object.__setattr__(self, "driver", driver)
        if not isinstance(self.zero_runs, str):
            runs = tuple(int(v) for v in self.zero_runs)
            if len(runs) != self.i_max:
                raise ValueError("explicit zero_runs must list one run per level")
            object.__setattr__(self, "zero_runs", runs)
        elif self.zero_runs != "auto":
            raise ValueError(f"unknown zero_runs rule {self.zero_runs!r}")

    def as_json_dict(self) -> dict:
        return {
            "i_max": self.i_max,
            "driver": self.driver if isinstance(self.driver, str) else list(self.driver),
            "zero_runs": self.zero_runs
            if isinstance(self.zero_runs, str)
            else list(self.zero_runs),
        }


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

    def zero_window(self, level: int) -> tuple[int, int]:
        """1-based inclusive span [p+1, p+run] that is all zeros at `level`."""
        if not 1 <= level <= self.i_max:
            raise ValueError("level out of range")
        p = self.lengths[level - 1]
        return (p + 1, p + self.zero_runs[level - 1])

    def as_json_dict(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "zero_runs": list(self.zero_runs),
            "activity_ratios": [[r.numerator, r.denominator] for r in self.activity_ratios],
            "driver_used": list(self.driver_used),
        }


def _driver_symbols(params: NestedBlockParams) -> tuple[int, ...]:
    if isinstance(params.driver, tuple):
        return params.driver[: params.i_max]
    if params.driver == "alternating":
        return tuple(2 + (j % 2) for j in range(params.i_max))
    word = _champernowne_symbols((2, 3), params.i_max)
    return tuple(int(s) for s in word)


def nested_block_meta(params: NestedBlockParams) -> NestedBlockMeta:
    """Level arithmetic only; no buffer is allocated.

    The recursion is p_next = 2p + run + n at level n: zeros, the n driver
    symbols, then a fresh copy of the current block.
    """
    lengths = [2]
    runs: list[int] = []
    ratios: list[Fraction] = []
    for n in range(1, params.i_max + 1):
        p = lengths[-1]
        run = auto_zero_run(p, n) if params.zero_runs == "auto" else params.zero_runs[n - 1]
        if run <= p:
            raise ValueError(
                f"zero run {run} at level {n} must exceed the block length {p}"
            )
        p_next = 2 * p + run + n
        if p_next > MAX_SYMBOLS:
            raise SizingError(
                f"level {n} block length {p_next} exceeds the {MAX_SYMBOLS} symbol budget"
            )
        lengths.append(p_next)
        runs.append(run)
        ratios.append(Fraction(2 * p + p_next - run, run - p))
    return NestedBlockMeta(
        tuple(lengths), tuple(runs), tuple(ratios), _driver_symbols(params)
    )


def nested_block_sequence(
    params: NestedBlockParams | None = None,
) -> tuple[SymbolicSequence, NestedBlockMeta]:
    """Materialize the nested block point up to level i_max.

    Builds in place: the current block is always a prefix of the buffer, so
    each level writes only the driver insert and one block copy.
    """
    params = params or NestedBlockParams()
    meta = nested_block_meta(params)
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
    seq = SymbolicSequence(
        buf,
        alphabet_size=4,
        generator_id="nested-block",
        params=params.as_json_dict(),
    )
    return seq, meta


# ---------------------------------------------------------------------------
# concatenation and rotation codings

_CHUNK = 1 << 16


def _champernowne_symbols(symbols: tuple[int, ...], length: int) -> np.ndarray:
    """Concatenate all words over `symbols` in length-lexicographic order."""
    k = len(symbols)
    lut = np.array(symbols, dtype=np.uint8)
    out = np.empty(length, dtype=np.uint8)
    pos = 0
    n = 1
    while pos < length:
        total = k**n
        start = 0
        while start < total and pos < length:
            stop = min(start + _CHUNK, total)
            codes = np.arange(start, stop, dtype=np.int64)
            digits = np.empty((stop - start, n), dtype=np.int64)
            rem = codes
            for j in range(n - 1, -1, -1):
                digits[:, j] = rem % k
                rem = rem // k
            block = lut[digits.reshape(-1)]
            take = min(block.size, length - pos)
            out[pos : pos + take] = block[:take]
            pos += take
            start = stop
        n += 1
    return out


def champernowne(
    length: int,
    symbols: tuple[int, ...] = (0, 1),
    alphabet_size: int | None = None,
) -> SymbolicSequence:
    """Every word over `symbols` occurs: the length-lex concatenation point."""
    length = _guard_length(length, "length")
    symbols = tuple(int(s) for s in symbols)
    if len(symbols) < 2:
        raise ValueError("need at least two symbols")
    if len(set(symbols)) != len(symbols):
        raise ValueError("symbols must be distinct")
    if alphabet_size is None:
        alphabet_size = max(symbols) + 1
    buf = _champernowne_symbols(symbols, length)
    return SymbolicSequence(
        buf,
        alphabet_size,
        generator_id="champernowne",
        params={"length": length, "symbols": list(symbols), "alphabet_size": alphabet_size},
    )


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
    label: str = "custom"

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
        return cls(
            int(round(alpha * _SCALE)) % _SCALE,
            int(round(theta * _SCALE)) % _SCALE,
            label=f"float:{alpha!r}",
        )

    @classmethod
    def quadratic(cls, d: int, add: int = 0, div: int = 1, theta: float = 0.0) -> "RotationParams":
        """(sqrt(d) + add) / div, computed with integer square roots."""
        if div == 0:
            raise ValueError("div must be nonzero")
        num = (isqrt(d << (2 * SCALE_BITS)) + (add << SCALE_BITS)) // div
        return cls(
            num % _SCALE,
            int(round(theta * _SCALE)) % _SCALE,
            label=f"quadratic:(sqrt({d})+{add})/{div}",
        )

    @classmethod
    def golden(cls, theta: float = 0.0) -> "RotationParams":
        p = cls.quadratic(5, -1, 2, theta)
        return cls(p.alpha_scaled, p.theta_scaled, label="golden")

    def as_json_dict(self) -> dict:
        return {
            "alpha_scaled": self.alpha_scaled,
            "theta_scaled": self.theta_scaled,
            "scale_bits": SCALE_BITS,
            "label": self.label,
        }


_LIMB = 32
_LIMB_MASK = (1 << _LIMB) - 1
_ROTATION_CHUNK = 1 << 16  # orbit points per vectorized step; bounds the limb temporaries


def _limbs(v: int) -> tuple[int, int, int]:
    """A 96-bit integer as three 32-bit limbs, most significant first."""
    return (v >> 2 * _LIMB) & _LIMB_MASK, (v >> _LIMB) & _LIMB_MASK, v & _LIMB_MASK


def _below(t: tuple[np.ndarray, ...], c: int) -> np.ndarray:
    """t < c elementwise, for t held as limbs and any integer c."""
    if c <= 0 or c >= _SCALE:
        return np.full(t[0].shape, c > 0)
    c2, c1, c0 = _limbs(c)
    return (t[0] < c2) | ((t[0] == c2) & ((t[1] < c1) | ((t[1] == c1) & (t[2] < c0))))


def _rotation_orbit(theta: int, alpha: int, first: int, stop: int) -> tuple[np.ndarray, ...]:
    """theta + n*alpha mod 2**96 for n in [first, stop), as three uint64 limb arrays.

    Each limb product n * alpha_j stays below 2**63 for n <= 2**31, so the
    sums and carries are exact in uint64.
    """
    n = np.arange(first, stop, dtype=np.uint64)
    out = []
    carry = 0
    for t_j, a_j in zip(reversed(_limbs(theta)), reversed(_limbs(alpha))):
        s = n * np.uint64(a_j) + np.uint64(t_j) + carry
        out.append(s & np.uint64(_LIMB_MASK))
        carry = s >> np.uint64(_LIMB)
    return tuple(reversed(out))


def sturmian(params: RotationParams, length: int) -> SymbolicSequence:
    """Code the rotation orbit against the arc [1 - alpha, 1).

    x_n = 1 when theta + n*alpha lands in the arc. All arithmetic is exact
    integer work modulo 2**96, vectorized over 32-bit limbs; if any orbit
    point falls within 10**-12 of an arc endpoint the base point is nudged
    deterministically and the coding restarts, so near-boundary rounding can
    never flip a symbol silently.
    """
    length = _guard_length(length, "length")
    a = params.alpha_scaled
    cut = _SCALE - a
    eps = _ENDPOINT_EPS
    for attempt in range(3):
        theta = (params.theta_scaled + attempt * _RESEED_STEP) % _SCALE
        buf = np.empty(length, dtype=np.uint8)
        clean = True
        for lo in range(0, length, _ROTATION_CHUNK):
            hi = min(lo + _ROTATION_CHUNK, length)
            t = _rotation_orbit(theta, a, lo + 1, hi + 1)
            graze = (
                _below(t, eps)
                | ~_below(t, _SCALE - eps + 1)
                | (~_below(t, cut - eps + 1) & _below(t, cut + eps))
            )
            if graze.any():
                clean = False
                break
            buf[lo:hi] = ~_below(t, cut)
        if clean:
            return SymbolicSequence(
                buf,
                alphabet_size=2,
                generator_id="sturmian",
                params={"length": length, "attempt": attempt, **params.as_json_dict()},
            )
    raise PrecisionError(
        "orbit keeps grazing an arc endpoint at working precision; "
        "choose a different base point"
    )


# ---------------------------------------------------------------------------
# almost periodic and periodic points


@dataclass(frozen=True)
class ToeplitzParams:
    """Regular Toeplitz skeleton: level j fills an arithmetic progression.

    periods must be strictly increasing with each dividing the next; level j
    writes fill_symbols[(j-1) mod len] on every position congruent to the
    first still-unfilled index mod periods[j-1]. When the listed periods run
    out before the prefix is fully determined the schedule extends
    geometrically with the ratio of the last two periods.
    """

    periods: tuple[int, ...]
    fill_symbols: tuple[int, ...]
    alphabet_size: int | None = None

    def __post_init__(self) -> None:
        periods = tuple(int(p) for p in self.periods)
        fills = tuple(int(s) for s in self.fill_symbols)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "fill_symbols", fills)
        if not periods:
            raise ValueError("need at least one period")
        if periods[0] < 2:
            raise ValueError("the first period must be >= 2")
        for a, b in zip(periods, periods[1:]):
            if b <= a or b % a != 0:
                raise ValueError("periods must be strictly increasing and nested")
        if not fills:
            raise ValueError("need at least one fill symbol")
        k = self.alphabet_size if self.alphabet_size is not None else max(fills) + 1
        if any(not 0 <= s < k for s in fills):
            raise ValueError("fill symbols outside the alphabet")

    @property
    def ratio(self) -> int:
        if len(self.periods) >= 2:
            return self.periods[-1] // self.periods[-2]
        return self.periods[0]

    def as_json_dict(self) -> dict:
        return {
            "periods": list(self.periods),
            "fill_symbols": list(self.fill_symbols),
            "alphabet_size": self.alphabet_size,
        }


def toeplitz_regular(params: ToeplitzParams, length: int) -> SymbolicSequence:
    """Fill levels until every position of the prefix is determined."""
    length = _guard_length(length, "length")
    k = params.alphabet_size if params.alphabet_size is not None else max(params.fill_symbols) + 1
    buf = np.zeros(length, dtype=np.uint8)
    filled = np.zeros(length, dtype=bool)
    max_levels = len(params.periods) + 4 * max(8, length.bit_length()) + 8
    level = 0
    period = params.periods[0]
    while not filled.all():
        if level >= max_levels:
            raise SizingError(
                "period schedule grows too fast to determine the prefix; "
                f"{int((~filled).sum())} positions undetermined after {level} levels"
            )
        if level < len(params.periods):
            period = params.periods[level]
        elif level > 0:
            period = period * params.ratio
        symbol = params.fill_symbols[level % len(params.fill_symbols)]
        u = int(np.argmax(~filled))
        buf[u::period] = symbol
        filled[u::period] = True
        level += 1
    return SymbolicSequence(
        buf,
        k,
        generator_id="toeplitz",
        params={"length": length, **params.as_json_dict()},
    )


def periodic(
    word: FiniteWord | str | tuple[int, ...],
    length: int,
    alphabet_size: int | None = None,
) -> SymbolicSequence:
    """The periodic point with the given repeating word."""
    length = _guard_length(length, "length")
    if isinstance(word, str):
        word = FiniteWord.from_digits(word, alphabet_size)
    elif not isinstance(word, FiniteWord):
        syms = tuple(int(s) for s in word)
        word = FiniteWord(syms, alphabet_size or max(syms, default=0) + 1)
    if len(word) == 0:
        raise ValueError("repeating word must be nonempty")
    reps = -(-length // len(word))
    buf = np.tile(word.as_array(), reps)[:length]
    return SymbolicSequence(
        buf,
        alphabet_size or word.alphabet_size,
        generator_id="periodic",
        params={"length": length, "word": str(word), "alphabet_size": word.alphabet_size},
    )


def full_shift_point(
    alphabet_size: int,
    length: int,
    mode: str = "champernowne",
    seed: int = 0,
) -> SymbolicSequence:
    """A point whose orbit closure is the whole k-shift at every tested depth.

    "champernowne" contains every word deterministically; "random" draws iid
    symbols from a seeded generator (every short word occurs with
    overwhelming probability but this is not certified).
    """
    length = _guard_length(length, "length")
    if alphabet_size < 2:
        raise ValueError("the full shift needs at least two symbols")
    if mode == "champernowne":
        buf = _champernowne_symbols(tuple(range(alphabet_size)), length)
    elif mode == "random":
        rng = np.random.default_rng(seed)
        buf = rng.integers(0, alphabet_size, size=length, dtype=np.uint8)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return SymbolicSequence(
        buf,
        alphabet_size,
        generator_id="full-shift",
        params={"length": length, "alphabet_size": alphabet_size, "mode": mode, "seed": seed},
    )


# ---------------------------------------------------------------------------
# registry
#
# Each entry's keyword signature declares its generator's config params: the
# annotation names the kind that `shiftlab.cli` checks, the default is the
# config default, and a param without a default is required. Entries take the
# checked JSON values as they are (a list where a tuple is declared).

Angle = str | float | dict  # "golden", a number, or integers {"d", "add", "div"}
Driver = str | tuple[int, ...]  # "champernowne", "alternating" or the symbols
ZeroRuns = str | tuple[int, ...]  # "auto" or one run per level
Mode = str  # "champernowne" or "random"
Digits = str  # a word written in the digits 0-9


def _nested_block(
    i_max: int = 6, driver: Driver = "champernowne", zero_runs: ZeroRuns = "auto"
) -> SymbolicSequence:
    return nested_block_sequence(NestedBlockParams(i_max, driver, zero_runs))[0]


def _sturmian(length: int, angle: Angle = "golden", theta: float = 0.0) -> SymbolicSequence:
    if angle == "golden":
        rot = RotationParams.golden(theta)
    elif isinstance(angle, dict):
        rot = RotationParams.quadratic(**angle, theta=theta)
    else:
        rot = RotationParams.from_float(angle, theta)
    return sturmian(rot, length)


def _toeplitz(
    length: int,
    periods: tuple[int, ...] = (2, 4, 8, 16, 32, 64, 128, 256),
    fill_symbols: tuple[int, ...] = (0, 1),
    alphabet_size: int | None = None,
) -> SymbolicSequence:
    return toeplitz_regular(ToeplitzParams(periods, fill_symbols, alphabet_size), length)


def _periodic(word: Digits, length: int, alphabet_size: int | None = None) -> SymbolicSequence:
    return periodic(word, length, alphabet_size)


def _full_shift(
    length: int, alphabet_size: int = 2, mode: Mode = "champernowne", seed: int = 0
) -> SymbolicSequence:
    return full_shift_point(alphabet_size, length, mode, seed)


GENERATORS = {
    "nested-block": _nested_block,
    "champernowne": champernowne,
    "sturmian": _sturmian,
    "toeplitz": _toeplitz,
    "periodic": _periodic,
    "full-shift": _full_shift,
}


def build(spec: dict) -> SymbolicSequence:
    """Build from a {"generator": id, "params": {...}} request; params are the entry's keywords."""
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
