"""Generators: nested block recursion, codings, almost periodic points, registry."""

import inspect
import json
import resource
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab as sl
from shiftlab import RotationParams
from shiftlab.generate import _code_rotation


# ---------------------------------------------------------------------------
# nested block construction

LEVEL_LENGTHS = (2, 16, 182, 2742, 52118, 1198744, 32366130)
ZERO_RUNS = (11, 148, 2375, 46630, 1094503, 29968636)


def test_level_lengths_match_frozen_constants():
    meta = sl.nested_block_meta(6, "champernowne", "auto")
    assert meta.lengths == LEVEL_LENGTHS
    assert meta.zero_runs == ZERO_RUNS


def test_level_lengths_satisfy_the_recursion():
    meta = sl.nested_block_meta(6, "champernowne", "auto")
    for n in range(1, 7):
        p, run, p_next = meta.lengths[n - 1], meta.zero_runs[n - 1], meta.lengths[n]
        assert p_next == 2 * p + run + n


def test_auto_rule_gives_activity_ratio_exactly_one_over_i():
    meta = sl.nested_block_meta(6, "champernowne", "auto")
    for i, ratio in enumerate(meta.activity_ratios, start=1):
        assert ratio * i == 1
        assert isinstance(ratio, Fraction)


def test_built_block_layout_matches_the_meta():
    x = sl.nested_block_sequence(i_max=4)
    meta = sl.nested_block_meta(4, "champernowne", "auto")
    assert x.length == meta.final_length
    assert x.alphabet_size == 4
    data = x.data
    assert data[0] == 1 and data[1] == 1
    for level in range(1, 5):
        p = meta.lengths[level - 1]
        run = meta.zero_runs[level - 1]
        assert not data[p : p + run].any()
        insert = data[p + run : p + run + level]
        assert insert.tolist() == list(meta.driver_used[:level])
        assert np.array_equal(data[p + run + level : meta.lengths[level]], data[:p])


def test_driver_selection():
    champ = sl.nested_block_meta(6, "champernowne", "auto")
    assert champ.driver_used == (2, 3, 2, 2, 2, 3)
    alt = sl.nested_block_meta(4, "alternating", "auto")
    assert alt.driver_used == (2, 3, 2, 3)
    pinned = sl.nested_block_meta(3, (3, 3, 2), "auto")
    assert pinned.driver_used == (3, 3, 2)


def test_nested_block_param_validation():
    for args in (
        (0, "champernowne", "auto"),
        (6, "fancy", "auto"),
        (3, (2, 3), "auto"),
        (2, (2, 5), "auto"),
        (2, "champernowne", (11,)),
        (6, "champernowne", "long"),
    ):
        with pytest.raises(ValueError):
            sl.nested_block_meta(*args)
        with pytest.raises(ValueError):
            sl.nested_block_sequence(*args)


def test_explicit_zero_run_must_exceed_block_length():
    with pytest.raises(ValueError):
        sl.nested_block_meta(1, "champernowne", (2,))
    meta = sl.nested_block_meta(1, "champernowne", (3,))
    assert meta.lengths == (2, 8)


def test_nested_block_growth_hits_the_symbol_budget():
    with pytest.raises(sl.BudgetError):
        sl.nested_block_meta(8, "champernowne", "auto")


# ---------------------------------------------------------------------------
# concatenation codings


def test_binary_champernowne_prefix():
    x = sl.full_shift_point(16)  # the full shift's default mode is the concatenation point
    assert str(x.prefix(16)) == "0100011011000001"


def test_champernowne_over_two_three():
    got = sl.generate._champernowne_symbols((2, 3), 10)
    assert got.tolist() == [2, 3, 2, 2, 2, 3, 3, 2, 3, 3]
    assert np.array_equal(got, sl.full_shift_point(10).data + 2)


def test_champernowne_validation():
    """The concatenation point needs at least two symbols and a known mode."""
    with pytest.raises(ValueError, match="at least two symbols"):
        sl.full_shift_point(8, 1)
    with pytest.raises(ValueError, match="unknown mode"):
        sl.full_shift_point(8, 2, mode="champernowe")


def loop_champernowne(symbols, length):
    """The digit loop the column tiling replaced: each n-word's code in base k,
    split by `%` and `//`, 65536 codes at a time. The reference oracle."""
    k = len(symbols)
    lut = np.array(symbols, dtype=np.uint8)
    out = np.empty(length, dtype=np.uint8)
    pos, n = 0, 1
    while pos < length:
        total, start = k**n, 0
        while start < total and pos < length:
            stop = min(start + (1 << 16), total)
            rem = np.arange(start, stop, dtype=np.int64)
            digits = np.empty((stop - start, n), dtype=np.int64)
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


def word_length_boundaries(k, top):
    """Buffer lengths at which the n-words end, for n = 1, 2, ... below top."""
    ends, n = [], 1
    while not ends or ends[-1] < top:
        ends.append((ends[-1] if ends else 0) + n * k**n)
        n += 1
    return ends


@pytest.mark.parametrize("symbols", [(0, 1), (0, 1, 2), (0, 1, 2, 3), (2, 3)])
def test_champernowne_columns_match_the_digit_loop(symbols):
    """Every length from 1 to 300, and lengths one short of, at, and one or a
    word past each word-length boundary up to 2^20 symbols, split words too."""
    lengths = set(range(1, 301))
    for end in word_length_boundaries(len(symbols), 1 << 20):
        lengths |= {end - 1, end, end + 1, end + 5}
    for length in sorted(lengths):
        got = sl.generate._champernowne_symbols(symbols, length)
        assert got.size == length
        assert np.array_equal(got, loop_champernowne(symbols, length)), length
    x = sl.full_shift_point(1 << 20, len(symbols))  # the same words over 0, ..., k - 1
    lut = np.array(symbols, np.uint8)
    assert np.array_equal(lut[x.data], loop_champernowne(symbols, 1 << 20))


# ---------------------------------------------------------------------------
# rotation codings


def test_golden_coding_starts_with_the_fibonacci_word():
    x = sl.sturmian(64)
    assert str(x.prefix(13)) == "1011010110110"


def test_rational_angles_are_refused():
    with pytest.raises(ValueError):
        RotationParams.from_float(0.5)
    with pytest.raises(ValueError):
        RotationParams.from_float(2 / 7)
    RotationParams.quadratic(2, 0, 2)  # sqrt(2)/2 passes the guard


def test_endpoint_grazing_reseeds_deterministically():
    g = RotationParams.golden()
    scale = 1 << sl.generate.SCALE_BITS
    grazing = RotationParams(g.alpha_scaled, scale - g.alpha_scaled)
    a, attempt = _code_rotation(grazing, 100)
    b, again = _code_rotation(grazing, 100)
    assert np.array_equal(a, b)
    assert attempt == again >= 1


def scalar_sturmian(params, length):
    """The one-point-at-a-time coding the vectorized build replaced: the oracle."""
    scale = 1 << sl.generate.SCALE_BITS
    eps, step = sl.generate._ENDPOINT_EPS, sl.generate._RESEED_STEP
    a = params.alpha_scaled
    cut = scale - a
    for attempt in range(3):
        t = (params.theta_scaled + attempt * step) % scale
        buf = np.empty(length, dtype=np.uint8)
        for i in range(length):
            t += a
            if t >= scale:
                t -= scale
            buf[i] = 1 if t >= cut else 0
            gap = t - cut if t >= cut else cut - t
            if t < eps or scale - t < eps or gap < eps:
                break
        else:
            return buf, attempt
    return None, None


def test_sturmian_build_matches_the_scalar_loop():
    scale = 1 << sl.generate.SCALE_BITS
    g = RotationParams.golden()
    # theta = cut - 5 alpha puts the fifth orbit point exactly on the cut
    on_cut = RotationParams(g.alpha_scaled, (scale - 6 * g.alpha_scaled) % scale)
    cases = (g, RotationParams.quadratic(2, 0, 2, theta=0.3), on_cut)
    for params in cases:
        want, want_attempt = scalar_sturmian(params, 10**5)
        buf, attempt = _code_rotation(params, 10**5)
        assert np.array_equal(buf, want)
        assert attempt == want_attempt
    assert attempt == 1
    # lengths around the build's chunk size
    chunk = sl.generate._ROTATION_CHUNK
    for length in (1, chunk - 1, chunk, chunk + 1):
        assert np.array_equal(_code_rotation(g, length)[0], scalar_sturmian(g, length)[0])
    assert np.array_equal(sl.sturmian(chunk + 1).data, scalar_sturmian(g, chunk + 1)[0])


# distances eps + offset: eps - 1 and eps - 2**32 graze, the other three do not
GRAZE_OFFSETS = [-(1 << 32), -1, 0, 1, 1 << 32]


@pytest.mark.parametrize("edge", ["zero", "one", "below-cut", "above-cut"])
@pytest.mark.parametrize("offset", GRAZE_OFFSETS)
def test_sturmian_graze_bounds_match_the_scalar_loop(edge, offset):
    """One orbit point at distance eps + offset from an arc endpoint; only
    distances below eps graze. The point after one near the cut lies near 0
    or 1, so each endpoint test decides alone only at the first symbol (0 and
    1) or at the last (the cut)."""
    scale = 1 << sl.generate.SCALE_BITS
    dist = sl.generate._ENDPOINT_EPS + offset
    g = RotationParams.golden()
    cut = scale - g.alpha_scaled
    point = {"zero": dist, "one": scale - dist,
             "below-cut": cut - dist, "above-cut": cut + dist}[edge]
    at = 1 if edge in ("zero", "one") else 100
    params = RotationParams(g.alpha_scaled, (point - at * g.alpha_scaled) % scale)
    want, want_attempt = scalar_sturmian(params, 100)
    buf, attempt = _code_rotation(params, 100)
    assert np.array_equal(buf, want)
    assert attempt == want_attempt == int(offset < 0)



@pytest.mark.parametrize("edge", ["zero", "one", "below-cut", "above-cut"])
@pytest.mark.parametrize("offset", GRAZE_OFFSETS)
def test_a_graze_in_the_second_chunk_matches_the_scalar_loop(edge, offset):
    """As above, with the point at orbit index _ROTATION_CHUNK + 5: the chunk
    adds its first point to the tabled offsets, and the graze is seen there."""
    scale = 1 << sl.generate.SCALE_BITS
    chunk = sl.generate._ROTATION_CHUNK
    dist = sl.generate._ENDPOINT_EPS + offset
    g = RotationParams.golden()
    cut = scale - g.alpha_scaled
    point = {"zero": dist, "one": scale - dist,
             "below-cut": cut - dist, "above-cut": cut + dist}[edge]
    params = RotationParams(g.alpha_scaled, (point - (chunk + 5) * g.alpha_scaled) % scale)
    want, want_attempt = scalar_sturmian(params, chunk + 10)
    buf, attempt = _code_rotation(params, chunk + 10)
    assert np.array_equal(buf, want)
    assert attempt == want_attempt == int(offset < 0)


@pytest.mark.parametrize("chunk_index", [0, 1])
@pytest.mark.parametrize("target", ["onto-cut", "window-floor"])
def test_a_low_word_carry_at_the_cut_matches_the_scalar_loop(chunk_index, target):
    """The build sums top words and drops the carry out of the low 32 bits, so
    a point's top word is its sum or one more. Put the last orbit point where
    the carry is 1: its top word on the cut's ("onto-cut"), or on that of
    cut - eps, just inside the graze window ("window-floor"). Both graze."""
    scale, low = 1 << sl.generate.SCALE_BITS, (1 << 32) - 1
    eps, chunk = sl.generate._ENDPOINT_EPS, sl.generate._ROTATION_CHUNK
    g = RotationParams.golden()
    a = g.alpha_scaled
    cut = scale - a
    floor = (cut - eps + 1) & low if target == "window-floor" else 0
    # the chunk offset j whose tabled low word j*a exceeds the point's: then the
    # chunk's first point and j*a carry out of the low word
    j = next(j for j in range(1, 1000) if (j * a & low) > floor)
    base = cut - eps + 1 if target == "window-floor" else cut
    point = (base >> 32 << 32) | ((j * a & low) - 1 if target == "onto-cut" else floor)
    assert abs(point - cut) < eps and (point >> 32) == (base >> 32)
    first = (point - j * a) % scale  # the chunk's first point
    assert ((first & low) + (j * a & low)) >> 32 == 1
    length = chunk_index * chunk + j + 1
    params = RotationParams(a, (first - (chunk_index * chunk + 1) * a) % scale)
    want, want_attempt = scalar_sturmian(params, length)
    buf, attempt = _code_rotation(params, length)
    assert np.array_equal(buf, want)
    assert attempt == want_attempt == 1


@pytest.mark.parametrize("extra", [-1, 1])
def test_a_non_golden_coding_across_chunks_matches_the_scalar_loop(extra):
    params = RotationParams.quadratic(3, 0, 2, theta=0.7)
    length = 2 * sl.generate._ROTATION_CHUNK + extra
    want, want_attempt = scalar_sturmian(params, length)
    buf, attempt = _code_rotation(params, length)
    assert np.array_equal(buf, want)
    assert attempt == want_attempt == 0


def test_the_sturmian_build_peaks_at_its_buffer_and_one_chunk():
    # the 1-byte symbols, then about 25 bytes per chunk point: the tabled top
    # words, and the two scratch words and one mask made once per build
    size = 1 << 20
    tracemalloc.start()
    try:
        sl.sturmian(size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size + 32 * sl.generate._ROTATION_CHUNK


def test_a_cold_sturmian_build_faults_in_little_more_than_its_buffer(cold_faults):
    # the buffer, and scratch made once per build: temporaries made anew for every
    # chunk are faulted in again each time the allocator trims them off the heap
    length = 2_000_100
    faults = cold_faults("import shiftlab as sl", f"sl.sturmian({length})")
    assert faults <= 4 * -(-length // resource.getpagesize())


def largest_return(x, n):
    """The largest gap + n - 1 between consecutive starts of any n-word of x,
    counting -1 and x.length - n + 1 as starts, read word by word off the
    `window_groups` scan: the least R with every R consecutive symbols of the
    prefix holding every n-word."""
    order, heads = sl.window_groups(x, n)  # every n-word's starts, ascending
    return max(np.diff([-1, *starts, x.length - n + 1]).max()
               for starts in np.split(order, heads[1:])) + n - 1


ANGLES = ("golden", {"d": 2, "add": -1, "div": 1}, {"d": 3, "add": -1, "div": 1},
          2 ** 0.5 - 1, np.pi - 3, np.e - 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ANGLES), st.floats(0, 0.99), st.integers(1 << 11, 1 << 13),
       st.integers(1, 300))
def test_the_sturmian_recurrence_bound_holds_on_the_prefix(angle, theta, length, n):
    x = sl.sturmian(length, angle, theta)
    bound = sl.recurrence_bound(x, n)
    if bound is not None:
        assert length >= bound >= largest_return(x, n)


@pytest.mark.parametrize("n", [3, 8, 16, 32, 100, 1000])
def test_the_golden_recurrence_bound_is_the_measured_one_on_the_tour_prefix(n):
    x = sl.sturmian(1 << 20)
    assert sl.recurrence_bound(x, n) == largest_return(x, n)


def test_the_golden_recurrence_bound_is_read_off_the_fibonacci_numbers():
    x = sl.sturmian(1 << 20)
    assert sl.recurrence_bound(x, 32832) == 32832 + 46368 + 28657 - 1 == 107856
    assert [sl.recurrence_bound(x, n) for n in (1, 2, 3, 5)] == [3, 6, 10, 17]


def test_only_sturmian_points_have_a_recurrence_bound():
    for spec in ({"generator": "periodic", "params": {"word": "01", "length": 4096}},
                 {"generator": "toeplitz", "params": {"length": 4096}},
                 {"generator": "nested-block", "params": {"i_max": 3}},
                 {"generator": "full-shift", "params": {"length": 4096}}):
        assert sl.recurrence_bound(sl.build(spec), 2) is None, spec["generator"]


def test_no_recurrence_bound_past_the_prefix_or_an_ended_expansion():
    assert sl.recurrence_bound(sl.sturmian(137), 50) is None  # R(50) = 50 + 55 + 34 - 1
    assert sl.recurrence_bound(sl.sturmian(138), 50) == 138
    assert sl.recurrence_bound(sl.sturmian(1 << 12), 1 << 48) is None  # R(n) > n, far past it
    dyadic = sl.sturmian(1 << 22, 12345 / 2**20)  # its expansion ends at q = 2**20
    assert sl.recurrence_bound(dyadic, (1 << 20) - 1) is not None
    assert sl.recurrence_bound(dyadic, 1 << 20) is None

# ---------------------------------------------------------------------------
# almost periodic and periodic points


def test_toeplitz_prefix_oracle():
    x = sl.toeplitz_regular(32, (2, 4, 8, 16, 32), (0, 1))
    assert str(x.prefix(32)) == "01000101010001000100010101000101"


def test_toeplitz_extends_its_schedule_geometrically():
    short = sl.toeplitz_regular(64, (2, 4), (0, 1))
    full = sl.toeplitz_regular(64, (2, 4, 8, 16, 32, 64), (0, 1))
    assert np.array_equal(short.data, full.data)


def test_toeplitz_period_validation():
    with pytest.raises(ValueError):
        sl.toeplitz_regular(64, (1, 2), (0, 1))
    with pytest.raises(ValueError):
        sl.toeplitz_regular(64, (2, 6, 9998), (0, 1))
    with pytest.raises(ValueError):
        sl.toeplitz_regular(64, (4, 2), (0, 1))
    with pytest.raises(ValueError):
        sl.toeplitz_regular(64, (2, 4), ())
    with pytest.raises(ValueError):
        sl.toeplitz_regular(64, (2, 4), (0, 3), alphabet_size=2)


def test_toeplitz_runaway_schedule_raises():
    with pytest.raises(sl.BudgetError):
        sl.toeplitz_regular(4096, (2, 1024), (0, 1))


def test_periodic_point_tiles_its_word():
    x = sl.periodic("012", 8, alphabet_size=3)
    assert x.data.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
    with pytest.raises(ValueError):
        sl.periodic("", 8)


def test_full_shift_point_modes():
    x = sl.full_shift_point(16)
    assert str(x.prefix(16)) == "0100011011000001"
    r1 = sl.full_shift_point(64, 3, mode="random", seed=5)
    r2 = sl.full_shift_point(64, 3, mode="random", seed=5)
    assert np.array_equal(r1.data, r2.data)
    with pytest.raises(ValueError):
        sl.full_shift_point(8, 1)
    with pytest.raises(ValueError):
        sl.full_shift_point(8, 2, mode="fancy")


def test_length_guard_rejects_oversized_requests():
    with pytest.raises(sl.BudgetError):
        sl.periodic("01", sl.MAX_SYMBOLS + 1)


# ---------------------------------------------------------------------------
# registry


def test_build_dispatches_on_generator_id():
    x = sl.build({"generator": "periodic", "params": {"word": "01", "length": 8}})
    assert x.generator_id == "periodic"
    with pytest.raises(ValueError):
        sl.build({"generator": "mystery", "params": {}})


# each generator once with only its required params and once with every param set
REQUIRED_ONLY = {
    "nested-block": {},
    "sturmian": {"length": 4096},
    "toeplitz": {"length": 4096},
    "periodic": {"word": "011", "length": 64},
    "full-shift": {"length": 64},
}
EVERY_PARAM = {
    "nested-block": {"i_max": 3, "driver": [3, 3, 2], "zero_runs": [3, 9, 30]},
    "sturmian": {"length": 4096, "angle": {"d": 2, "add": 0, "div": 2}, "theta": 0.3},
    "toeplitz": {"length": 4096, "periods": [2, 4, 8], "fill_symbols": [2, 0, 1],
                 "alphabet_size": 4},
    "periodic": {"word": "0312", "length": 50, "alphabet_size": 5},
    "full-shift": {"length": 64, "alphabet_size": 3, "mode": "random", "seed": 7},
}
ROUND_TRIP_CASES = [
    pytest.param(gen, params, id=f"{gen}-{kind}")
    for kind, cases in (("required-only", REQUIRED_ONLY), ("every-param", EVERY_PARAM))
    for gen, params in cases.items()
]


def keywords(generator):
    return inspect.signature(sl.GENERATORS[generator]).parameters.values()


def test_the_round_trip_cases_cover_every_generator_and_param():
    for cases in (REQUIRED_ONLY, EVERY_PARAM):
        assert set(cases) == set(sl.GENERATORS)
    for gen in sl.GENERATORS:
        assert set(REQUIRED_ONLY[gen]) == {p.name for p in keywords(gen) if p.default is p.empty}
        assert set(EVERY_PARAM[gen]) == {p.name for p in keywords(gen)}


@pytest.mark.parametrize("generator, params", ROUND_TRIP_CASES)
def test_a_sequence_rebuilds_from_its_params(generator, params):
    """`params` is the builder's keywords with its defaults filled in, as JSON,
    and building from it reproduces every symbol."""
    x = sl.build({"generator": generator, "params": params})
    filled = {p.name: params.get(p.name, p.default) for p in keywords(generator)}
    assert x.params == json.loads(json.dumps(filled))
    back = sl.build({"generator": x.generator_id, "params": x.params})
    assert np.array_equal(back.data, x.data)
    assert back.alphabet_size == x.alphabet_size


@pytest.mark.parametrize("call, params", [
    (lambda: sl.nested_block_sequence(np.int64(3)),
     {"i_max": 3, "driver": "champernowne", "zero_runs": "auto"}),
    (lambda: sl.periodic("0312", 50, alphabet_size=np.int64(5)),
     {"word": "0312", "length": 50, "alphabet_size": 5}),
    (lambda: sl.toeplitz_regular(4096, (2, 4, 8), (2, 0, 1), 4),
     {"length": 4096, "periods": [2, 4, 8], "fill_symbols": [2, 0, 1], "alphabet_size": 4}),
], ids=["numpy-i_max", "numpy-alphabet_size", "tuples"])
def test_a_library_call_records_its_params_as_json(tmp_path, call, params):
    """numpy integers reach the builder and its record as ints and tuples as
    lists, so the sequence saves and its params rebuild every symbol."""
    x = call()
    assert json.loads(json.dumps(x.params)) == x.params == params
    assert all(type(v) is int for v in x.params.values() if not isinstance(v, (str, list)))
    sl.save_sequence(x, tmp_path / "x.seq")
    back = sl.build({"generator": x.generator_id, "params": x.params})
    assert back.data.tobytes() == x.data.tobytes()
    assert back.alphabet_size == x.alphabet_size


def test_a_keyword_json_cannot_hold_is_refused_before_the_build():
    length = 1 << 24
    tracemalloc.start()
    try:
        with pytest.raises(TypeError, match="float32"):
            sl.periodic("01", length, alphabet_size=np.float32(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < length // 64
