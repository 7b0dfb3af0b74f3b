"""Generators: nested block recursion, codings, almost periodic points, registry."""

from fractions import Fraction

import numpy as np
import pytest

import shiftlab as sl
from shiftlab import NestedBlockParams, RotationParams, ToeplitzParams


# ---------------------------------------------------------------------------
# nested block construction

LEVEL_LENGTHS = (2, 16, 182, 2742, 52118, 1198744, 32366130)
ZERO_RUNS = (11, 148, 2375, 46630, 1094503, 29968636)


def test_level_lengths_match_frozen_constants():
    meta = sl.nested_block_meta(NestedBlockParams(i_max=6))
    assert meta.lengths == LEVEL_LENGTHS
    assert meta.zero_runs == ZERO_RUNS


def test_level_lengths_satisfy_the_recursion():
    meta = sl.nested_block_meta(NestedBlockParams(i_max=6))
    for n in range(1, 7):
        p, run, p_next = meta.lengths[n - 1], meta.zero_runs[n - 1], meta.lengths[n]
        assert p_next == 2 * p + run + n


def test_auto_rule_gives_activity_ratio_exactly_one_over_i():
    meta = sl.nested_block_meta(NestedBlockParams(i_max=6))
    for i, ratio in enumerate(meta.activity_ratios, start=1):
        assert ratio * i == 1
        assert isinstance(ratio, Fraction)


def test_built_block_layout_matches_the_meta():
    params = NestedBlockParams(i_max=4)
    x, meta = sl.nested_block_sequence(params)
    assert x.length == meta.final_length
    assert x.alphabet_size == 4
    data = x.data
    assert data[0] == 1 and data[1] == 1
    for level in range(1, 5):
        p = meta.lengths[level - 1]
        run = meta.zero_runs[level - 1]
        lo, hi = meta.zero_window(level)
        assert (lo, hi) == (p + 1, p + run)
        assert not data[lo - 1 : hi].any()
        insert = data[p + run : p + run + level]
        assert insert.tolist() == list(meta.driver_used[:level])
        assert np.array_equal(data[p + run + level : meta.lengths[level]], data[:p])


def test_driver_selection():
    champ = sl.nested_block_meta(NestedBlockParams(i_max=6))
    assert champ.driver_used == (2, 3, 2, 2, 2, 3)
    alt = sl.nested_block_meta(NestedBlockParams(i_max=4, driver="alternating"))
    assert alt.driver_used == (2, 3, 2, 3)
    pinned = sl.nested_block_meta(NestedBlockParams(i_max=3, driver=(3, 3, 2)))
    assert pinned.driver_used == (3, 3, 2)


def test_nested_block_param_validation():
    with pytest.raises(ValueError):
        NestedBlockParams(i_max=0)
    with pytest.raises(ValueError):
        NestedBlockParams(driver="fancy")
    with pytest.raises(ValueError):
        NestedBlockParams(i_max=3, driver=(2, 3))
    with pytest.raises(ValueError):
        NestedBlockParams(i_max=2, driver=(2, 5))
    with pytest.raises(ValueError):
        NestedBlockParams(i_max=2, zero_runs=(11,))
    with pytest.raises(ValueError):
        NestedBlockParams(zero_runs="long")


def test_explicit_zero_run_must_exceed_block_length():
    with pytest.raises(ValueError):
        sl.nested_block_meta(NestedBlockParams(i_max=1, zero_runs=(2,)))
    meta = sl.nested_block_meta(NestedBlockParams(i_max=1, zero_runs=(3,)))
    assert meta.lengths == (2, 8)


def test_nested_block_growth_hits_the_symbol_budget():
    with pytest.raises(sl.SizingError):
        sl.nested_block_meta(NestedBlockParams(i_max=8))


def test_params_json_round_trip():
    p = NestedBlockParams(i_max=3, driver=(2, 3, 3), zero_runs=(3, 9, 25))
    back = NestedBlockParams(**p.as_json_dict())
    assert back == p


# ---------------------------------------------------------------------------
# concatenation codings


def test_binary_champernowne_prefix():
    x = sl.champernowne(16)
    assert str(x.prefix(16)) == "0100011011000001"


def test_champernowne_over_two_three():
    x = sl.champernowne(10, (2, 3), alphabet_size=4)
    assert x.data.tolist() == [2, 3, 2, 2, 2, 3, 3, 2, 3, 3]
    assert x.alphabet_size == 4


def test_champernowne_validation():
    with pytest.raises(ValueError):
        sl.champernowne(8, (1,))
    with pytest.raises(ValueError):
        sl.champernowne(8, (1, 1))


# ---------------------------------------------------------------------------
# rotation codings


def test_golden_coding_starts_with_the_fibonacci_word():
    x = sl.sturmian(RotationParams.golden(), 64)
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
    grazing = RotationParams(g.alpha_scaled, scale - g.alpha_scaled, label="graze")
    a = sl.sturmian(grazing, 100)
    b = sl.sturmian(grazing, 100)
    assert np.array_equal(a.data, b.data)
    assert a.params["attempt"] >= 1


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
    on_cut = RotationParams(g.alpha_scaled, (scale - 6 * g.alpha_scaled) % scale, label="cut")
    cases = (g, RotationParams.quadratic(2, 0, 2, theta=0.3), on_cut)
    for params in cases:
        want, attempt = scalar_sturmian(params, 10**5)
        x = sl.sturmian(params, 10**5)
        assert np.array_equal(x.data, want)
        assert x.params["attempt"] == attempt
    assert x.params["attempt"] == 1
    # lengths around the build's chunk size
    chunk = sl.generate._ROTATION_CHUNK
    for length in (1, chunk - 1, chunk, chunk + 1):
        assert np.array_equal(sl.sturmian(g, length).data, scalar_sturmian(g, length)[0])


@pytest.mark.parametrize("edge", ["zero", "one", "below-cut", "above-cut"])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_sturmian_graze_bounds_match_the_scalar_loop(edge, offset):
    """One orbit point at distance eps + offset from an arc endpoint; only
    distance eps - 1 grazes. The point after one near the cut lies near 0 or
    1, so each endpoint test decides alone only at the first symbol (0 and 1)
    or at the last (the cut)."""
    scale = 1 << sl.generate.SCALE_BITS
    dist = sl.generate._ENDPOINT_EPS + offset
    g = RotationParams.golden()
    cut = scale - g.alpha_scaled
    point = {"zero": dist, "one": scale - dist,
             "below-cut": cut - dist, "above-cut": cut + dist}[edge]
    at = 1 if edge in ("zero", "one") else 100
    params = RotationParams(g.alpha_scaled, (point - at * g.alpha_scaled) % scale, label=edge)
    want, attempt = scalar_sturmian(params, 100)
    x = sl.sturmian(params, 100)
    assert np.array_equal(x.data, want)
    assert x.params["attempt"] == attempt == int(offset == -1)


# ---------------------------------------------------------------------------
# almost periodic and periodic points


def test_toeplitz_prefix_oracle():
    x = sl.toeplitz_regular(ToeplitzParams((2, 4, 8, 16, 32), (0, 1)), 32)
    assert str(x.prefix(32)) == "01000101010001000100010101000101"


def test_toeplitz_extends_its_schedule_geometrically():
    short = sl.toeplitz_regular(ToeplitzParams((2, 4), (0, 1)), 64)
    full = sl.toeplitz_regular(ToeplitzParams((2, 4, 8, 16, 32, 64), (0, 1)), 64)
    assert np.array_equal(short.data, full.data)


def test_toeplitz_period_validation():
    with pytest.raises(ValueError):
        ToeplitzParams((1, 2), (0, 1))
    with pytest.raises(ValueError):
        ToeplitzParams((2, 6, 9998), (0, 1))
    with pytest.raises(ValueError):
        ToeplitzParams((4, 2), (0, 1))
    with pytest.raises(ValueError):
        ToeplitzParams((2, 4), ())
    with pytest.raises(ValueError):
        ToeplitzParams((2, 4), (0, 3), alphabet_size=2)


def test_toeplitz_runaway_schedule_raises():
    with pytest.raises(sl.SizingError):
        sl.toeplitz_regular(ToeplitzParams((2, 1024), (0, 1)), 4096)


def test_periodic_point_tiles_its_word():
    x = sl.periodic("012", 8, alphabet_size=3)
    assert x.data.tolist() == [0, 1, 2, 0, 1, 2, 0, 1]
    with pytest.raises(ValueError):
        sl.periodic("", 8)


def test_full_shift_point_modes():
    x = sl.full_shift_point(2, 16)
    assert str(x.prefix(16)) == "0100011011000001"
    r1 = sl.full_shift_point(3, 64, mode="random", seed=5)
    r2 = sl.full_shift_point(3, 64, mode="random", seed=5)
    assert np.array_equal(r1.data, r2.data)
    with pytest.raises(ValueError):
        sl.full_shift_point(1, 8)
    with pytest.raises(ValueError):
        sl.full_shift_point(2, 8, mode="fancy")


def test_length_guard_rejects_oversized_requests():
    with pytest.raises(sl.SizingError):
        sl.periodic("01", sl.MAX_SYMBOLS + 1)


# ---------------------------------------------------------------------------
# registry


def test_build_dispatches_on_generator_id():
    x = sl.build({"generator": "periodic", "params": {"word": "01", "length": 8}})
    assert x.generator_id == "periodic"
    with pytest.raises(ValueError):
        sl.build({"generator": "mystery", "params": {}})

