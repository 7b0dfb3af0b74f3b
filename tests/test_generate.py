"""Generators: nested block recursion, codings, almost periodic points, cache."""

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
# registry and cache


def test_build_dispatches_on_generator_id():
    x = sl.build({"generator": "periodic", "params": {"word": "01", "length": 8}})
    assert x.generator_id == "periodic"
    with pytest.raises(ValueError):
        sl.build({"generator": "mystery", "params": {}})


def test_cache_key_ignores_param_order():
    assert sl.cache_key("g", {"a": 1, "b": 2}) == sl.cache_key("g", {"b": 2, "a": 1})
    assert sl.cache_key("g", {"a": 1}) != sl.cache_key("g", {"a": 2})


def test_build_cached_round_trip(tmp_path):
    spec = {"generator": "periodic", "params": {"word": "011", "length": 32}}
    first = sl.build_cached(spec, tmp_path)
    files = list(tmp_path.glob("*.seq"))
    assert len(files) == 1
    second = sl.build_cached(spec, tmp_path)
    assert np.array_equal(first.data, second.data)
    assert second.generator_id == "periodic"
