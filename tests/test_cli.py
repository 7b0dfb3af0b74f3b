"""Config validation, report generation, presets, and exit codes."""

import csv
import errno
import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import shiftlab.cli as cli
import shiftlab.generate as generate
import shiftlab as sl


def tiny_config(**overrides):
    cfg = {
        "schema_version": 1,
        "systems": [
            {"id": "alt", "generator": "periodic", "params": {"word": "01", "length": 2048}},
        ],
        "tests": [
            {"name": "diam-mean-avg", "horizon": 256, "depth_cap": 16},
            {"name": "entropy", "lengths": [2, 4], "limit": 1024},
            {"name": "recurrence", "powers": 1, "epsilon_depth": 2, "horizon": 64,
             "depth_cap": 16},
        ],
        "output_dir": "out",
    }
    cfg.update(overrides)
    return cfg


def read_report(out_dir):
    text = (out_dir / "report.csv").read_text()
    lines = text.splitlines()
    assert lines[0].startswith("# generated-at ")
    rows = list(csv.DictReader(lines[1:]))
    return lines, rows


# ---------------------------------------------------------------------------
# validation


def test_validate_fills_defaults_and_keeps_ids():
    cfg = cli.validate_config(tiny_config())
    assert cfg["systems"][0]["id"] == "alt"
    avg = cfg["tests"][0]
    assert avg["epsilon"] == 0.1
    assert avg["occ_cap"] == 100000
    assert avg["horizon"] == 256


def test_validate_rejects_unknown_fields_with_paths():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(tiny_config(extra=1))
    assert err.value.path == "extra"

    bad_test = tiny_config()
    bad_test["tests"][0]["epsilonn"] = 0.2
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(bad_test)
    assert err.value.path == "tests[0].epsilonn"

    bad_sys = tiny_config()
    bad_sys["systems"][0]["params"]["wordd"] = "01"
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(bad_sys)
    assert err.value.path == "systems[0].params.wordd"


def test_validate_rejects_structural_problems():
    with pytest.raises(cli.ConfigError):
        cli.validate_config(tiny_config(schema_version=2))
    with pytest.raises(cli.ConfigError):
        cli.validate_config(tiny_config(systems=[]))
    with pytest.raises(cli.ConfigError):
        cli.validate_config(tiny_config(tests=[]))

    dup = tiny_config()
    dup["systems"] = dup["systems"] * 2
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(dup)
    assert "duplicate" in err.value.message

    ghost = tiny_config()
    ghost["tests"][0]["system"] = "missing"
    with pytest.raises(cli.ConfigError):
        cli.validate_config(ghost)

    bad_gen = tiny_config()
    bad_gen["systems"][0]["generator"] = "mystery"
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(bad_gen)
    assert "known:" in err.value.message


def test_a_config_naming_the_deleted_champernowne_generator_exits_two(tmp_path, capsys):
    """The concatenation point is `full-shift` in its default mode; the name is unknown."""
    system = {"id": "c", "generator": "champernowne", "params": {"length": 4096}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(systems=[system])))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    known = ", ".join(sorted(generate.GENERATORS))
    assert capsys.readouterr().err == (
        f"config error: systems[0].generator: unknown generator 'champernowne' (known: {known})\n"
    )
    assert "champernowne" not in generate.GENERATORS and not (tmp_path / "res").exists()


# Every field of every test as the seed commit materialized it.
SEED_DEFAULTS = {
    "diam-mean-avg": {"depth": 2, "word": None, "horizon": 32768, "depth_cap": 64,
                      "epsilon": 0.1, "occ_cap": 100000},
    "diam-mean-density": {"depth": 2, "word": None, "horizon": 32768, "depth_cap": 64,
                          "eta": 0.1, "occ_cap": 100000},
    "banach-diam-mean": {"depth": 2, "word": None, "horizon": 32768, "depth_cap": 64,
                         "epsilon": 0.1, "window_lengths": None, "occ_cap": 100000},
    "stable-in-mean": {"depth": 2, "word": None, "horizon": 32768, "depth_cap": 64,
                       "epsilon": 0.1, "occ_cap": 100000},
    "frequent-stability": {"depth": 2, "word": None, "horizon": 32768, "depth_cap": 64,
                           "epsilon": 0.1, "gamma": 0.25, "occ_cap": 100000},
    "diam-mean-sensitivity": {"depth": 3, "horizon": 32768, "depth_cap": 64, "epsilon": 0.1,
                              "occ_cap": 4096, "max_words": 64},
    "mean-eq-modulus": {"depths": [2, 4], "horizon": 32768, "depth_cap": 64,
                        "pair_budget": 16},
    "support-counts": {"levels": None, "occ_cap": 100000},
    "entropy": {"lengths": [4, 8, 12], "limit": 1048576},
    "recurrence": {"powers": 2, "epsilon_depth": 8, "horizon": 100000, "depth_cap": 64},
    "classify": {"base_depth": 2, "sensitivity_depth": 3, "horizon": 32768, "depth_cap": 64,
                 "epsilon": 0.1, "eta": 0.1, "gamma": 0.25, "modulus_depths": None,
                 "pair_budget": 8, "occ_cap": 4096, "entropy_lengths": [4, 8, 12],
                 "entropy_limit": 1048576, "max_words": 64},
}


def test_defaults_materialize_as_at_the_seed():
    nb = {"id": "nb", "generator": "nested-block", "params": {"i_max": 4}}
    bare = {"schema_version": 1, "systems": [nb],
            "tests": [{"name": name} for name in SEED_DEFAULTS]}
    assert cli.validate_config(bare) == {
        "schema_version": 1,
        "systems": [nb],
        "tests": [{"name": name, **fields} for name, fields in SEED_DEFAULTS.items()],
        "output_dir": "out",
    }

    def classify(system, **given):
        return {"name": "classify", "system": system, **SEED_DEFAULTS["classify"], **given}

    assert cli.validate_config(cli.PRESETS["hierarchy-tour"]) == {
        "schema_version": 1,
        "systems": [
            {"id": "periodic", "generator": "periodic",
             "params": {"word": "01", "length": 131072}},
            {"id": "sturmian", "generator": "sturmian",
             "params": {"length": 1048576, "angle": "golden"}},
            {"id": "toeplitz", "generator": "toeplitz",
             "params": {"length": 1048576, "periods": [2, 4, 8, 16, 32, 64, 128, 256],
                        "fill_symbols": [0, 1]}},
            {"id": "nested-block", "generator": "nested-block", "params": {"i_max": 5}},
            {"id": "full-shift", "generator": "full-shift",
             "params": {"length": 1048576, "alphabet_size": 2}},
        ],
        "tests": [
            classify("periodic", base_depth=2, sensitivity_depth=3),
            classify("sturmian", base_depth=256, sensitivity_depth=128,
                     modulus_depths=[256, 512]),
            classify("toeplitz", base_depth=128, sensitivity_depth=128,
                     modulus_depths=[128, 256]),
            classify("nested-block", base_depth=2, sensitivity_depth=3),
            classify("full-shift", base_depth=2, sensitivity_depth=3),
        ],
        "output_dir": "hierarchy-tour-out",
    }
    p6 = {"horizon": 52118}
    assert cli.validate_config(cli.PRESETS["nested-block"]) == {
        "schema_version": 1,
        "systems": [{"id": "nested-block", "generator": "nested-block", "params": {"i_max": 6}}],
        "tests": [
            {"name": "support-counts", **SEED_DEFAULTS["support-counts"]},
            {"name": "diam-mean-avg", **SEED_DEFAULTS["diam-mean-avg"], **p6},
            {"name": "diam-mean-density", **SEED_DEFAULTS["diam-mean-density"], **p6},
            {"name": "frequent-stability", **SEED_DEFAULTS["frequent-stability"], **p6},
        ],
        "output_dir": "nested-block-out",
    }


def test_a_series_test_takes_its_cylinder_by_depth_or_word_not_both(tmp_path, capsys):
    both = tiny_config(tests=[{"name": "diam-mean-avg", **SMALL, "depth": 5, "word": "01"}])
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(both)
    assert err.value.path == "tests[0].depth"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(both))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err.startswith("config error: tests[0].depth: ")
    assert not (tmp_path / "res").exists()

    word_only = tiny_config(tests=[{"name": "diam-mean-avg", **SMALL, "word": "011"}])
    assert cli.validate_config(word_only)["tests"][0]["depth"] == 3
    out = cli.run_config(word_only, tmp_path)
    _, rows = read_report(out)
    params = json.loads(rows[0]["params"])
    assert (params["word"], params["depth"]) == ("011", 3)
    resolved = json.loads((out / "config.resolved.json").read_text())
    assert resolved["tests"][0]["depth"] == 3


def test_occ_cap_bounds_the_work_of_a_shallow_sturmian_series(tmp_path):
    """A depth-1 cylinder of 2^20 golden symbols has about 121k starts in its
    recurrence window at horizon 150,000; occ_cap thins them, so the series runs
    within the work budget at any occ_cap the config takes."""
    x = sl.sturmian(1 << 20)
    cfg = tiny_config(
        systems=[{"id": "golden", "generator": "sturmian", "params": {"length": x.length}}],
        tests=[{"name": "diam-mean-avg", "depth": 1, "horizon": 150_000, "occ_cap": 64}])
    _, rows = read_report(cli.run_config(cfg, tmp_path))
    assert [(r["system"], r["verdict"]) for r in rows] == [("golden", "fails-at-horizon")]
    span = 150_000 + sl.stability.DEFAULT_DEPTH_CAP
    assert sl.diam_series(x, x.prefix(1), 150_000, occ_cap=64).sample_count == 64
    assert sl.stability.DEFAULT_OCC_CAP * span <= sl.stability._WORK_BUDGET


def test_a_banach_window_longer_than_the_horizon_is_rejected_before_any_job(tmp_path, capsys):
    cfg = tiny_config(tests=[
        {"name": "entropy", "lengths": [2, 4], "limit": 1024},
        {"name": "banach-diam-mean", **SMALL, "window_lengths": [10, 100000]},
    ])
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.path == "tests[1].window_lengths"
    assert err.value.message == "window length 100000 exceeds horizon 256"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err.startswith("config error: tests[1].window_lengths: ")
    assert not (tmp_path / "res").exists()

    cfg["tests"][1]["window_lengths"] = [10, 256]  # a window may span the whole horizon
    assert cli.validate_config(cfg)["tests"][1]["window_lengths"] == [10, 256]


def test_a_series_word_outside_a_systems_alphabet_is_rejected_before_any_job(
    tmp_path, capsys
):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    cfg["tests"] = [
        {"name": "entropy", "lengths": [2, 4], "limit": 1024},
        {"name": "diam-mean-avg", **SMALL, "word": "2"},
    ]
    assert cli.validate_config(cfg)["tests"][1]["word"] == "2"
    with pytest.raises(cli.ConfigError) as err:
        cli.run_config(cfg, tmp_path)
    assert err.value.path == "tests[1].word" and "'alt'" in err.value.message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: tests[1].word: on system 'alt':"
        " symbol 2 outside alphabet of size 2\n"
    )
    assert not (tmp_path / "out").exists()


def test_every_declared_field_has_a_kind_and_a_valid_default():
    # test and generator fields are read off library signatures, so an annotation
    # outside _KINDS would only fail, as a KeyError, once some config sets it
    declared = [(f"tests.{n}", s) for n, s in cli._SCHEMAS.items()]
    declared += [(f"generators.{g}", s) for g, s in cli._PARAMS.items()]
    for where, schema in declared:
        for key, (kind, optional, default) in schema.items():
            assert kind in cli._KINDS, f"{where}.{key}: {kind}"
            if default is not cli._REQUIRED:
                value = json.loads(json.dumps(default))
                cli._check_field(f"{where}.{key}", value, kind, optional)


def test_every_test_field_declares_its_range():
    # a bare int or list of ints has no range, so a new field must choose
    # Count, Increasing or a new kind, and the CLI never reads a field's name
    for name, schema in cli._SCHEMAS.items():
        for key, (kind, _, _) in schema.items():
            assert kind not in ("int", "tuple[int, ...]"), f"tests.{name}.{key}: bare {kind}"


def test_a_tests_fields_are_the_defaulted_parameters_of_its_function():
    # keyword-only parameters are for library callers and never config fields
    assert "system_id" not in cli._SCHEMAS["classify"]
    assert "word" not in cli._SCHEMAS["support-counts"]
    # so a library call and a bare config agree on every classify default
    bare = {"schema_version": 1, "tests": [{"name": "classify"}],
            "systems": [{"id": "alt", "generator": "periodic",
                         "params": {"word": "01", "length": 65536}}]}
    fields = cli.validate_config(bare)["tests"][0]
    del fields["name"]
    report = sl.classify_hierarchy(sl.periodic("01", 65536))
    assert report.params == {**fields, "modulus_depths": [2, 4]}


def test_support_counts_requires_a_nested_block_system():
    cfg = tiny_config()
    cfg["tests"] = [{"name": "support-counts"}]
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(cfg)
    assert "nested-block" in err.value.message


@pytest.mark.parametrize("params, levels, i_max", [
    ({"i_max": 3}, [1, 9], 3),
    ({"i_max": 1}, None, 1),  # the default levels, 1 to i_max - 1, are empty
    ({}, [1, 7], 6),  # the builder's default i_max
], ids=["past-i_max", "empty-default", "past-default-i_max"])
def test_support_counts_levels_past_the_systems_i_max_are_rejected_before_any_build(
    tmp_path, capsys, params, levels, i_max
):
    nb = {"id": "nb", "generator": "nested-block", "params": params}
    cfg = tiny_config(systems=[nb], tests=[
        {"name": "entropy", "lengths": [2]}, {"name": "support-counts", "levels": levels},
    ])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert capsys.readouterr().err == (
        f"config error: tests[1].levels: on system 'nb' (i_max {i_max}): need levels"
        f" in [1, {i_max}]; the default is 1 to i_max - 1\n"
    )
    assert not (tmp_path / "res").exists()
    cfg["tests"][1]["levels"] = list(range(1, i_max + 1))  # level i_max is the built block
    assert cli.validate_config(cfg)["tests"][1]["levels"] == cfg["tests"][1]["levels"]


def test_a_repeated_test_on_one_system_is_rejected(tmp_path, capsys):
    # both would write series/alt__diam-mean-avg.csv and verdicts/alt__diam-mean-avg.json
    cfg = tiny_config()
    cfg["tests"] = [
        {"name": "diam-mean-avg", "horizon": 256},
        {"name": "diam-mean-avg", "horizon": 128},
    ]
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(cfg)
    assert err.value.path == "tests[1]"
    assert "tests[0]" in err.value.message and "'alt'" in err.value.message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert "config error: tests[1]: repeats tests[0]" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()

    # a test with no system filter overlaps every system
    two = tiny_config()
    two["systems"].append(
        {"id": "zeros", "generator": "periodic", "params": {"word": "0", "length": 2048}}
    )
    two["tests"] = [
        {"name": "entropy", "system": "zeros", "lengths": [2]},
        {"name": "entropy", "lengths": [4]},
    ]
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(two)
    assert err.value.path == "tests[1]" and "'zeros'" in err.value.message

    # the same name on disjoint systems, or different names on one system, stay valid
    two["tests"][1]["system"] = "alt"
    two["tests"].append({"name": "diam-mean-density", "system": "alt", "horizon": 128})
    assert len(cli.validate_config(two)["tests"]) == 3


@pytest.mark.parametrize("sid", ["../escaped", "a/b", "nul\0id", "a\ud800"])
def test_a_system_id_that_is_not_a_file_name_is_rejected_before_any_build(
    tmp_path, capsys, sid
):
    # the id names verdicts/<id>__<test>.json and series/<id>__<test>.csv
    cfg = tiny_config()
    cfg["systems"][0]["id"] = sid
    path = tmp_path / "run" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: systems[0].id: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "run"]


def test_a_system_id_too_long_for_its_file_names_is_rejected_before_any_build(
    tmp_path, capsys
):
    # the longest name is verdicts/<id>__diam-mean-sensitivity.json: 28 bytes after the id
    cfg = tiny_config()
    cfg["tests"] = [{"name": "diam-mean-sensitivity", "depth": 2, "horizon": 64, "depth_cap": 8}]
    cfg["systems"][0]["id"] = "é" * 114  # 228 bytes as UTF-8
    path = tmp_path / "run" / "cfg.json"
    path.parent.mkdir()
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("config error: systems[0].id: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cfg.json", "run"]

    cfg["systems"][0]["id"] = "é" * 113 + "a"  # 227 bytes
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 0
    assert (path.parent / "out" / "verdicts" / f"{'é' * 113}a__diam-mean-sensitivity.json").exists()


SRC = Path(cli.__file__).resolve().parent.parent


def run_in_the_c_locale(cwd, *args):
    """`python3 -X utf8=0 -m shiftlab.cli ...` under LC_ALL=C: ASCII is the file-system
    encoding and the locale's, so only an explicit encoding reads or writes UTF-8."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
    env.update(LC_ALL="C", PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-X", "utf8=0", *args], cwd=cwd, env=env,
                          capture_output=True, timeout=300)


@pytest.fixture(scope="module")
def c_locale_is_ascii(tmp_path_factory):
    done = run_in_the_c_locale(
        tmp_path_factory.mktemp("locale"), "-c",
        "import locale, sys; print(sys.getfilesystemencoding(), locale.getpreferredencoding(False))",
    )
    if done.stdout.split() != [b"ascii", b"ANSI_X3.4-1968"]:
        pytest.skip(f"LC_ALL=C is not ASCII on this platform: {done.stdout!r}")


@pytest.mark.parametrize("spelling", ["utf-8", "escaped"])
def test_an_id_the_file_system_encoding_cannot_hold_is_refused_before_any_build(
    tmp_path, c_locale_is_ascii, spelling
):
    """The config is read as UTF-8 whatever the locale, and an id that names no
    file under it is a config error at its path, not a failed write after the jobs."""
    cfg = tiny_config()
    cfg["systems"][0]["id"] = "périodique-σ"
    text = json.dumps(cfg, ensure_ascii=spelling == "escaped")
    assert ("\\u00e9" in text) == (spelling == "escaped")
    (tmp_path / "cfg.json").write_bytes(text.encode())
    done = run_in_the_c_locale(tmp_path, "-m", "shiftlab.cli", "run", "cfg.json")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(b"config error: systems[0].id: must be encodable in the"
                                  b" file-system encoding (ascii)")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_an_output_dir_the_file_system_encoding_cannot_hold_is_refused_before_any_build(
    tmp_path, c_locale_is_ascii
):
    (tmp_path / "cfg.json").write_bytes(json.dumps(tiny_config(output_dir="résultats")).encode())
    done = run_in_the_c_locale(tmp_path, "-m", "shiftlab.cli", "run", "cfg.json")
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(b"config error: output_dir: must be encodable")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_a_run_in_the_c_locale_writes_the_bytes_of_a_utf8_run(tmp_path, c_locale_is_ascii):
    """Every artifact is written as UTF-8 bytes, so the locale changes no byte but the stamp."""
    cfg = tiny_config(tests=tiny_config()["tests"] + [
        {"name": "stable-in-mean", "horizon": 256, "depth_cap": 16},
        {"name": "mean-eq-modulus", "depths": [2], "horizon": 256, "depth_cap": 16},
    ])
    (tmp_path / "cfg.json").write_bytes(json.dumps(cfg).encode())
    done = run_in_the_c_locale(tmp_path, "-m", "shiftlab.cli", "run", "cfg.json",
                               "--out-dir", "c-locale")
    assert done.returncode == 0, done.stderr
    here = cli.run_config(cfg, tmp_path, out_dir_override="here")
    there = tmp_path / "c-locale"
    files = sorted(str(p.relative_to(here)) for p in here.rglob("*") if p.is_file())
    assert files == sorted(str(p.relative_to(there)) for p in there.rglob("*") if p.is_file())
    assert len(files) == 9  # two series CSVs, five verdicts, the report and the config
    for rel in files:
        a, b = (here / rel).read_bytes(), (there / rel).read_bytes()
        if rel == "report.csv":
            a, b = a.split(b"\n", 1)[1], b.split(b"\n", 1)[1]
        elif rel == "config.resolved.json":
            a, b = a.replace(str(here).encode(), b""), b.replace(str(there).encode(), b"")
        assert a == b, rel


# ---------------------------------------------------------------------------
# report generation


def test_run_config_writes_a_sorted_report(tmp_path):
    out = cli.run_config(tiny_config(), tmp_path)
    assert out == tmp_path / "out"
    lines, rows = read_report(out)
    assert lines[1] == "system,test,params,statistic,bias,verdict"
    keys = [(r["system"], r["test"]) for r in rows]
    assert keys == sorted(keys)
    tests = {r["test"] for r in rows}
    assert tests == {"diam-mean-avg", "entropy/n-2", "entropy/n-4", "recurrence"}
    avg = next(r for r in rows if r["test"] == "diam-mean-avg")
    assert avg["verdict"] == "holds-at-horizon"
    assert float(avg["statistic"]) == 0.0
    json.loads(avg["params"])
    rec = next(r for r in rows if r["test"] == "recurrence")
    assert rec["verdict"] == "found"
    assert float(rec["statistic"]) == 2.0
    assert (out / "series" / "alt__diam-mean-avg.csv").exists()
    assert (out / "verdicts" / "alt__diam-mean-avg.json").exists()
    assert (out / "verdicts" / "alt__entropy.json").exists()
    assert (out / "config.resolved.json").exists()
    verdict = json.loads((out / "verdicts" / "alt__diam-mean-avg.json").read_text())
    assert verdict["evidence_ref"] == "series/alt__diam-mean-avg.csv"


def test_run_config_applies_overrides(tmp_path):
    cfg = tiny_config()
    cfg["tests"] = [{"name": "diam-mean-avg", "horizon": 256, "depth_cap": 16}]
    out = cli.run_config(
        cfg, tmp_path, horizon_override=128, out_dir_override="elsewhere"
    )
    assert out == tmp_path / "elsewhere"
    _, rows = read_report(out)
    params = json.loads(rows[0]["params"])
    assert params["horizon"] == 128


def test_integer_numbers_reach_their_runner_as_floats(tmp_path):
    # a float field, or a Share such as gamma, given as 1 is reported as 1.0
    cfg = tiny_config(tests=[{"name": "frequent-stability", **SMALL, "epsilon": 1, "gamma": 1}])
    _, rows = read_report(cli.run_config(cfg, tmp_path))
    assert '"epsilon":1.0,"gamma":1.0' in rows[0]["params"]


def test_horizon_and_depth_cap_flags_are_validated_with_the_config(tmp_path, capsys):
    cfg = tiny_config(tests=[
        {"name": "entropy", "lengths": [2, 4], "limit": 1024},
        {"name": "banach-diam-mean", **SMALL, "window_lengths": [10, 100]},
    ])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    # the overridden horizon fails the window check before the entropy job runs
    res = tmp_path / "res"
    assert cli.main(["run", str(path), "--horizon", "64", "--out-dir", str(res)]) == 2
    assert capsys.readouterr().err == (
        "config error: tests[1].window_lengths: window length 100 exceeds horizon 64\n"
    )
    assert not res.exists()

    argv = ["run", str(path), "--horizon", "128", "--depth-cap", "8", "--out-dir", str(res)]
    assert cli.main(argv) == 0
    entropy, banach = json.loads((res / "config.resolved.json").read_text())["tests"]
    assert (banach["horizon"], banach["depth_cap"]) == (128, 8)
    assert "horizon" not in entropy and "depth_cap" not in entropy  # not in its schema


def test_run_config_honors_system_filters(tmp_path):
    cfg = tiny_config()
    cfg["systems"].append(
        {"id": "alt3", "generator": "periodic", "params": {"word": "001", "length": 2048}}
    )
    cfg["tests"] = [
        {"name": "diam-mean-avg", "system": "alt3", "horizon": 256, "depth_cap": 16}
    ]
    out = cli.run_config(cfg, tmp_path)
    _, rows = read_report(out)
    assert {r["system"] for r in rows} == {"alt3"}


@pytest.mark.parametrize("threads", [0, 2, 4])
def test_run_config_runs_jobs_on_one_thread_only(tmp_path, threads):
    with pytest.raises(ValueError, match="threads must be 1"):
        cli.run_config(tiny_config(), tmp_path, threads=threads)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cache_dir", [None, "/tmp/c"])
def test_a_config_that_sets_cache_dir_is_rejected(tmp_path, capsys, cache_dir):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(cache_dir=cache_dir)))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == "config error: cache_dir: unknown field\n"
    assert not (tmp_path / "out").exists()


def test_there_is_no_cache_dir_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["corpus", "--cache-dir", "x"])
    assert exit_info.value.code == 2
    assert "--cache-dir" in capsys.readouterr().err


SERIES_TEST_NAMES = [
    "diam-mean-avg", "diam-mean-density", "banach-diam-mean", "stable-in-mean",
    "frequent-stability",
]


def test_series_tests_on_one_cylinder_build_its_series_once(tmp_path, monkeypatch):
    built = []
    real = cli.diam_series

    def counting(x, word, horizon, *args, **kwargs):
        built.append((x.generator_id, horizon))
        return real(x, word, horizon, *args, **kwargs)

    monkeypatch.setattr(cli, "diam_series", counting)
    systems = {
        "coin": {"generator": "full-shift",
                 "params": {"length": 4096, "alphabet_size": 2, "mode": "random", "seed": 3}},
        "alt": {"generator": "periodic", "params": {"word": "01", "length": 2048}},
    }
    cfg = tiny_config(
        systems=[{"id": sid, **spec} for sid, spec in systems.items()],
        tests=[{"name": n, "system": "coin", "horizon": 256, "depth_cap": 16}
               for n in SERIES_TEST_NAMES]
        + [{"name": "diam-mean-avg", "system": "alt", "horizon": 128, "depth_cap": 16}],
    )
    out = cli.run_config(cfg, tmp_path)
    assert sorted(built) == [("full-shift", 256), ("periodic", 128)]

    def expected_csv(sid, horizon):
        x = generate.build(systems[sid])
        return naive_series_csv(sl.diam_series(x, x.prefix(2), horizon, 16).first_disagreement, 16)

    coin, alt = expected_csv("coin", 256), expected_csv("alt", 128)
    assert "<=" not in coin and alt.count("<=") == 128  # both kinds of line are checked
    written = {p.name: p.read_text() for p in (out / "series").iterdir()}
    assert written == {
        **{f"coin__{n}.csv": coin for n in SERIES_TEST_NAMES}, "alt__diam-mean-avg.csv": alt
    }


def test_a_cylinders_five_tests_build_one_histogram_and_its_densities_read_no_values(
    tmp_path, monkeypatch
):
    """The CSV, the censored fractions and both densities share one `gap_counts`;
    only the average reads `values()`."""
    histograms, reads = [], []
    real_counts, real_values = sl.DiamSeries.gap_counts.func, sl.DiamSeries.values

    def counting(series):
        histograms.append(series.horizon)
        return real_counts(series)

    spy = functools.cached_property(counting)
    spy.__set_name__(sl.DiamSeries, "gap_counts")
    monkeypatch.setattr(sl.DiamSeries, "gap_counts", spy)
    monkeypatch.setattr(sl.DiamSeries, "values", lambda s: reads.append(s) or real_values(s))
    coin = {"generator": "full-shift",
            "params": {"length": 4096, "alphabet_size": 2, "mode": "random", "seed": 3}}
    cfg = tiny_config(systems=[{"id": "coin", **coin}],
                      tests=[{"name": n, "horizon": 256, "depth_cap": 16}
                             for n in SERIES_TEST_NAMES])
    cli.run_config(cfg, tmp_path)
    assert histograms == [256] and len(reads) == 1

    reads.clear()
    x = generate.build(coin)
    series = sl.diam_series(x, x.prefix(2), 256, 16)
    for test in (sl.diam_mean_density_test, sl.frequent_stability_test):
        test(series)
    assert reads == []


# ---------------------------------------------------------------------------
# series CSV text


def naive_series_csv(first_disagreement, depth_cap):
    """The series CSV one f-string per line: the oracle of `cli._series_csv`."""
    cap = f"<={1.0 / depth_cap!r}"
    return "i,diam\n" + "".join(
        f"{i},{1.0 / g!r}\n" if g else f"{i},{cap}\n"
        for i, g in enumerate(first_disagreement.tolist(), start=1)
    )


def series_of_gaps(first_disagreement, depth_cap):
    """The offsets as a two-point `DiamSeries`, the argument of `cli._series_csv`."""
    word = sl.FiniteWord.from_digits("0", 2)
    return sl.DiamSeries(word, len(first_disagreement), depth_cap, first_disagreement, 2)


def series_csv_text(first_disagreement, depth_cap):
    """The text of `cli._series_csv`'s byte chunks for the offsets, joined."""
    return b"".join(cli._series_csv(series_of_gaps(first_disagreement, depth_cap))).decode()


def assert_same_text(got, want):
    """Fail with the first differing line; pytest's own diff of megabytes does not finish."""
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        first = next(((i, a, b) for i, (a, b) in enumerate(pairs) if a != b), None)
        pytest.fail(f"first differing line (index, got, want): {first}, lengths "
                    f"{len(got)} and {len(want)}")


HORIZONS_ACROSS_EDGES = [
    10**k + d for k in range(1, 6) for d in (-1, 0, 1)
] + [19_999, 20_000, 20_001, 120_001]  # powers of ten, _ROWS and _CHUNK lines


def sparse_gaps(draw, rng, horizon, depth_cap):
    """One dominant value and a handful of odd rows; with g = 1 and 2 (cells
    1.0 and 0.5) an odd cell can share the dominant cell's width."""
    values = st.integers(0, min(depth_cap, 8))
    gaps = np.full(horizon, draw(values))
    odd = rng.choice(horizon, size=min(horizon, draw(st.integers(0, 6))), replace=False)
    gaps[odd] = rng.choice(draw(st.lists(values, min_size=1, max_size=3)), odd.size)
    return gaps


@st.composite
def gap_series(draw, horizons=st.integers(1, 300) | st.sampled_from(HORIZONS_ACROSS_EDGES)):
    depth_cap = draw(st.sampled_from([1, 2, 3, 7, 64, 1000, 10**6]))
    horizon = draw(horizons)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        gaps = sparse_gaps(draw, rng, horizon, depth_cap)
    else:
        censored = draw(st.sampled_from([0.0, 0.5, 1.0]))
        gaps = rng.integers(1, depth_cap + 1, horizon)
        gaps[rng.random(horizon) < censored] = 0
    return gaps.astype(np.int32), depth_cap


@settings(max_examples=60, deadline=None)
@given(gap_series())
def test_series_csv_equals_one_f_string_per_line(case):
    gaps, depth_cap = case
    assert_same_text(series_csv_text(gaps, depth_cap), naive_series_csv(gaps, depth_cap))


@settings(max_examples=60, deadline=None)
@given(gap_series(st.integers(1, 2500) | st.sampled_from([10_001, 200_001])), st.integers(1, 64))
def test_series_csv_in_small_pieces_equals_one_f_string_per_line(case, rows):
    """With _ROWS small, and often no divisor of _CHUNK or a power of ten,
    most pieces end at a _ROWS edge, and pieces of one width sit beside
    mixed ones."""
    gaps, depth_cap = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_ROWS", rows + gaps.size // 500)
        text = series_csv_text(gaps, depth_cap)
    assert_same_text(text, naive_series_csv(gaps, depth_cap))


@pytest.mark.parametrize("odd", [[2], [3], [1, 2, 3]])
def test_series_csv_of_a_sparse_series_past_a_million_lines(odd):
    """Indices gain their seventh digit at line 10^6: the template behind the
    high digits is made again one digit wider. Odd rows sit at that edge, at
    _CHUNK edges and in the first chunk."""
    gaps = np.ones(1_000_123, np.int32)
    at = np.array([5, 99_999, 100_000, 500_001, 999_999, 1_000_000, 1_000_100])
    gaps[at - 1] = np.resize(odd, at.size)
    assert_same_text(series_csv_text(gaps, 64), naive_series_csv(gaps, 64))


@pytest.mark.parametrize("horizon, depth_cap", [
    (h, cap) for h in (1, 9, 10, 99_999, 100_000, 100_001) for cap in (1, 64, 10**6)
] + [(1_000_001, 64)]  # 7-digit indices over eleven chunks
    + [(h, 64) for h in (19_999, 20_000, 20_001, 120_001)])  # piece edges
def test_series_csv_at_chunk_edges_and_digit_widths(horizon, depth_cap):
    gaps = np.random.default_rng(horizon).integers(0, depth_cap + 1, horizon).astype(np.int32)
    assert_same_text(series_csv_text(gaps, depth_cap), naive_series_csv(gaps, depth_cap))


def test_series_csv_of_an_insufficient_series_is_all_censored():
    x = sl.periodic("01", 1 << 17)
    series = sl.diam_series(x, sl.FiniteWord.from_digits("00", 2), 100_001, 64)
    assert series.insufficient and not series.first_disagreement.any()
    text = series_csv_text(series.first_disagreement, 64)
    assert_same_text(text, naive_series_csv(series.first_disagreement, 64))
    assert text.count(",<=0.015625\n") == 100_001


def test_series_csv_peak_memory_is_twice_its_text(nested6_series):
    """Only one chunk's records are alive at a time, and a consumer that
    writes each chunk out never holds the text: consuming the 21.7 MB of the
    nested-6 series' chunks peaks at one chunk and the index tables.
    """
    gaps = nested6_series.first_disagreement
    tracemalloc.start()
    try:
        size = sum(len(chunk) for chunk in cli._series_csv(nested6_series))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20
    assert gaps.size == 1_198_744
    text = series_csv_text(gaps, 64)
    assert len(text) == size > 20 << 20
    assert_same_text(text, naive_series_csv(gaps, 64))


def five_series_config():
    """The five series tests on one nested-block cylinder, and its CSV's bytes."""
    nested = {"generator": "nested-block", "params": {"i_max": 4}}
    cfg = tiny_config(
        systems=[{"id": "nb", **nested}],
        tests=[{"name": n, "horizon": 2500, "depth_cap": 16} for n in SERIES_TEST_NAMES],
    )
    x = generate.build(nested)
    gaps = sl.diam_series(x, x.prefix(2), 2500, 16).first_disagreement
    return cfg, naive_series_csv(gaps, 16).encode()


def test_a_cylinders_five_series_files_are_its_csv_bytes_over_older_files(tmp_path, monkeypatch):
    """The chunks of a cylinder's CSV are made once and streamed to its first file;
    the other four names are hard links to that file's inode. A rerun into a
    directory of older, longer files replaces each of them with the same bytes on
    a fresh inode, so an older file that the rerun does not produce keeps its
    bytes even where it shares an inode with a replaced one."""
    made = []
    real = cli._series_csv

    def counting(series):
        made.append(series.horizon)
        yield from real(series)

    monkeypatch.setattr(cli, "_series_csv", counting)
    monkeypatch.setattr(cli, "_ROWS", 1000)  # five pieces: 9, 90, 900, 1000 and 501 lines
    cfg, want = five_series_config()
    assert 1000 < want.count(b"<=") < 2500  # mostly the censored cell, and 16 others

    older, stale = tmp_path / "older", b"9" * (2 * len(want))
    for sub in ("series", "verdicts"):
        (older / sub).mkdir(parents=True)
    for n in SERIES_TEST_NAMES:
        (older / "verdicts" / f"nb__{n}.json").write_bytes(stale)
    # an older run's series files: one inode under the five names, and under one
    # name this config does not produce (a system since dropped from it)
    gone = older / "series" / "gone__diam-mean-avg.csv"
    gone.write_bytes(stale)
    for n in SERIES_TEST_NAMES:
        os.link(gone, older / "series" / f"nb__{n}.csv")
    for out_name in ("fresh", "older"):
        made.clear()
        out = cli.run_config(cfg, tmp_path, out_dir_override=out_name)
        assert made == [2500]
        paths = [out / "series" / f"nb__{n}.csv" for n in SERIES_TEST_NAMES]
        assert [p.read_bytes() == want for p in paths] == [True] * 5
        assert len({p.stat().st_ino for p in paths}) == 1 and paths[0].stat().st_nlink == 5
        assert not any(map(Path.is_symlink, paths))
    assert gone.read_bytes() == stale
    for n in SERIES_TEST_NAMES:
        rel = f"verdicts/nb__{n}.json"
        assert (tmp_path / "older" / rel).read_bytes() == (tmp_path / "fresh" / rel).read_bytes()


def test_a_filesystem_without_hard_links_gets_five_copies(tmp_path, monkeypatch):
    """Where `os.link` is refused, the other four series files are copies of the
    first: the same bytes on five inodes."""
    def refuse(src, dst):
        raise OSError(errno.EPERM, "Operation not permitted", str(dst))

    monkeypatch.setattr(cli.os, "link", refuse)
    cfg, want = five_series_config()
    out = cli.run_config(cfg, tmp_path)
    paths = [out / "series" / f"nb__{n}.csv" for n in SERIES_TEST_NAMES]
    assert [p.read_bytes() == want for p in paths] == [True] * 5
    assert len({p.stat().st_ino for p in paths}) == 5 and not any(map(Path.is_symlink, paths))


def test_a_rerun_leaves_a_hard_linked_snapshot_of_the_older_run_as_it_was(tmp_path):
    """Every output file is written on a fresh inode, so a snapshot made with
    `cp -al` (or `rsync --link-dest`) keeps the older run's bytes."""
    out = cli.run_config(tiny_config(), tmp_path)
    snapshot, kept = tmp_path / "snapshot", {}
    snapshot.mkdir()
    for path in sorted(out.rglob("*")):
        rel = path.relative_to(out)
        if path.is_dir():
            (snapshot / rel).mkdir(parents=True)
        else:
            os.link(path, snapshot / rel)
            kept[rel] = path.read_bytes()
    assert {rel.parts[0] for rel in kept} == {
        "series", "verdicts", "report.csv", "config.resolved.json"
    }
    changed = tiny_config()
    changed["tests"][0]["horizon"] = 128
    cli.run_config(changed, tmp_path)
    assert {rel: (snapshot / rel).read_bytes() for rel in kept} == kept
    rewritten = ["series/alt__diam-mean-avg.csv", "verdicts/alt__diam-mean-avg.json",
                 "report.csv", "config.resolved.json"]
    assert [(out / rel).read_bytes() != kept[Path(rel)] for rel in rewritten] == [True] * 4


def test_reruns_are_identical_except_the_stamp(tmp_path):
    cfg = tiny_config()
    one = cli.run_config(cfg, tmp_path, out_dir_override="one")
    two = cli.run_config(cfg, tmp_path, out_dir_override="two")
    for rel in ("report.csv",):
        a = (one / rel).read_text().splitlines()
        b = (two / rel).read_text().splitlines()
        assert a[1:] == b[1:]
    for sub in ("series", "verdicts"):
        names_a = sorted(p.name for p in (one / sub).iterdir())
        names_b = sorted(p.name for p in (two / sub).iterdir())
        assert names_a == names_b
        for name in names_a:
            assert (one / sub / name).read_bytes() == (two / sub / name).read_bytes()


def test_classify_rows_cover_rungs_battery_and_context(tmp_path):
    cfg = tiny_config()
    cfg["tests"] = [
        {"name": "classify", "base_depth": 2, "sensitivity_depth": 2,
         "horizon": 256, "depth_cap": 16, "occ_cap": 128, "pair_budget": 2,
         "entropy_lengths": [2, 4]},
    ]
    out = cli.run_config(cfg, tmp_path)
    _, rows = read_report(out)
    tests = {r["test"] for r in rows}
    assert "classify/ladder-diam-mean-equicontinuity" in tests
    assert "classify/ladder-mean-eq-and-frequent-stability" in tests
    assert "classify/ladder-mean-equicontinuity" in tests
    assert "classify/diam-mean-sensitivity" in tests
    assert "classify/entropy" in tests
    assert "classify/mean-equicontinuity" in tests


def test_support_counts_rows_report_exact_ratios(tmp_path):
    cfg = {
        "schema_version": 1,
        "systems": [{"id": "nb", "generator": "nested-block", "params": {"i_max": 4}}],
        "tests": [{"name": "support-counts", "levels": [1, 2]}],
        "output_dir": "out",
    }
    out = cli.run_config(cfg, tmp_path)
    _, rows = read_report(out)
    assert [r["test"] for r in rows] == ["support-counts/level-1", "support-counts/level-2"]
    for r in rows:
        assert r["verdict"] == "reported"
        assert 0.0 < float(r["statistic"]) <= 1.0
    assert (out / "series" / "nb__support-counts.csv").exists()


CURVE_ARTIFACTS = {
    "mean-eq-modulus": """{
  "bias_bound": 0.125,
  "depth_cap": 8,
  "depths": [
    2,
    4,
    200
  ],
  "horizon": 64,
  "pair_counts": [
    2,
    2,
    0
  ],
  "shortfall": [
    false,
    false,
    true
  ],
  "statistics": [
    0.07371651785714285,
    0.07371651785714285,
    null
  ]
}
""",
    "entropy": """{
  "counts": [
    7,
    9
  ],
  "lengths": [
    2,
    3
  ],
  "limit": 200,
  "trend": "decreasing",
  "values": [
    0.9729550745276566,
    0.7324081924454066
  ]
}
""",
    "support-counts": """{
  "counts": [
    5,
    16
  ],
  "horizons": [
    16,
    182
  ],
  "levels": [
    1,
    2
  ],
  "ratios": [
    [
      5,
      16
    ],
    [
      8,
      91
    ]
  ],
  "sample_count": 5,
  "word": "11"
}
""",
}


def test_curve_artifacts_keep_their_bytes(tmp_path):
    # every field of the curve, the derived shortfall and bias bound, exact ratios as pairs
    cfg = {
        "schema_version": 1,
        "systems": [{"id": "nb", "generator": "nested-block", "params": {"i_max": 3}}],
        "tests": [
            {"name": "mean-eq-modulus", "depths": [2, 4, 200], "horizon": 64, "depth_cap": 8,
             "pair_budget": 2},
            {"name": "entropy", "lengths": [2, 3], "limit": 200},
            {"name": "support-counts", "levels": [1, 2], "occ_cap": 8},
        ],
        "output_dir": "out",
    }
    out = cli.run_config(cfg, tmp_path)
    for name, text in CURVE_ARTIFACTS.items():
        assert (out / "verdicts" / f"nb__{name}.json").read_text() == text, name


# Every test name on a periodic and a nested-block system, with the report rows
# and the digests of the series and verdict files it writes.
EVERY_TEST_CONFIG = {
    "schema_version": 1,
    "systems": [
        {"id": "alt", "generator": "periodic", "params": {"word": "001", "length": 2048}},
        {"id": "nb", "generator": "nested-block", "params": {"i_max": 3}},
    ],
    "tests": [
        {"name": "diam-mean-avg", "horizon": 256, "depth_cap": 16},
        {"name": "diam-mean-density", "horizon": 256, "depth_cap": 16},
        {"name": "banach-diam-mean", "horizon": 256, "depth_cap": 16, "window_lengths": [16, 64]},
        {"name": "stable-in-mean", "horizon": 256, "depth_cap": 16, "word": "01"},
        {"name": "frequent-stability", "horizon": 256, "depth_cap": 16},
        {"name": "diam-mean-sensitivity", "depth": 2, "horizon": 64, "depth_cap": 8},
        {"name": "mean-eq-modulus", "depths": [2, 4], "horizon": 64, "depth_cap": 8,
         "pair_budget": 2},
        {"name": "support-counts", "system": "nb", "levels": [1, 2], "occ_cap": 8},
        {"name": "entropy", "lengths": [2, 3], "limit": 200},
        {"name": "recurrence", "powers": 1, "epsilon_depth": 2, "horizon": 64, "depth_cap": 16},
        {"name": "classify", "sensitivity_depth": 2, "horizon": 256, "depth_cap": 16,
         "occ_cap": 128, "pair_budget": 2, "entropy_lengths": [2, 4]},
    ],
    "output_dir": "out",
}
EVERY_TEST_ROWS = [
    'alt,banach-diam-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""window_lengths"":[16,64],""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/banach-diam-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""window_lengths"":[4,8,16,32,64,128,256],""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/diam-mean-avg,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/diam-mean-density,"{""depth"":2,""depth_cap"":16,""eta"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/diam-mean-sensitivity,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word_count"":3}",0.0,0.0625,fails-at-horizon',
    'alt,classify/entropy,"{""lengths"":[2,4],""limit"":2048,""trend"":""decreasing""}",0.27465307216702745,0.0,reported',
    'alt,classify/frequent-stability,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""gamma"":0.25,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/ladder-diam-mean-equicontinuity,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,classify/ladder-mean-eq-and-frequent-stability,"{""depth"":4,""epsilon"":0.1,""gamma"":0.25}",,0.0625,holds-at-horizon',
    'alt,classify/ladder-mean-equicontinuity,"{""depth"":4,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""pair_budget"":2}",0.0,0.0625,holds-at-horizon',
    'alt,classify/mean-equicontinuity,"{""depth"":4,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""pair_budget"":2}",0.0,0.0625,holds-at-horizon',
    'alt,classify/stable-in-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,diam-mean-avg,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,diam-mean-density,"{""depth"":2,""depth_cap"":16,""eta"":0.1,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,diam-mean-sensitivity,"{""depth"":2,""depth_cap"":8,""epsilon"":0.1,""horizon"":64,""word_count"":3}",0.0,0.125,fails-at-horizon',
    'alt,entropy/n-2,"{""count"":3,""length"":2,""limit"":200,""trend"":""decreasing""}",0.5493061443340549,0.0,reported',
    'alt,entropy/n-3,"{""count"":3,""length"":3,""limit"":200,""trend"":""decreasing""}",0.3662040962227033,0.0,reported',
    'alt,frequent-stability,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""gamma"":0.25,""horizon"":256,""word"":""00""}",0.0,0.0625,holds-at-horizon',
    'alt,mean-eq-modulus/m-2,"{""depth"":2,""depth_cap"":8,""horizon"":64}",0.0,0.125,reported',
    'alt,mean-eq-modulus/m-4,"{""depth"":4,""depth_cap"":8,""horizon"":64}",0.0,0.125,reported',
    'alt,recurrence,"{""epsilon_depth"":2,""horizon"":64,""powers"":1}",3.0,,found',
    'alt,stable-in-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""01""}",0.0,0.0625,holds-at-horizon',
    'nb,banach-diam-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""window_lengths"":[16,64],""word"":""11""}",0.501242334054834,0.0625,fails-at-horizon',
    'nb,classify/banach-diam-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""window_lengths"":[4,8,16,32,64,128,256],""word"":""11""}",1.0000000000000002,0.0625,fails-at-horizon',
    'nb,classify/diam-mean-avg,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""11""}",0.08860918270097957,0.0625,holds-at-horizon',
    'nb,classify/diam-mean-density,"{""depth"":2,""depth_cap"":16,""eta"":0.1,""horizon"":256,""word"":""11""}",0.1796875,0.0625,fails-at-horizon',
    'nb,classify/diam-mean-sensitivity,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word_count"":7}",0.08984375,0.0625,fails-at-horizon',
    'nb,classify/entropy,"{""lengths"":[2,4],""limit"":2742,""trend"":""decreasing""}",0.6597643324038146,0.0,reported',
    'nb,classify/frequent-stability,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""gamma"":0.25,""horizon"":256,""word"":""11""}",0.1796875,0.0625,holds-at-horizon',
    'nb,classify/ladder-diam-mean-equicontinuity,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""11""}",0.08860918270097957,0.0625,holds-at-horizon',
    'nb,classify/ladder-mean-eq-and-frequent-stability,"{""depth"":4,""epsilon"":0.1,""gamma"":0.25}",,0.0625,holds-at-horizon',
    'nb,classify/ladder-mean-equicontinuity,"{""depth"":4,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""pair_budget"":2}",0.0813761813273532,0.0625,holds-at-horizon',
    'nb,classify/mean-equicontinuity,"{""depth"":4,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""pair_budget"":2}",0.0813761813273532,0.0625,holds-at-horizon',
    'nb,classify/stable-in-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""11""}",0.34534225034225036,0.0625,fails-at-horizon',
    'nb,diam-mean-avg,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""11""}",0.08860918270097957,0.0625,holds-at-horizon',
    'nb,diam-mean-density,"{""depth"":2,""depth_cap"":16,""eta"":0.1,""horizon"":256,""word"":""11""}",0.1796875,0.0625,fails-at-horizon',
    'nb,diam-mean-sensitivity,"{""depth"":2,""depth_cap"":8,""epsilon"":0.1,""horizon"":64,""word_count"":8}",0.15625,0.125,holds-at-horizon',
    'nb,entropy/n-2,"{""count"":7,""length"":2,""limit"":200,""trend"":""decreasing""}",0.9729550745276566,0.0,reported',
    'nb,entropy/n-3,"{""count"":9,""length"":3,""limit"":200,""trend"":""decreasing""}",0.7324081924454066,0.0,reported',
    'nb,frequent-stability,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""gamma"":0.25,""horizon"":256,""word"":""11""}",0.1796875,0.0625,holds-at-horizon',
    'nb,mean-eq-modulus/m-2,"{""depth"":2,""depth_cap"":8,""horizon"":64}",0.07371651785714285,0.125,reported',
    'nb,mean-eq-modulus/m-4,"{""depth"":4,""depth_cap"":8,""horizon"":64}",0.07371651785714285,0.125,reported',
    'nb,recurrence,"{""epsilon_depth"":2,""horizon"":64,""powers"":1}",14.0,,found',
    'nb,stable-in-mean,"{""depth"":2,""depth_cap"":16,""epsilon"":0.1,""horizon"":256,""word"":""01""}",,0.0625,inconclusive',
    'nb,support-counts/level-1,"{""count"":5,""horizon"":16,""level"":1,""samples"":5,""word"":""11""}",0.3125,0.0,reported',
    'nb,support-counts/level-2,"{""count"":16,""horizon"":182,""level"":2,""samples"":5,""word"":""11""}",0.08791208791208792,0.0,reported',
]
EVERY_TEST_DIGESTS = {
    "series/alt__banach-diam-mean.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/alt__diam-mean-avg.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/alt__diam-mean-density.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/alt__frequent-stability.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/alt__stable-in-mean.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/nb__banach-diam-mean.csv":
        "33e286b0cd1d8d911171468ef7b2c8d51971b71461d9147cb4271fe8ea64eb52",
    "series/nb__diam-mean-avg.csv":
        "33e286b0cd1d8d911171468ef7b2c8d51971b71461d9147cb4271fe8ea64eb52",
    "series/nb__diam-mean-density.csv":
        "33e286b0cd1d8d911171468ef7b2c8d51971b71461d9147cb4271fe8ea64eb52",
    "series/nb__frequent-stability.csv":
        "33e286b0cd1d8d911171468ef7b2c8d51971b71461d9147cb4271fe8ea64eb52",
    "series/nb__stable-in-mean.csv":
        "b80dcf2a67d7dd5c7e7f3984a476b20948bd636883f26c5bc9391ec434a88735",
    "series/nb__support-counts.csv":
        "a1c3e46390ab096d79864e80ff09e5ded508ae7ca3f2bfe8d6c899a214fa7535",
    "verdicts/alt__banach-diam-mean.json":
        "a7de38cf44364d0952a1f6794d46a4224bd65e1e62fa293798c4f7aca6849c39",
    "verdicts/alt__classify.json":
        "8491eaf43f5fe2b430151b55944662af66a55e47a21ed49c4a7a216051e251da",
    "verdicts/alt__diam-mean-avg.json":
        "cf8d63ca84cc876729e58dbe525a04cde958b59e4e2a8c9ecf90b029c2244b0e",
    "verdicts/alt__diam-mean-density.json":
        "51ed39653c78dbf939cced07703dbe7ff24afc4608d977e898252c062200c588",
    "verdicts/alt__diam-mean-sensitivity.json":
        "bc7308f49aa94408ecee5c59533af3c1b5cd7e1720d05446527e92a3cec6c6be",
    "verdicts/alt__entropy.json":
        "7ac47f26b45aa1b1bd710e8ecd74f482bacfc5d9d0f1b97fb5b9107f62b1463b",
    "verdicts/alt__frequent-stability.json":
        "c9b274777bfae3978358bb26c8ad59831313872e2460ff76fd26ad788206a53c",
    "verdicts/alt__mean-eq-modulus.json":
        "05c25463fbb50f2036f1d4398169c0a61d5cb42e9391acef5792437bb676def2",
    "verdicts/alt__recurrence.json":
        "10508c46550568098a26db1a3789d0bc4a4a5f91af9c6f52fbc8d14e6690c0de",
    "verdicts/alt__stable-in-mean.json":
        "406a6731a5955c8ae4d27ef8da899dcb8d35526d4f563f4d10a7f6626777a1c9",
    "verdicts/nb__banach-diam-mean.json":
        "ab9be7fad10798d3e98838aae5c8c99272ee808fcd037b46d275a27d82efdc18",
    "verdicts/nb__classify.json":
        "a152dd94f9810ea7ce3c47e67918a27b151920f127004b23837618e94a31d1a5",
    "verdicts/nb__diam-mean-avg.json":
        "4dadb8c71bd9ef0a21504377c6429d7a76930fdd4e4303b28bd6069e7c4104ad",
    "verdicts/nb__diam-mean-density.json":
        "5473607cff2e92fe11b5d8e088960c7dfa0ca31e1ad7916f2e0938856c962042",
    "verdicts/nb__diam-mean-sensitivity.json":
        "8436c28e4ea355a86a72b84343c5ba97b5abcbb310b515c210c97903ec187556",
    "verdicts/nb__entropy.json":
        "80117557de183e7c1bf19aa57581c7ae18a9768b5cdec934e24629e2d0c03f3a",
    "verdicts/nb__frequent-stability.json":
        "d01afdd94bee084d34dbca94a8ccadc1ad29d8aa9c27ee634dcd937645ce0a97",
    "verdicts/nb__mean-eq-modulus.json":
        "de6ca2afa30b4de03de0aefe2a4eb97034478ca9c2e951bddf258f4efb2e1db2",
    "verdicts/nb__recurrence.json":
        "4749738d59348b857fb71be488b0ff7fb68d4b4e0d74b12a8c3eb1bb935c8797",
    "verdicts/nb__stable-in-mean.json":
        "39b4cfd9536ec15cdb3b3992359d55610d37453efbd64fb6f01c7f021c8685c7",
    "verdicts/nb__support-counts.json":
        "ef336dd70b14ae387a1ef61355ce1c16bc2eb23c316b93b1d0da194f41a747f4",
}


def test_every_test_keeps_its_report_rows_and_artifact_bytes(tmp_path):
    assert {t["name"] for t in EVERY_TEST_CONFIG["tests"]} == set(cli._SCHEMAS)
    out = cli.run_config(EVERY_TEST_CONFIG, tmp_path)
    lines, _ = read_report(out)
    assert lines[1] == "system,test,params,statistic,bias,verdict"
    assert lines[2:] == EVERY_TEST_ROWS
    written = {
        f"{sub}/{p.name}": hashlib.sha256(p.read_bytes()).hexdigest()
        for sub in ("series", "verdicts") for p in (out / sub).iterdir()
    }
    assert written == EVERY_TEST_DIGESTS


# ---------------------------------------------------------------------------
# command line entry


def test_main_runs_a_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config()))
    code = cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")])
    assert code == 0
    assert "report written to" in capsys.readouterr().out
    assert (tmp_path / "res" / "report.csv").exists()


def test_main_rejects_missing_or_broken_configs(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 2
    assert cli.main(["run", str(tmp_path)]) == 2
    assert capsys.readouterr().err.endswith(f"invalid request: {tmp_path}: Is a directory\n")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == 2
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(tiny_config(schema_version=7)))
    assert cli.main(["run", str(invalid)]) == 2
    capsys.readouterr()


def test_main_maps_sizing_problems_to_exit_three(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "systems": [{"id": "nb", "generator": "nested-block", "params": {"i_max": 9}}],
        "tests": [{"name": "entropy"}],
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 3
    assert "budget" in capsys.readouterr().err


# Sized so that, apart from the malformed field, each test runs on tiny_config.
SMALL = {"horizon": 256, "depth_cap": 16}
SMALL_CLASSIFY = {"name": "classify", "sensitivity_depth": 2, **SMALL, "occ_cap": 128,
                  "pair_budget": 2, "entropy_lengths": [2, 4]}
MALFORMED_FIELDS = [
    ({"name": "mean-eq-modulus", **SMALL, "depths": "24"}, "depths"),
    ({"name": "mean-eq-modulus", **SMALL, "depths": [2, 4.0]}, "depths"),
    ({"name": "diam-mean-avg", "depth_cap": 16, "horizon": 1000.7}, "horizon"),
    ({"name": "diam-mean-avg", "depth_cap": 16, "horizon": True}, "horizon"),
    ({"name": "diam-mean-avg", **SMALL, "epsilon": "0.1"}, "epsilon"),
    ({"name": "diam-mean-avg", **SMALL, "depth_cap": 0}, "depth_cap"),
    ({"name": "diam-mean-sensitivity", **SMALL, "max_words": "x"}, "max_words"),
    ({**SMALL_CLASSIFY, "max_words": "x"}, "max_words"),
    ({**SMALL_CLASSIFY, "entropy_lengths": [4, 2]}, "entropy_lengths"),
    ({"name": "banach-diam-mean", **SMALL, "window_lengths": 5}, "window_lengths"),
    ({"name": "frequent-stability", **SMALL, "gamma": 0}, "gamma"),
    ({"name": "entropy", "limit": 1024, "lengths": "48"}, "lengths"),
    ({"name": "diam-mean-avg", **SMALL, "occ_cap": 0}, "occ_cap"),
    ({"name": "diam-mean-avg", **SMALL, "occ_cap": -3}, "occ_cap"),
    ({"name": "diam-mean-avg", **SMALL, "depth": 0}, "depth"),
    ({"name": "mean-eq-modulus", **SMALL, "pair_budget": 0}, "pair_budget"),
    ({"name": "mean-eq-modulus", **SMALL, "depths": [0, 2]}, "depths"),
    ({"name": "diam-mean-sensitivity", **SMALL, "max_words": 0}, "max_words"),
    ({**SMALL_CLASSIFY, "sensitivity_depth": 0}, "sensitivity_depth"),
    ({**SMALL_CLASSIFY, "modulus_depths": [2, -4]}, "modulus_depths"),
    ({"name": "entropy", "lengths": [2, 4], "limit": 0}, "limit"),
    ({"name": "recurrence", "powers": 0, "epsilon_depth": 2, "horizon": 64}, "powers"),
    ({"name": "recurrence", "powers": 1, "epsilon_depth": 0, "horizon": 64}, "epsilon_depth"),
    ({"name": "diam-mean-avg", **SMALL, "epsilon": float("nan")}, "epsilon"),
    ({"name": "diam-mean-avg", **SMALL, "epsilon": float("inf")}, "epsilon"),
    ({"name": "diam-mean-density", **SMALL, "eta": float("-inf")}, "eta"),
    ({**SMALL_CLASSIFY, "epsilon": float("nan")}, "epsilon"),
    ({"name": "diam-mean-avg", **SMALL, "word": "ab"}, "word"),
    ({"name": "diam-mean-avg", **SMALL, "word": ""}, "word"),
    ({"name": "stable-in-mean", **SMALL, "word": 1}, "word"),
    ({"name": "mean-eq-modulus", **SMALL, "occ_cap": 4096}, "occ_cap"),
    ({"name": "entropy", "limit": 1024, "lengths": []}, "lengths"),
    ({"name": "banach-diam-mean", **SMALL, "window_lengths": []}, "window_lengths"),
    ({"name": "mean-eq-modulus", **SMALL, "depths": []}, "depths"),
    ({**SMALL_CLASSIFY, "entropy_lengths": []}, "entropy_lengths"),
    ({"name": "mean-eq-modulus", **SMALL, "depths": [4, 2, 4]}, "depths"),
    ({**SMALL_CLASSIFY, "modulus_depths": [8, 2]}, "modulus_depths"),
    ({"name": "entropy", "lengths": [2, 4], "limit": 3}, "limit"),
    ({**SMALL_CLASSIFY, "entropy_lengths": [2, 40], "entropy_limit": 8}, "entropy_limit"),
]


@pytest.mark.parametrize(
    "test, field", MALFORMED_FIELDS,
    ids=[f"{t['name']}.{f}={t[f]!r}" for t, f in MALFORMED_FIELDS],
)
def test_main_rejects_malformed_fields_with_their_path(tmp_path, capsys, test, field):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(tests=[test])))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert f"config error: tests[0].{field}: " in err
    assert not (tmp_path / "res").exists()


def test_an_empty_list_is_malformed_even_as_modulus_depths():
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(tiny_config(tests=[{"name": "entropy", "lengths": []}]))
    assert (err.value.path, err.value.message) == ("tests[0].lengths", "must be a nonempty list")
    # null is the one spelling of the classifier's default depths
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(tiny_config(tests=[{**SMALL_CLASSIFY, "modulus_depths": []}]))
    assert (err.value.path, err.value.message) == (
        "tests[0].modulus_depths", "must be a nonempty list"
    )


@pytest.mark.parametrize("test, limit", [
    ({"name": "entropy", "lengths": [2, 4], "limit": 3}, "limit"),
    ({**SMALL_CLASSIFY, "entropy_lengths": [2, 4], "entropy_limit": 3}, "entropy_limit"),
])
def test_a_scan_limit_may_reach_but_not_fall_below_the_longest_word_length(test, limit):
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(tiny_config(tests=[test]))
    assert (err.value.path, err.value.message) == (
        f"tests[0].{limit}", "scan limit 3 shorter than word length 4"
    )
    assert cli.validate_config(tiny_config(tests=[{**test, limit: 4}]))["tests"][0][limit] == 4


def test_an_entropy_test_without_a_limit_is_held_to_the_default_before_any_build(
    tmp_path, capsys, monkeypatch
):
    """The default limit, 2^20, is a config value like a given one."""
    builds = []
    monkeypatch.setattr(cli, "build_cached", builds.append)
    full = {"id": "full", "generator": "full-shift", "params": {"length": 2_000_000}}
    cfg = tiny_config(systems=[full], tests=[{"name": "entropy", "lengths": [1_500_000]}],
                      output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: tests[0].limit: scan limit 1048576 shorter than word length 1500000\n"
    )
    assert builds == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("test, key", [
    ({"name": "entropy", "lengths": [2, 4]}, "lengths"),
    ({**SMALL_CLASSIFY, "entropy_lengths": [2, 4]}, "entropy_lengths"),
], ids=["entropy", "classify"])
def test_an_entropy_word_past_a_built_system_is_rejected_before_any_job(
    tmp_path, capsys, test, key
):
    """The built length is known only after the build, so the check runs
    beside the series word's alphabet check, before the first job."""
    short = {"id": "short", "generator": "periodic", "params": {"word": "012", "length": 3}}
    cfg = tiny_config(systems=[short], tests=[test], output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"config error: tests[0].{key}: on system 'short': word length 4 exceeds its 3 symbols\n"
    )
    assert not (tmp_path / "out").exists()
    if key == "lengths":  # a word may span the whole system
        short["params"]["length"] = 4
        path.write_text(json.dumps(cfg))
        assert cli.main(["run", str(path)]) == 0

MALFORMED_PARAMS = [
    ("toeplitz", {"length": 4096, "periods": 5}, "periods"),
    ("toeplitz", {"length": 4096, "fill_symbols": [0, 1.5]}, "fill_symbols"),
    ("nested-block", {"i_max": 3, "driver": 5}, "driver"),
    ("nested-block", {"i_max": 3, "driver": "random"}, "driver"),
    ("nested-block", {"i_max": 3, "zero_runs": "never"}, "zero_runs"),
    ("nested-block", {"i_max": "3"}, "i_max"),
    ("nested-block", {"i_max": 0}, "i_max"),
    ("sturmian", {"length": 4096, "angle": [1]}, "angle"),
    ("sturmian", {"length": 4096, "angle": "0.3"}, "angle"),
    ("sturmian", {"length": 4096, "angle": {"d": "5"}}, "angle"),
    ("sturmian", {"length": 4096, "angle": {"add": 1}}, "angle"),
    ("sturmian", {"length": 4096, "angle": {"d": 5, "mul": 2}}, "angle"),
    ("sturmian", {"length": 4096, "theta": "0.3"}, "theta"),
    ("sturmian", {"length": "1000"}, "length"),
    ("sturmian", {"length": 1000.9}, "length"),
    ("sturmian", {"length": True}, "length"),
    ("periodic", {"length": 4096, "word": 1}, "word"),
    ("toeplitz", {"length": 4096, "periods": "2,4"}, "periods"),
    ("full-shift", {"length": 0}, "length"),
    ("full-shift", {"length": 4096, "alphabet_size": None}, "alphabet_size"),
    ("periodic", {"length": 4096}, "word"),
    ("periodic", {"word": "01"}, "length"),
    ("full-shift", {"length": 4096, "mode": "randm"}, "mode"),
    ("periodic", {"length": 4096, "word": "0a1"}, "word"),
    ("periodic", {"length": 4096, "word": ""}, "word"),
    ("sturmian", {"length": 4096, "theta": float("nan")}, "theta"),
    ("sturmian", {"length": 4096, "angle": float("inf")}, "angle"),
    ("sturmian", {"length": 4096, "angle": float("nan")}, "angle"),
]
PARAMS_IDS = [f"{g}.{k}={p[k]!r}" if k in p else f"{g}.{k}-missing" for g, p, k in MALFORMED_PARAMS]


@pytest.mark.parametrize("generator, params, key", MALFORMED_PARAMS, ids=PARAMS_IDS)
def test_main_rejects_malformed_generator_params_with_their_path(
    tmp_path, capsys, generator, params, key
):
    system = {"id": "s", "generator": generator, "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(systems=[system])))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert f"config error: systems[0].params.{key}: " in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("generator, params, key", MALFORMED_PARAMS, ids=PARAMS_IDS)
def test_main_gen_rejects_malformed_params_with_their_path(
    tmp_path, capsys, generator, params, key
):
    out = tmp_path / "x.seq"
    argv = ["gen", generator, "--out", str(out), "--params", json.dumps(params)]
    assert cli.main(argv) == 2
    assert f"config error: params.{key}: " in capsys.readouterr().err
    assert not out.exists()


def test_main_gen_rejects_a_length_its_generator_does_not_declare(tmp_path, capsys):
    out = tmp_path / "x.seq"
    argv = ["gen", "nested-block", "--out", str(out), "--length", "100",
            "--params", '{"i_max": 2}']
    assert cli.main(argv) == 2
    assert "config error: params.length: unknown field" in capsys.readouterr().err
    assert not out.exists()


# Well-formed params that only the generator's own checks reject.
GENERATOR_REJECTS = [
    ("toeplitz", {"length": 4096, "periods": [2, 3]}, "nested"),
    ("toeplitz", {"length": 4096, "fill_symbols": [0, 2], "alphabet_size": 2}, "alphabet"),
    ("nested-block", {"i_max": 3, "driver": [2, 3]}, "shorter than i_max"),
    ("sturmian", {"length": 4096, "angle": 0.5}, "rational"),
    ("sturmian", {"length": 4096, "angle": {"d": 5, "div": 0}}, "nonzero"),
    ("periodic", {"length": 4096, "word": "012", "alphabet_size": 2}, "alphabet"),
    ("full-shift", {"length": 4096, "alphabet_size": 300}, "out of bounds"),
]


@pytest.mark.parametrize(
    "generator, params, message", GENERATOR_REJECTS,
    ids=[f"{g}-{m}" for g, _, m in GENERATOR_REJECTS],
)
def test_generator_rejections_name_the_params_of_their_system(
    tmp_path, capsys, generator, params, message
):
    system = {"id": "s", "generator": generator, "params": params}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(systems=[system])))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    err = capsys.readouterr().err
    assert "config error: systems[0].params: " in err and message in err
    assert not (tmp_path / "res").exists()
    out = tmp_path / "x.seq"
    assert cli.main(["gen", generator, "--out", str(out), "--params", json.dumps(params)]) == 2
    err = capsys.readouterr().err
    assert "config error: params: " in err and message in err
    assert not out.exists()


def test_valid_generator_params_pass_through_unchanged():
    systems = [
        {"id": "a", "generator": "sturmian",
         "params": {"length": 4096, "angle": {"d": 2, "add": -1}, "theta": 0}},
        {"id": "b", "generator": "sturmian", "params": {"length": 4096, "angle": 0.41}},
        {"id": "c", "generator": "nested-block",
         "params": {"i_max": 2, "driver": [2, 3], "zero_runs": "auto"}},
        {"id": "d", "generator": "toeplitz",
         "params": {"length": 4096, "periods": [2, 4], "fill_symbols": [0, 1],
                    "alphabet_size": None}},
    ]
    cfg = cli.validate_config(tiny_config(systems=systems))
    assert [s["params"] for s in cfg["systems"]] == [s["params"] for s in systems]


@pytest.mark.parametrize("flag", ["--horizon", "--depth-cap"])
def test_main_rejects_overrides_below_one(tmp_path, capsys, flag):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config()))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res"), flag, "0"]) == 2
    assert f"config error: {flag}: must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_main_maps_precision_errors_to_exit_two(tmp_path, capsys, monkeypatch):
    def grazing(rot, length):
        raise sl.PrecisionError("orbit keeps grazing an arc endpoint")

    monkeypatch.setattr(generate, "_code_rotation", grazing)
    cfg = tiny_config(systems=[
        {"id": "golden", "generator": "sturmian", "params": {"length": 4096}},
    ])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert "grazing an arc endpoint" in capsys.readouterr().err


def test_an_allocation_failure_names_its_job_and_exits_three(tmp_path, capsys, monkeypatch):
    from numpy._core._exceptions import _ArrayMemoryError

    def exhausted(seq, **t):  # numpy's own error, whose message ignores `args`; nothing allocated
        raise _ArrayMemoryError((1 << 33,), np.dtype(np.int64))

    monkeypatch.setattr(cli, "entropy_complexity", exhausted)
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    message = (
        "systems[0], tests[1]: Unable to allocate 64.0 GiB for an array"
        " with shape (8589934592,) and data type int64"
    )
    with pytest.raises(MemoryError) as raised:
        cli.run_config(cfg, tmp_path)
    assert str(raised.value) == message
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 3
    assert capsys.readouterr().err == f"budget exceeded: {message}\n"
    assert not (tmp_path / "out").exists()


def test_job_errors_name_their_system_and_test(tmp_path, capsys):
    cfg = tiny_config(output_dir=str(tmp_path / "out"))
    cfg["systems"].append(
        {"id": "short", "generator": "periodic", "params": {"word": "001", "length": 1000}}
    )
    cfg["tests"] = [
        {"name": "entropy", "lengths": [2, 4], "limit": 1024},
        {"name": "diam-mean-avg", "system": "short", "horizon": 5000},
    ]
    with pytest.raises(sl.HorizonError, match=r"^systems\[1\], tests\[1\]: horizon 5000"):
        cli.run_config(cfg, tmp_path)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == (
        "invalid request: systems[1], tests[1]: horizon 5000 + depth cap 64"
        " leave no room to scan (buffer 1000)\n"
    )


def test_main_lists_presets_without_arguments(capsys):
    assert cli.main(["corpus"]) == 0
    out = capsys.readouterr().out
    assert "hierarchy-tour" in out
    assert "nested-block" in out


def test_main_rejects_unknown_presets(capsys):
    assert cli.main(["corpus", "mystery-preset"]) == 2
    assert "unknown preset" in capsys.readouterr().err


def test_main_gen_writes_a_loadable_sequence(tmp_path, capsys):
    out = tmp_path / "seq.bin"
    code = cli.main([
        "gen", "full-shift", "--out", str(out), "--length", "64",
        "--params", '{"mode": "champernowne"}',
    ])
    assert code == 0
    data = np.fromfile(out, dtype=np.uint8)
    assert data.size == 64
    assert "".join(map(str, data[:16])) == "0100011011000001"
    meta = json.loads(out.with_name("seq.bin.json").read_text())
    assert (meta["length"], meta["generator_id"]) == (64, "full-shift")
    capsys.readouterr()


def test_file_errors_exit_two_and_name_the_path(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.seq"
    params = '{"word": "01", "length": 8}'
    assert cli.main(["gen", "periodic", "--out", str(missing), "--params", params]) == 2
    assert capsys.readouterr().err == f"invalid request: {missing}: No such file or directory\n"
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(tiny_config(output_dir=str(blocker / "out"))))
    assert cli.main(["run", str(path)]) == 2
    assert capsys.readouterr().err == f"invalid request: {blocker / 'out'}: Not a directory\n"


def test_main_gen_rejects_bad_requests(tmp_path, capsys):
    out = str(tmp_path / "x.bin")
    assert cli.main(["gen", "mystery", "--out", out, "--length", "8"]) == 2
    assert cli.main(["gen", "periodic", "--out", out, "--params", "{bad"]) == 2
    assert cli.main(["gen", "periodic", "--out", out, "--params", '["list"]']) == 2
    big = str(sl.MAX_SYMBOLS + 1)
    assert cli.main([
        "gen", "periodic", "--out", out, "--length", big, "--params", '{"word": "01"}',
    ]) == 3
    capsys.readouterr()


def test_presets_validate_cleanly():
    for name, preset in cli.PRESETS.items():
        cfg = cli.validate_config(preset)
        assert cfg["systems"], name
