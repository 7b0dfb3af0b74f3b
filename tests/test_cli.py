"""Config validation, report generation, presets, and exit codes."""

import csv
import json

import numpy as np
import pytest

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
                        "pair_budget": 16, "occ_cap": 100000},
    "support-counts": {"levels": None, "occ_cap": 100000},
    "entropy": {"lengths": [4, 8, 12], "limit": None},
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


def test_support_counts_requires_a_nested_block_system():
    cfg = tiny_config()
    cfg["tests"] = [{"name": "support-counts"}]
    with pytest.raises(cli.ConfigError) as err:
        cli.validate_config(cfg)
    assert "nested-block" in err.value.message


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
        series = sl.diam_series(x, x.prefix(2), horizon, 16)
        cap = f"<={1.0 / 16!r}"
        gaps = series.first_disagreement.tolist()
        return "i,diam\n" + "".join(
            f"{i},{1.0 / g!r}\n" if g else f"{i},{cap}\n" for i, g in enumerate(gaps, start=1)
        )

    coin, alt = expected_csv("coin", 256), expected_csv("alt", 128)
    assert "<=" not in coin and alt.count("<=") == 128  # both kinds of line are checked
    written = {p.name: p.read_text() for p in (out / "series").iterdir()}
    assert written == {
        **{f"coin__{n}.csv": coin for n in SERIES_TEST_NAMES}, "alt__diam-mean-avg.csv": alt
    }


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
    ("champernowne", {"length": 4096, "symbols": "01"}, "symbols"),
    ("full-shift", {"length": 0}, "length"),
    ("full-shift", {"length": 4096, "alphabet_size": None}, "alphabet_size"),
    ("periodic", {"length": 4096}, "word"),
    ("periodic", {"word": "01"}, "length"),
    ("full-shift", {"length": 4096, "mode": "randm"}, "mode"),
    ("periodic", {"length": 4096, "word": "0a1"}, "word"),
    ("periodic", {"length": 4096, "word": ""}, "word"),
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
    ("champernowne", {"length": 4096, "symbols": [-1, 1]}, "out of bounds"),
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
    def grazing(params, length):
        raise sl.PrecisionError("orbit keeps grazing an arc endpoint")

    monkeypatch.setattr(generate, "sturmian", grazing)
    cfg = tiny_config(systems=[
        {"id": "golden", "generator": "sturmian", "params": {"length": 4096}},
    ])
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(tmp_path / "res")]) == 2
    assert "grazing an arc endpoint" in capsys.readouterr().err


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
        "gen", "champernowne", "--out", str(out), "--length", "64",
        "--params", '{"symbols": [0, 1]}',
    ])
    assert code == 0
    data = np.fromfile(out, dtype=np.uint8)
    assert data.size == 64
    assert "".join(map(str, data[:16])) == "0100011011000001"
    meta = json.loads(out.with_name("seq.bin.json").read_text())
    assert (meta["length"], meta["generator_id"]) == (64, "champernowne")
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
