"""Reproducible experiment runner.

A run is driven by a JSON config (schema_version 1): a list of systems to
build, a list of tests with parameters, and an output directory. Every run
builds its systems from the config; nothing is read from a cache or the
environment. Unknown fields anywhere are rejected with a field path, all
test defaults are materialized into the emitted copy of the config, and output
files are written in a fixed order so reruns are byte-identical apart from
one timestamp header line in report.csv.

Exit codes: 0 success, 2 invalid config/usage (or a generator that cannot
keep its arithmetic exact, PrecisionError, or a file that cannot be read or
written), 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import io
import json
import sys
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

from .core import (
    DEFAULT_DEPTH_CAP,
    BudgetError,
    FiniteWord,
    HorizonError,
    PrecisionError,
    SizingError,
    SymbolicSequence,
    save_sequence,
)
from .generate import GENERATORS, NestedBlockParams, build_cached, nested_block_meta
from .recurrence import multi_recurrence_search
from .stability import (
    DEFAULT_OCC_CAP,
    ClassifyParams,
    DiamSeries,
    classify_hierarchy,
    diam_mean_avg_test,
    diam_mean_density_test,
    banach_diam_mean_test,
    diam_mean_sensitivity_test,
    diam_series,
    entropy_complexity,
    frequent_stability_test,
    mean_eq_modulus,
    nonzero_support_counts,
    stable_in_mean_test,
)

__all__ = ["main", "run_config", "PRESETS", "ConfigError"]


class ConfigError(ValueError):
    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


# ---------------------------------------------------------------------------
# test declarations: one dataclass per test gives each field its type and
# default. ClassifyParams is the declaration of `classify`, and the fields of
# SensitivityFields are the keyword arguments of diam_mean_sensitivity_test.
# eq=False keeps them cheap to create at import, which every run pays for.


@dataclass(eq=False)
class SeriesFields:
    """Fields of the five tests that read the diam series of one cylinder.

    The cylinder is `word` when given, else the depth-symbol prefix of the system.
    """

    depth: int = 2
    word: str | None = None
    horizon: int = 32768
    depth_cap: int = DEFAULT_DEPTH_CAP
    occ_cap: int = DEFAULT_OCC_CAP

    def thresholds(self) -> dict:
        """The fields a subclass adds: the keyword arguments of its test function."""
        extra = fields(self)[len(fields(SeriesFields)) :]
        return {f.name: getattr(self, f.name) for f in extra}


@dataclass(eq=False)
class EpsilonFields(SeriesFields):
    epsilon: float = 0.1


@dataclass(eq=False)
class DensityFields(SeriesFields):
    eta: float = 0.1


@dataclass(eq=False)
class BanachFields(EpsilonFields):
    window_lengths: tuple[int, ...] | None = None


@dataclass(eq=False)
class FrequentFields(EpsilonFields):
    gamma: float = 0.25


@dataclass(eq=False)
class SensitivityFields:
    depth: int = 3
    horizon: int = 32768
    depth_cap: int = DEFAULT_DEPTH_CAP
    epsilon: float = 0.1
    occ_cap: int = 4096
    max_words: int | None = 64


@dataclass(eq=False)
class ModulusFields:
    depths: tuple[int, ...] = (2, 4)
    horizon: int = 32768
    depth_cap: int = DEFAULT_DEPTH_CAP
    pair_budget: int = 16
    occ_cap: int = DEFAULT_OCC_CAP


@dataclass(eq=False)
class SupportFields:
    levels: tuple[int, ...] | None = None
    occ_cap: int = DEFAULT_OCC_CAP


@dataclass(eq=False)
class EntropyFields:
    lengths: tuple[int, ...] = (4, 8, 12)
    limit: int | None = None


@dataclass(eq=False)
class RecurrenceFields:
    powers: int = 2
    epsilon_depth: int = 8
    horizon: int = 100000
    depth_cap: int = DEFAULT_DEPTH_CAP


# ---------------------------------------------------------------------------
# runners: runner(system id, sequence, test name, declared fields, series_of) -> (rows, artifacts)


@dataclass(frozen=True)
class ReportRow:
    system: str
    test: str
    params: dict
    statistic: float | None
    bias: float | None
    verdict: str


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


def _verdict_row(sid, test_name, verdict) -> ReportRow:
    return ReportRow(
        sid, test_name, verdict.params, verdict.statistic, verdict.bias_bound, verdict.verdict
    )


def _json_artifact(sid, test_name, data: dict) -> tuple[str, str]:
    return (
        f"verdicts/{sid}__{test_name}.json",
        json.dumps(data, sort_keys=True, indent=2) + "\n",
    )


# A flat dict, so a wrapper installed by name over a test function is seen here too.
_SERIES_TESTS = {
    "diam-mean-avg": diam_mean_avg_test,
    "diam-mean-density": diam_mean_density_test,
    "banach-diam-mean": banach_diam_mean_test,
    "stable-in-mean": stable_in_mean_test,
    "frequent-stability": frequent_stability_test,
}


def _cylinder_series(seq, word, horizon, depth_cap, occ_cap) -> tuple[DiamSeries, str]:
    """The diam series of one cylinder and the text of its series CSV."""
    series = diam_series(seq, word, horizon, depth_cap, occ_cap=occ_cap)
    buf = io.StringIO()
    buf.write("i,diam\n")
    cap_note = f"<={(1.0 / depth_cap)!r}"
    for i, g in enumerate(series.first_disagreement.tolist()):
        buf.write(f"{i + 1},{(1.0 / g)!r}\n" if g else f"{i + 1},{cap_note}\n")
    return series, buf.getvalue()


def _run_series(sid, seq, name, t: SeriesFields, series_of):
    if t.word is None:
        word = seq.prefix(t.depth)
    else:
        word = FiniteWord.from_digits(t.word, seq.alphabet_size)
    series, text = series_of(seq, word, t.horizon, t.depth_cap, t.occ_cap)
    v = _SERIES_TESTS[name](series, **t.thresholds())
    ref = f"series/{sid}__{name}.csv"
    arts = [(ref, text), _json_artifact(sid, name, v.as_json_dict(ref))]
    return [_verdict_row(sid, name, v)], arts


def _run_sensitivity(sid, seq, name, t: SensitivityFields, series_of):
    v = diam_mean_sensitivity_test(seq, **vars(t))
    return [_verdict_row(sid, name, v)], [_json_artifact(sid, name, v.as_json_dict())]


def _run_modulus(sid, seq, name, t: ModulusFields, series_of):
    curve = mean_eq_modulus(seq, t.depths, t.horizon, t.depth_cap, t.pair_budget, t.occ_cap)
    rows = [
        ReportRow(
            sid, f"{name}/m-{m}",
            {"depth": m, "horizon": curve.horizon, "depth_cap": curve.depth_cap},
            stat, curve.bias_bound, "inconclusive" if short else "reported",
        )
        for m, stat, short in zip(curve.depths, curve.statistics, curve.shortfall)
    ]
    return rows, [_json_artifact(sid, name, curve.as_json_dict())]


def _run_support_counts(sid, seq, name, t: SupportFields, series_of):
    meta = nested_block_meta(NestedBlockParams(**seq.params))
    counts = nonzero_support_counts(seq, meta, t.levels, occ_cap=t.occ_cap)
    table = list(zip(counts.levels, counts.horizons, counts.counts, counts.ratios))
    rows = [
        ReportRow(
            sid, f"{name}/level-{lev}",
            {"level": lev, "horizon": n, "count": c, "word": str(counts.word),
             "samples": counts.sample_count},
            float(r), 0.0, "reported",
        )
        for lev, n, c, r in table
    ]
    buf = io.StringIO()
    buf.write("level,horizon,count,ratio\n")
    for lev, n, c, r in table:
        buf.write(f"{lev},{n},{c},{float(r)!r}\n")
    return rows, [
        (f"series/{sid}__{name}.csv", buf.getvalue()),
        _json_artifact(sid, name, counts.as_json_dict()),
    ]


def _run_entropy(sid, seq, name, t: EntropyFields, series_of):
    limit = None if t.limit is None else min(t.limit, seq.length)
    curve = entropy_complexity(seq, t.lengths, limit)
    rows = [
        ReportRow(
            sid, f"{name}/n-{n}",
            {"length": n, "count": c, "limit": curve.limit, "trend": curve.trend},
            v, 0.0, "reported",
        )
        for n, c, v in zip(curve.lengths, curve.counts, curve.values)
    ]
    return rows, [_json_artifact(sid, name, curve.as_json_dict())]


def _run_recurrence(sid, seq, name, t: RecurrenceFields, series_of):
    res = multi_recurrence_search(seq, t.powers, t.epsilon_depth, t.horizon, t.depth_cap)
    row = ReportRow(
        sid, name,
        {"powers": res.powers, "epsilon_depth": res.epsilon_depth, "horizon": res.horizon},
        None if res.found is None else float(res.found),
        None, "found" if res.found is not None else "not-found",
    )
    return [row], [_json_artifact(sid, name, res.as_json_dict())]


def _run_classify(sid, seq, name, t: ClassifyParams, series_of):
    report = classify_hierarchy(seq, t, system_id=sid)
    rows = [
        _verdict_row(sid, f"classify/{v.test}", v)
        for v in report.rungs + report.battery + (report.sensitivity,)
    ]
    rows.append(
        ReportRow(
            sid, "classify/entropy",
            {"lengths": list(report.complexity.lengths), "limit": report.complexity.limit,
             "trend": report.complexity.trend},
            report.complexity.values[-1], 0.0, "reported",
        )
    )
    return rows, [_json_artifact(sid, name, report.as_json_dict())]


# test name -> (declaration, runner)
_TESTS = {
    "diam-mean-avg": (EpsilonFields, _run_series),
    "diam-mean-density": (DensityFields, _run_series),
    "banach-diam-mean": (BanachFields, _run_series),
    "stable-in-mean": (EpsilonFields, _run_series),
    "frequent-stability": (FrequentFields, _run_series),
    "diam-mean-sensitivity": (SensitivityFields, _run_sensitivity),
    "mean-eq-modulus": (ModulusFields, _run_modulus),
    "support-counts": (SupportFields, _run_support_counts),
    "entropy": (EntropyFields, _run_entropy),
    "recurrence": (RecurrenceFields, _run_recurrence),
    "classify": (ClassifyParams, _run_classify),
}


# ---------------------------------------------------------------------------
# config schema, derived from the declarations


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _is_int_list(v) -> bool:
    return isinstance(v, (list, tuple)) and all(map(_is_int, v))


def _is_angle(v) -> bool:
    if isinstance(v, dict):
        return "d" in v and set(v) <= {"d", "add", "div"} and all(map(_is_int, v.values()))
    return v == "golden" or _is_number(v)


# declared type -> (description, accepts a JSON value); the last five are the
# generator param kinds named in generate.py
_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers", _is_int_list),
    "Angle": ('"golden", a number, or an object of integers d, add, div', _is_angle),
    "Driver": (
        '"champernowne", "alternating" or a list of integers',
        lambda v: v in ("champernowne", "alternating") or _is_int_list(v),
    ),
    "ZeroRuns": ('"auto" or a list of integers', lambda v: v == "auto" or _is_int_list(v)),
    "Mode": ('"champernowne" or "random"', lambda v: v in ("champernowne", "random")),
    "Digits": (
        "a nonempty string of the digits 0-9",
        lambda v: isinstance(v, str) and v.isascii() and v.isdigit(),
    ),
}
# A test's checked values are converted to their declared types before its runner
# reads them; generator params go to their builder as the JSON values they are.
_CONVERT = {"float": float, "tuple[int, ...]": tuple}
# fields the library requires to be strictly increasing
_INCREASING = {"window_lengths", "lengths", "entropy_lengths", "levels"}
# counts: the value, or every element of the list, must be at least 1
_COUNTS = {
    "horizon", "depth_cap", "depth", "base_depth", "sensitivity_depth", "occ_cap",
    "pair_budget", "max_words", "limit", "entropy_limit", "powers", "epsilon_depth",
    "depths", "modulus_depths", "window_lengths", "lengths", "entropy_lengths", "levels",
    "length", "i_max",
}


_REQUIRED = inspect.Parameter.empty


def _schema(declaration) -> dict[str, tuple]:
    """field -> (declared type without "| None", whether None is allowed, default or _REQUIRED).

    Read from the keyword signature of a test declaration or a generator entry.
    Annotations stay strings (postponed evaluation), so they are read as text.
    """
    out = {}
    for p in inspect.signature(declaration).parameters.values():
        kind = p.annotation.removesuffix(" | None")
        out[p.name] = (kind, kind != p.annotation, p.default)
    return out


_SCHEMAS = {name: _schema(cls) for name, (cls, _) in _TESTS.items()}
_PARAMS = {gen: _schema(builder) for gen, builder in GENERATORS.items()}


def _check_field(path: str, key: str, value, kind, optional: bool) -> None:
    """Type and range of one field: the library's own run-time checks, and counts of at least 1."""
    if value is None and optional:
        return
    desc, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(path, f"must be {desc}" + (" or null" if optional else ""))
    if key in _COUNTS and _is_int(value) and value < 1:
        raise ConfigError(path, "must be at least 1")
    if key in _COUNTS and not _is_int(value) and any(v < 1 for v in value):
        raise ConfigError(path, "every element must be at least 1")
    if key == "gamma" and not 0 < value <= 1:
        raise ConfigError(path, "must lie in (0, 1]")
    if key in _INCREASING and any(b <= a for a, b in zip(value, value[1:])):
        raise ConfigError(path, "must be strictly increasing")


def _check_fields(path: str, given: dict, schema: dict) -> None:
    """Every given field is declared and well formed, and every required one is given."""
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"{path}.{key}", "unknown field")
        kind, optional, _ = schema[key]
        _check_field(f"{path}.{key}", key, value, kind, optional)
    for key, (_, _, default) in schema.items():
        if default is _REQUIRED and key not in given:
            raise ConfigError(f"{path}.{key}", "required field is missing")


def _check_params(path: str, gen: str, params) -> None:
    """A system's params against the keyword signature of its generator entry."""
    if not isinstance(params, dict):
        raise ConfigError(path, "must be an object")
    _check_fields(path, params, _PARAMS[gen])


def _declared(td: dict):
    """The declaration instance of a resolved test, with each value in its declared type."""
    name = td["name"]
    values = {}
    for key, (kind, _, _) in _SCHEMAS[name].items():
        value = td[key]
        values[key] = _CONVERT[kind](value) if value is not None and kind in _CONVERT else value
    return _TESTS[name][0](**values)


def _build(path: str, spec: dict) -> SymbolicSequence:
    """Build one system; a param error that only its generator can see is reported at `path`."""
    try:
        return build_cached(spec)
    except SizingError:
        raise
    except (ValueError, OverflowError) as e:  # OverflowError: a symbol past uint8
        raise ConfigError(path, str(e)) from e


_TOP_LEVEL = {"schema_version", "systems", "tests", "output_dir"}
_SYSTEM_KEYS = {"id", "generator", "params"}


def validate_config(raw: dict) -> dict:
    """Check structure, types and ranges, reject unknown fields, materialize every default."""
    if not isinstance(raw, dict):
        raise ConfigError("$", "config must be a JSON object")
    for key in raw:
        if key not in _TOP_LEVEL:
            raise ConfigError(key, "unknown field")
    if raw.get("schema_version") != 1:
        raise ConfigError("schema_version", "must be 1")
    systems = raw.get("systems")
    if not isinstance(systems, list) or not systems:
        raise ConfigError("systems", "must be a nonempty list")
    out_systems = []
    seen_ids = set()
    for i, sysd in enumerate(systems):
        path = f"systems[{i}]"
        if not isinstance(sysd, dict):
            raise ConfigError(path, "must be an object")
        for key in sysd:
            if key not in _SYSTEM_KEYS:
                raise ConfigError(f"{path}.{key}", "unknown field")
        gen = sysd.get("generator")
        if not isinstance(gen, str) or gen not in GENERATORS:
            raise ConfigError(
                f"{path}.generator", f"unknown generator {gen!r} (known: {', '.join(sorted(GENERATORS))})"
            )
        params = sysd.get("params", {})
        _check_params(f"{path}.params", gen, params)
        sid = sysd.get("id", gen)
        if not isinstance(sid, str) or not sid:
            raise ConfigError(f"{path}.id", "must be a nonempty string")
        if sid in seen_ids:
            raise ConfigError(f"{path}.id", f"duplicate system id {sid!r}")
        seen_ids.add(sid)
        out_systems.append({"id": sid, "generator": gen, "params": params})
    tests = raw.get("tests")
    if not isinstance(tests, list) or not tests:
        raise ConfigError("tests", "must be a nonempty list")
    out_tests = []
    for i, td in enumerate(tests):
        path = f"tests[{i}]"
        if not isinstance(td, dict):
            raise ConfigError(path, "must be an object")
        name = td.get("name")
        if not isinstance(name, str) or name not in _SCHEMAS:
            raise ConfigError(
                f"{path}.name", f"unknown test {name!r} (known: {', '.join(sorted(_SCHEMAS))})"
            )
        schema = _SCHEMAS[name]
        resolved = {"name": name}
        sys_filter = td.get("system")
        if sys_filter is not None:
            if not isinstance(sys_filter, str) or sys_filter not in seen_ids:
                raise ConfigError(f"{path}.system", f"no system with id {sys_filter!r}")
            resolved["system"] = sys_filter
        given = {key: value for key, value in td.items() if key not in ("name", "system")}
        _check_fields(path, given, schema)
        resolved.update(given)
        for key, (_, _, default) in schema.items():
            resolved.setdefault(key, list(default) if isinstance(default, tuple) else default)
        out_tests.append(resolved)
    generators = {s["id"]: s["generator"] for s in out_systems}
    targets = [[sid for sid in generators if td.get("system") in (None, sid)] for td in out_tests]
    for j, td in enumerate(out_tests):
        if td["name"] == "support-counts":
            bad = [sid for sid in targets[j] if generators[sid] != "nested-block"]
            if bad:
                raise ConfigError(
                    f"tests[{j}]",
                    f"support-counts requires nested-block systems (got {', '.join(bad)})",
                )
        # a (system, test name) pair names its artifacts, so a repeat would overwrite them
        for i in range(j):
            shared = [sid for sid in targets[j] if sid in targets[i]]
            if out_tests[i]["name"] == td["name"] and shared:
                raise ConfigError(
                    f"tests[{j}]",
                    f"repeats tests[{i}] ({td['name']!r}) on system {shared[0]!r};"
                    f" both would write verdicts/{shared[0]}__{td['name']}.json",
                )
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "must be a nonempty string")
    return {
        "schema_version": 1,
        "systems": out_systems,
        "tests": out_tests,
        "output_dir": output_dir,
    }


# ---------------------------------------------------------------------------
# execution


def run_config(
    config: dict,
    base_dir: Path,
    threads: int = 1,
    horizon_override: int | None = None,
    depth_cap_override: int | None = None,
    out_dir_override: str | None = None,
) -> Path:
    """Execute a validated config; returns the output directory.

    Jobs run one after another: a thread pool measured slower on every
    benchmark workload, so `threads` must be 1.
    """
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads!r}")
    started = time.monotonic()
    cfg = validate_config(config)
    overrides = (("--horizon", "horizon", horizon_override),
                 ("--depth-cap", "depth_cap", depth_cap_override))
    for flag, key, value in overrides:
        if value is not None:
            _check_field(flag, key, value, "int", False)
            for td in cfg["tests"]:
                if key in td:
                    td[key] = value
    tests = [(td, _declared(td)) for td in cfg["tests"]]
    out_name = out_dir_override or cfg["output_dir"]
    out_dir = Path(out_name)
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    cfg_resolved = dict(cfg)
    cfg_resolved["output_dir"] = str(out_dir)

    systems: dict[str, SymbolicSequence] = {}
    for i, sysd in enumerate(cfg["systems"]):
        spec = {"generator": sysd["generator"], "params": sysd["params"]}
        systems[sysd["id"]] = _build(f"systems[{i}].params", spec)

    jobs = [
        (f"systems[{i}], tests[{j}]", sid, td["name"], declared)
        for i, sid in enumerate(systems)
        for j, (td, declared) in enumerate(tests)
        if td.get("system") in (None, sid)
    ]
    if not jobs:
        raise ConfigError("tests", "no (system, test) pair matches the filters")

    # the run's cylinder cache: tests on one cylinder share its series and its CSV text
    series_of = functools.cache(_cylinder_series)
    results = []
    for where, sid, name, t in jobs:
        try:
            results.append(_TESTS[name][1](sid, systems[sid], name, t, series_of))
        except (ValueError, RuntimeError, KeyError) as e:  # what main reports; keep the class
            e.args = (f"{where}: {e}",)
            raise

    rows = [row for rows_i, _ in results for row in rows_i]
    rows.sort(key=lambda r: (r.system, r.test))
    artifacts = sorted(
        ((path, text) for _, arts in results for path, text in arts),
        key=lambda pt: pt[0],
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "series").mkdir(exist_ok=True)
    (out_dir / "verdicts").mkdir(exist_ok=True)
    for rel, text in artifacts:
        (out_dir / rel).write_text(text)

    elapsed_ms = int((time.monotonic() - started) * 1000)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    buf = io.StringIO()
    buf.write(f"# generated-at {stamp} elapsed-ms {elapsed_ms}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["system", "test", "params", "statistic", "bias", "verdict"])
    for r in rows:
        writer.writerow(
            [
                r.system,
                r.test,
                json.dumps(r.params, sort_keys=True, separators=(",", ":")),
                _fmt(r.statistic),
                _fmt(r.bias),
                r.verdict,
            ]
        )
    (out_dir / "report.csv").write_text(buf.getvalue())
    (out_dir / "config.resolved.json").write_text(
        json.dumps(cfg_resolved, sort_keys=True, indent=2) + "\n"
    )
    return out_dir


# ---------------------------------------------------------------------------
# presets

PRESETS: dict[str, dict] = {
    "hierarchy-tour": {
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
            {"name": "classify", "system": "periodic",
             "base_depth": 2, "sensitivity_depth": 3},
            {"name": "classify", "system": "sturmian",
             "base_depth": 256, "sensitivity_depth": 128,
             "modulus_depths": [256, 512]},
            {"name": "classify", "system": "toeplitz",
             "base_depth": 128, "sensitivity_depth": 128, "modulus_depths": [128, 256]},
            {"name": "classify", "system": "nested-block",
             "base_depth": 2, "sensitivity_depth": 3},
            {"name": "classify", "system": "full-shift",
             "base_depth": 2, "sensitivity_depth": 3},
        ],
        "output_dir": "hierarchy-tour-out",
    },
    "nested-block": {
        "schema_version": 1,
        "systems": [
            {"id": "nested-block", "generator": "nested-block", "params": {"i_max": 6}},
        ],
        "tests": [
            {"name": "support-counts"},
            {"name": "diam-mean-avg", "depth": 2, "horizon": 52118},
            {"name": "diam-mean-density", "depth": 2, "horizon": 52118},
            {"name": "frequent-stability", "depth": 2, "horizon": 52118},
        ],
        "output_dir": "nested-block-out",
    },
}


# ---------------------------------------------------------------------------
# entry point


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=None,
                   help="override every test's horizon")
    p.add_argument("--depth-cap", type=int, default=None,
                   help="override every test's truncation depth")
    p.add_argument("--out-dir", default=None,
                   help="override the config's output directory")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftlab",
        description="finite-horizon stability statistics for symbolic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON config")
    _add_common_flags(p_run)

    p_corpus = sub.add_parser("corpus", help="run a built-in preset")
    p_corpus.add_argument("preset", nargs="?", default=None,
                          help="preset name; omit to list presets")
    _add_common_flags(p_corpus)

    p_gen = sub.add_parser("gen", help="build a sequence and write it to disk")
    p_gen.add_argument("generator", help=f"one of: {', '.join(sorted(GENERATORS))}")
    p_gen.add_argument("--out", required=True, help="output byte file")
    p_gen.add_argument("--length", type=int, default=None)
    p_gen.add_argument("--params", default="{}", help="generator params as JSON")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        print(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    out = run_config(
        raw, path.resolve().parent,
        horizon_override=args.horizon, depth_cap_override=args.depth_cap,
        out_dir_override=args.out_dir,
    )
    print(f"report written to {out}")
    return 0


def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.preset is None:
        print("available presets:")
        for name in sorted(PRESETS):
            n_sys = len(PRESETS[name]["systems"])
            print(f"  {name} ({n_sys} systems)")
        return 0
    if args.preset not in PRESETS:
        print(f"unknown preset {args.preset!r}; available: {', '.join(sorted(PRESETS))}",
              file=sys.stderr)
        return 2
    out = run_config(
        PRESETS[args.preset], Path.cwd(),
        horizon_override=args.horizon, depth_cap_override=args.depth_cap,
        out_dir_override=args.out_dir,
    )
    print(f"report written to {out}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as e:
        print(f"--params parse error at column {e.colno}: {e.msg}", file=sys.stderr)
        return 2
    if not isinstance(params, dict):
        print("--params must be a JSON object", file=sys.stderr)
        return 2
    if args.length is not None:
        params["length"] = args.length
    if args.generator not in GENERATORS:
        print(f"unknown generator {args.generator!r}; known: {', '.join(sorted(GENERATORS))}",
              file=sys.stderr)
        return 2
    _check_params("params", args.generator, params)
    seq = _build("params", {"generator": args.generator, "params": params})
    out = save_sequence(seq, args.out)
    print(f"{seq.length} symbols written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "corpus":
            return _cmd_corpus(args)
        if args.command == "gen":
            return _cmd_gen(args)
        parser.error("unknown command")
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, SizingError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (HorizonError, PrecisionError, ValueError) as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"missing field: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the config, the `gen` output or the run's output directory
        print(f"invalid request: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
