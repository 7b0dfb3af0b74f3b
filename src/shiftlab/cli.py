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
import math
import os
import shutil
import sys
import time
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterator

import numpy as np

from .core import (
    DEFAULT_DEPTH_CAP,
    BudgetError,
    Count,
    FiniteWord,
    PrecisionError,
    SymbolicSequence,
    broken_rule,
    save_sequence,
)
from .generate import GENERATORS, Digits, build_cached, nested_block_meta
from .recurrence import multi_recurrence_search
from .stability import (
    DEFAULT_OCC_CAP,
    DiamSeries,
    StabilityVerdict,
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
# runners: runner(system id, sequence, test name, series_of, **values) -> (report rows,
# verdict record, CSV or None), the CSV as its text or as the `DiamSeries` it is read
# from; series_of is the run's cached `diam_series`; run_config names and writes the files.
# A test's values are shared by every system it runs on, so a runner reads them only.


def _fmt(v: float | None) -> str:
    return "" if v is None else repr(float(v))


# A flat dict, so a wrapper installed by name over a test function is seen here too.
_SERIES_TESTS = {
    "diam-mean-avg": diam_mean_avg_test,
    "diam-mean-density": diam_mean_density_test,
    "banach-diam-mean": banach_diam_mean_test,
    "stable-in-mean": stable_in_mean_test,
    "frequent-stability": frequent_stability_test,
}


_CHUNK = 100_000  # lines whose indices share all but their low 5 digits
_ROWS = _CHUNK // 5  # lines per piece at most


def _series_csv(series: DiamSeries) -> Iterator[bytes]:
    """The bytes of a series CSV, one piece of at most _ROWS lines at a time:
    the header `i,diam`, then line i is `i,repr(1/g)` for g =
    first_disagreement[i-1], or `i,<=repr(1/depth_cap)` where g is 0 (censored).

    No Python work per line. The cells and their counts are the series'
    `gap_counts`. A template holds one record per low 5 index digits: the
    digits, then the most common cell. A piece's lines share
    their index's digit count and its high digits (a copy of the template
    carries those in front), so they are a slice of template rows, with the
    leading zeros of the first _CHUNK indices cut off as columns. Where every
    other cell of the piece has the common cell's width, those rows are
    overwritten, the slice goes out as it is and the rows are restored. A
    piece with a cell of another width is built as records padded with 0
    bytes to the widest cell, and compressed. Besides the series, only one
    piece and two templates of _CHUNK rows are alive, so a caller that
    writes each piece out holds no whole text.
    """
    gaps, counts = series.first_disagreement, series.gap_counts
    present = np.flatnonzero(counts)
    cells = [
        (f",{(1.0 / g)!r}\n" if g else f",<={(1.0 / series.depth_cap)!r}\n").encode()
        for g in present.tolist()
    ]
    width = max(map(len, cells))
    table = np.frombuffer(b"".join(c.ljust(width, b"\0") for c in cells), f"V{width}")
    row_of = np.cumsum(counts != 0) - 1  # g -> its entry of `table`
    common = int(counts.argmax())
    w = len(cells[row_of[common]])  # the common cell's bytes, newline included
    # every cell cut or padded to w bytes, read only where it has w bytes
    narrow = np.frombuffer(b"".join(c[:w].ljust(w, b"\0") for c in cells), f"V{w}")
    fits = np.zeros(counts.size, bool)  # g -> its cell has w bytes
    fits[present] = [len(c) == w for c in cells]

    low = np.arange(min(_CHUNK, gaps.size + 1), dtype=np.int32)
    template = np.empty((low.size, 5 + w), np.uint8)
    for j in range(5):
        template[:, j] = low // 10 ** (4 - j) % 10 + ord("0")
    template[:, 5:] = np.frombuffer(cells[row_of[common]], np.uint8)
    del low
    wide, at = template, 0  # the template behind the high digits of `at`, made on first use

    yield b"i,diam\n"
    lo, end = 1, gaps.size + 1
    while lo < end:
        # lines [lo, hi): one digit count n, one high part of h digits, one _ROWS block
        n = len(str(lo))
        h = max(n - 5, 0)
        base = lo - lo % _CHUNK
        hi = min(10**n, base + _CHUNK, lo - lo % _ROWS + _ROWS, end)
        a, b = lo - base, hi - base
        g = gaps[lo - 1 : hi - 1]
        odd = np.flatnonzero(g != common)
        others = g[odd]
        if fits[others].all():
            if not h:
                rows = template[a:b, 5 - n :]
            else:
                if base != at:
                    if wide.shape[1] != n + w:
                        del wide  # the narrower copy goes before the wider one is made
                        wide = np.empty((_CHUNK, n + w), np.uint8)
                        wide[:, h:] = template
                    for j, d in enumerate(str(lo)[:h].encode()):
                        wide[:, j] = d
                    at = base
                rows = wide[a:b]
            slots = rows[:, n:].view(narrow.dtype)[:, 0]  # each line's cell as one scalar
            slots[odd] = narrow[row_of[others]]
            yield rows.tobytes()
            slots[odd] = narrow[row_of[common]]
        else:
            rec = np.empty((hi - lo, n + width), np.uint8)
            rec[:, :h] = np.frombuffer(str(lo)[:h].encode(), np.uint8)
            rec[:, h:n] = template[a:b, 5 - n + h : 5]
            rec[:, n:].view(table.dtype)[:, 0] = table[row_of[g]]
            yield rec[rec != 0].tobytes()
        lo = hi


def _run_series(
    sid, seq, name, series_of,
    depth: Count = 2,
    word: Digits | None = None,
    horizon: Count = 32768,
    depth_cap: Count = DEFAULT_DEPTH_CAP,
    occ_cap: Count = DEFAULT_OCC_CAP,
    **thresholds,
):
    """The five series tests. The cylinder is `word` when given, else the
    depth-symbol prefix of the system.
    """
    if word is None:
        cylinder = seq.prefix(depth)
    else:
        cylinder = FiniteWord.from_digits(word, seq.alphabet_size)
    series = series_of(seq, cylinder, horizon, depth_cap, occ_cap)
    v = _SERIES_TESTS[name](series, **thresholds)
    return [v], v.as_json_dict(f"series/{sid}__{name}.csv"), series


def _run_sensitivity(sid, seq, name, series_of, **t):
    v = diam_mean_sensitivity_test(seq, **t)
    return [v], v.as_json_dict(), None


def _run_modulus(sid, seq, name, series_of, **t):
    curve = mean_eq_modulus(seq, **t)
    verdicts = [
        StabilityVerdict(
            f"{name}/m-{m}", {"depth": m, "horizon": curve.horizon, "depth_cap": curve.depth_cap},
            stat, curve.bias_bound, "inconclusive" if short else "reported",
        )
        for m, stat, short in zip(curve.depths, curve.statistics, curve.shortfall)
    ]
    return verdicts, curve.as_json_dict(), None


def _run_support_counts(sid, seq, name, series_of, **t):
    counts = nonzero_support_counts(seq, nested_block_meta(**seq.params), **t)
    table = list(zip(counts.levels, counts.horizons, counts.counts, counts.ratios))
    verdicts = [
        StabilityVerdict(
            f"{name}/level-{lev}",
            {"level": lev, "horizon": n, "count": c, "word": str(counts.word),
             "samples": counts.sample_count},
            float(r), 0.0, "reported",
        )
        for lev, n, c, r in table
    ]
    lines = [f"{lev},{n},{c},{float(r)!r}\n" for lev, n, c, r in table]
    return verdicts, counts.as_json_dict(), "level,horizon,count,ratio\n" + "".join(lines)


def _run_entropy(sid, seq, name, series_of, **t):
    curve = entropy_complexity(seq, **t)
    verdicts = [
        StabilityVerdict(
            f"{name}/n-{n}",
            {"length": n, "count": c, "limit": curve.limit, "trend": curve.trend},
            v, 0.0, "reported",
        )
        for n, c, v in zip(curve.lengths, curve.counts, curve.values)
    ]
    return verdicts, curve.as_json_dict(), None


def _run_recurrence(sid, seq, name, series_of, **t):
    res = multi_recurrence_search(seq, **t)
    v = StabilityVerdict(
        name, {"powers": res.powers, "epsilon_depth": res.epsilon_depth, "horizon": res.horizon},
        None if res.found is None else float(res.found),
        None, "found" if res.found is not None else "not-found",
    )
    return [v], res.as_json_dict(), None


def _run_classify(sid, seq, name, series_of, **t):
    report = classify_hierarchy(seq, **t, system_id=sid)
    c = report.complexity
    verdicts = [
        replace(v, test=f"classify/{v.test}")
        for v in report.rungs + report.battery + (report.sensitivity,)
    ]
    verdicts.append(StabilityVerdict(
        "classify/entropy", {"lengths": list(c.lengths), "limit": c.limit, "trend": c.trend},
        c.values[-1], 0.0, "reported",
    ))
    return verdicts, report.as_json_dict(), None


# test name -> (library function, runner). Runners call the library by its
# module-level names and through _SERIES_TESTS, never through these tuples.
_TESTS = {
    **{name: (test, _run_series) for name, test in _SERIES_TESTS.items()},
    "diam-mean-sensitivity": (diam_mean_sensitivity_test, _run_sensitivity),
    "mean-eq-modulus": (mean_eq_modulus, _run_modulus),
    "support-counts": (nonzero_support_counts, _run_support_counts),
    "entropy": (entropy_complexity, _run_entropy),
    "recurrence": (multi_recurrence_search, _run_recurrence),
    "classify": (classify_hierarchy, _run_classify),
}


# ---------------------------------------------------------------------------
# config schema, derived from the declarations


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_number(v) -> bool:
    """An integer or a finite float: json.loads also reads NaN and Infinity."""
    return _is_int(v) or isinstance(v, float) and math.isfinite(v)


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
    "float": ("a finite number", _is_number),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers", _is_int_list),
    "Angle": ('"golden", a finite number, or an object of integers d, add, div', _is_angle),
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
# the range kinds declared in core.py, each a range over a base kind (core.RANGES)
_BASES = {"Count": "int", "Increasing": "tuple[int, ...]", "Share": "float"}
_KINDS.update((kind, _KINDS[base]) for kind, base in _BASES.items())
# Float fields become floats before a runner reads them. List fields stay JSON lists,
# as generator params do: every library function that takes one makes its own tuple.
_CONVERT = {"float": float, "Share": float}


_REQUIRED = inspect.Parameter.empty


def _schema(declaration, required: bool = True) -> dict[str, tuple]:
    """field -> (declared type without "| None", whether None is allowed, default or _REQUIRED).

    Read from the positional-or-keyword parameters of a declaration, those
    without a default only when `required`; keyword-only parameters are for
    library callers. Annotations stay strings (postponed evaluation), so they
    are read as text.
    """
    out = {}
    for p in inspect.signature(declaration).parameters.values():
        if p.kind is p.POSITIONAL_OR_KEYWORD and (required or p.default is not _REQUIRED):
            kind = p.annotation.removesuffix(" | None")
            out[p.name] = (kind, kind != p.annotation, p.default)
    return out


# A test's fields are the defaulted parameters of its runner (the series cylinder)
# and then of its library function; a generator's, every parameter of its builder.
_SCHEMAS = {
    name: {**_schema(run, required=False), **_schema(fn, required=False)}
    for name, (fn, run) in _TESTS.items()
}
_PARAMS = {gen: _schema(builder) for gen, builder in GENERATORS.items()}


def _check_field(path: str, value, kind, optional: bool) -> None:
    """Type and range of one field, both read from its declared kind."""
    if value is None and optional:
        return
    desc, accepts = _KINDS[kind]
    if not accepts(value):
        raise ConfigError(path, f"must be {desc}" + (" or null" if optional else ""))
    if message := broken_rule(kind, value):
        raise ConfigError(path, message)


def _check_fields(path: str, given: dict, schema: dict) -> None:
    """Every given field is declared and well formed, and every required one is given."""
    for key, value in given.items():
        if key not in schema:
            raise ConfigError(f"{path}.{key}", "unknown field")
        kind, optional, _ = schema[key]
        _check_field(f"{path}.{key}", value, kind, optional)
    for key, (_, _, default) in schema.items():
        if default is _REQUIRED and key not in given:
            raise ConfigError(f"{path}.{key}", "required field is missing")


def _check_params(path: str, gen: str, params) -> None:
    """A system's params against the keyword signature of its generator entry."""
    if not isinstance(params, dict):
        raise ConfigError(path, "must be an object")
    _check_fields(path, params, _PARAMS[gen])


def _values(td: dict) -> dict:
    """The field values of a resolved test, each in its declared type."""
    values = {}
    for key, (kind, _, _) in _SCHEMAS[td["name"]].items():
        value = td[key]
        values[key] = _CONVERT[kind](value) if value is not None and kind in _CONVERT else value
    return values


def _build(path: str, spec: dict) -> SymbolicSequence:
    """Build one system; a param error that only its generator can see is reported at `path`."""
    try:
        return build_cached(spec)
    except (ValueError, OverflowError) as e:  # OverflowError: a symbol past uint8
        raise ConfigError(path, str(e)) from e


def _check_file_name(path: str, name: str) -> None:
    """A name the run's output paths hold must be one the file-system encoding can
    spell (under LC_ALL=C that is ASCII), or the run would fail at its first write."""
    try:
        os.fsencode(name)
    except UnicodeEncodeError:
        raise ConfigError(path, f"must be encodable in the file-system encoding"
                          f" ({sys.getfilesystemencoding()}): it names output files") from None


_TOP_LEVEL = {"schema_version", "systems", "tests", "output_dir"}
_SYSTEM_KEYS = {"id", "generator", "params"}


def validate_config(raw: dict, overrides: dict | None = None) -> dict:
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
        if "/" in sid or "\0" in sid or any("\ud800" <= c <= "\udfff" for c in sid):
            raise ConfigError(f"{path}.id", "must not contain '/', NUL or a lone surrogate:"
                              " it names output files")
        _check_file_name(f"{path}.id", sid)
        suffix = max(len(f"__{name}.json") for name in _SCHEMAS)
        if len(sid.encode()) + suffix > 255:
            raise ConfigError(f"{path}.id", f"must be at most {255 - suffix} bytes as UTF-8:"
                              " '<id>__<test>.json' must fit a 255-byte file name")
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
        if "word" in schema and "depth" in given and given.get("word") is not None:
            raise ConfigError(f"{path}.depth", "cannot be given with word, which sets the depth")
        resolved.update(given)
        for key, (_, _, default) in schema.items():
            resolved.setdefault(key, list(default) if isinstance(default, tuple) else default)
        # a run's --horizon and --depth-cap, before the cross-field checks see them
        resolved.update((key, value) for key, value in (overrides or {}).items() if key in schema)
        windows = resolved.get("window_lengths")
        if windows and windows[-1] > resolved["horizon"]:
            raise ConfigError(f"{path}.window_lengths",
                              f"window length {windows[-1]} exceeds horizon {resolved['horizon']}")
        for limit, lengths in (("limit", "lengths"), ("entropy_limit", "entropy_lengths")):
            n, m = resolved.get(limit), resolved.get(lengths, [0])[-1]
            if n is not None and n < m:  # the scan would fail on every system
                raise ConfigError(f"{path}.{limit}", f"scan limit {n} shorter than word length {m}")
        if resolved.get("word") is not None:
            resolved["depth"] = len(resolved["word"])
        out_tests.append(resolved)
    first = {}  # (system id, test name) -> the first test that runs it
    for j, td in enumerate(out_tests):
        name = td["name"]
        for sysd in out_systems:
            sid = sysd["id"]
            if td.get("system") not in (None, sid):
                continue
            if name == "support-counts":
                if sysd["generator"] != "nested-block":
                    raise ConfigError(
                        f"tests[{j}]", f"support-counts requires nested-block systems (got {sid})"
                    )
                i_max = sysd["params"].get("i_max", _PARAMS["nested-block"]["i_max"][2])
                levels = td["levels"] or range(1, i_max)  # the library's default levels
                if not levels or levels[-1] > i_max:
                    raise ConfigError(
                        f"tests[{j}].levels", f"on system {sid!r} (i_max {i_max}): need levels"
                        f" in [1, {i_max}]; the default is 1 to i_max - 1",
                    )
            # a (system, test name) pair names its files, so a repeat would overwrite them
            i = first.setdefault((sid, name), j)
            if i != j:
                raise ConfigError(
                    f"tests[{j}]",
                    f"repeats tests[{i}] ({name!r}) on system {sid!r};"
                    f" both would write verdicts/{sid}__{name}.json",
                )
    output_dir = raw.get("output_dir", "out")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", "must be a nonempty string")
    _check_file_name("output_dir", output_dir)
    return {
        "schema_version": 1,
        "systems": out_systems,
        "tests": out_tests,
        "output_dir": output_dir,
    }


# ---------------------------------------------------------------------------
# execution


def _write_new(path: Path, text: str) -> None:
    """Write `text` to `path` on a fresh inode: an older file there, and every
    hard link to it (a `cp -al` snapshot, say), keeps its bytes."""
    path.unlink(missing_ok=True)
    path.write_bytes(text.encode())


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
    flags = {"horizon": horizon_override, "depth_cap": depth_cap_override}
    overrides = {key: value for key, value in flags.items() if value is not None}
    for key, value in overrides.items():
        _check_field("--" + key.replace("_", "-"), value, "Count", False)
    cfg = validate_config(config, overrides)
    tests = [(td, _values(td)) for td in cfg["tests"]]
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
        (i, j, sid, td["name"], values)
        for i, sid in enumerate(systems)
        for j, (td, values) in enumerate(tests)
        if td.get("system") in (None, sid)
    ]
    # a series word must be spelled in the alphabet of every system it runs on,
    # and the longest word an entropy scan counts must fit in its built length
    for _, j, sid, _, values in jobs:
        if values.get("word") is not None:
            try:
                FiniteWord.from_digits(values["word"], systems[sid].alphabet_size)
            except ValueError as e:
                raise ConfigError(f"tests[{j}].word", f"on system {sid!r}: {e}") from e
        for key in ("lengths", "entropy_lengths"):
            if key in values and values[key][-1] > systems[sid].length:
                raise ConfigError(f"tests[{j}].{key}", f"on system {sid!r}: word length"
                                  f" {values[key][-1]} exceeds its {systems[sid].length} symbols")

    # the run's cylinder cache: tests on one cylinder share its series, and so its CSV
    series_of = functools.cache(diam_series)
    rows, files = [], {}  # files: path under out_dir -> text, or the series of a series CSV
    for i, j, sid, name, t in jobs:
        try:
            verdicts, record, csv_data = _TESTS[name][1](sid, systems[sid], name, series_of, **t)
            json_text = json.dumps(record, sort_keys=True, indent=2) + "\n"
        except (ValueError, RuntimeError, KeyError) as e:  # what main reports; keep the class
            e.args = (f"systems[{i}], tests[{j}]: {e}",)
            raise
        except MemoryError as e:  # numpy's message ignores `args`
            raise MemoryError(f"systems[{i}], tests[{j}]: {e}") from e
        rows += [(sid, v) for v in verdicts]
        files[f"verdicts/{sid}__{name}.json"] = json_text
        if csv_data is not None:
            files[f"series/{sid}__{name}.csv"] = csv_data
    rows.sort(key=lambda row: (row[0], row[1].test))

    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "series").mkdir(exist_ok=True)  # also when no job writes a series CSV
    (out_dir / "verdicts").mkdir(exist_ok=True)
    first_file = {}  # a series (by identity) -> the file its CSV's chunks went to
    for rel in sorted(files):
        path, content = out_dir / rel, files[rel]
        path.unlink(missing_ok=True)  # a fresh inode, as in `_write_new`
        if isinstance(content, str):
            path.write_bytes(content.encode())
        elif content in first_file:  # the same cylinder: a link to that file's inode
            try:
                os.link(first_file[content], path)
            except OSError:  # a filesystem without hard links (vfat, exFAT, some FUSE mounts)
                shutil.copyfile(first_file[content], path)
        else:
            with path.open("wb") as f:
                f.writelines(_series_csv(content))
            first_file[content] = path

    elapsed_ms = int((time.monotonic() - started) * 1000)
    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
    buf = io.StringIO()
    buf.write(f"# generated-at {stamp} elapsed-ms {elapsed_ms}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["system", "test", "params", "statistic", "bias", "verdict"])
    for sid, v in rows:
        params = json.dumps(v.params, sort_keys=True, separators=(",", ":"))
        writer.writerow([sid, v.test, params, _fmt(v.statistic), _fmt(v.bias_bound), v.verdict])
    _write_new(out_dir / "report.csv", buf.getvalue())
    _write_new(out_dir / "config.resolved.json",
               json.dumps(cfg_resolved, sort_keys=True, indent=2) + "\n")
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
    p_run.set_defaults(handler=_cmd_run)

    p_corpus = sub.add_parser("corpus", help="run a built-in preset")
    p_corpus.add_argument("preset", nargs="?", default=None,
                          help="preset name; omit to list presets")
    _add_common_flags(p_corpus)
    p_corpus.set_defaults(handler=_cmd_corpus)

    p_gen = sub.add_parser("gen", help="build a sequence and write it to disk")
    p_gen.add_argument("generator", help=f"one of: {', '.join(sorted(GENERATORS))}")
    p_gen.add_argument("--out", required=True, help="output byte file")
    p_gen.add_argument("--length", type=int, default=None)
    p_gen.add_argument("--params", default="{}", help="generator params as JSON")
    p_gen.set_defaults(handler=_cmd_gen)
    return parser


def _run(raw: dict, base_dir: Path, args: argparse.Namespace) -> int:
    out = run_config(
        raw, base_dir,
        horizon_override=args.horizon, depth_cap_override=args.depth_cap,
        out_dir_override=args.out_dir,
    )
    print(f"report written to {out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    path = Path(args.config)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as e:
        print(f"config parse error at line {e.lineno}, column {e.colno}: {e.msg}",
              file=sys.stderr)
        return 2
    return _run(raw, path.resolve().parent, args)


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
    return _run(PRESETS[args.preset], Path.cwd(), args)


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
        return args.handler(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (BudgetError, MemoryError) as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3
    except (PrecisionError, ValueError) as e:
        print(f"invalid request: {e}", file=sys.stderr)
        return 2
    except KeyError as e:
        print(f"missing field: {e}", file=sys.stderr)
        return 2
    except OSError as e:  # the config, the `gen` output or the run's output directory
        print(f"invalid request: {e.filename}: {e.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
