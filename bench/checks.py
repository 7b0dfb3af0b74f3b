"""Correctness gate for one run's output directory.

A job is one (system, test) pair of the config. Its bytes are its rows of
report.csv (after the header line) and its files under series/ and
verdicts/. A job fails if those bytes differ from the reference digest
recorded for it in reference.json. A job with no recorded digest (a seeded
system at a seed that was never recorded) fails if it breaks a corpus
invariant instead:

- `classify`: the criterion-10 cells of the hierarchy tour;
- the single-series battery: avg >= eta * density, banach >= avg and
  stable-in-mean >= avg on the same system;
- `recurrence`: a found return is re-checked against a fresh build;
- `entropy` on a Sturmian system: the n + 1 factor law.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

HOLDS = "holds-at-horizon"
FAILS = "fails-at-horizon"


def job_key(system: str, test: str) -> str:
    return f"{system}/{test.split('/')[0]}"


def expected_jobs(cfg: dict) -> dict[str, tuple[dict, dict]]:
    """Job key -> (system, test) for each job run_config runs on a validated config."""
    return {
        job_key(s["id"], t["name"]): (s, t)
        for s in cfg["systems"]
        for t in cfg["tests"]
        if t.get("system") in (None, s["id"])
    }


def collect(out_dir: Path) -> tuple[dict[str, dict], int]:
    """Per job: its report lines, parsed rows and file digests; plus bytes written.

    Bytes written count report.csv without its timestamp line, series/ and
    verdicts/, so the count repeats exactly between runs.
    """
    jobs: dict[str, dict] = {}

    def job(key):
        return jobs.setdefault(key, {"lines": [], "rows": [], "files": {}})

    text = (out_dir / "report.csv").read_text()
    lines = text.splitlines()
    written = len(text) - len(lines[0]) - 1
    fields = next(csv.reader([lines[1]]))
    for line in lines[2:]:
        row = dict(zip(fields, next(csv.reader([line]))))
        entry = job(job_key(row["system"], row["test"]))
        entry["lines"].append(line)
        entry["rows"].append(row)
    for sub in ("series", "verdicts"):
        for path in sorted((out_dir / sub).iterdir()):
            data = path.read_bytes()
            written += len(data)
            system, test = path.stem.split("__", 1)
            entry = job(job_key(system, test))
            entry["files"][f"{sub}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return jobs, written


def digest(entry: dict) -> str:
    h = hashlib.sha256()
    for line in entry["lines"]:
        h.update(line.encode() + b"\n")
    for name, file_digest in sorted(entry["files"].items()):
        h.update(f"{name} {file_digest}\n".encode())
    return h.hexdigest()


def _stat(jobs: dict, key: str) -> float:
    return float(jobs[key]["rows"][0]["statistic"])


def _classify_cells(generator: str, verdicts: dict) -> str | None:
    """Criterion 10: the tour cells a system's classify rows must show."""
    ladder = verdicts["classify/ladder-diam-mean-equicontinuity"]
    sensitive = verdicts["classify/diam-mean-sensitivity"]
    if ladder == HOLDS and sensitive == HOLDS:
        return "diam-mean equicontinuity and diam-mean sensitivity both hold"
    want = {}
    if generator == "periodic":
        want = {f"classify/{r}": HOLDS for r in (
            "ladder-diam-mean-equicontinuity",
            "ladder-mean-eq-and-frequent-stability",
            "ladder-mean-equicontinuity",
        )}
    elif generator == "full-shift":
        want = {f"classify/{t}": FAILS for t in (
            "diam-mean-avg", "diam-mean-density", "banach-diam-mean",
            "stable-in-mean", "frequent-stability", "mean-equicontinuity",
        )}
        want["classify/diam-mean-sensitivity"] = HOLDS
    elif generator == "nested-block":
        want = {"classify/ladder-diam-mean-equicontinuity": HOLDS}
    for test, verdict in want.items():
        if verdicts.get(test) != verdict:
            return f"{test} is {verdicts.get(test)}, expected {verdict}"
    return None


def _invariant(key: str, jobs: dict, system: dict, test: dict, build) -> str | None:
    entry = jobs[key]
    rows = entry["rows"]
    name = test["name"]
    sid = system["id"]
    if name == "classify":
        return _classify_cells(system["generator"], {r["test"]: r["verdict"] for r in rows})
    avg_key = job_key(sid, "diam-mean-avg")
    if name in ("diam-mean-density", "banach-diam-mean", "stable-in-mean") and avg_key in jobs:
        avg, stat = _stat(jobs, avg_key), _stat(jobs, key)
        if name == "diam-mean-density" and avg < test["eta"] * stat:
            return f"avg {avg!r} < eta * density {test['eta'] * stat!r}"
        if name != "diam-mean-density" and stat < avg - 1e-9:
            return f"{name} {stat!r} < avg {avg!r}"
    if name == "recurrence" and rows[0]["statistic"]:
        n, m, d = int(float(rows[0]["statistic"])), test["epsilon_depth"], test["powers"]
        data = build({"generator": system["generator"], "params": system["params"]}).data
        if n > test["horizon"] or any(
            bytes(data[j * n : j * n + m]) != bytes(data[:m]) for j in range(1, d + 1)
        ):
            return f"return at n={n} does not verify"
    if name == "entropy" and system["generator"] == "sturmian":
        for row in rows:
            p = json.loads(row["params"])
            if p["count"] != p["length"] + 1:
                return f"{p['count']} factors of length {p['length']}, expected n + 1"
    return None


def check(cfg: dict, out_dir: Path, reference: dict) -> tuple[dict, int]:
    """Per expected job {"digest", "error"}, and the bytes written.

    `reference` maps job keys to recorded digests; a job without one is
    checked against the invariants instead.
    """
    from shiftlab.generate import build

    jobs, written = collect(out_dir)
    out = {}
    for key, (system, test) in expected_jobs(cfg).items():
        entry = jobs.get(key)
        verdict_file = f"verdicts/{system['id']}__{test['name']}.json"
        if entry is None or not entry["rows"] or verdict_file not in entry["files"]:
            out[key] = {"digest": None, "error": "missing rows or verdict file"}
            continue
        d = digest(entry)
        if key in reference:
            error = None if d == reference[key] else "bytes differ from the reference"
        else:
            try:
                error = _invariant(key, jobs, system, test, build)
            except (KeyError, ValueError) as e:
                error = f"malformed report: {type(e).__name__}: {e}"
        out[key] = {"digest": d, "error": error}
    return out, written
