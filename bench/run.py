"""shiftlab benchmark: cold end-to-end samples, or a traced per-layer run.

    python3 bench/run.py --workload {tour,battery,returns} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout; it needs only Python and numpy.
Each sample is a fresh interpreter (bench/worker.py) with PYTHONPATH=src,
SHIFTLAB_CACHE_DIR removed, threads 1 and a throwaway output directory
under .bench_run/, so every sample pays for its generator builds. Samples
run one at a time until the next would end past S seconds, and at least
MIN_ROUNDS times. Every sample's report is checked (see checks.py).

--trace 0 reports the end-to-end metrics: medians of wall_s, cpu_s and
peak_rss_mb over the samples, and of setup_s over the samples plus
SETUP_PROBES_PER_ROUND interpreters per round that only import and
validate, spread over the run like the samples. --trace 1
alternates untraced and traced samples and reports the per-layer metrics
(medians over the traced samples) and trace_overhead_s, the traced minus
the untraced median wall time; the spans of the last traced sample are
written to .bench_trace/.

The metrics and their units are those BENCHMARK.json lists. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the lines before it give each metric's quartiles and
sample count, error_rate (failed jobs over attempted jobs), and the run's
manifest: seed, git commit, source digest, Python and numpy versions, nproc.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("tour", "battery", "returns")
MIN_ROUNDS = {False: 3, True: 2}
SETUP_PROBES_PER_ROUND = 3
WORKER_TIMEOUT_S = 120

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _quartiles(values: list) -> tuple:
    """(q1, median, q3); the median of counts stays an integer."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    if all(isinstance(v, int) for v in values):
        return q1, statistics.median_low(values), q3
    return q1, statistics.median(values), q3


def _manifest(workload: str, seed: int, numpy_version: str) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


class Worker:
    """Starts bench/worker.py for one workload and seed; one sample per call."""

    def __init__(self, workload: str, seed: int) -> None:
        self.base = [sys.executable, str(BENCH_DIR / "worker.py"),
                     "--workload", workload, "--seed", str(seed)]
        self.env = dict(os.environ)
        self.env.pop("SHIFTLAB_CACHE_DIR", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")

    def __call__(self, *extra: str) -> dict:
        proc = subprocess.run(
            self.base + list(extra), cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def _samples(worker: Worker, seconds: int, trace: bool, scratch: Path, spans: Path):
    """Untraced (and, with trace, traced) samples until the time is used up."""
    start = time.perf_counter()
    setups, plain, traced, rounds = [], [], [], []
    reference = BENCH_DIR / "reference.json"
    while True:
        t0 = time.perf_counter()
        setups += [worker("--setup-only")["setup_s"] for _ in range(SETUP_PROBES_PER_ROUND)]
        for traced_mode in (False, True) if trace else (False,):
            out = scratch / "out"
            extra = ["--out", str(out), "--reference", str(reference)]
            if traced_mode:
                extra += ["--trace", "--spans", str(spans)]
            (traced if traced_mode else plain).append(worker(*extra))
            shutil.rmtree(out, ignore_errors=True)
        rounds.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(rounds) >= MIN_ROUNDS[trace] and elapsed + statistics.median(rounds) > seconds:
            return setups, plain, traced


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "shiftlab" / "cli.py").is_file():
        print(f"no shiftlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    scratch = ROOT / ".bench_run"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir()
    spans = ROOT / ".bench_trace" / f"{args.workload}-seed{args.seed}.json"
    if args.trace:
        spans.parent.mkdir(exist_ok=True)
    worker = Worker(args.workload, args.seed)
    try:
        setups, plain, traced = _samples(worker, args.seconds, bool(args.trace), scratch, spans)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    runs = plain + traced
    errors = [f"{key}: {job['error']}" for r in runs for key, job in r["jobs"].items()
              if job["error"] is not None]
    attempted = sum(len(r["jobs"]) for r in runs)
    for line in sorted(set(errors)):
        print(f"failed job {line}", file=sys.stderr)

    if args.trace:
        series = {name: [r["layers"][name] for r in traced]
                  for name in units if name != "trace_overhead_s"}
        series["trace_overhead_s"] = [statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(r["wall_s"] for r in plain)]
    else:
        series = {name: [r[name] for r in plain] for name in units}
        series["setup_s"] += setups
    medians = {}
    for name, values in series.items():
        q1, medians[name], q3 = _quartiles(values)
        print(f"{name:40s} median {medians[name]:.6g} {units[name]}"
              f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")
    print(f"{'error_rate':40s} {len(errors) / attempted:.6g}"
          f"  ({len(errors)} of {attempted} jobs failed)")
    print("manifest " + json.dumps(_manifest(args.workload, args.seed, runs[0]["numpy"])))
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in medians.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
