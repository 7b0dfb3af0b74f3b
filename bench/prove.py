"""Check that the benchmark is steady, and record a baseline.

    python3 bench/prove.py --workloads tour,battery,returns --seeds 0-9 \\
        [--trace-seed 0] [--write bench/baseline.json]

Runs bench/run.py once per workload and seed with the run_seconds of
BENCHMARK.json, and prints for each end-to-end metric the median, the
quartiles and the spread: the distance between the first and third
quartile as a share of the median, set against the metric's bound. With
--trace-seed it adds one traced run per workload. With --write it saves
every value, the manifests and the traced layers as a JSON baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH_DIR, ROOT


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    manifest = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("manifest "))
    return json.loads(lines[-1]), manifest


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default="tour,battery,returns")
    p.add_argument("--seeds", default="0-9", help="inclusive range, as in 0-9")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--write")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    lo, hi = (int(v) for v in args.seeds.split("-"))

    baseline = {"run_seconds": seconds, "seeds": [lo, hi], "workloads": {}}
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        attempted = failed = 0
        manifests = []
        for seed in range(lo, hi + 1):
            result, manifest = _run(workload, seed, seconds, 0)
            manifests.append(manifest)
            attempted += result["attempted"]
            failed += result["failed"]
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)
        entry = {"attempted": attempted, "failed": failed, "manifests": manifests,
                 "end_to_end": {}}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {"median": median, "q1": q1, "q3": q3,
                                         "spread": spread, "values": vals}
            print(f"  {name:12s} median {median:.4f}  q1 {q1:.4f}  q3 {q3:.4f}"
                  f"  spread {spread:.4f}  bound {bounds[name]}  "
                  f"{'ok' if spread < bounds[name] / 3 else 'WIDE'}", flush=True)
        print(f"  failed {failed} of {attempted} jobs", flush=True)
        if args.trace_seed is not None:
            result, _ = _run(workload, args.trace_seed, seconds, 1)
            entry["per_layer"] = {"seed": args.trace_seed, "failed": result["failed"],
                                  "metrics": {n: m["value"] for n, m in result["metrics"].items()}}
        baseline["workloads"][workload] = entry
    if args.write:
        (ROOT / args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
