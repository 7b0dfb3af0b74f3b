"""Record the reference digests that checks.py compares each job against.

    python3 bench/record_reference.py --seeds 0-31

Runs each workload once per seed through bench/worker.py, with no reference,
so every job is checked against the corpus invariants; it refuses to record
a job that breaks one. Jobs whose system takes no seed are recorded once,
under "*", and must give the same digest for every seed. Writes
bench/reference.json. Record only from a commit whose reports are known good.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from run import BENCH_DIR, ROOT, WORKLOADS, Worker


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0-31", help="inclusive range, as in 0-31")
    args = p.parse_args()
    lo, hi = (int(v) for v in args.seeds.split("-"))
    sys.path.insert(0, str(ROOT / "src"))
    import shiftlab.cli as cli
    import checks
    import workloads

    reference: dict[str, dict[str, dict[str, str]]] = {}
    out = ROOT / ".bench_run" / "record"
    for name in WORKLOADS:
        recorded = reference.setdefault(name, {})
        for seed in range(lo, hi + 1):
            cfg = cli.validate_config(workloads.config(name, seed, cli.PRESETS))
            result = Worker(name, seed)("--out", str(out))
            shutil.rmtree(out, ignore_errors=True)
            for key, (system, _) in checks.expected_jobs(cfg).items():
                job = result["jobs"][key]
                if job["error"] is not None:
                    raise SystemExit(f"{name} seed {seed} {key}: {job['error']}")
                slot = str(seed) if "seed" in system["params"] else "*"
                known = recorded.setdefault(slot, {}).setdefault(key, job["digest"])
                if known != job["digest"]:
                    raise SystemExit(f"{name} {key}: digest changes with the seed")
            print(f"{name} seed {seed}: {len(result['jobs'])} jobs recorded", flush=True)
            if not any("seed" in s["params"] for s in cfg["systems"]):
                break
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (BENCH_DIR / "reference.json").write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
