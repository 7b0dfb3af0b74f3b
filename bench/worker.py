"""One cold sample of a workload, in a fresh interpreter.

bench/run.py starts this with PYTHONPATH pointing at src/ and
SHIFTLAB_CACHE_DIR removed:

    python3 bench/worker.py --workload battery --seed 3 --out DIR \\
        [--reference FILE] [--trace] [--spans FILE] [--setup-only]

It prints one JSON object: `setup_s` (import shiftlab.cli and validate the
config), `wall_s` and `cpu_s` of one `run_config` call with threads 1 and no
cache, `peak_rss_mb` of this process, and per job a digest and an error or
null. With --trace the timed shiftlab functions are wrapped first and the
object also holds the per-layer metrics; --spans writes the raw spans.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--reference", type=Path)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--spans", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    t0 = time.perf_counter()
    import shiftlab.cli as cli

    raw = workloads.config(args.workload, args.seed, cli.PRESETS)
    cfg = cli.validate_config(raw)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import checks
    import numpy

    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    error = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        cli.run_config(raw, Path.cwd(), threads=1, out_dir_override=str(args.out))
    except Exception as e:  # the sample reports the failure; the runner counts it
        error = f"{type(e).__name__}: {e}"
    wall_s, cpu_s = time.perf_counter() - w0, time.process_time() - c0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "numpy": numpy.__version__,
    }
    written = 0
    if error is None:
        reference = {}
        if args.reference is not None:
            recorded = json.loads(args.reference.read_text()).get(args.workload, {})
            reference = {**recorded.get("*", {}), **recorded.get(str(args.seed), {})}
        result["jobs"], written = checks.check(cfg, args.out, reference)
    else:
        result["jobs"] = {key: {"digest": None, "error": error}
                          for key in checks.expected_jobs(cfg)}
    if tracer is not None:
        result["layers"] = {**tracer.metrics(), "cli.bytes_written": written}
        if args.spans is not None:
            args.spans.write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
