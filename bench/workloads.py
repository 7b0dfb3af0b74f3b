"""The benchmark's workloads: one shiftlab config per name, built from a seed.

Each workload is a config for `shiftlab.cli.run_config`. `tour` is the
hierarchy-tour preset verbatim and ignores the seed; `battery` and `returns`
pass the seed to their random full-shift system, so the same seed always
gives the same inputs. Sizes were chosen so one cold run takes 5 to 10 s on
a 2-core box and each workload loads different layers; BENCHMARK.json gives
the reason for each.
"""

from __future__ import annotations

import copy

SINGLE_SERIES_TESTS = (
    "diam-mean-avg",
    "diam-mean-density",
    "banach-diam-mean",
    "stable-in-mean",
    "frequent-stability",
)

# Block length p_5 of the nested-block point: its level-5 horizon.
NESTED_P5 = 1_198_744


def _full_shift(seed: int) -> dict:
    return {
        "id": "full-shift",
        "generator": "full-shift",
        "params": {"length": 1 << 21, "alphabet_size": 2, "mode": "random", "seed": seed},
    }


def config(name: str, seed: int, presets: dict) -> dict:
    """The raw config of workload `name`; `presets` is `shiftlab.cli.PRESETS`."""
    if name == "tour":
        return copy.deepcopy(presets["hierarchy-tour"])
    if name == "battery":
        tests = [
            {"name": t, "system": sid, "depth": 2, "horizon": horizon}
            for sid, horizon in (("full-shift", 32768), ("nested-block", NESTED_P5))
            for t in SINGLE_SERIES_TESTS
        ]
        tests.append({"name": "mean-eq-modulus", "system": "full-shift", "depths": [2, 4, 8]})
        tests.append({"name": "support-counts", "system": "nested-block"})
        return {
            "schema_version": 1,
            "systems": [
                _full_shift(seed),
                {"id": "nested-block", "generator": "nested-block", "params": {"i_max": 6}},
            ],
            "tests": tests,
        }
    if name == "returns":
        return {
            "schema_version": 1,
            "systems": [
                {"id": "sturmian", "generator": "sturmian",
                 "params": {"length": 2_000_100, "angle": "golden"}},
                _full_shift(seed),
            ],
            "tests": [
                {"name": "recurrence", "system": "sturmian",
                 "powers": 2, "epsilon_depth": 8, "horizon": 10**6},
                {"name": "recurrence", "system": "full-shift",
                 "powers": 2, "epsilon_depth": 16, "horizon": 10**6},
                {"name": "entropy", "system": "sturmian",
                 "lengths": [8, 16, 32, 64, 128], "limit": 10**6},
                {"name": "entropy", "system": "full-shift",
                 "lengths": [4, 8, 12, 16], "limit": 10**6},
            ],
        }
    raise KeyError(name)
