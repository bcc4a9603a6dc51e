#!/usr/bin/env python3
"""Rewrite perfbench/pins.json: the SHA-256 of RunReport.canonical_bytes()
for every input of every workload (the seed only orders the inputs).

    python3 perfbench/make_pins.py

Run it only when a change is meant to alter reports, and say so: the
pins are what tells two commits' outputs apart byte for byte.
"""

import json
import sys

import bench_inputs as bi
from run import PINS, WORKLOADS, Runner, import_fmrep


def main():
    pins = {}
    for name, wl in WORKLOADS.items():
        _, api = import_fmrep()
        runner = Runner(api, wl, None)
        runner.run_pass(wl.inputs(api, wl.setup(api), bi.DEFAULT_SEED), 0)
        bad = [r for r in runner.records if r.get("problems") or (r.get("stable", True) and not r["ok"])]
        if bad:
            print(f"{name}: {len(bad)} inputs failed, first: {bad[0]}", file=sys.stderr)
            return 1
        pins[name] = dict(sorted(runner.digests.items()))
        print(f"{name}: {len(pins[name])} digests")
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
