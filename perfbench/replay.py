#!/usr/bin/env python3
"""Exact-replay record of the benchmark's simulated results.

The metrics named in ``EXACT`` depend on the seed alone: they come from the
deterministic scheduler, not from the host clock.  A change that only makes
the simulator faster must leave every one of them identical, bit for bit.

    python3 perfbench/replay.py           # compare with replay.json
    python3 perfbench/replay.py --write   # record the current values

``replay.json`` holds the values for the development seed and for one seed
that was held out of development.  Exit status 1 means a value changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "replay.json"
EXACT = ("delivered_frac", "sim_lat_us_p50", "sim_lat_us_p99",
         "buf_peak_bytes", "events_per_op", "copy_bytes_per_byte")
SEEDS = {"development": 1, "held_out": 4242}


def current_values() -> dict:
    import run
    from workloads import WORKLOADS
    values = {}
    for label, seed in SEEDS.items():
        for name, wl in WORKLOADS.items():
            rounds = [wl.make_round(seed, i) for i in range(wl.rounds)]
            outs, found = run.exact_pass(wl, rounds)
            violations = [v for o in outs for v in o.violations]
            if violations:
                raise SystemExit(f"{name} seed {seed}: {violations[0]}")
            values[f"{name}/seed{seed}"] = {
                "seed_role": label,
                **{k: found[k] for k in EXACT if k in found}}
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="record the current values in replay.json")
    args = parser.parse_args(argv)
    import run
    run.load_modnet()
    values = current_values()
    if args.write:
        RECORD.write_text(json.dumps(values, indent=2) + "\n")
        print(f"recorded {len(values)} workload/seed entries in {RECORD}")
        return 0
    recorded = json.loads(RECORD.read_text())
    changed = [(key, metric, recorded[key].get(metric), now.get(metric))
               for key, now in values.items()
               for metric in EXACT
               if recorded.get(key, {}).get(metric) != now.get(metric)]
    for key, metric, old, new in changed:
        print(f"CHANGED {key} {metric}: recorded {old!r}, now {new!r}")
    if changed:
        return 1
    print(f"all {len(values)} workload/seed entries replay exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
