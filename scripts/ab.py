#!/usr/bin/env python3
"""Interleaved A/B runs of the benchmark on two checkouts of the repo.

    python3 scripts/ab.py --parent OLD --change NEW --workload frag_echo \
        --pairs 10 --seconds 20 --seed 1 --out BENCH_4.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; even pairs run the parent first and odd pairs the change
first, so a drift in host speed does not favour one side.  For every
end-to-end metric the result records each side's runs with their median
and quartiles, the change in the median, and the number of pairs the
change won (ties count for neither).  ``gain_rule_met`` says whether the
change won at least nine tenths of the pairs and its median beat the
parent's by more than the parent's interquartile spread; the Markdown
table shows it per metric.

The result goes into ``--out`` under the key ``<workload>:seed<seed>``;
entries for other keys already in that file are kept, so several
workloads and seeds can share one file.  A Markdown table of the entry is
printed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float):
    """One untraced benchmark run; returns its final JSON line."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ab: no output from {checkout} (exit {proc.returncode})\n"
                 f"{proc.stderr}")
    return json.loads(lines[-1])


def summary(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "runs": values}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(unit, better, parent, change):
    """Per-metric record of one workload's pairs."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    delta = ((c["median"] - p["median"]) / p["median"]
             if p["median"] else None)
    return {
        "unit": unit, "better": better,
        "parent": p, "change": c,
        "delta_median": delta,
        "change_better_pairs": wins,
        "gain_rule_met": (wins >= 0.9 * len(parent)
                          and sign * (c["median"] - p["median"])
                          > p["q3"] - p["q1"]),
    }


def table(key, entry):
    rows = ["| workload | metric | parent | change | Δ median | better "
            "| gain rule met |", "|---|---|---|---|---|---|---|"]
    pairs = entry["pairs"]
    for name, m in entry["metrics"].items():
        p, c = m["parent"], m["change"]
        delta = ("n/a" if m["delta_median"] is None
                 else f"{m['delta_median']:+.1%}")
        rows.append(
            f"| {key} | {name} | {p['median']:.4g} [{p['q1']:.4g}, "
            f"{p['q3']:.4g}] | {c['median']:.4g} [{c['q1']:.4g}, "
            f"{c['q3']:.4g}] | {delta} | {m['change_better_pairs']}/{pairs} "
            f"| {'yes' if m['gain_rule_met'] else 'no'} |")
    return "\n".join(rows)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True,
                    help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True,
                    help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            checkout = parent if side == "parent" else change
            res = run_once(checkout, args.workload, args.seed, args.seconds)
            results[side].append(res)
            dgram = res["metrics"].get("dgram_per_s", {}).get("value")
            print(f"pair {i + 1}/{args.pairs} {side:6s} correct="
                  f"{res['correct']} failed={res['failed']} "
                  f"dgram_per_s={dgram}", flush=True)

    metrics = {}
    for name, m in results["change"][0]["metrics"].items():
        if name not in better:
            continue
        metrics[name] = compare(
            m["unit"], better[name],
            [r["metrics"][name]["value"] for r in results["parent"]],
            [r["metrics"][name]["value"] for r in results["change"]])
    key = f"{args.workload}:seed{args.seed}"
    entry = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "pairs": args.pairs,
        "correct": {side: [r["correct"] for r in runs]
                    for side, runs in results.items()},
        "failed": {side: [r["failed"] for r in runs]
                   for side, runs in results.items()},
        "attempted": {side: [r["attempted"] for r in runs]
                      for side, runs in results.items()},
        "metrics": metrics,
    }
    doc = (json.loads(args.out.read_text()) if args.out.exists()
           else {"host": {"python": platform.python_version(),
                          "machine": platform.machine(),
                          "cpus": os.cpu_count()},
                 "entries": {}})
    doc["entries"][key] = entry
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(table(key, entry))


if __name__ == "__main__":
    main()
