#!/usr/bin/env python3
"""The price of messages end to end: each benchmark data workload run
under ``det`` and under run-to-completion, in interleaved pairs.

    python3 scripts/arch_cost.py [--workload small_stream ...] \
        [--pairs 10] [--seconds 20] [--seed 1]

Each pair runs ``perfbench/run.py --trace 0`` once as it is and once with
``RunToCompletion`` (``tests/rtc.py``) installed, in which a post to an
idle context calls its handler at once, as lwIP and uIP pass a packet
between layers.  Even pairs run ``det`` first and odd pairs
run-to-completion first, so a drift in host speed favours neither.  Both
give the same simulated run (a tier-1 test holds that), so the difference
is what queueing each message costs.

Per workload the script prints the medians of ``dgram_per_s`` and
``rtt_host_us_p50`` on both sides, their ratio (run-to-completion over
``det``), the pairs run-to-completion won, and the share of ``det``'s time
per datagram that the message queue costs, ``1 - det / rtc`` of the
``dgram_per_s`` medians.  Exit status 1 means a run failed a correctness
check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("small_stream", "frag_echo", "frag_stream")
METRICS = {"dgram_per_s": "higher", "rtt_host_us_p50": "lower"}

# the run-to-completion side: perfbench/run.py with RunToCompletion installed
RTC_RUN = """
import runpy, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/tests", root + "/perfbench"]
import rtc
sys.argv = [root + "/perfbench/run.py", *sys.argv[2:]]
with rtc.installed():
    runpy.run_path(sys.argv[0], run_name="__main__")
"""


def run_once(side: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; returns its final JSON line."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    if side == "det":
        cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), *args]
    else:
        cmd = [sys.executable, "-c", RTC_RUN, str(ROOT), *args]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"arch_cost: no output from the {side} run (exit "
                 f"{proc.returncode})\n{proc.stderr}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a data workload (repeatable; default all three)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    failed = False
    rows = ["| workload | metric | det | rtc | rtc / det | rtc better |",
            "|---|---|---|---|---|---|"]
    for workload in args.workload or WORKLOADS:
        runs = {"det": [], "rtc": []}
        for i in range(args.pairs):
            for side in ("det", "rtc") if i % 2 == 0 else ("rtc", "det"):
                res = run_once(side, workload, args.seed, args.seconds)
                runs[side].append(res)
                failed |= not res["correct"]
                print(f"{workload} pair {i + 1}/{args.pairs} {side} correct="
                      f"{res['correct']} dgram_per_s="
                      f"{res['metrics']['dgram_per_s']['value']:.1f}",
                      flush=True)
        medians = {}
        for name, better in METRICS.items():
            det, rtc = ([r["metrics"][name]["value"] for r in runs[side]]
                        for side in ("det", "rtc"))
            sign = 1 if better == "higher" else -1
            won = sum(sign * (r - d) > 0 for d, r in zip(det, rtc))
            med_d, med_r = medians[name] = (statistics.median(det),
                                            statistics.median(rtc))
            rows.append(f"| {workload} | {name} | {med_d:.4g} | {med_r:.4g} "
                        f"| {med_r / med_d:.3f} | {won}/{args.pairs} |")
        med_d, med_r = medians["dgram_per_s"]
        rows.append(f"| {workload} | queue share of det's time | | | "
                    f"{1 - med_d / med_r:+.1%} | |")
    print("\n".join(rows))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
