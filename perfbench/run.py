#!/usr/bin/env python3
"""The modnet benchmark: run one workload, check its outputs, print every
metric with its unit.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 perfbench/run.py --workload small_stream --seed 1 \
        --seconds 20 --trace 0

A run has three parts, all on the deterministic scheduler:

1. The exact pass runs every round of the workload once, with the copy
   counter installed.  It gives the metrics that depend on the seed alone
   (delivered fraction, simulated latency, buffer peak, events and copied
   bytes per operation) and each round's replay signature.
2. ``--trace 0``: the rounds are replayed in order, with nothing
   installed, until ``--seconds`` of host time are spent and every round
   has been replayed at least once.  Each replay must reproduce its round's
   signature exactly.  Host-time metrics come from these replays.
3. ``--trace 1`` instead replays the workload's first ``traced_rounds``
   rounds once plainly and once traced, and prints the per-layer metrics;
   the spans go to ``.bench_out/``.

Exit status is 0 only when every correctness check held.  It is 1 when a
check failed, when the stack raised, or when the modnet sources are not
next to this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE.parent / ".bench_out"

BLOCK_OPS = 1000  # operations per latency block

# metric name -> unit, in the order they are printed
DATA_METRICS = {
    "setup_s": "s",
    "dgram_per_s": "1/s",
    "goodput_kib_per_s": "KiB/s",
    "delivered_frac": "ratio",
    "rtt_host_us_p50": "us",
    "rtt_host_us_p99": "us",
    "sim_lat_us_p50": "sim_us",  # simulated microseconds, not host time
    "sim_lat_us_p99": "sim_us",
    "buf_peak_bytes": "B",
    "events_per_op": "count",
    "copy_bytes_per_byte": "ratio",
    "peak_rss_mib": "MiB",
}
CTRL_METRICS = {
    "setup_s": "s",
    "cmd_per_s": "1/s",
    "delivered_frac": "ratio",
    "rtt_host_us_p50": "us",
    "rtt_host_us_p99": "us",
    "events_per_op": "count",
    "peak_rss_mib": "MiB",
}


def load_modnet():
    if not (SRC / "modnet" / "__init__.py").is_file():
        sys.exit(f"perfbench: no modnet sources at {SRC}")
    sys.path.insert(0, str(SRC))


def exact_metrics(wl, outs, copied_bytes):
    """Metrics that depend on the seed alone."""
    from tracer import nearest_rank
    attempted = sum(o.attempted for o in outs)
    completed = sum(o.completed for o in outs)
    found = {
        "delivered_frac": completed / attempted,
        "events_per_op": sum(o.steps for o in outs) / max(completed, 1),
    }
    if wl.data:
        lat = sorted(x for o in outs for x in o.sim_lat_us)
        found.update({
            "sim_lat_us_p50": nearest_rank(lat, 0.5),
            "sim_lat_us_p99": nearest_rank(lat, 0.99),
            "buf_peak_bytes": max(o.buf_peak for o in outs),
            "copy_bytes_per_byte": copied_bytes / max(
                sum(o.dgram_bytes for o in outs), 1),
        })
    return found


def host_metrics(wl, timed, n_rounds, calibrated=True):
    """Metrics in host time from ``timed``, the replays in the order they
    ran as (round index, outcome, host-speed factor).

    A round's host time is the median over its replays, so that a slow
    phase of the host moves few of them; rates divide the work of all
    rounds by the sum of those medians.  A latency percentile is the median
    over blocks of consecutive replays, each block holding at least
    ``BLOCK_OPS`` operations so that ten or more lie beyond its p99."""
    from tracer import nearest_rank
    times = [[] for _ in range(n_rounds)]
    work = [None] * n_rounds
    setups, blocks, block = [], [], []  # blocks: (size, p50 ns, p99 ns)

    def close_block():
        block.sort()
        blocks.append((len(block), nearest_rank(block, 0.5),
                       nearest_rank(block, 0.99)))
        block.clear()

    for k, out, factor in timed:
        factor = factor if calibrated else 1.0
        times[k].append(out.traffic_ns * factor)
        work[k] = out
        setups.append(out.setup_ns * factor)
        block += [x * factor for x in out.host_lat_ns]
        if len(block) >= BLOCK_OPS:
            close_block()
    if not blocks:  # a run too short for one full block
        close_block()
    seconds = sum(statistics.median(t) for t in times) / 1e9
    found = {"setup_s": statistics.median(setups) / 1e9,
             "rtt_host_us_p50": statistics.median(b[1] for b in blocks) / 1e3,
             "rtt_host_us_p99": statistics.median(b[2] for b in blocks) / 1e3}
    if wl.data:
        found["dgram_per_s"] = sum(o.dgrams for o in work) / seconds
        found["goodput_kib_per_s"] = (sum(o.dgram_bytes for o in work)
                                      / 1024 / seconds)
    else:
        found["cmd_per_s"] = sum(o.completed for o in work) / seconds
    return found, [b[0] for b in blocks]


def exact_pass(wl, rounds):
    """Run every round once with the copy counter installed; return the
    outcomes and the metrics that depend on the seed alone."""
    from tracer import CopyCounter, Patches
    copies = CopyCounter()
    with Patches() as patches:
        copies.install(patches)
        outs = [wl.run(rnd) for rnd in rounds]
    return outs, exact_metrics(wl, outs, copies.bytes)


def measure(wl, seed, seconds, n_rounds, trace):
    from tracer import Patches, Tracer
    rounds = [wl.make_round(seed, i) for i in range(n_rounds)]
    exact, found = exact_pass(wl, rounds)
    signatures = [o.signature() for o in exact]
    report = {"exact": found, "runs": list(exact), "replay_errors": []}

    def replayed(k, out):
        if out.signature() != signatures[k]:
            report["replay_errors"].append(
                f"round {k} did not replay its exact result")
        report["runs"].append(out)
        return out

    if not trace:
        # replay the rounds in order, whole passes first, until the time
        # is spent; every round is replayed at least once
        from calibrate import NOMINAL_NS, HostSpeed
        speed = HostSpeed()
        timed = []
        deadline = time.perf_counter() + seconds
        while len(timed) < len(rounds) or time.perf_counter() < deadline:
            factor = speed.factor()
            k = len(timed) % len(rounds)
            timed.append((k, replayed(k, wl.run(rounds[k])), factor))
        report["host"], report["latency_blocks"] = host_metrics(
            wl, timed, len(rounds))
        report["raw"], _ = host_metrics(wl, timed, len(rounds), False)
        report["speed_factor"] = statistics.median(
            NOMINAL_NS / t for t in speed.samples_ns)
        return report

    from modnet.metrics import ipc_overhead_bench
    sample = list(enumerate(rounds[:wl.traced_rounds]))
    plain = [replayed(k, wl.run(rnd)) for k, rnd in sample]
    ipc_ratio = ipc_overhead_bench(10_000)["ratio"]
    tracer = Tracer()
    traced = []
    with Patches() as patches:
        tracer.install(patches)
        for k, rnd in sample:
            traced.append(replayed(k, wl.run(rnd, tracer.on_built)))
            tracer.end_round()
    layers = tracer.layer_metrics(sum(o.completed for o in traced))
    layers.update({
        "runtime.ipc_ratio": (ipc_ratio, "ratio"),
        "scenario.load_s": (statistics.median(o.load_ns for o in plain)
                            / 1e9, "s"),
        "simnet.build_s": (statistics.median(o.build_ns for o in plain)
                           / 1e9, "s"),
        "trace.overhead_ratio": (sum(o.traffic_ns for o in traced)
                                 / sum(o.traffic_ns for o in plain),
                                 "ratio"),
    })
    report["layers"] = layers
    OUT_DIR.mkdir(exist_ok=True)
    report["spans_file"] = OUT_DIR / f"spans-{wl.name}-seed{seed}.tsv.gz"
    tracer.write_spans(report["spans_file"])
    report["span_count"] = len(tracer.spans)
    return report


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="host seconds of timed replays (trace 0)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rounds", type=int, default=None,
                        help="rounds in the exact pass (default: the "
                        "workload's)")
    args = parser.parse_args(argv)

    load_modnet()
    from workloads import WORKLOADS
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    n_rounds = args.rounds or wl.rounds
    report = measure(wl, args.seed, args.seconds, n_rounds, args.trace)

    runs = report["runs"]
    attempted = sum(o.attempted for o in runs)
    completed = sum(o.completed for o in runs)
    refused = sum(o.refused for o in runs)
    violations = ([v for o in runs for v in o.violations]
                  + report["replay_errors"])
    print(f"workload {wl.name}  seed {args.seed}  rounds {n_rounds}  "
          f"round runs {len(runs)} (the first {n_rounds} are the exact pass)")
    print(f"operations: attempted {attempted}  completed intact {completed}  "
          f"not completed {attempted - completed} (refused by sendto "
          f"{refused})  gate violations {len(violations)}")
    for v in violations[:20]:
        print(f"  VIOLATION: {v}")

    if args.trace:
        units = {name: unit for name, (_, unit) in report["layers"].items()}
        values = {name: value for name, (value, _) in report["layers"].items()}
        print(f"spans: {report['span_count']} written to "
              f"{report['spans_file']}")
    else:
        units = DATA_METRICS if wl.data else CTRL_METRICS
        values = {**report["exact"], **report["host"],
                  "peak_rss_mib": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024}
        blocks = report["latency_blocks"]
        note = ("" if min(blocks) >= BLOCK_OPS else
                "  (too few for a p99 with 10 samples beyond it)")
        print(f"host latency: {len(blocks)} blocks of {min(blocks)} to "
              f"{max(blocks)} operations{note}")
        print(f"median host speed factor {report['speed_factor']:.4f}; "
              "uncalibrated: " + "  ".join(
                  f"{name} {fmt(value)}"
                  for name, value in report["raw"].items()))
    for name, unit in units.items():
        print(f"  {name:36s} {fmt(values[name]):>14s} {unit}")

    result = {"correct": not violations, "attempted": attempted,
              "failed": len(violations),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    print(json.dumps(result))
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
