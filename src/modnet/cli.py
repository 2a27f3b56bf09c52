"""Batch command line: run scenario files and fuzz the option plane.

Exit codes: 0 clean completion, 2 scenario error (named by its JSON
pointer) or usage error (argparse prints the usage and exits), 3 invariant
violation while running or an unclean fuzz report.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .netapi import ENOTSUP, OK, CmdTimeout, MsgKind, NetMessage, OptionKey, send_cmd
from .runtime import SCHEDULERS
from .scenario import ScenarioError, load_scenario_file, run_scenario
from .simnet import InvalidTopology, build

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_INVARIANT = 3

KNOWN_KEYS = [k.value for k in OptionKey]


def _nonneg_int(text: str) -> int:
    """An integer >= 0 from the command line.  A seed is one too, as the
    topology check asks: ``random.Random(-n)`` equals ``Random(n)``."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 0, got {text!r}")
    return int(text)


def _until(text: str) -> int | None:
    """``--until``: None for 'quiescent', else a simulated time in us."""
    return None if text == "quiescent" else _nonneg_int(text)


def _cmd_run(args) -> int:
    scenario = load_scenario_file(args.scenario)
    if args.seed is not None:
        scenario.topology.seed = args.seed
    try:
        # the trace and the copy ledger are kept only when written out
        sim, stats = run_scenario(scenario, mode=args.mode, until=args.until,
                                  record=bool(args.trace or args.stats))
    except AssertionError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.mode == "par" and sim.sched.errors:
        first = sim.sched.errors[0]
        print(f"invariant violation: {first!r}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(sim.sched.trace) + "\n")
    if args.stats:
        with open(args.stats, "w") as fh:
            json.dump(stats, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"done: {stats['sends']} sends, "
          f"{stats['counters'].get('udp_delivered', 0)} delivered, "
          f"{stats['trace_lines']} trace lines, t={stats['now_us']} us")
    return EXIT_OK


def fuzz_enotsup(scenario, ops: int, seed: int) -> dict:
    """Throw random option traffic at every module context and record
    anything that is not a prompt OK/ENOTSUP answer."""
    sim = build(scenario.topology, mode="det")
    contexts = []
    for node in sim.nodes.values():
        contexts.extend(node.all_contexts())
    rng = random.Random(seed)
    report = {"ops": ops, "timeouts": [], "crashes": [],
              "unknown_key_non_enotsup": [], "ok": 0, "enotsup": 0}
    for i in range(ops):
        ctx = rng.choice(contexts)
        kind = rng.choice((MsgKind.MSG_GET, MsgKind.MSG_SET))
        if rng.random() < 0.5:
            key = rng.choice(KNOWN_KEYS)
        else:
            key = rng.randrange(0x100, 0x10000)  # guaranteed unknown
        value = rng.choice((b"", b"\x00", rng.randrange(256),
                            bytes(rng.randrange(1, 5))))
        label = f"op {i}: {ctx.node.name}/{ctx.name} {kind.name} key={key}"
        try:
            ack = send_cmd(sim.sched, ctx,
                           NetMessage(kind=kind, option=(key, value)),
                           timeout_us=1_000_000)
        except CmdTimeout:
            report["timeouts"].append(label)
            continue
        except Exception as exc:
            report["crashes"].append(f"{label}: {exc!r}")
            continue
        if ack.status == OK:
            report["ok"] += 1
        elif ack.status == ENOTSUP:
            report["enotsup"] += 1
        if key not in KNOWN_KEYS and ack.status != ENOTSUP:
            report["unknown_key_non_enotsup"].append(
                f"{label}: status={ack.status}")
    report["clean"] = not (report["timeouts"] or report["crashes"]
                           or report["unknown_key_non_enotsup"])
    return report


def _cmd_fuzz(args) -> int:
    report = fuzz_enotsup(load_scenario_file(args.scenario), args.ops,
                          args.seed)
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(out + "\n")
    print(out)
    return EXIT_OK if report["clean"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modnet", description="modular network stack simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario file")
    run_p.add_argument("scenario")
    run_p.add_argument("--mode", choices=SCHEDULERS, default="det")
    run_p.add_argument("--seed", type=_nonneg_int, default=None,
                       help="override the scenario seed")
    run_p.add_argument("--trace", metavar="PATH",
                       help="write the message trace to PATH")
    run_p.add_argument("--stats", metavar="PATH",
                       help="write stats JSON to PATH")
    run_p.add_argument("--until", type=_until, default="quiescent",
                       help="'quiescent' or a simulated time bound in us")
    run_p.set_defaults(fn=_cmd_run)

    fuzz_p = sub.add_parser(
        "fuzz-enotsup",
        help="random option traffic against every module; anything but a "
             "prompt OK/ENOTSUP answer fails")
    fuzz_p.add_argument("scenario")
    fuzz_p.add_argument("--ops", type=_nonneg_int, default=1000)
    fuzz_p.add_argument("--seed", type=_nonneg_int, default=1)
    fuzz_p.add_argument("--report", metavar="PATH",
                        help="also write the report JSON to PATH")
    fuzz_p.set_defaults(fn=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ScenarioError, InvalidTopology, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
