#!/usr/bin/env python3
"""Python function calls (or bytecodes) per completed operation of a
benchmark workload.

    PYTHONPATH=src python scripts/calls_per_op.py --workload frag_echo \
        --seed 1 --rounds 1 --top 10 [--opcodes] [--max 1106]

Each of the workload's first ``--rounds`` rounds runs once, from scenario
load through topology build to drain, under ``sys.setprofile``.  Every
``call`` event (a Python frame; calls into C are not counted) is tallied by
function.  The script prints the total per completed operation, then the
``--top`` functions by calls per operation.  The counts are exact: a round
replays the same events whatever the host, so two commits compare call for
call.  The workloads come from ``perfbench/workloads.py``, imported as is.
With ``--max N`` the script exits 1 when the calls per op exceed ``N``;
since the count is exact, such a gate does not depend on the host.

With ``--opcodes`` the script counts executed bytecodes instead, under
``sys.settrace`` with ``frame.f_trace_opcodes`` set on every Python frame,
and tallies each by the function whose frame ran it; ``--max`` then bounds
bytecodes per op.  This count is exact too, for a given CPython minor
version (the compiler and its bytecode change between versions), so a 1%
change in interpreter work shows where wall time varies 2x.  It runs about
ten times slower than the call count.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402


def label(frame) -> str:
    """Function name and where it is defined."""
    code = frame.f_code
    name = code.co_qualname
    if code.co_filename == "<string>":  # generated, as a dataclass __init__
        owner = frame.f_locals.get("self")
        if owner is not None:
            name = f"{type(owner).__qualname__}.{code.co_name}"
    where = Path(code.co_filename)
    if where.is_relative_to(ROOT):
        where = where.relative_to(ROOT)
    return f"{name}  ({where}:{code.co_firstlineno})"


def count_calls(wl, seed: int, rounds: int, opcodes: bool = False):
    """(calls, or with ``opcodes`` executed bytecodes, by function label,
    completed operations) over ``rounds`` rounds."""
    calls: Counter = Counter()  # code object -> calls or bytecodes
    labels = {}
    completed = 0

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] += 1
            if code not in labels:
                labels[code] = label(frame)

    def opcode(frame, event, arg):
        if event == "opcode":
            calls[frame.f_code] += 1
        return opcode

    def trace(frame, event, arg):  # a "call": trace the new frame's opcodes
        code = frame.f_code
        if code not in labels:
            labels[code] = label(frame)
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return opcode

    hook, fn = (sys.settrace, trace) if opcodes else (sys.setprofile, profile)
    for index in range(rounds):
        rnd = wl.make_round(seed, index)
        hook(fn)
        try:
            out = wl.run(rnd)
        finally:
            hook(None)
        if out.violations:
            sys.exit(f"round {index}: {out.violations[0]}")
        completed += out.completed
    by_label: Counter = Counter()
    for code, n in calls.items():
        by_label[labels[code]] += n
    return by_label, completed


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--top", type=int, default=20, metavar="N")
    ap.add_argument("--opcodes", action="store_true",
                    help="count executed bytecodes instead of calls")
    ap.add_argument("--max", type=float, default=None, metavar="N",
                    help="exit 1 when the count per op exceeds N")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    calls, completed = count_calls(WORKLOADS[args.workload], args.seed,
                                   args.rounds, args.opcodes)
    what = "bytecodes" if args.opcodes else "calls"
    ops = max(completed, 1)
    total = sum(calls.values())
    print(f"{args.workload} seed {args.seed}, {args.rounds} round(s): "
          f"{completed} ops, {total} {what}, {total / ops:.1f} {what} per op")
    for name, n in calls.most_common(args.top):
        print(f"{n / ops:10.2f}  {name}")
    if args.max is not None and total / ops > args.max:
        print(f"{total / ops:.1f} {what} per op exceed --max {args.max:g}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
