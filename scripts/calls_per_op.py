#!/usr/bin/env python3
"""Python function calls per completed operation of a benchmark workload.

    PYTHONPATH=src python scripts/calls_per_op.py --workload frag_echo \
        --seed 1 --rounds 1 --top 10 [--max 1106]

Each of the workload's first ``--rounds`` rounds runs once, from scenario
load through topology build to drain, under ``sys.setprofile``.  Every
``call`` event (a Python frame; calls into C are not counted) is tallied by
function.  The script prints the total per completed operation, then the
``--top`` functions by calls per operation.  The counts are exact: a round
replays the same events whatever the host, so two commits compare call for
call.  The workloads come from ``perfbench/workloads.py``, imported as is.
With ``--max N`` the script exits 1 when the calls per op exceed ``N``;
since the count is exact, such a gate does not depend on the host.
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


def count_calls(wl, seed: int, rounds: int):
    """(calls by function label, completed operations) over ``rounds``
    rounds."""
    calls: Counter = Counter()  # code object -> calls
    labels = {}
    completed = 0

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls[code] += 1
            if code not in labels:
                labels[code] = label(frame)

    for index in range(rounds):
        rnd = wl.make_round(seed, index)
        sys.setprofile(profile)
        try:
            out = wl.run(rnd)
        finally:
            sys.setprofile(None)
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
    ap.add_argument("--max", type=float, default=None, metavar="N",
                    help="exit 1 when the calls per op exceed N")
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be >= 1")
    calls, completed = count_calls(WORKLOADS[args.workload], args.seed,
                                   args.rounds)
    ops = max(completed, 1)
    total = sum(calls.values())
    print(f"{args.workload} seed {args.seed}, {args.rounds} round(s): "
          f"{completed} ops, {total} calls, {total / ops:.1f} calls per op")
    for name, n in calls.most_common(args.top):
        print(f"{n / ops:10.2f}  {name}")
    if args.max is not None and total / ops > args.max:
        print(f"{total / ops:.1f} calls per op exceed --max {args.max:g}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
