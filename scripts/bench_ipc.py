#!/usr/bin/env python3
"""Measure the message-pass vs function-call overhead ratio across an
iteration ladder and print one row per run.

With ``--repeat N`` the ladder runs N times, then the ratio at each
iteration count is summarised by its median and quartiles.  When the
ladder holds 10,000 and 20,000 iterations, the summary also gives the
median and the largest drift between the two ratios of one repeat, and
counts the repeats that meet acceptance check 11: both ratios at most 100
and less than 20% apart.
"""

import argparse
import statistics

from modnet.metrics import ipc_overhead_bench

CHECK11_BOUND = 100
CHECK11_DRIFT = 0.2


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--iterations", type=int, nargs="*",
                    default=[2_000, 10_000, 20_000, 40_000])
    ap.add_argument("--repeat", type=int, default=1,
                    help="run the ladder N times and summarise the ratios")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    ratios = {n: [] for n in args.iterations}
    print(f"{'iterations':>10}  {'call ns':>8}  {'msg rt ns':>9}  {'ratio':>6}")
    for _ in range(args.repeat):
        for n in args.iterations:
            r = ipc_overhead_bench(n)
            ratios[n].append(r["ratio"])
            print(f"{n:>10}  {r['call_ns_median']:>8.0f}  "
                  f"{r['msg_rt_ns_median']:>9.0f}  {r['ratio']:>6.1f}")
    if args.repeat == 1:
        return

    print(f"\n{'iterations':>10}  {'median':>6}  {'q1':>6}  {'q3':>6}")
    for n, values in ratios.items():
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{n:>10}  {median:>6.1f}  {q1:>6.1f}  {q3:>6.1f}")
    if 10_000 in ratios and 20_000 in ratios:
        pairs = list(zip(ratios[10_000], ratios[20_000]))
        drifts = [abs(doubled - base) / base for base, doubled in pairs]
        met = sum(
            base <= CHECK11_BOUND and doubled <= CHECK11_BOUND
            and drift < CHECK11_DRIFT
            for (base, doubled), drift in zip(pairs, drifts))
        print(f"10k-vs-20k drift: median {statistics.median(drifts):.1%}, "
              f"max {max(drifts):.1%}")
        print(f"check 11 rule met in {met} of {args.repeat} repeats")


if __name__ == "__main__":
    main()
