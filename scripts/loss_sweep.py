#!/usr/bin/env python3
"""Sweep per-link loss on a two-node topology and compare delivered
fractions against the binomial expectation.

    PYTHONPATH=src python scripts/loss_sweep.py [--size 600] [--count 50]

Each datagram carries ``--size`` bytes of UDP payload.  With the 48 bytes
of IPv6 and UDP headers it crosses the link as ``frames`` link frames
(6LoWPAN fragments), and it arrives only if every one of them does, so
the expected fraction is ``(1 - loss) ** frames``.
"""

import argparse
from ipaddress import IPv6Address

from modnet import link, sixlowpan
from modnet.pktbuf import NoBufferSpace
from modnet.simnet import DeviceDesc, LinkDesc, NodeDesc, Topology, build

IP_A = IPv6Address("fd00::1").packed
IP_B = IPv6Address("fd00::2").packed
LONG_A = bytes(7) + b"\x0a"
LONG_B = bytes(7) + b"\x0b"


def topology(loss, seed):
    a = NodeDesc("a", devices=[DeviceDesc(b"\x00\x0a", LONG_A)], address=IP_A,
                 neighbors=[(IP_B, LONG_B)])
    b = NodeDesc("b", devices=[DeviceDesc(b"\x00\x0b", LONG_B)], address=IP_B,
                 neighbors=[(IP_A, LONG_A)])
    return Topology(nodes=[a, b], links=[LinkDesc("a", "b", loss=loss)],
                    seed=seed)


def frames(size):
    """Link frames one datagram of ``size`` payload bytes takes."""
    return len(sixlowpan.fragment(bytes(size + 48), link.MAX_PAYLOAD, 1))


def run(loss, count, seed, size):
    sim = build(topology(loss, seed))
    client = sim.socket_layer("a").open(40000)
    sink = sim.socket_layer("b").open(7)
    received = []

    def drain(s):
        while (got := s.recv_nowait()) is not None:
            received.append(got)
    sink.on_ready = drain

    def fire(i=0):
        try:
            client.sendto(IP_B, 7, bytes([i & 0xFF]) * size)
        except NoBufferSpace:
            pass
        if i + 1 < count:
            sim.sched.call_later(500, lambda: fire(i + 1))
    sim.sched.call_later(0, fire)
    sim.run_until()
    return len(received)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--size", type=int, default=40,
                    help="UDP payload bytes per datagram")
    ap.add_argument("--losses", type=float, nargs="*",
                    default=[0.0, 0.05, 0.1, 0.2, 0.4])
    args = ap.parse_args()

    print(f"{'loss':>5}  {'sent':>5}  {'delivered':>9}  "
          f"{'fraction':>8}  {'expected':>8}")
    n_frames = frames(args.size)
    for loss in args.losses:
        got = run(loss, args.count, args.seed, args.size)
        print(f"{loss:>5.2f}  {args.count:>5}  {got:>9}  "
              f"{got / args.count:>8.3f}  {(1 - loss) ** n_frames:>8.3f}")


if __name__ == "__main__":
    main()
