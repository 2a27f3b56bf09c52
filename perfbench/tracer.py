"""Measuring modnet's layers from outside the package.

``Patches`` swaps public functions of the layers for wrappers and puts the
originals back afterwards, so no file in ``src/modnet`` changes.  Two kinds
of wrapper use it:

* ``CopyCounter`` counts the payload bytes the stack copies: the bytes
  ``PacketChain.to_bytes`` returns plus the bytes passed as ``payload=`` to
  ``PacketBuffer.alloc_snip``.  It runs on the untimed exact pass.
* ``Tracer`` records a span around each call (name, start, end, parent and
  the ``packet_id`` when there is one), keeps the spans in memory and
  derives the per-layer metrics from them.  Self time is a span's duration
  minus the durations of its child spans.
"""

from __future__ import annotations

import gzip
import math
import time
from collections import defaultdict

from modnet import ipv6, metrics, netapi, netdev, pktbuf, runtime, simnet
from modnet import sixlowpan, udp
from modnet.netapi import NetMessage
from modnet.netdev import DevStatus
from modnet.pktbuf import NoBufferSpace
from modnet.sixlowpan import ReassemblyStatus

clock_ns = time.perf_counter_ns


class Patches:
    """Attribute replacements that are undone on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def nearest_rank(sorted_values, q):
    """The q-quantile of an ascending list by the nearest-rank rule."""
    if not sorted_values:
        return 0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class CopyCounter:
    """Payload bytes materialised by ``to_bytes`` and ``alloc_snip``."""

    def __init__(self):
        self.bytes = 0

    def install(self, patches: Patches):
        to_bytes = pktbuf.PacketChain.to_bytes
        alloc_snip = pktbuf.PacketBuffer.alloc_snip

        def counted_to_bytes(chain):
            data = to_bytes(chain)
            self.bytes += len(data)
            return data

        def counted_alloc_snip(buf, payload=None, **kwargs):
            snip = alloc_snip(buf, payload, **kwargs)
            if payload is not None:
                self.bytes += len(payload)
            return snip

        patches.set(pktbuf.PacketChain, "to_bytes", counted_to_bytes)
        patches.set(pktbuf.PacketBuffer, "alloc_snip", counted_alloc_snip)


def _msg_pid(msg):
    return msg.meta.get("packet_id") if isinstance(msg, NetMessage) else None


HANDLER_KIND = {"6lo": "sixlowpan", "ipv6": "ipv6", "udp": "udp",
                "sock": "sock", "offload": "offload"}


class Tracer:
    """Spans at every layer boundary, plus counts taken at the same
    boundaries (mailbox depth, fan-out, refused allocations ...)."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent, packet_id)
        self._stack: list[int] = []
        self.count = defaultdict(int)
        self.peak = defaultdict(float)
        self.mailbox_wait_ns: list[int] = []
        self._posted: dict[int, int] = {}  # id(msg) -> time it was queued
        self._reasm_before: list = []
        self.sim = None

    def wrap(self, name, fn, pid=None, before=None, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            result = exc = None
            t0 = clock_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                t1 = clock_ns()
                stack.pop()
                spans[idx] = (name, t0, t1, stack[-1] if stack else -1,
                              pid(args, result) if pid is not None else None)
                if after is not None:
                    after(args, kwargs, result, exc)

        return traced

    # -- observers at the span boundaries ---------------------------------
    def _after_post(self, args, kwargs, ok, exc):
        if ok:
            ctx, msg = args[1], args[2]
            self._posted[id(msg)] = clock_ns()
            self.peak["mailbox_hwm"] = max(self.peak["mailbox_hwm"],
                                           len(ctx.mailbox))

    def _before_handler(self, args):
        posted = self._posted.pop(id(args[1]), None)
        if posted is not None:
            self.mailbox_wait_ns.append(clock_ns() - posted)

    def _before_step(self, args):
        self.peak["heap"] = max(self.peak["heap"], args[0].pending_events())

    def _after_dispatch(self, args, kwargs, fanout, exc):
        self.count["dispatch_targets"] += fanout or 0

    def _after_dev_send(self, args, kwargs, status, exc):
        self.count["dev_send_busy"] += status is DevStatus.BUSY

    def _after_alloc(self, args, kwargs, snip, exc):
        if isinstance(exc, NoBufferSpace):
            self.count["alloc_fail"] += 1
            return
        if snip is not None:
            payload = args[1] if len(args) > 1 else kwargs.get("payload")
            if payload is not None:
                self.count["payload_alloc_bytes"] += len(payload)
            ratio = args[0].stats().fragmentation_ratio
            self.peak["frag_ratio"] = max(self.peak["frag_ratio"], ratio)

    def _after_to_bytes(self, args, kwargs, data, exc):
        if data is not None:
            self.count["to_bytes_bytes"] += len(data)

    def _after_fragment(self, args, kwargs, frags, exc):
        if frags is not None:
            self.count["fragment_calls"] += 1
            self.count["fragments"] += len(frags)

    def _before_reasm(self, args):
        self._reasm_before.append(
            {id(e.snip) for e in args[0].entries.values()})

    def _after_reasm(self, args, kwargs, result, exc):
        before = self._reasm_before.pop()
        if result is None:
            return
        status, chain, _ = result
        opened = sum(id(e.snip) not in before
                     for e in args[0].entries.values())
        if status is ReassemblyStatus.COMPLETE:
            self.count["reasm_complete"] += 1
            opened += id(chain.head) not in before
        elif status is ReassemblyStatus.DROPPED:
            self.count["reasm_dropped"] += 1
        self.count["reasm_opened"] += opened

    # -- installation -------------------------------------------------------
    def install(self, patches: Patches):
        w, s = self.wrap, patches.set
        sched = runtime.DetScheduler
        s(sched, "post", w("runtime.post", sched.post,
                           lambda args, res: _msg_pid(args[2]),
                           after=self._after_post))
        s(sched, "step", w("runtime.step", sched.step,
                           before=self._before_step))
        s(netapi, "dispatch", w(
            "netapi.dispatch", netapi.dispatch,
            lambda args, res: (args[4] or {}).get("packet_id")
            if len(args) > 4 else None, after=self._after_dispatch))
        s(netapi.Registry, "lookup", w("netapi.lookup",
                                       netapi.Registry.lookup))
        s(netapi, "send_cmd", w("netapi.send_cmd", netapi.send_cmd))
        buf = pktbuf.PacketBuffer
        s(buf, "alloc_snip", w("pktbuf.alloc", buf.alloc_snip,
                               after=self._after_alloc))
        s(buf, "hold", w("pktbuf.hold", buf.hold))
        s(buf, "release", w("pktbuf.release", buf.release))
        s(buf, "prepend_header", w("pktbuf.prepend", buf.prepend_header))
        chain = pktbuf.PacketChain
        s(chain, "to_bytes", w("pktbuf.to_bytes", chain.to_bytes,
                               after=self._after_to_bytes))
        s(chain, "total_size", property(w("pktbuf.total_size",
                                          chain.total_size.fget)))
        s(simnet.Medium, "transmit", w("simnet.transmit",
                                       simnet.Medium.transmit))
        dev = netdev.SimRadioDevice
        s(dev, "dev_send", w("netdev.dev_send", dev.dev_send,
                             after=self._after_dev_send))
        s(dev, "dev_recv", w("netdev.dev_recv", dev.dev_recv))
        s(sixlowpan, "fragment", w("sixlowpan.fragment", sixlowpan.fragment,
                                   after=self._after_fragment))
        table = sixlowpan.ReassemblyTable
        s(table, "step", w("sixlowpan.reasm_step", table.step,
                           lambda args, res: res[2] if res else None,
                           before=self._before_reasm,
                           after=self._after_reasm))
        s(table, "expire", w("sixlowpan.reasm_expire", table.expire))
        s(ipv6.Ipv6Module, "route", w("ipv6.route", ipv6.Ipv6Module.route))
        s(udp, "udp_checksum", w("udp.checksum", udp.udp_checksum))
        s(udp, "udp_verify", w("udp.checksum", udp.udp_verify))
        sock = udp.Socket
        s(sock, "sendto", w("udp.sendto", sock.sendto,
                            lambda args, res: res))
        s(sock, "recvfrom", w("udp.recvfrom", sock.recvfrom))
        m = metrics.Metrics
        s(m, "count", w("metrics.count", m.count))
        s(m, "record_copy", w("metrics.record_copy", m.record_copy,
                              lambda args, res: args[2]))
        s(m, "new_packet_id", w("metrics.new_packet_id", m.new_packet_id,
                                lambda args, res: res))
        s(m, "merge_packet", w("metrics.merge_packet", m.merge_packet,
                               lambda args, res: args[1]))

    def on_built(self, sim):
        """Wrap every module context's handler of a freshly built topology."""
        self.sim = sim
        for node in sim.nodes.values():
            for ctx in node.all_contexts():
                kind = HANDLER_KIND.get(ctx.name, "link")
                ctx.handler = self.wrap(
                    f"handler.{kind}", ctx.handler,
                    lambda args, res: _msg_pid(args[1]),
                    before=self._before_handler)

    def end_round(self):
        """Fold the finished round's stack counters into the totals."""
        for name, n in self.sim.metrics.counters.items():
            self.count["metric:" + name] += n
        self.sim = None
        self._posted.clear()

    # -- results --------------------------------------------------------------
    def layer_totals(self):
        """name -> [calls, inclusive ns, self ns]."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = defaultdict(lambda: [0, 0, 0])
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            row = totals[name]
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[i]
        return totals

    def write_spans(self, path):
        with gzip.open(path, "wt") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\tpacket_id\n")
            for name, t0, t1, parent, pid in self.spans:
                fh.write(f"{name}\t{t0}\t{t1}\t{parent}\t"
                         f"{'' if pid is None else pid}\n")

    def layer_metrics(self, ops: int) -> dict:
        """Per-layer metrics of the traced rounds, per completed operation
        where the name says so: name -> (value, unit)."""
        totals = self.layer_totals()
        ops = max(ops, 1)
        count = self.count

        def calls(*names):
            return sum(totals[n][0] for n in names if n in totals)

        def us(*names, own=True):
            col = 2 if own else 1
            return sum(totals[n][col] for n in names if n in totals) / 1e3

        def per_op(value):
            return value / ops

        def frac(part, whole):
            return part / whole if whole else 0.0

        handlers = [n for n in totals if n.startswith("handler.")]
        metric = lambda name: count["metric:" + name]  # noqa: E731
        waits = sorted(self.mailbox_wait_ns)
        frames = metric("frames_sent")
        return {
            "runtime.post_calls_per_op": (per_op(calls("runtime.post")),
                                          "count"),
            "runtime.post_self_us_per_op": (per_op(us("runtime.post")), "us"),
            "runtime.handler_calls_per_op": (per_op(calls(*handlers)),
                                             "count"),
            "runtime.step_self_us_per_op": (per_op(us("runtime.step")), "us"),
            "runtime.mailbox_wait_us_p50": (nearest_rank(waits, 0.5) / 1e3,
                                            "us"),
            "runtime.mailbox_hwm": (self.peak["mailbox_hwm"], "count"),
            "runtime.mailbox_drops": (metric("mailbox_drops"), "count"),
            "runtime.heap_peak": (self.peak["heap"], "count"),
            "netapi.dispatch_calls_per_op": (
                per_op(calls("netapi.dispatch")), "count"),
            "netapi.dispatch_self_us_per_op": (
                per_op(us("netapi.dispatch")), "us"),
            "netapi.fanout": (frac(count["dispatch_targets"],
                                   calls("netapi.dispatch")), "count"),
            "netapi.lookup_us_per_op": (per_op(us("netapi.lookup")), "us"),
            "netapi.send_cmd_self_us_per_op": (
                per_op(us("netapi.send_cmd")), "us"),
            "pktbuf.alloc_calls_per_op": (per_op(calls("pktbuf.alloc")),
                                          "count"),
            "pktbuf.alloc_self_us_per_op": (per_op(us("pktbuf.alloc")), "us"),
            "pktbuf.release_self_us_per_op": (per_op(us("pktbuf.release")),
                                              "us"),
            "pktbuf.to_bytes_bytes_per_op": (
                per_op(count["to_bytes_bytes"]), "B"),
            "pktbuf.payload_alloc_bytes_per_op": (
                per_op(count["payload_alloc_bytes"]), "B"),
            "pktbuf.alloc_fail_frac": (
                frac(count["alloc_fail"], calls("pktbuf.alloc")), "ratio"),
            "pktbuf.frag_ratio_max": (self.peak["frag_ratio"], "ratio"),
            "netdev.frames_per_op": (per_op(frames), "count"),
            "netdev.busy_frac": (frac(count["dev_send_busy"],
                                      calls("netdev.dev_send")), "ratio"),
            "simnet.transmit_self_us_per_op": (
                per_op(us("simnet.transmit")), "us"),
            "simnet.frames_lost_frac": (
                frac(metric("frames_lost"),
                     metric("frames_lost") + metric("frames_delivered")),
                "ratio"),
            "link.handler_self_us_per_op": (per_op(us("handler.link")), "us"),
            "link.rx_drops_nobuf_per_op": (
                per_op(metric("link_rx_drops_nobuf")), "count"),
            "sixlowpan.handler_self_us_per_op": (
                per_op(us("handler.sixlowpan")), "us"),
            "sixlowpan.frags_per_dgram": (
                frac(count["fragments"], count["fragment_calls"]), "count"),
            "sixlowpan.fragment_us_per_op": (
                per_op(us("sixlowpan.fragment", own=False)), "us"),
            "sixlowpan.reasm_step_us_per_op": (
                per_op(us("sixlowpan.reasm_step", own=False)), "us"),
            "sixlowpan.reasm_complete_frac": (
                frac(count["reasm_complete"], count["reasm_opened"]),
                "ratio"),
            "sixlowpan.reasm_drops_per_op": (per_op(count["reasm_dropped"]),
                                             "count"),
            "sixlowpan.expire_calls_per_op": (
                per_op(calls("sixlowpan.reasm_expire")), "count"),
            "ipv6.handler_self_us_per_op": (per_op(us("handler.ipv6")), "us"),
            "ipv6.route_us_per_op": (per_op(us("ipv6.route", own=False)),
                                     "us"),
            "ipv6.forwarded_per_op": (per_op(metric("ipv6_forwarded")),
                                      "count"),
            "udp.handler_self_us_per_op": (per_op(us("handler.udp")), "us"),
            "udp.checksum_us_per_op": (per_op(us("udp.checksum", own=False)),
                                       "us"),
            "udp.sendto_us_per_op": (per_op(us("udp.sendto", own=False)),
                                     "us"),
            "udp.recvfrom_us_per_op": (per_op(us("udp.recvfrom", own=False)),
                                       "us"),
            "udp.sock_queue_drops": (metric("sock_queue_drops"), "count"),
            "sock.handler_self_us_per_op": (per_op(us("handler.sock")), "us"),
            "offload.handler_self_us_per_op": (
                per_op(us("handler.offload")), "us"),
            "metrics.calls_per_op": (per_op(calls(
                "metrics.count", "metrics.record_copy",
                "metrics.new_packet_id", "metrics.merge_packet")), "count"),
            "metrics.self_us_per_op": (per_op(us(
                "metrics.count", "metrics.record_copy",
                "metrics.new_packet_id", "metrics.merge_packet")), "us"),
        }
