"""Adaptation layer: uncompressed-IPv6 dispatch plus fragmentation and
reassembly, so 1280-byte datagrams traverse 127-byte link frames.

Fragment encodings (big-endian):

    FRAG1:  5 dispatch bits 11000 | 11-bit datagram_size, 16-bit tag
            (4 bytes) followed by the leading datagram bytes
    FRAGN:  5 dispatch bits 11100 | size, tag, 1-byte offset in 8-byte
            units (5 bytes) followed by an 8-aligned slice
    uncompressed IPv6: single dispatch byte 0x41 followed by the datagram

Each fragment header format is one ``struct.Struct`` (``FRAG1``,
``FRAGN``): ``fragment`` packs it and ``parse_payload`` unpacks it into a
tuple.  All offsets are multiples of 8 bytes; only the final fragment may
carry a tail that is not.  Header compression (IPHC) is out of scope; only
the uncompressed dispatch path exists.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from functools import partial

from . import netapi
from .link import MAX_PAYLOAD
from .metrics import REASSEMBLY_ENTRY_OVERHEAD, CopySite
from .netapi import (_MSG_SND, DEMUX_ALL, DEMUX_RAW, Module, NetMessage, drop,
                     recopy)
from .pktbuf import (_IPV6, _RECEIVE, _SEND_APP, _SIXLOWPAN, NoBufferSpace,
                     ProtocolType)

DISPATCH_UNCOMPRESSED = 0x41
FRAG1_DISPATCH = 0b11000
FRAGN_DISPATCH = 0b11100
FRAG1 = struct.Struct("!HH")  # dispatch | size, tag
FRAGN = struct.Struct("!HHB")  # dispatch | size, tag, offset / 8
FRAG1_HDR_LEN = FRAG1.size  # 4
FRAGN_HDR_LEN = FRAGN.size  # 5
MAX_DATAGRAM = 2047  # 11-bit size field
MIN_BUDGET = 16  # must fit FRAGN header + one 8-byte unit


class DatagramTooLarge(Exception):
    pass


class BudgetTooSmall(Exception):
    pass


class MalformedFragment(Exception):
    pass


def fragment(datagram: bytes, link_payload_budget: int, tag: int) -> list[bytes]:
    """Slice a datagram into link-sized adaptation-layer payloads.

    Datagrams that fit in budget-1 bytes go out unfragmented behind the
    0x41 dispatch byte; otherwise FRAG1 carries the largest 8-aligned
    leading piece and FRAGN fragments carry 8-aligned slices (tail excepted).
    """
    size = len(datagram)
    if size > MAX_DATAGRAM:
        raise DatagramTooLarge(f"{size} > {MAX_DATAGRAM}")
    if link_payload_budget < MIN_BUDGET:
        raise BudgetTooSmall(f"budget {link_payload_budget} < {MIN_BUDGET}")
    if size <= link_payload_budget - 1:
        return [bytes([DISPATCH_UNCOMPRESSED]) + datagram]

    frag1_data = ((link_payload_budget - FRAG1_HDR_LEN) // 8) * 8
    fragn_data = ((link_payload_budget - FRAGN_HDR_LEN) // 8) * 8
    frags = [FRAG1.pack((FRAG1_DISPATCH << 11) | size, tag & 0xFFFF)
             + datagram[:frag1_data]]
    offset = frag1_data
    while offset < size:
        chunk = datagram[offset:offset + fragn_data]
        frags.append(FRAGN.pack((FRAGN_DISPATCH << 11) | size,
                                tag & 0xFFFF, offset // 8) + chunk)
        offset += len(chunk)
    return frags


def parse_payload(payload: bytes) -> tuple[str, int, int, int, memoryview]:
    """``(kind, datagram_size, tag, offset, data)``: kind "uncompressed"
    (size, tag, offset 0), "frag1" or "fragn"; data is a view of payload."""
    if not payload:
        raise MalformedFragment("empty payload")
    if payload[0] == DISPATCH_UNCOMPRESSED:
        if len(payload) < 2:
            raise MalformedFragment("uncompressed dispatch without datagram")
        return "uncompressed", 0, 0, 0, memoryview(payload)[1:]
    dispatch = payload[0] >> 3
    if dispatch == FRAG1_DISPATCH:
        if len(payload) < FRAG1_HDR_LEN + 1:
            raise MalformedFragment("truncated FRAG1")
        word, tag = FRAG1.unpack_from(payload)
        return ("frag1", word & 0x7FF, tag, 0,
                memoryview(payload)[FRAG1_HDR_LEN:])
    if dispatch == FRAGN_DISPATCH:
        if len(payload) < FRAGN_HDR_LEN + 1:
            raise MalformedFragment("truncated FRAGN")
        word, tag, off_units = FRAGN.unpack_from(payload)
        return ("fragn", word & 0x7FF, tag, off_units * 8,
                memoryview(payload)[FRAGN_HDR_LEN:])
    raise MalformedFragment(f"unknown dispatch byte 0x{payload[0]:02x}")


class ReassemblyStatus(enum.Enum):
    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    DROPPED = "dropped"


# aliases for the per-frame paths (see ``pktbuf``)
_INCOMPLETE, _COMPLETE, _DROPPED = (ReassemblyStatus.INCOMPLETE,
                                    ReassemblyStatus.COMPLETE,
                                    ReassemblyStatus.DROPPED)


@dataclass(slots=True)
class ReassemblyEntry:
    key: tuple
    size: int
    snip: object  # RECEIVE-priority buffer snip of datagram_size
    deadline_us: int
    packet_id: int
    received: int = 0  # bitmap: bit u set once 8-byte unit u has arrived


class ReassemblyTable:
    """At most ``max_entries`` concurrent datagrams; expired entries give
    their buffer back in full."""

    max_entries = 2
    timeout_us = 5_000_000

    def __init__(self, buffer, metrics):
        self.buffer = buffer
        self.metrics = metrics
        self.entries: dict[tuple, ReassemblyEntry] = {}

    def memory_bytes(self) -> int:
        return sum(e.size + REASSEMBLY_ENTRY_OVERHEAD
                   for e in self.entries.values())

    def _drop_entry(self, entry):
        self.entries.pop(entry.key, None)
        self.buffer.release(entry.snip)

    def expire(self, now_us: int):
        """Release every entry whose deadline passed; returns count."""
        if not self.entries:
            return 0
        stale = [e for e in self.entries.values() if now_us >= e.deadline_us]
        for entry in stale:
            self._drop_entry(entry)
            self.metrics.count("reassembly_timeouts")
        return len(stale)

    def step(self, payload: bytes, src, dst, now_us: int):
        """Feed one adaptation-layer payload; returns
        (status, the datagram's head snip or None, packet_id or None)."""
        _, size, tag, offset, data = parse_payload(payload)  # may raise
        end = offset + len(data)
        if end > size:
            raise MalformedFragment("fragment exceeds datagram size")
        if len(data) % 8 != 0 and end != size:
            raise MalformedFragment("non-final fragment not 8-aligned")

        key = (bytes(src), bytes(dst), size, tag)
        entry = self.entries.get(key)
        if entry is None:
            if len(self.entries) >= self.max_entries:
                self.metrics.count("reassembly_table_full")
                return _DROPPED, None, None
            try:
                snip = self.buffer.alloc_snip(
                    size=size, proto=_IPV6, prio=_RECEIVE)
            except NoBufferSpace:
                self.metrics.count("reassembly_drops_nobuf")
                return _DROPPED, None, None
            entry = ReassemblyEntry(key, size, snip, now_us + self.timeout_us,
                                    self.metrics.new_packet_id())
            self.entries[key] = entry

        mask = ((1 << ((len(data) + 7) // 8)) - 1) << (offset // 8)
        overlap = entry.received & mask
        if overlap:
            # received units must match byte for byte, or the entry is dropped
            view = entry.snip.data
            for lo in range(offset, end, 8):
                hi = min(lo + 8, end)
                if (overlap >> (lo // 8) & 1
                        and view[lo:hi] != data[lo - offset:hi - offset]):
                    self._drop_entry(entry)
                    self.metrics.count("reassembly_overlap_drops")
                    return _DROPPED, None, None
        entry.snip.data[offset:end] = data
        entry.received |= mask
        if self.metrics.recording:
            self.metrics.record_copy(CopySite.BUF_INTERNAL, entry.packet_id,
                                     len(data))

        if entry.received == (1 << ((size + 7) // 8)) - 1:
            self.entries.pop(key, None)
            return _COMPLETE, entry.snip, entry.packet_id
        return _INCOMPLETE, None, entry.packet_id


class SixlowpanModule(Module):
    """One adaptation-layer context per node, serving all interfaces:
    ``links`` maps each interface number to its link-layer context.
    Implements no options."""

    layer = "sixlowpan"

    def __init__(self, links: dict):
        self.links = links
        self.reassembly_table: ReassemblyTable | None = None
        self._tag = 0

    def on_spawn(self, ctx):
        self.reassembly_table = ReassemblyTable(ctx.node.pktbuf,
                                                ctx.node.metrics)
        ctx.node.registry.register(ProtocolType.SIXLOWPAN, DEMUX_ALL, ctx)

    def on_shutdown(self, ctx):
        for entry in list(self.reassembly_table.entries.values()):
            self.reassembly_table._drop_entry(entry)
            ctx.node.metrics.count("reassembly_shutdown_drops")

    # -- TX -----------------------------------------------------------------
    def on_snd(self, ctx, msg):
        node, sched = ctx.node, ctx.node.sched
        pkt, meta = msg.pkt, msg.meta
        prio = meta.get("prio", _SEND_APP)
        link_ctx = self.links.get(meta.get("iface", 0))
        if link_ctx is None:
            drop(ctx, pkt, "sixlowpan_no_link")
            return
        pid = meta.get("packet_id")
        # no receiver writes meta, so every fragment shares this dict
        down_meta = {"dst_link": meta.get("next_hop_link"), "packet_id": pid}
        size = pkt.total_size
        if size > MAX_DATAGRAM:
            drop(ctx, pkt, "sixlowpan_tx_too_large")
            return
        if size <= MAX_PAYLOAD - 1:
            try:
                out = node.pktbuf.prepend_header(pkt, 1, _SIXLOWPAN, prio)
            except NoBufferSpace:
                drop(ctx, pkt, "sixlowpan_tx_drops_nobuf")
                return
            out.data[0] = DISPATCH_UNCOMPRESSED
            sched.post(link_ctx, NetMessage(_MSG_SND, out, None, down_meta))
            return
        # fragment: slice datagram bytes into per-frame snips; the source
        # chain is freed first so peak usage is one datagram, not two
        datagram = pkt.to_bytes()
        node.pktbuf.release(pkt)
        self._tag = (self._tag + 1) & 0xFFFF
        frags = fragment(datagram, MAX_PAYLOAD, self._tag)
        snips = []
        try:
            for frag in frags:
                snips.append(node.pktbuf.alloc_snip(
                    payload=frag, proto=_SIXLOWPAN, prio=prio))
        except NoBufferSpace:
            for s in snips:
                node.pktbuf.release(s)
            node.metrics.count("sixlowpan_tx_drops_nobuf")
            return
        # pace fragments 1 us apart so the link mailbox never overflows
        # on large datagrams
        recording = node.metrics.recording and pid is not None
        for t_us, snip in enumerate(snips, sched.now_us):
            if recording:
                node.metrics.record_copy(CopySite.BUF_INTERNAL, pid, snip.size)
            sched.call_at(t_us, partial(sched.post, link_ctx, NetMessage(
                _MSG_SND, snip, None, down_meta)))

    # -- RX -----------------------------------------------------------------
    def on_rcv(self, ctx, msg):
        node = ctx.node
        payload = msg.pkt.to_bytes()
        table = self.reassembly_table
        # each frame is parsed once: by parse_payload or inside step
        unfragmented = bool(payload) and payload[0] == DISPATCH_UNCOMPRESSED
        try:
            if unfragmented:
                data = parse_payload(payload)[4]
            else:
                status, chain, entry_pid = table.step(
                    payload, msg.meta["src_link"], msg.meta["dst_link"],
                    node.sched.now_us)
        except MalformedFragment:
            drop(ctx, msg.pkt, "sixlowpan_rx_malformed")
            return
        pid = msg.meta["packet_id"]
        if unfragmented:
            chain = recopy(ctx, msg.pkt, data, _IPV6, pid,
                           "sixlowpan_rx_drops_nobuf")
            if chain is not None:
                netapi.dispatch(node, _IPV6, DEMUX_RAW, chain,
                                {"packet_id": pid}, "sixlowpan_rx_no_receiver")
            return
        # fragmented path
        if node.metrics.recording and entry_pid and entry_pid != pid:
            node.metrics.merge_packet(entry_pid, pid)
        node.pktbuf.release(msg.pkt)
        if status is _COMPLETE:
            netapi.dispatch(node, _IPV6, DEMUX_RAW, chain,
                            {"packet_id": entry_pid},
                            "sixlowpan_rx_no_receiver")
        elif status is _INCOMPLETE:
            # the scheduler sets now_us to the due time before it fires
            due = node.sched.now_us + table.timeout_us + 1
            node.sched.call_at(due, partial(table.expire, due))
