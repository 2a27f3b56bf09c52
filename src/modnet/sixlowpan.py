"""Adaptation layer: uncompressed-IPv6 dispatch plus fragmentation and
reassembly, so 1280-byte datagrams traverse 127-byte link frames.

Fragment encodings (big-endian):

    FRAG1:  5 dispatch bits 11000 | 11-bit datagram_size, 16-bit tag
            (4 bytes) followed by the leading datagram bytes
    FRAGN:  5 dispatch bits 11100 | size, tag, 1-byte offset in 8-byte
            units (5 bytes) followed by an 8-aligned slice
    uncompressed IPv6: single dispatch byte 0x41 followed by the datagram

All offsets are multiples of 8 bytes; only the final fragment may carry a
tail that is not.  Header compression (IPHC) is out of scope; only the
uncompressed dispatch path exists.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from .link import MAX_PAYLOAD
from .metrics import _BUF_INTERNAL, REASSEMBLY_ENTRY_OVERHEAD
from .netapi import (_MSG_SND, DEMUX_ALL, DEMUX_RAW, Module, NetMessage, drop,
                     recopy, up)
from .pktbuf import (_CONTROL, _IPV6, _SEND_APP, _SIXLOWPAN, NoBufferSpace,
                     PacketChain, ProtocolType)

DISPATCH_UNCOMPRESSED = 0x41
FRAG1_DISPATCH = 0b11000
FRAGN_DISPATCH = 0b11100
FRAG1_HDR_LEN = 4
FRAGN_HDR_LEN = 5
MAX_DATAGRAM = 2047  # 11-bit size field
MIN_BUDGET = 16  # must fit FRAGN header + one 8-byte unit

DEFAULT_REASSEMBLY_ENTRIES = 2
DEFAULT_REASSEMBLY_TIMEOUT_US = 5_000_000


class SixlowpanError(Exception):
    pass


class DatagramTooLarge(SixlowpanError):
    pass


class BudgetTooSmall(SixlowpanError):
    pass


class MalformedFragment(SixlowpanError):
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
    frags = [struct.pack("!HH", (FRAG1_DISPATCH << 11) | size, tag & 0xFFFF)
             + datagram[:frag1_data]]
    offset = frag1_data
    while offset < size:
        chunk = datagram[offset:offset + fragn_data]
        frags.append(struct.pack("!HHB", (FRAGN_DISPATCH << 11) | size,
                                 tag & 0xFFFF, offset // 8) + chunk)
        offset += len(chunk)
    return frags


@dataclass
class ParsedFragment:
    kind: str  # "uncompressed" | "frag1" | "fragn"
    datagram_size: int = 0
    tag: int = 0
    offset: int = 0  # bytes
    data: bytes = b""


def parse_payload(payload: bytes) -> ParsedFragment:
    if not payload:
        raise MalformedFragment("empty payload")
    if payload[0] == DISPATCH_UNCOMPRESSED:
        if len(payload) < 2:
            raise MalformedFragment("uncompressed dispatch without datagram")
        return ParsedFragment("uncompressed", data=payload[1:])
    dispatch = payload[0] >> 3
    if dispatch == FRAG1_DISPATCH:
        if len(payload) < FRAG1_HDR_LEN + 1:
            raise MalformedFragment("truncated FRAG1")
        word, tag = struct.unpack_from("!HH", payload)
        return ParsedFragment("frag1", word & 0x7FF, tag, 0,
                              payload[FRAG1_HDR_LEN:])
    if dispatch == FRAGN_DISPATCH:
        if len(payload) < FRAGN_HDR_LEN + 1:
            raise MalformedFragment("truncated FRAGN")
        word, tag, off_units = struct.unpack_from("!HHB", payload)
        return ParsedFragment("fragn", word & 0x7FF, tag, off_units * 8,
                              payload[FRAGN_HDR_LEN:])
    raise MalformedFragment(f"unknown dispatch byte 0x{payload[0]:02x}")


class ReassemblyStatus(enum.Enum):
    INCOMPLETE = "incomplete"
    COMPLETE = "complete"
    DROPPED = "dropped"


# aliases for the per-frame paths (see ``pktbuf``)
_INCOMPLETE, _COMPLETE, _DROPPED = (ReassemblyStatus.INCOMPLETE,
                                    ReassemblyStatus.COMPLETE,
                                    ReassemblyStatus.DROPPED)


@dataclass
class ReassemblyEntry:
    key: tuple
    size: int
    snip: object  # CONTROL-priority buffer snip of datagram_size
    deadline_us: int
    packet_id: int
    received: int = 0  # bitmap: bit u set once 8-byte unit u has arrived


class ReassemblyTable:
    """At most ``max_entries`` concurrent datagrams; expired entries give
    their buffer back in full."""

    def __init__(self, buffer, metrics=None,
                 max_entries: int = DEFAULT_REASSEMBLY_ENTRIES,
                 timeout_us: int = DEFAULT_REASSEMBLY_TIMEOUT_US):
        self.buffer = buffer
        self.metrics = metrics
        self.max_entries = max_entries
        self.timeout_us = timeout_us
        self.entries: dict[tuple, ReassemblyEntry] = {}

    def memory_bytes(self) -> int:
        return sum(e.size + REASSEMBLY_ENTRY_OVERHEAD
                   for e in self.entries.values())

    def _count(self, name):
        if self.metrics is not None:
            self.metrics.count(name)

    def _drop_entry(self, entry):
        self.entries.pop(entry.key, None)
        self.buffer.release(entry.snip)

    def expire(self, now_us: int):
        """Release every entry whose deadline passed; returns count."""
        stale = [e for e in self.entries.values() if now_us >= e.deadline_us]
        for entry in stale:
            self._drop_entry(entry)
            self._count("reassembly_timeouts")
        return len(stale)

    def step(self, payload: bytes, src, dst, now_us: int):
        """Feed one adaptation-layer payload; returns
        (status, datagram chain or None, packet_id or None)."""
        parsed = parse_payload(payload)  # MalformedFragment propagates
        if parsed.kind == "uncompressed":
            raise MalformedFragment("unfragmented payload fed to reassembly")
        size = parsed.datagram_size
        if parsed.offset + len(parsed.data) > size:
            raise MalformedFragment("fragment exceeds datagram size")
        is_tail = parsed.offset + len(parsed.data) == size
        if len(parsed.data) % 8 != 0 and not is_tail:
            raise MalformedFragment("non-final fragment not 8-aligned")
        if not parsed.data:
            raise MalformedFragment("empty fragment")

        key = (bytes(src), bytes(dst), size, parsed.tag)
        entry = self.entries.get(key)
        if entry is None:
            if len(self.entries) >= self.max_entries:
                self._count("reassembly_table_full")
                return _DROPPED, None, None
            try:
                snip = self.buffer.alloc_snip(
                    size=size, proto=_IPV6, prio=_CONTROL)
            except NoBufferSpace:
                self._count("reassembly_drops_nobuf")
                return _DROPPED, None, None
            pid = (self.metrics.new_packet_id()
                   if self.metrics is not None else 0)
            entry = ReassemblyEntry(key, size, snip,
                                    now_us + self.timeout_us, pid)
            self.entries[key] = entry

        offset, data = parsed.offset, parsed.data
        end = offset + len(data)
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
                    self._count("reassembly_overlap_drops")
                    return _DROPPED, None, None
        entry.snip.data[offset:end] = data
        entry.received |= mask
        if self.metrics is not None:
            self.metrics.record_copy(_BUF_INTERNAL, entry.packet_id,
                                     len(data))

        if entry.received == (1 << ((size + 7) // 8)) - 1:
            self.entries.pop(key, None)
            return _COMPLETE, PacketChain(entry.snip), entry.packet_id
        return _INCOMPLETE, None, entry.packet_id


class SixlowpanModule(Module):
    """One adaptation-layer context per node, serving all interfaces.
    Implements no options."""

    layer = "sixlowpan"
    budget = MAX_PAYLOAD  # adaptation-layer bytes per link frame

    def __init__(self):
        self.reassembly_table: ReassemblyTable | None = None
        self._tag = 0

    def on_spawn(self, ctx):
        self.ctx = ctx
        self.reassembly_table = ReassemblyTable(ctx.node.pktbuf,
                                                ctx.node.metrics)
        ctx.node.registry.register(ProtocolType.SIXLOWPAN, DEMUX_ALL, ctx)

    def _next_tag(self):
        self._tag = (self._tag + 1) & 0xFFFF
        return self._tag

    # -- TX -----------------------------------------------------------------
    def on_snd(self, ctx, msg):
        node = ctx.node
        pkt = msg.pkt
        prio = msg.meta.get("prio", _SEND_APP)
        iface = msg.meta.get("iface", 0)
        link_ctx = node.wiring.get(f"link{iface}")
        if link_ctx is None:
            drop(ctx, pkt, "sixlowpan_no_link")
            return
        size = pkt.total_size
        pid = msg.meta.get("packet_id")
        down_meta = {"dst_link": msg.meta.get("next_hop_link"),
                     "iface": iface, "packet_id": pid, "prio": prio}
        if size <= self.budget - 1:
            try:
                out = node.pktbuf.prepend_header(
                    pkt, 1, _SIXLOWPAN, prio)
            except NoBufferSpace:
                drop(ctx, pkt, "sixlowpan_tx_drops_nobuf")
                return
            out.head.data[0] = DISPATCH_UNCOMPRESSED
            node.sched.post(link_ctx, NetMessage(
                kind=_MSG_SND, pkt=out, meta=down_meta))
            return
        # fragment: slice datagram bytes into per-frame snips; the source
        # chain is freed first so peak usage is one datagram, not two
        datagram = pkt.to_bytes()
        node.pktbuf.release(pkt.head)
        try:
            frags = fragment(datagram, self.budget, self._next_tag())
        except SixlowpanError:
            node.metrics.count("sixlowpan_tx_too_large")
            return
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
        for i, snip in enumerate(snips):
            if pid is not None:
                node.metrics.record_copy(_BUF_INTERNAL, pid, snip.size)
            message = NetMessage(kind=_MSG_SND, pkt=PacketChain(snip),
                                 meta=dict(down_meta))
            node.sched.call_later(
                i, lambda m=message: node.sched.post(link_ctx, m))

    # -- RX -----------------------------------------------------------------
    def on_rcv(self, ctx, msg):
        node = ctx.node
        payload = msg.pkt.to_bytes()
        src = msg.meta.get("src_link", b"")
        dst = msg.meta.get("dst_link", b"")
        up_meta = {k: msg.meta[k] for k in ("src_link", "dst_link", "iface")
                   if k in msg.meta}
        table = self.reassembly_table
        # each frame is parsed once: by parse_payload or inside step
        unfragmented = bool(payload) and payload[0] == DISPATCH_UNCOMPRESSED
        try:
            if unfragmented:
                parsed = parse_payload(payload)
            else:
                status, chain, entry_pid = table.step(
                    payload, src, dst, node.sched.now_us)
        except MalformedFragment:
            drop(ctx, msg.pkt, "sixlowpan_rx_malformed")
            return
        pid = msg.meta.get("packet_id")
        if unfragmented:
            chain = recopy(ctx, msg.pkt, parsed.data, _IPV6, pid,
                           "sixlowpan_rx_drops_nobuf")
            if chain is not None:
                up(ctx, _IPV6, DEMUX_RAW, chain,
                   dict(up_meta, packet_id=pid), "sixlowpan_rx_no_receiver")
            return
        # fragmented path
        if entry_pid and pid and entry_pid != pid:
            node.metrics.merge_packet(entry_pid, pid)
        node.pktbuf.release(msg.pkt.head)
        if status is _COMPLETE:
            up(ctx, _IPV6, DEMUX_RAW, chain,
               dict(up_meta, packet_id=entry_pid), "sixlowpan_rx_no_receiver")
        elif status is _INCOMPLETE:
            node.sched.call_later(
                table.timeout_us + 1,
                lambda: table.expire(node.sched.now_us))
