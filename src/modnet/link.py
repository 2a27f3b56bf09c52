"""Link-layer module: 802.15.4-lite framing over the simulated radio.

Wire format, bit exact (17-byte header, frame <= 127 bytes):

    dst_long  8 bytes big-endian
    src_long  8 bytes big-endian
    seq       1 byte, increments mod 256 per device
    payload   1..110 bytes

No PAN ids, frame control or FCS: corruption is modeled by simulated link
loss, not checksums.  The format is normative for trace decoding and the
golden-frame tests.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass

from .metrics import _BUF_TO_DEV, _DEV_TO_BUF
from .netapi import ENOTSUP, OK, DEMUX_ALL, Module, MsgKind, drop, up
from .netdev import (_BUSY, _RX_READY, _TOO_LARGE, _TX_DONE, BROADCAST_LONG,
                     MAX_FRAME, DevNotify, Unsupported)
from .pktbuf import _RECEIVE, _SIXLOWPAN, NoBufferSpace, PacketChain

HEADER_LEN = 17
MAX_PAYLOAD = MAX_FRAME - HEADER_LEN  # 110


class LinkError(Exception):
    pass


class FrameTooShort(LinkError):
    pass


class PayloadTooLarge(LinkError):
    pass


@dataclass
class LinkFrame:
    dst_long: bytes
    src_long: bytes
    seq: int
    payload: bytes


def link_encode(dst_long: bytes, src_long: bytes, seq: int,
                payload: bytes) -> bytes:
    if not 1 <= len(payload) <= MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload must be 1..{MAX_PAYLOAD} bytes, got {len(payload)}")
    return struct.pack("!8s8sB", dst_long, src_long, seq & 0xFF) + payload


def link_decode(frame: bytes) -> LinkFrame:
    if len(frame) < HEADER_LEN + 1:
        raise FrameTooShort(f"{len(frame)} bytes < {HEADER_LEN + 1}")
    if len(frame) > MAX_FRAME:
        raise PayloadTooLarge(f"{len(frame)} bytes > {MAX_FRAME}")
    dst, src, seq = struct.unpack_from("!8s8sB", frame)
    return LinkFrame(dst, src, seq, frame[HEADER_LEN:])


class LinkModule(Module):
    """Owns one device.  Downward: serialize chain + frame + dev_send.
    Upward: dev_recv into a RECEIVE-priority snip, dispatch to the
    adaptation layer.  Nothing sits below it, so ``MSG_RCV`` is the
    base's counted drop."""

    layer = "link"

    def __init__(self, device):
        self.device = device
        self._seq = 0
        self._pending: deque[bytes] = deque()  # frames waiting on TX slot

    def on_spawn(self, ctx):
        self.ctx = ctx
        self.device.owner = ctx
        self.device.event_sink = ctx
        self.device.node = ctx.node

    def __call__(self, ctx, msg):
        # the device's markers are not NetMessages: they stop here
        if isinstance(msg, DevNotify):
            self._poll_events(ctx)
        else:
            Module.__call__(self, ctx, msg)

    # -- TX ----------------------------------------------------------------
    def on_snd(self, ctx, msg):
        node = ctx.node
        payload = msg.pkt.to_bytes()
        pid = msg.meta.get("packet_id")
        if not 1 <= len(payload) <= MAX_PAYLOAD:
            drop(ctx, msg.pkt, "link_payload_too_large")
            return
        if pid is not None:
            node.metrics.record_copy(_BUF_TO_DEV, pid, len(payload))
        node.pktbuf.release(msg.pkt.head)
        dst = msg.meta.get("dst_link") or BROADCAST_LONG
        frame = link_encode(dst, self.device.addr_long, self._seq, payload)
        self._seq = (self._seq + 1) & 0xFF
        self._transmit(ctx, frame)

    def _transmit(self, ctx, frame):
        status = self.device.dev_send(frame)
        if status is _BUSY:
            self._pending.append(frame)
        elif status is _TOO_LARGE:
            ctx.node.metrics.count("link_tx_too_large")

    # -- RX / events ---------------------------------------------------------
    def _poll_events(self, ctx):
        # one event per notification: every queued event has its own
        # DevNotify, and servicing them one at a time lets upper layers
        # drain between frame arrivals instead of piling RX snips up
        ev = self.device.dev_poll_event()
        if ev is _TX_DONE:
            if self._pending:
                self._transmit(ctx, self._pending.popleft())
        elif ev is _RX_READY:
            self._receive(ctx)

    def _receive(self, ctx):
        node = ctx.node
        raw = self.device.dev_recv()
        try:
            frame = link_decode(raw)
        except LinkError:
            node.metrics.count("link_rx_malformed")
            return
        if frame.dst_long not in (self.device.addr_long, BROADCAST_LONG):
            node.metrics.count("link_rx_filtered")
            return
        try:
            snip = node.pktbuf.alloc_snip(
                payload=frame.payload, proto=_SIXLOWPAN, prio=_RECEIVE)
        except NoBufferSpace:
            node.metrics.count("link_rx_drops_nobuf")
            return
        pid = node.metrics.new_packet_id()
        node.metrics.record_copy(_DEV_TO_BUF, pid, len(frame.payload))
        meta = {"src_link": frame.src_long, "dst_link": frame.dst_long,
                "iface": self.device.id, "packet_id": pid}
        up(ctx, _SIXLOWPAN, DEMUX_ALL, PacketChain(snip), meta,
           "link_rx_no_receiver")

    # -- options -------------------------------------------------------------
    def on_option(self, ctx, msg):
        try:
            if msg.kind == MsgKind.MSG_GET:
                msg.ack(OK, self.device.dev_get(msg.option[0]))
            elif msg.kind == MsgKind.MSG_SET:
                msg.ack(self.device.dev_set(*msg.option))
            else:
                msg.ack(ENOTSUP)
        except (Unsupported, ValueError, TypeError):
            # unknown key or a value the device cannot parse
            msg.ack(ENOTSUP)
