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

from . import netapi
from .metrics import CopySite
from .netapi import _MSG_SND, DEMUX_ALL, Module, drop
from .netdev import _BUSY, _RX_READY, _TX_DONE, BROADCAST_LONG, MAX_FRAME
from .pktbuf import _RECEIVE, _SIXLOWPAN, NoBufferSpace

HEADER = struct.Struct("!8s8sB")
HEADER_LEN = HEADER.size  # 17
MAX_PAYLOAD = MAX_FRAME - HEADER_LEN  # 110


class LinkError(Exception):
    pass


class FrameTooShort(LinkError):
    pass


class PayloadTooLarge(LinkError):
    pass


def link_encode(dst_long: bytes, src_long: bytes, seq: int,
                payload: bytes) -> bytes:
    if not 1 <= len(payload) <= MAX_PAYLOAD:
        raise PayloadTooLarge(
            f"payload must be 1..{MAX_PAYLOAD} bytes, got {len(payload)}")
    return HEADER.pack(dst_long, src_long, seq & 0xFF) + payload


def link_decode(frame: bytes) -> tuple[bytes, bytes, int, bytes]:
    """``(dst_long, src_long, seq, payload)`` of a frame."""
    if len(frame) < HEADER_LEN + 1:
        raise FrameTooShort(f"{len(frame)} bytes < {HEADER_LEN + 1}")
    if len(frame) > MAX_FRAME:
        raise PayloadTooLarge(f"{len(frame)} bytes > {MAX_FRAME}")
    return (*HEADER.unpack_from(frame), frame[HEADER_LEN:])


class LinkModule(Module):
    """Owns one device.  Downward: serialize chain + frame + dev_send.
    Upward: dev_recv into a RECEIVE-priority snip, dispatch to the
    adaptation layer.  Nothing sits below it, so ``MSG_RCV`` is the
    base's counted drop.  A frame refused as ``BUSY`` waits in ``_pending``
    with its chain, held in the buffer until ``dev_send`` takes it."""

    layer = "link"

    def __init__(self, device):
        self.device = device
        self._seq = 0
        self._pending: deque[tuple[bytes, object]] = deque()  # (frame, head)

    def on_spawn(self, ctx):
        self.device.owner = ctx

    def __call__(self, ctx, msg):
        # the device's events stop here, one frame per RX_READY, so upper
        # layers drain between frame arrivals instead of piling RX snips up
        if msg is _RX_READY:
            self._receive(ctx)
        elif msg is _TX_DONE:
            if self._pending:  # the radio is free again
                frame, head = self._pending.popleft()
                if self.device.dev_send(frame) is _BUSY:
                    self._pending.append((frame, head))
                else:
                    ctx.node.pktbuf.release(head)
        elif msg.kind is _MSG_SND:
            self.on_snd(ctx, msg)
        else:
            Module.__call__(self, ctx, msg)

    def on_shutdown(self, ctx):
        """Drop the frames waiting for the radio and those the radio
        received that the link has not read, counted."""
        rx = self.device._rx
        dropped = len(self._pending) + len(rx)
        if dropped:
            ctx.node.metrics.count("link_shutdown_drops", dropped)
            for _, head in self._pending:
                ctx.node.pktbuf.release(head)
            self._pending.clear()
            rx.clear()

    # -- TX ----------------------------------------------------------------
    def on_snd(self, ctx, msg):
        node, head = ctx.node, msg.pkt
        payload = head.to_bytes()
        if not 1 <= len(payload) <= MAX_PAYLOAD:
            drop(ctx, head, "link_payload_too_large")
            return
        metrics, pid = node.metrics, msg.meta.get("packet_id")
        if metrics.recording and pid is not None:
            metrics.record_copy(CopySite.BUF_TO_DEV, pid, len(payload))
        dst = msg.meta.get("dst_link") or BROADCAST_LONG
        frame = link_encode(dst, self.device.addr_long, self._seq, payload)
        self._seq = (self._seq + 1) & 0xFF
        # the payload cap keeps every frame within the radio's MTU
        if self.device.dev_send(frame) is _BUSY:
            self._pending.append((frame, head))
        else:
            node.pktbuf.release(head)

    # -- RX ------------------------------------------------------------------
    def _receive(self, ctx):
        node = ctx.node
        raw = self.device.dev_recv()
        try:
            dst, src, _, payload = link_decode(raw)
        except LinkError:
            node.metrics.count("link_rx_malformed")
            return
        if dst not in (self.device.addr_long, BROADCAST_LONG):
            node.metrics.count("link_rx_filtered")
            return
        try:
            snip = node.pktbuf.alloc_snip(
                payload=payload, proto=_SIXLOWPAN, prio=_RECEIVE)
        except NoBufferSpace:
            node.metrics.count("link_rx_drops_nobuf")
            return
        metrics = node.metrics
        pid = metrics.new_packet_id()
        if metrics.recording:
            metrics.record_copy(CopySite.DEV_TO_BUF, pid, len(payload))
        meta = {"src_link": src, "dst_link": dst, "packet_id": pid}
        netapi.dispatch(node, _SIXLOWPAN, DEMUX_ALL, snip, meta,
                        "link_rx_no_receiver")

    # -- options: the device's own --------------------------------------------
    def get_option(self, key):
        return self.device.dev_get(key)

    def set_option(self, key, value):
        self.device.dev_set(key, value)
