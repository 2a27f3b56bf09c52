"""Full-stack offload device module.

Stands in for a network chip that already runs UDP/IPv6 on-silicon: it
services the unified message interface at the transport level, so a node
needs only the socket layer and this module.  Datagrams either loop back
locally or cross a private channel to a paired offload module on another
node; the chip's internals are opaque by definition, so no link frames are
involved.  A datagram crossing the channel lands in the receiving node's
buffer, as a radio's frame does, and arrives as ``MSG_RCV`` with its
chain; a buffer that refuses it drops it, counted as
``offload_rx_drops_nobuf``.
"""

from __future__ import annotations

from functools import partial

from . import netapi
from .metrics import CopySite
from .netapi import _MSG_RCV, Module, NetMessage, OptionKey
from .pktbuf import AllocPriority, NoBufferSpace, ProtocolType

BRIDGE_DELAY_US = 10


def _arrive(target, data: bytes, meta: dict):
    """The channel's delivery: ``data`` as a chain in ``target``'s node."""
    node = target.node
    try:
        snip = node.pktbuf.alloc_snip(payload=data, proto=ProtocolType.APP,
                                      prio=AllocPriority.RECEIVE)
    except NoBufferSpace:
        node.metrics.count("offload_rx_drops_nobuf")
        return
    meta["packet_id"] = pid = node.metrics.new_packet_id()
    if node.metrics.recording:
        node.metrics.record_copy(CopySite.DEV_TO_BUF, pid, len(data))
    node.sched.post(target, NetMessage(_MSG_RCV, snip, None, meta))


class OffloadModule(Module):
    """Accepts MSG_SND with (dst_ip, dst_port) metadata from the sockets,
    MSG_RCV from the channel, and answers MSG_GET(ADDRESS); everything
    else is unsupported."""

    layer = "offload"

    def __init__(self, addr: bytes):
        self.addr = addr
        self.peer = None  # paired offload module context, set after build

    def get_option(self, key):
        if key == OptionKey.ADDRESS:
            return self.addr
        return super().get_option(key)

    # -- TX: socket layer handed us a payload chain ------------------------
    def on_snd(self, ctx, msg):
        node = ctx.node
        data = msg.pkt.to_bytes()
        # handover into the chip's own buffer: copy #2 of the TX path
        if node.metrics.recording:
            node.metrics.record_copy(CopySite.BUF_TO_DEV,
                                     msg.meta["packet_id"], len(data))
        node.pktbuf.release(msg.pkt)
        meta = {"src_ip": self.addr, "src_port": msg.meta.get("src_port"),
                "dst_port": msg.meta.get("dst_port")}
        if self.peer is not None and msg.meta.get("dst_ip") != self.addr:
            target = self.peer
        else:
            target = ctx  # loopback
        node.sched.call_later(BRIDGE_DELAY_US,
                              partial(_arrive, target, data, meta))

    # -- RX: a datagram the channel put in this node's buffer --------------
    def on_rcv(self, ctx, msg):
        netapi.dispatch(ctx.node, ProtocolType.UDP, msg.meta.get("dst_port"),
                        msg.pkt, msg.meta, "offload_rx_no_port")
