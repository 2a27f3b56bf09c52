"""Full-stack offload device module.

Stands in for a network chip that already runs UDP/IPv6 on-silicon: it
services the unified message interface at the transport level, so a node
needs only the socket layer and this module.  Datagrams either loop back
locally or cross a private channel to a paired offload module on another
node; the chip's internals are opaque by definition, so no link frames are
involved.  A datagram crossing the channel arrives as ``MSG_RCV`` carrying
the chip's bytes in ``meta["raw"]`` and no chain.
"""

from __future__ import annotations

from . import netapi
from .metrics import CopySite
from .netapi import Module, MsgKind, NetMessage, OptionKey, drop
from .pktbuf import AllocPriority, NoBufferSpace, ProtocolType

BRIDGE_DELAY_US = 10


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
        bridge = {"raw": data, "src_ip": self.addr,
                  "src_port": msg.meta.get("src_port"),
                  "dst_port": msg.meta.get("dst_port")}
        dst_ip = msg.meta.get("dst_ip")
        if self.peer is not None and dst_ip != self.addr:
            target = self.peer
        else:
            target = ctx  # loopback
        node.sched.call_later(
            BRIDGE_DELAY_US,
            lambda: node.sched.post(target, NetMessage(
                kind=MsgKind.MSG_RCV, meta=bridge)))

    # -- RX: datagram arriving from the chip -------------------------------
    def on_rcv(self, ctx, msg):
        data = msg.meta.get("raw")
        if data is None or msg.pkt is not None:
            # not from the channel: a chain carries no chip bytes
            drop(ctx, msg.pkt, "offload_unexpected_rcv")
            return
        node = ctx.node
        try:
            snip = node.pktbuf.alloc_snip(payload=data,
                                          proto=ProtocolType.APP,
                                          prio=AllocPriority.RECEIVE)
        except NoBufferSpace:
            node.metrics.count("offload_rx_drops_nobuf")
            return
        pid = node.metrics.new_packet_id()
        if node.metrics.recording:
            node.metrics.record_copy(CopySite.DEV_TO_BUF, pid, len(data))
        meta = {"src_ip": msg.meta.get("src_ip"),
                "src_port": msg.meta.get("src_port"),
                "dst_port": msg.meta.get("dst_port"), "packet_id": pid}
        netapi.dispatch(node, ProtocolType.UDP, meta["dst_port"], snip, meta,
                        "offload_rx_no_port")
