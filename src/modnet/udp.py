"""UDP codec with IPv6 pseudo-header checksum, port demux, and the
application-facing socket API.

The header format is one ``struct.Struct``, ``HEADER``: the send path packs
it and the receive path unpacks it into a tuple.

The socket layer is where the copy-twice discipline starts and ends:
``sendto`` copies the payload into the central buffer once, and
``recvfrom`` copies it out once.  The stack between copies more than that
today: ``UdpModule.on_snd`` flattens the chain to checksum it, and each
receiving layer flattens the chain with ``to_bytes`` and copies what the
next layer takes into a fresh snip (``netapi.recopy``).  The ledger records
those re-copies as ``BUF_INTERNAL`` and the flattenings not at all; ROADMAP
item 1 is the plan to remove both.

A socket read never waits: ``recvfrom`` takes a queued datagram or raises
``UdpError``, and runs no event.  Apps read in the socket's ``on_ready``
callback, which runs as each datagram is queued, or poll ``recv_nowait``.
"""

from __future__ import annotations

import struct
from collections import deque

from .ipv6 import NEXT_HEADER_UDP
from .metrics import CopySite
from .netapi import _MSG_SND, Module, NetMessage, drop, recopy, up
from .pktbuf import _APP, _SEND_APP, _UDP, NoBufferSpace, ProtocolType

HEADER = struct.Struct("!HHHH")  # src_port, dst_port, length, checksum
HEADER_LEN = HEADER.size  # 8
MAX_PAYLOAD = 1192  # a 1240-byte datagram; ipv6.MAX_PAYLOAD admits 1232
DEFAULT_SOCK_QUEUE = 4


class UdpError(Exception):
    pass


class PortInUse(UdpError):
    pass


class PayloadTooLarge(UdpError):
    pass


def _check_port(port):
    if type(port) is not int or not 0 <= port <= 0xFFFF:  # nor a bool
        raise UdpError(f"port {port!r} is not an int in 0..65535")


def _ones_complement_sum(data: bytes) -> int:
    """The 16-bit one's-complement sum of ``data`` read as big-endian words,
    an odd tail padded with a zero byte.  Since 2**16 is 1 modulo 0xFFFF,
    the whole number that the words spell is congruent to their sum; a
    nonzero multiple of 0xFFFF sums to 0xFFFF (negative zero), and only
    all-zero input sums to 0."""
    number = int.from_bytes(data, "big")
    if len(data) % 2:
        number <<= 8
    total = number % 0xFFFF
    return 0xFFFF if total == 0 and number else total


def _pseudo_sum(src_ip: bytes, dst_ip: bytes, udp_bytes: bytes) -> int:
    """The one's-complement sum over pseudo-header and UDP datagram."""
    return _ones_complement_sum(src_ip + dst_ip + struct.pack(
        "!I3xB", len(udp_bytes), NEXT_HEADER_UDP) + udp_bytes)


def udp_checksum(src_ip: bytes, dst_ip: bytes, udp_bytes: bytes) -> int:
    """Checksum as transmitted: one's complement of the one's-complement
    sum over pseudo-header + UDP header + payload, with a computed 0x0000
    mapped to 0xFFFF."""
    csum = ~_pseudo_sum(src_ip, dst_ip, udp_bytes) & 0xFFFF
    return 0xFFFF if csum == 0 else csum


def udp_verify(src_ip: bytes, dst_ip: bytes, udp_bytes: bytes) -> bool:
    """Verify a received datagram; checksum 0x0000 is invalid over IPv6."""
    if udp_bytes[6:8] == b"\x00\x00":
        return False
    return _pseudo_sum(src_ip, dst_ip, udp_bytes) == 0xFFFF


class UdpModule(Module):
    """Transport context: prepend + checksum downward to ``net``, the
    network-layer context, and verify + port demux upward.  Registers for
    IPv6 next-header 17; implements no options."""

    layer = "udp"

    def __init__(self, local_addr: bytes, net):
        self.local_addr = local_addr
        self.net = net

    def on_spawn(self, ctx):
        self.ctx = ctx
        ctx.node.registry.register(ProtocolType.IPV6, NEXT_HEADER_UDP, ctx)

    def on_snd(self, ctx, msg):
        node = ctx.node
        pkt, meta = msg.pkt, msg.meta
        length = HEADER_LEN + pkt.total_size
        try:
            out = node.pktbuf.prepend_header(pkt, HEADER_LEN, _UDP, _SEND_APP)
        except NoBufferSpace:
            drop(ctx, pkt, "udp_tx_drops_nobuf")
            return
        out.data[:] = HEADER.pack(meta["src_port"], meta["dst_port"],
                                  length, 0)
        csum = udp_checksum(self.local_addr, meta["dst_ip"], out.to_bytes())
        out.data[6:8] = csum.to_bytes(2, "big")
        node.sched.post(self.net, NetMessage(
            kind=_MSG_SND, pkt=out,
            meta={"dst_ip": meta["dst_ip"], "packet_id": meta["packet_id"]}))

    def on_rcv(self, ctx, msg):
        data = msg.pkt.to_bytes()
        pid = msg.meta.get("packet_id")
        # the length field must match the bytes that arrived
        if (len(data) < HEADER_LEN
                or (header := HEADER.unpack_from(data))[2] != len(data)):
            drop(ctx, msg.pkt, "udp_rx_malformed")
            return
        src_port, dst_port = header[:2]
        if not udp_verify(msg.meta["src_ip"], msg.meta["dst_ip"], data):
            drop(ctx, msg.pkt, "udp_rx_bad_checksum")
            return
        payload = data[HEADER_LEN:]
        if not payload:
            drop(ctx, msg.pkt, "udp_rx_empty")
            return
        chain = recopy(ctx, msg.pkt, payload, _APP, pid,
                       "udp_rx_drops_nobuf")
        if chain is None:
            return
        meta = {"src_ip": msg.meta["src_ip"], "src_port": src_port,
                "dst_port": dst_port, "packet_id": pid,
                "hop_limit": msg.meta.get("hop_limit")}
        up(ctx, _UDP, dst_port, chain, meta, "udp_rx_no_port")


class Socket:
    """One bound UDP port with a bounded receive queue (drop-oldest)."""

    def __init__(self, layer: "SocketLayer", port: int,
                 queue_capacity: int = DEFAULT_SOCK_QUEUE):
        self.layer = layer
        self.port = port
        self.queue_capacity = queue_capacity
        self.queue: deque = deque()  # (src_ip, src_port, pkt, pid, hop_limit)
        self.on_ready = None  # optional app callback, runs in sock context
        self.closed = False
        self.last_hop_limit = None  # hop limit of the last recvfrom datagram

    # -- app API -------------------------------------------------------------
    def sendto(self, dst_ip: bytes, dst_port: int, payload: bytes) -> int:
        """Copy the payload into the buffer once and hand it to the node's
        transport context.  Raises NoBufferSpace as back-pressure and
        UdpError for a refused datagram; in both cases nothing was sent
        and nothing was recorded."""
        if self.closed:
            raise UdpError(f"port {self.port} is closed")
        if not payload:
            raise UdpError("empty payload")
        if type(dst_ip) is not bytes or len(dst_ip) != 16:
            raise UdpError(f"destination {dst_ip!r} is not 16 bytes")
        _check_port(dst_port)
        if len(payload) > MAX_PAYLOAD:
            raise PayloadTooLarge(f"{len(payload)} > {MAX_PAYLOAD}")
        node = self.layer.ctx.node
        pid = node.metrics.new_packet_id()
        snip = node.pktbuf.alloc_snip(payload=payload, proto=_APP,
                                      prio=_SEND_APP)
        if node.metrics.recording:
            node.metrics.record_copy(CopySite.APP_TO_BUF, pid, len(payload))
        node.metrics.count("udp_sent")
        node.sched.post(self.layer.transport, NetMessage(
            kind=_MSG_SND, pkt=snip,
            meta={"src_port": self.port, "dst_port": dst_port,
                  "dst_ip": dst_ip, "packet_id": pid}))
        return pid

    def recvfrom(self):
        """Pop one queued datagram, copying the payload out of the buffer
        (the one buffer-to-app copy).  Never waits: raises UdpError when
        the queue is empty."""
        if self.closed:
            raise UdpError(f"port {self.port} is closed")
        if not self.queue:
            raise UdpError(f"port {self.port} has nothing queued")
        node = self.layer.ctx.node
        src_ip, src_port, pkt, pid, hop_limit = self.queue.popleft()
        self.last_hop_limit = hop_limit
        payload = pkt.to_bytes()
        if node.metrics.recording:
            node.metrics.record_copy(CopySite.BUF_TO_APP, pid, len(payload))
        node.metrics.count("udp_delivered")
        node.pktbuf.release(pkt)
        return src_ip, src_port, payload

    def recv_nowait(self):
        if not self.queue:
            return None
        return self.recvfrom()

    def close(self):
        """Unbind the port and release the queued datagrams; idempotent."""
        if self.closed:
            return
        self.closed = True
        ctx = self.layer.ctx
        ctx.node.registry.unregister(ProtocolType.UDP, self.port, ctx)
        self.layer.ports.pop(self.port, None)
        while self.queue:
            ctx.node.pktbuf.release(self.queue.popleft()[2])

    # -- called from the sock context ------------------------------------------
    def _deliver(self, ctx, src_ip, src_port, pkt, pid, hop_limit=None):
        if len(self.queue) >= self.queue_capacity:
            drop(ctx, self.queue.popleft()[2], "sock_queue_drops")
        self.queue.append((src_ip, src_port, pkt, pid, hop_limit))
        if self.on_ready is not None:
            self.on_ready(self)


class SocketLayer(Module):
    """App-facing context owning every socket on its node.  Each bound
    socket is one registry entry (UDP, port) targeting this context, and
    ``sendto`` posts to ``transport``, the udp or the offload context.
    Apps call ``sendto`` directly, so nothing sends data down to it:
    ``MSG_SND`` is the base's counted drop."""

    layer = "sock"

    def __init__(self, transport):
        self.transport = transport
        self.ports: dict[int, Socket] = {}

    def open(self, port: int,
             queue_capacity: int = DEFAULT_SOCK_QUEUE) -> Socket:
        _check_port(port)
        if type(queue_capacity) is not int or queue_capacity < 1:  # nor a bool
            raise UdpError(f"queue capacity {queue_capacity!r} is not an "
                           "int of at least 1")
        if port in self.ports:
            raise PortInUse(f"port {port}")
        sock = Socket(self, port, queue_capacity)
        self.ctx.node.registry.register(ProtocolType.UDP, port, self.ctx)
        self.ports[port] = sock
        return sock

    def on_shutdown(self, ctx):
        for sock in list(self.ports.values()):
            sock.close()

    def on_rcv(self, ctx, msg):
        sock = self.ports.get(msg.meta.get("dst_port"))
        if sock is None or sock.closed:
            drop(ctx, msg.pkt, "sock_no_port")
            return
        sock._deliver(ctx, msg.meta.get("src_ip"),
                      msg.meta.get("src_port"), msg.pkt,
                      msg.meta.get("packet_id"), msg.meta.get("hop_limit"))
