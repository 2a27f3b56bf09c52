"""Minimal IPv6: 40-byte header codec, longest-prefix forwarding over
multiple interfaces, next-header demux through the registry, and two
interchangeable neighbor caches.

There is no Neighbor Discovery: caches are pre-populated from scenario
configuration, and an address with no cache entry is a counted drop.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .netapi import (_MSG_SND, DEMUX_RAW, ENOTSUP, OK, Module, MsgKind,
                     NetMessage, OptionKey, drop, recopy, up)
from .pktbuf import (_IPV6, _RECEIVE, _SEND_APP, _UDP, NoBufferSpace,
                     ProtocolType)

HEADER_LEN = 40
NEXT_HEADER_UDP = 17
DEFAULT_HOP_LIMIT = 64
MAX_PAYLOAD = 1240  # fits the reassembly ceiling with the header

ALL_NODES = bytes.fromhex("ff020000000000000000000000000001")


class Ipv6Error(Exception):
    pass


class BadVersion(Ipv6Error):
    pass


class LengthMismatch(Ipv6Error):
    pass


class Unreachable(Ipv6Error):
    pass


class NeighborUnknown(Ipv6Error):
    pass


@dataclass
class Ipv6Header:
    src: bytes
    dst: bytes
    payload_length: int
    next_header: int = NEXT_HEADER_UDP
    hop_limit: int = DEFAULT_HOP_LIMIT
    traffic_class: int = 0
    flow_label: int = 0


def encode_header(hdr: Ipv6Header) -> bytes:
    word = (6 << 28) | (hdr.traffic_class << 20) | hdr.flow_label
    return struct.pack("!IHBB16s16s", word, hdr.payload_length,
                       hdr.next_header, hdr.hop_limit, hdr.src, hdr.dst)


def decode(data: bytes) -> tuple[Ipv6Header, bytes]:
    """Parse datagram bytes; validates version and payload length against
    the actual trailing bytes."""
    if len(data) < HEADER_LEN:
        raise LengthMismatch(f"{len(data)} bytes < {HEADER_LEN}")
    word, plen, nh, hl, src, dst = struct.unpack_from("!IHBB16s16s", data)
    if word >> 28 != 6:
        raise BadVersion(f"version {word >> 28}")
    payload = data[HEADER_LEN:]
    if len(payload) != plen:
        raise LengthMismatch(f"payload_length {plen}, got {len(payload)}")
    hdr = Ipv6Header(src, dst, plen, nh, hl,
                     (word >> 20) & 0xFF, word & 0xFFFFF)
    return hdr, payload


# -- neighbor caches ---------------------------------------------------------

class NeighborCache:
    """Observable contract shared by both implementations: LRU over
    ``capacity`` entries; lookup touches."""

    DEFAULT_CAPACITY = 8

    def insert(self, addr: bytes, link_addr: bytes):
        raise NotImplementedError

    def lookup(self, addr: bytes):
        raise NotImplementedError

    def __len__(self):
        raise NotImplementedError


class RingNeighborCache(NeighborCache):
    """Memory-optimized: a plain circular list scanned linearly."""

    def __init__(self, capacity: int = NeighborCache.DEFAULT_CAPACITY):
        self.capacity = capacity
        self._slots: list[list] = []  # [addr, link_addr, last_used]
        self._tick = 0

    def _touch(self):
        self._tick += 1
        return self._tick

    def insert(self, addr, link_addr):
        for slot in self._slots:
            if slot[0] == addr:
                slot[1] = link_addr
                slot[2] = self._touch()
                return
        if len(self._slots) >= self.capacity:
            lru = min(range(len(self._slots)),
                      key=lambda i: self._slots[i][2])
            del self._slots[lru]
        self._slots.append([addr, link_addr, self._touch()])

    def lookup(self, addr):
        for slot in self._slots:
            if slot[0] == addr:
                slot[2] = self._touch()
                return slot[1]
        return None

    def __len__(self):
        return len(self._slots)


class SortedNeighborCache(NeighborCache):
    """Lookup-optimized: hashed index, LRU order kept via a tick map."""

    def __init__(self, capacity: int = NeighborCache.DEFAULT_CAPACITY):
        self.capacity = capacity
        self._entries: dict[bytes, bytes] = {}
        self._last_used: dict[bytes, int] = {}
        self._tick = 0

    def _touch(self, addr):
        self._tick += 1
        self._last_used[addr] = self._tick

    def insert(self, addr, link_addr):
        if addr not in self._entries and len(self._entries) >= self.capacity:
            lru = min(self._last_used, key=self._last_used.get)
            del self._entries[lru]
            del self._last_used[lru]
        self._entries[addr] = link_addr
        self._touch(addr)

    def lookup(self, addr):
        link = self._entries.get(addr)
        if link is not None:
            self._touch(addr)
        return link

    def __len__(self):
        return len(self._entries)


NEIGHBOR_CACHES = {"RING": RingNeighborCache, "SORTED": SortedNeighborCache}


def make_neighbor_cache(kind: str) -> NeighborCache:
    try:
        return NEIGHBOR_CACHES[kind]()
    except KeyError:
        raise ValueError(f"unknown neighbor cache kind {kind!r}") from None


# -- forwarding --------------------------------------------------------------

ON_LINK = object()  # next hop is the destination itself


def _prefix_matches(addr: bytes, prefix: bytes, plen: int) -> bool:
    full, rem = divmod(plen, 8)
    if addr[:full] != prefix[:full]:
        return False
    if rem == 0:
        return True
    mask = 0xFF << (8 - rem) & 0xFF
    return (addr[full] & mask) == (prefix[full] & mask)


class ForwardingTable:
    """Static longest-prefix-match table; a /64 on-link route per
    configured interface address is inserted automatically."""

    def __init__(self):
        self._routes: list[tuple[bytes, int, int, object]] = []

    def add(self, prefix: bytes, plen: int, iface: int, next_hop=ON_LINK):
        self._routes.append((bytes(prefix), plen, iface, next_hop))

    def set_default(self, iface: int, next_hop: bytes):
        self.add(b"\x00" * 16, 0, iface, next_hop)

    def lookup(self, dst: bytes):
        best = None
        for prefix, plen, iface, nh in self._routes:
            if _prefix_matches(dst, prefix, plen):
                if best is None or plen > best[0]:
                    best = (plen, iface, nh)
        if best is None:
            raise Unreachable(f"no route to {dst.hex()}")
        return best[1], best[2]

    def __len__(self):
        return len(self._routes)


# -- module ------------------------------------------------------------------

class Ipv6Module(Module):
    """Network-layer context: encode/route on the way down, demux or
    forward on the way up."""

    layer = "ipv6"

    def __init__(self, primary_addr: bytes,
                 iface_addrs: dict[int, tuple[bytes, int]],
                 ncache: NeighborCache, fwd: ForwardingTable):
        self.primary_addr = primary_addr
        self.iface_addrs = iface_addrs
        self.ncache = ncache
        self.fwd = fwd
        self.hop_limit = DEFAULT_HOP_LIMIT
        for iface, (addr, plen) in self.iface_addrs.items():
            self.fwd.add(addr, plen, iface, ON_LINK)
        self._local = frozenset(
            [primary_addr, ALL_NODES,
             *(addr for addr, _ in self.iface_addrs.values())])

    def on_spawn(self, ctx):
        self.ctx = ctx
        ctx.node.registry.register(ProtocolType.IPV6, DEMUX_RAW, ctx)

    def is_local(self, dst: bytes) -> bool:
        return dst in self._local

    def route(self, dst: bytes):
        """Resolve (interface, next-hop link address) for a destination."""
        iface, nh = self.fwd.lookup(dst)
        target_ip = dst if nh is ON_LINK else nh
        link_addr = self.ncache.lookup(target_ip)
        if link_addr is None:
            raise NeighborUnknown(f"no neighbor entry for {target_ip.hex()}")
        return iface, link_addr

    # -- TX -----------------------------------------------------------------
    def on_snd(self, ctx, msg):
        node = ctx.node
        pkt = msg.pkt
        dst = msg.meta["dst_ip"]
        prio = msg.meta.get("prio", _SEND_APP)
        if pkt.total_size > MAX_PAYLOAD:
            drop(ctx, pkt, "ipv6_tx_too_large")
            return
        try:
            iface, next_hop_link = self.route(dst)
        except (Unreachable, NeighborUnknown) as exc:
            drop(ctx, pkt, "ipv6_unreachable" if isinstance(exc, Unreachable)
                 else "ipv6_neighbor_unknown")
            return
        hdr = Ipv6Header(src=self.primary_addr, dst=dst,
                         payload_length=pkt.total_size,
                         next_header=msg.meta.get("next_header",
                                                  NEXT_HEADER_UDP),
                         hop_limit=self.hop_limit)
        try:
            out = node.pktbuf.prepend_header(pkt, HEADER_LEN, _IPV6, prio)
        except NoBufferSpace:
            drop(ctx, pkt, "ipv6_tx_drops_nobuf")
            return
        out.head.data[:] = encode_header(hdr)
        self._down(ctx, out, iface, next_hop_link, msg.meta, prio)

    def _down(self, ctx, pkt, iface, next_hop_link, meta, prio):
        node = ctx.node
        adapt = node.wiring.get("adapt")
        if adapt is None:
            drop(ctx, pkt, "ipv6_no_adapt")
            return
        node.sched.post(adapt, NetMessage(
            kind=_MSG_SND, pkt=pkt,
            meta={"next_hop_link": next_hop_link, "iface": iface,
                  "packet_id": meta.get("packet_id"), "prio": prio}))

    # -- RX -----------------------------------------------------------------
    def on_rcv(self, ctx, msg):
        node = ctx.node
        data = msg.pkt.to_bytes()
        pid = msg.meta.get("packet_id")
        try:
            hdr, payload = decode(data)
        except Ipv6Error:
            drop(ctx, msg.pkt, "ipv6_rx_malformed")
            return
        if self.is_local(hdr.dst):
            chain = recopy(ctx, msg.pkt, payload, _UDP, pid,
                           "ipv6_rx_drops_nobuf")
            if chain is not None:
                meta = {"src_ip": hdr.src, "dst_ip": hdr.dst,
                        "packet_id": pid, "hop_limit": hdr.hop_limit}
                up(ctx, _IPV6, hdr.next_header, chain, meta, "ipv6_no_proto")
            return
        # forwarding path
        if hdr.hop_limit <= 1:
            drop(ctx, msg.pkt, "ipv6_hop_limit_drops")
            return
        try:
            iface, next_hop_link = self.route(hdr.dst)
        except (Unreachable, NeighborUnknown):
            drop(ctx, msg.pkt, "ipv6_forward_unroutable")
            return
        # decrement hop limit in place; we hold the only reference by now
        msg.pkt.head.data[7] = hdr.hop_limit - 1
        node.metrics.count("ipv6_forwarded")
        self._down(ctx, msg.pkt, iface, next_hop_link, msg.meta, _RECEIVE)

    # -- options -------------------------------------------------------------
    def on_option(self, ctx, msg):
        kind = msg.kind
        key, value = msg.option or (None, None)  # a stray MSG_ACK has none
        if kind == MsgKind.MSG_GET and key == OptionKey.HOP_LIMIT:
            msg.ack(OK, self.hop_limit)
        elif kind == MsgKind.MSG_GET and key == OptionKey.ADDRESS:
            msg.ack(OK, self.primary_addr)
        elif kind == MsgKind.MSG_SET and key == OptionKey.HOP_LIMIT:
            try:
                self.hop_limit = int(value) & 0xFF
            except (ValueError, TypeError):
                msg.ack(ENOTSUP)  # value the option cannot parse
                return
            msg.ack(OK)
        else:
            msg.ack(ENOTSUP)
