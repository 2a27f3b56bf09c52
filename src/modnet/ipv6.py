"""Minimal IPv6: 40-byte header codec, longest-prefix forwarding over
multiple interfaces, next-header demux through the registry, and two
interchangeable neighbor caches.

The header format is one ``struct.Struct``, ``HEADER``: ``encode_header``
packs it and ``decode`` unpacks it into a tuple.  Traffic class and flow
label are sent as 0 and not decoded.

There is no Neighbor Discovery: caches are pre-populated from scenario
configuration, and an address with no cache entry is a counted drop.
"""

from __future__ import annotations

import struct
from bisect import insort

from . import netapi
from .netapi import (_MSG_SND, DEMUX_RAW, Module, NetMessage, OptionKey,
                     Unsupported, drop, recopy)
from .pktbuf import (_IPV6, _RECEIVE, _SEND_APP, _UDP, NoBufferSpace,
                     ProtocolType)

# version word, payload length, next header, hop limit, src, dst
HEADER = struct.Struct("!IHBB16s16s")
HEADER_LEN = HEADER.size  # 40
NEXT_HEADER_UDP = 17
DEFAULT_HOP_LIMIT = 64
IFACE_PREFIX_LEN = 64  # of an interface address given without a length
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


def encode_header(src: bytes, dst: bytes, payload_length: int,
                  next_header: int = NEXT_HEADER_UDP,
                  hop_limit: int = DEFAULT_HOP_LIMIT) -> bytes:
    # version 6; traffic class and flow label 0
    return HEADER.pack(6 << 28, payload_length, next_header, hop_limit,
                       src, dst)


def decode(data: bytes) -> tuple[bytes, bytes, int, int, bytes]:
    """``(src, dst, next_header, hop_limit, payload)`` of datagram bytes;
    validates version and payload length against the trailing bytes."""
    if len(data) < HEADER_LEN:
        raise LengthMismatch(f"{len(data)} bytes < {HEADER_LEN}")
    word, plen, nh, hl, src, dst = HEADER.unpack_from(data)
    if word >> 28 != 6:
        raise BadVersion(f"version {word >> 28}")
    payload = data[HEADER_LEN:]
    if len(payload) != plen:
        raise LengthMismatch(f"payload_length {plen}, got {len(payload)}")
    return src, dst, nh, hl, payload


# -- neighbor caches ---------------------------------------------------------
# Both caches keep one observable contract: ``insert``, ``lookup`` (None for
# an unknown address) and ``len``, LRU over ``capacity`` entries; lookup
# touches.

NEIGHBOR_CACHE_CAPACITY = 8


class RingNeighborCache:
    """Memory-optimized: a plain circular list scanned linearly."""

    def __init__(self, capacity: int = NEIGHBOR_CACHE_CAPACITY):
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


class SortedNeighborCache:
    """Lookup-optimized: hashed index, LRU order kept via a tick map."""

    def __init__(self, capacity: int = NEIGHBOR_CACHE_CAPACITY):
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


# -- forwarding --------------------------------------------------------------

ON_LINK = object()  # next hop is the destination itself


def _longest_first(route) -> int:
    return -route[2]


class ForwardingTable:
    """Static longest-prefix-match table.  ``Ipv6Module`` adds an on-link
    route for each interface address, with that address's prefix length.
    Routes are kept longest prefix first, in the order added among equal
    lengths, so the first route whose mask matches is the best."""

    def __init__(self):
        # (network, mask, plen, iface, next_hop), network and mask as ints
        self._routes: list[tuple[int, int, int, int, object]] = []

    def add(self, prefix: bytes, plen: int, iface: int, next_hop=ON_LINK):
        mask = ((1 << plen) - 1) << (128 - plen)
        network = int.from_bytes(prefix, "big") & mask
        insort(self._routes, (network, mask, plen, iface, next_hop),
               key=_longest_first)

    def lookup(self, dst: bytes):
        addr = int.from_bytes(dst, "big")
        for network, mask, _, iface, nh in self._routes:
            if addr & mask == network:
                return iface, nh
        raise Unreachable(f"no route to {dst.hex()}")


# -- module ------------------------------------------------------------------

class Ipv6Module(Module):
    """Network-layer context: encode/route down to ``adapt``, the
    adaptation-layer context, and demux or forward on the way up."""

    layer = "ipv6"

    def __init__(self, primary_addr: bytes,
                 iface_addrs: dict[int, tuple[bytes, int]],
                 ncache, fwd: ForwardingTable, adapt):
        self.adapt = adapt
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
        ctx.node.registry.register(ProtocolType.IPV6, DEMUX_RAW, ctx)

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
        if (size := pkt.total_size) > MAX_PAYLOAD:
            drop(ctx, pkt, "ipv6_tx_too_large")
            return
        try:
            iface, next_hop_link = self.route(dst)
        except (Unreachable, NeighborUnknown) as exc:
            drop(ctx, pkt, "ipv6_unreachable" if isinstance(exc, Unreachable)
                 else "ipv6_neighbor_unknown")
            return
        try:
            out = node.pktbuf.prepend_header(pkt, HEADER_LEN, _IPV6, _SEND_APP)
        except NoBufferSpace:
            drop(ctx, pkt, "ipv6_tx_drops_nobuf")
            return
        out.data[:] = encode_header(self.primary_addr, dst, size,
                                    hop_limit=self.hop_limit)
        self._down(ctx, out, iface, next_hop_link, msg.meta["packet_id"],
                   _SEND_APP)

    def _down(self, ctx, pkt, iface, next_hop_link, pid, prio):
        ctx.node.sched.post(self.adapt, NetMessage(
            kind=_MSG_SND, pkt=pkt,
            meta={"next_hop_link": next_hop_link, "iface": iface,
                  "packet_id": pid, "prio": prio}))

    # -- RX -----------------------------------------------------------------
    def on_rcv(self, ctx, msg):
        node = ctx.node
        data = msg.pkt.to_bytes()
        pid = msg.meta["packet_id"]
        try:
            src, dst, next_header, hop_limit, payload = decode(data)
        except Ipv6Error:
            drop(ctx, msg.pkt, "ipv6_rx_malformed")
            return
        if dst in self._local:
            chain = recopy(ctx, msg.pkt, payload, _UDP, pid,
                           "ipv6_rx_drops_nobuf")
            if chain is not None:
                meta = {"src_ip": src, "dst_ip": dst,
                        "packet_id": pid, "hop_limit": hop_limit}
                netapi.dispatch(node, _IPV6, next_header, chain, meta,
                                "ipv6_no_proto")
            return
        # forwarding path
        if hop_limit <= 1:
            drop(ctx, msg.pkt, "ipv6_hop_limit_drops")
            return
        try:
            iface, next_hop_link = self.route(dst)
        except (Unreachable, NeighborUnknown):
            drop(ctx, msg.pkt, "ipv6_forward_unroutable")
            return
        # decrement hop limit in place; we hold the only reference by now
        msg.pkt.data[7] = hop_limit - 1
        node.metrics.count("ipv6_forwarded")
        self._down(ctx, msg.pkt, iface, next_hop_link, pid, _RECEIVE)

    # -- options -------------------------------------------------------------
    def get_option(self, key):
        if key == OptionKey.HOP_LIMIT:
            return self.hop_limit
        if key == OptionKey.ADDRESS:
            return self.primary_addr
        return super().get_option(key)

    def set_option(self, key, value):
        if key != OptionKey.HOP_LIMIT or not 0 <= int(value) <= 255:
            raise Unsupported(f"ipv6 option {key!r} = {value!r}")
        self.hop_limit = int(value)
