"""Shared topology builders for integration and acceptance tests."""

from ipaddress import IPv6Address

from modnet.simnet import (DeviceDesc, LinkDesc, NodeDesc, RouteDesc,
                           Topology)


def ip6(text):
    return IPv6Address(text).packed


IP_A = ip6("fd00::1")
IP_B = ip6("fd00::2")
IP_A2 = ip6("fd00:0:0:1::1")
IP_B2 = ip6("fd00:0:0:2::1")
IP_R_A = ip6("fd00:0:0:1::fe")
IP_R_B = ip6("fd00:0:0:2::fe")

LONG_A = bytes(7) + b"\x0a"
LONG_B = bytes(7) + b"\x0b"
LONG_R0 = bytes(7) + b"\xe0"
LONG_R1 = bytes(7) + b"\xe1"


def dev(short, long_addr):
    return DeviceDesc(addr_short=short, addr_long=long_addr)


def two_node(loss=0.0, seed=1, buffer_capacity=2048,
             backend="STATIC_ARENA", neighbor_cache="RING", delay_us=1):
    """A -- B on one shared /64, neighbor caches pre-populated."""
    a = NodeDesc("a", devices=[dev(b"\x00\x0a", LONG_A)], address=IP_A,
                 neighbors=[(IP_B, LONG_B)], buffer_capacity=buffer_capacity,
                 backend=backend, neighbor_cache=neighbor_cache)
    b = NodeDesc("b", devices=[dev(b"\x00\x0b", LONG_B)], address=IP_B,
                 neighbors=[(IP_A, LONG_A)], buffer_capacity=buffer_capacity,
                 backend=backend, neighbor_cache=neighbor_cache)
    return Topology(nodes=[a, b],
                    links=[LinkDesc("a", "b", loss=loss, delay_us=delay_us)],
                    seed=seed)


def three_node_router(loss_ar=0.0, loss_rb=0.0, seed=1, **node_kw):
    """A -- R -- B with distinct /64s on each side; R forwards."""
    a = NodeDesc("a", devices=[dev(b"\x00\x0a", LONG_A)], address=IP_A2,
                 routes=[RouteDesc(bytes(16), 0, 0, next_hop=IP_R_A)],
                 neighbors=[(IP_R_A, LONG_R0)], **node_kw)
    r = NodeDesc("r",
                 devices=[dev(b"\x00\xe0", LONG_R0), dev(b"\x00\xe1", LONG_R1)],
                 address=IP_R_A,
                 iface_addrs={0: (IP_R_A, 64), 1: (IP_R_B, 64)},
                 neighbors=[(IP_A2, LONG_A), (IP_B2, LONG_B)], **node_kw)
    b = NodeDesc("b", devices=[dev(b"\x00\x0b", LONG_B)], address=IP_B2,
                 routes=[RouteDesc(bytes(16), 0, 0, next_hop=IP_R_B)],
                 neighbors=[(IP_R_B, LONG_R1)], **node_kw)
    return Topology(nodes=[a, r, b],
                    links=[LinkDesc("a", "r:0", loss=loss_ar),
                           LinkDesc("r:1", "b", loss=loss_rb)],
                    seed=seed)


def offload_pair(seed=1):
    """Two nodes whose transport is the offload device bridge; no radio."""
    a = NodeDesc("a", address=IP_A, offload=True, offload_peer="b")
    b = NodeDesc("b", address=IP_B, offload=True, offload_peer="a")
    return Topology(nodes=[a, b], links=[], seed=seed)


def echo_on(sock):
    """Install an echo responder: every datagram is sent straight back."""
    def bounce(s):
        src_ip, src_port, payload = s.recvfrom()
        s.sendto(src_ip, src_port, payload)
    sock.on_ready = bounce
    return sock

