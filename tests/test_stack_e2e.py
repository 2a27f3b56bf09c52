"""Whole-stack integration: echo, fragmentation, forwarding, offload."""

import pytest

from modnet.metrics import CopySite
from modnet.netapi import MsgKind, NetMessage
from modnet.pktbuf import PacketChain, ProtocolType
from modnet.simnet import build
from modnet.udp import UdpError
from topo import (IP_A, IP_A2, IP_B, IP_B2, echo_on, offload_pair,
                  three_node_router, two_node)


def pattern(n):
    return bytes((i * 7 + 13) & 0xFF for i in range(n))


def open_echo_pair(sim, echo_port=7, client_port=40000):
    client = sim.socket_layer("a").open(client_port)
    server = echo_on(sim.socket_layer("b").open(echo_port))
    return client, server


def test_two_node_echo():
    sim = build(two_node())
    client, _ = open_echo_pair(sim)
    payload = pattern(50)
    client.sendto(IP_B, 7, payload)
    sim.run_until()
    got = client.recv_nowait()
    assert got == (IP_B, 7, payload)
    assert sim.nodes["a"].pktbuf.stats().used == 0
    assert sim.nodes["b"].pktbuf.stats().used == 0


def test_echo_send_path_copies():
    sim = build(two_node())
    client, _ = open_echo_pair(sim)
    pid = client.sendto(IP_B, 7, pattern(50))
    sim.run_until()
    client.recv_nowait()
    # small datagram: one copy in at the app, one copy out to the device
    assert sim.metrics.copy_report(pid) == {CopySite.APP_TO_BUF: 1,
                                            CopySite.BUF_TO_DEV: 1}


def test_fragmented_echo():
    sim = build(two_node())
    client, _ = open_echo_pair(sim)
    payload = pattern(600)
    client.sendto(IP_B, 7, payload)
    sim.run_until()
    assert client.recv_nowait() == (IP_B, 7, payload)
    assert sim.nodes["a"].pktbuf.stats().used == 0
    assert sim.nodes["b"].pktbuf.stats().used == 0
    # 648-byte datagrams cannot ride a single 127-byte frame
    assert sim.metrics.get("frames_sent") > 2


def test_router_forwards_and_decrements_hop_limit():
    sim = build(three_node_router())
    sink = sim.socket_layer("b").open(7)
    client = sim.socket_layer("a").open(40000)
    client.sendto(IP_B2, 7, pattern(30))
    sim.run_until()
    src_ip, src_port, payload = sink.recvfrom(timeout_us=0)
    assert (src_ip, src_port, payload) == (IP_A2, 40000, pattern(30))
    assert sink.last_hop_limit == 63  # one forwarding hop
    assert sim.metrics.get("ipv6_forwarded") == 1
    assert sim.nodes["r"].pktbuf.stats().used == 0


def test_router_round_trip():
    sim = build(three_node_router())
    client = sim.socket_layer("a").open(40000)
    echo_on(sim.socket_layer("b").open(7))
    payload = pattern(200)
    client.sendto(IP_B2, 7, payload)
    sim.run_until()
    assert client.recv_nowait() == (IP_B2, 7, payload)
    assert sim.metrics.get("ipv6_forwarded") == 2


def test_offload_echo():
    sim = build(offload_pair())
    client = sim.socket_layer("a").open(40000)
    echo_on(sim.socket_layer("b").open(7))
    payload = pattern(80)
    client.sendto(IP_B, 7, payload)
    sim.run_until()
    assert client.recv_nowait() == (IP_B, 7, payload)
    assert sim.metrics.get("frames_sent") == 0  # radio never used


def test_threaded_mode_echo():
    sim = build(two_node(), mode="par")
    try:
        client, _ = open_echo_pair(sim)
        payload = pattern(50)
        client.sendto(IP_B, 7, payload)
        assert sim.sched.wait_for(lambda: len(client.queue) > 0, 2_000_000)
        assert client.recv_nowait() == (IP_B, 7, payload)
        assert not sim.sched.errors
    finally:
        sim.stop()


def test_identical_seeds_identical_traces():
    traces = []
    for _ in range(2):
        sim = build(two_node(loss=0.2, seed=33))
        client, _ = open_echo_pair(sim)
        for i in range(10):
            client.sendto(IP_B, 7, pattern(40 + i))
        sim.run_until()
        traces.append(list(sim.sched.trace))
    assert traces[0] == traces[1]


def test_refused_sendto_leaves_no_trace():
    sim = build(two_node())
    node = sim.nodes["a"]
    sock = sim.socket_layer("a").open(40000)
    sock.close()
    with pytest.raises(UdpError, match="closed"):
        sock.sendto(IP_B, 7, pattern(20))
    with pytest.raises(UdpError, match="closed"):
        sock.recvfrom(timeout_us=0)
    assert sim.metrics.packet_ids() == []
    assert sim.metrics.get("udp_sent") == 0
    assert node.pktbuf.used == 0


def test_send_without_next_hop_goes_out_as_broadcast():
    sim = build(two_node())
    node = sim.nodes["a"]
    snip = node.pktbuf.alloc_snip(payload=bytes(50), proto=ProtocolType.IPV6)
    sim.sched.post(node.modules["6lo"],
                   NetMessage(kind=MsgKind.MSG_SND, pkt=PacketChain(snip)))
    sim.run_until()
    assert sim.metrics.get("frames_sent") == 1
    # b takes the broadcast frame, and 50 zero bytes are no IPv6 datagram
    assert sim.metrics.get("ipv6_rx_malformed") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())
