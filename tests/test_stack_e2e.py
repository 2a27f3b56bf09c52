"""Whole-stack integration: echo, fragmentation, forwarding, offload."""

import collections
import pathlib
import struct

import pytest

from modnet.ipv6 import NEXT_HEADER_UDP, encode_header
from modnet.link import link_encode
from modnet.metrics import CopySite
from modnet.netapi import (DEMUX_ALL, DEMUX_RAW, OK, MsgKind, NetMessage,
                           OptionKey, send_cmd)
from modnet.netdev import DevNotify
from modnet.pktbuf import (SNIP_OVERHEAD, AllocPriority,
                           ProtocolType)
from modnet.scenario import load_scenario_file, run_scenario
from modnet.simnet import build
from modnet.sixlowpan import (DISPATCH_UNCOMPRESSED, FRAG1_DISPATCH,
                              FRAGN_DISPATCH)
from modnet.udp import (HEADER, MAX_PAYLOAD, PayloadTooLarge, UdpError,
                        udp_checksum)
from topo import (IP_A, IP_A2, IP_B, IP_B2, LONG_A, LONG_B, LONG_R0,
                  echo_on, ip6, offload_pair, three_node_router, two_node)

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


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
    sim = build(two_node(), record=True)
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
    src_ip, src_port, payload = sink.recvfrom()
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
        sim.run_until()
        assert client.recv_nowait() == (IP_B, 7, payload)
        assert not sim.sched.errors
    finally:
        sim.stop()


def test_identical_seeds_identical_traces():
    traces = []
    for _ in range(2):
        sim = build(two_node(loss=0.2, seed=33), record=True)
        client, _ = open_echo_pair(sim)
        for i in range(10):
            client.sendto(IP_B, 7, pattern(40 + i))
        sim.run_until()
        traces.append(list(sim.sched.trace))
    assert traces[0] and traces[0] == traces[1]


def test_refused_sendto_leaves_no_trace():
    sim = build(two_node(), record=True)
    node = sim.nodes["a"]
    sock = sim.socket_layer("a").open(40000)
    sock.close()
    with pytest.raises(UdpError, match="closed"):
        sock.sendto(IP_B, 7, pattern(20))
    with pytest.raises(UdpError, match="closed"):
        sock.recvfrom()
    assert sim.metrics.packet_ids() == []
    assert sim.metrics.get("udp_sent") == 0
    assert node.pktbuf.used == 0
    # the ledger is live: a send that goes out is recorded
    pid = sim.socket_layer("a").open(40001).sendto(IP_B, 7, pattern(20))
    assert sim.metrics.packet_ids() == [pid]


@pytest.mark.parametrize("dst_ip,payload,match", [
    (IP_B, b"", "empty payload"),
    ("fd00::2", pattern(20), "not 16 bytes"),
    (IP_B[:15], pattern(20), "not 16 bytes"),
    (IP_B + b"\x00", pattern(20), "not 16 bytes"),
    (None, pattern(20), "not 16 bytes"),
], ids=["empty", "str", "short", "long", "none"])
def test_refused_sendto_allocates_nothing(dst_ip, payload, match):
    sim = build(two_node(), record=True)
    sock = sim.socket_layer("a").open(40000)
    with pytest.raises(UdpError, match=match):
        sock.sendto(dst_ip, 7, payload)
    sim.run_until()
    assert sim.metrics.packet_ids() == []
    assert sim.metrics.get("udp_sent") == 0
    assert sim.nodes["a"].pktbuf.used == 0


@pytest.mark.parametrize("call", ["sendto", "open"])
@pytest.mark.parametrize("port", [70000, 65536, -1, "7", True, 7.0, None])
def test_a_port_outside_0_to_65535_is_refused(call, port):
    sim = build(two_node(), record=True)
    layer = sim.socket_layer("a")
    sock = layer.open(40000)
    registered = len(sim.nodes["a"].registry)
    with pytest.raises(UdpError, match="0..65535"):
        if call == "open":
            layer.open(port)
        else:
            sock.sendto(IP_B, port, pattern(20))
    sim.run_until()
    assert list(layer.ports) == [40000]
    assert len(sim.nodes["a"].registry) == registered
    assert sim.metrics.packet_ids() == []
    assert sim.metrics.get("udp_sent") == 0
    assert sim.nodes["a"].pktbuf.used == 0


@pytest.mark.parametrize("port", [0, 65535])
def test_ports_0_and_65535_are_accepted(port):
    sim = build(two_node())
    sink = sim.socket_layer("b").open(port)
    sim.socket_layer("a").open(port).sendto(IP_B, port, pattern(20))
    sim.run_until()
    assert sink.recv_nowait() == (IP_A, port, pattern(20))
    assert [n.pktbuf.used for n in sim.nodes.values()] == [0, 0]


@pytest.mark.parametrize("capacity", [0, -1, True, 1.5, "4", None])
def test_a_queue_capacity_below_1_or_not_an_int_is_refused(capacity):
    """A socket that can queue nothing would fail at its first datagram,
    inside ``run_until``; ``open`` refuses it before any registration."""
    sim = build(two_node())
    layer = sim.socket_layer("b")
    registered = len(sim.nodes["b"].registry)
    with pytest.raises(UdpError, match="queue capacity"):
        layer.open(7, queue_capacity=capacity)
    assert layer.ports == {}
    assert len(sim.nodes["b"].registry) == registered
    sim.socket_layer("a").open(40000).sendto(IP_B, 7, pattern(20))
    sim.run_until()
    assert sim.metrics.get("udp_rx_no_port") == 1
    assert [n.pktbuf.used for n in sim.nodes.values()] == [0, 0]


def test_a_queue_capacity_of_1_keeps_the_newest_datagram():
    sim = build(two_node())
    sink = sim.socket_layer("b").open(7, queue_capacity=1)
    client = sim.socket_layer("a").open(40000)
    for size in (20, 30):
        client.sendto(IP_B, 7, pattern(size))
    sim.run_until()
    assert sim.metrics.get("sock_queue_drops") == 1
    assert sink.recv_nowait() == (IP_A, 40000, pattern(30))
    assert sink.recv_nowait() is None
    assert [n.pktbuf.used for n in sim.nodes.values()] == [0, 0]


def test_nothing_is_recorded_by_default():
    off, on = build(two_node()), build(two_node(), record=True)
    for sim in (off, on):
        client, _ = open_echo_pair(sim)
        payload = pattern(50)
        client.sendto(IP_B, 7, payload)
        sim.run_until()
        assert client.recv_nowait() == (IP_B, 7, payload)
    assert off.sched.trace is None
    assert off.metrics.packet_ids() == []
    assert off.metrics.as_dict()["packets"] == {}
    assert len(on.sched.trace) > 0 and on.metrics.packet_ids()
    for sim in (off, on):
        assert sim.metrics.get("udp_delivered") == 2  # request + echo
        assert [n.pktbuf.used for n in sim.nodes.values()] == [0, 0]
    assert off.metrics.counters == on.metrics.counters


@pytest.mark.parametrize(
    "name", sorted(path.name for path in SCENARIO_DIR.glob("*.json")))
def test_recording_never_changes_what_is_simulated(name):
    """A recorded and an unrecorded det run of a shipped scenario simulate
    the same thing; only the recorded one keeps a trace and a ledger."""
    scenario = load_scenario_file(str(SCENARIO_DIR / name))
    off_sim, off = run_scenario(scenario)
    on_sim, on = run_scenario(scenario, record=True)
    for key in ("counters", "sockets", "sends", "now_us"):
        assert off[key] == on[key], key
    assert off_sim.sched.trace is None and off["packets"] == {}
    assert on["trace_lines"] == len(on_sim.sched.trace) > 0
    assert on["packets"]


def test_send_without_next_hop_goes_out_as_broadcast():
    sim = build(two_node())
    node = sim.nodes["a"]
    snip = node.pktbuf.alloc_snip(payload=bytes(50), proto=ProtocolType.IPV6)
    sim.sched.post(node.modules["6lo"],
                   NetMessage(kind=MsgKind.MSG_SND, pkt=snip))
    sim.run_until()
    assert sim.metrics.get("frames_sent") == 1
    # b takes the broadcast frame, and 50 zero bytes are no IPv6 datagram
    assert sim.metrics.get("ipv6_rx_malformed") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


# -- receive-path drops ------------------------------------------------------

def udp_bytes(payload, flip_checksum=False):
    """A datagram from IP_A port 40000 to IP_B port 7."""
    header = HEADER.pack(40000, 7, 8 + len(payload), 0)
    csum = udp_checksum(IP_A, IP_B, header + payload) ^ flip_checksum
    return HEADER.pack(40000, 7, 8 + len(payload), csum) + payload


def frame(dst_long, dst_ip, udp, hop_limit=64):
    """A link frame carrying one unfragmented IPv6 datagram."""
    hdr = encode_header(src=IP_A, dst=dst_ip, payload_length=len(udp),
                        hop_limit=hop_limit)
    return link_encode(dst_long, LONG_A, 0, bytes([DISPATCH_UNCOMPRESSED])
                       + hdr + udp)


RX_DROPS = [
    (two_node, "b", bytes(5), "link_rx_malformed"),
    (two_node, "b", frame(bytes(8), IP_B, udp_bytes(b"hi")),
     "link_rx_filtered"),
    (two_node, "b", link_encode(LONG_B, LONG_A, 0, b"\x00\x01"),
     "sixlowpan_rx_malformed"),  # no such dispatch
    (three_node_router, "r", frame(LONG_R0, IP_B2, udp_bytes(b"hi"), 1),
     "ipv6_hop_limit_drops"),
    (three_node_router, "r", frame(LONG_R0, ip6("fd00:0:0:3::1"),
                                   udp_bytes(b"hi")),
     "ipv6_forward_unroutable"),
    (two_node, "b", frame(LONG_B, IP_B, udp_bytes(b"hi")[:6]),
     "udp_rx_malformed"),
    (two_node, "b", frame(LONG_B, IP_B, udp_bytes(b"hi", True)),
     "udp_rx_bad_checksum"),
    (two_node, "b", frame(LONG_B, IP_B, udp_bytes(b"")), "udp_rx_empty"),
]


def frag1(size, data):
    return struct.pack("!HH", (FRAG1_DISPATCH << 11) | size, 1) + data


def fragn(size, offset, data):
    return struct.pack("!HHB", (FRAGN_DISPATCH << 11) | size, 1,
                       offset // 8) + data


# reassembly input checks: one counter, so each case names its frame
RX_DROPS += [
    pytest.param(two_node, "b", link_encode(LONG_B, LONG_A, 0, payload),
                 "sixlowpan_rx_malformed", id=f"sixlowpan_rx_malformed-{name}")
    for name, payload in [
        ("fragn_past_datagram_end", fragn(64, 56, bytes(16))),
        ("frag1_not_8_aligned", frag1(64, bytes(13))),
        ("fragn_without_data", fragn(64, 8, b"")),
        ("dispatch_without_datagram", bytes([DISPATCH_UNCOMPRESSED])),
    ]]


@pytest.mark.parametrize("make,node,raw,counter", RX_DROPS,
                         ids=[case[-1] for case in RX_DROPS])
def test_crafted_frame_is_a_counted_drop(make, node, raw, counter):
    sim = build(make())
    sim.nodes[node].devices[0]._rx_frame(raw)
    sim.run_until()
    assert sim.metrics.get(counter) == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


# Out of memory on the receive path.  A CONTROL filler snip leaves ``room``
# bytes of b's 2,048; a block costs 16 B plus its size rounded up to 4.  A
# layer's re-copy releases the chain before it allocates, so it can fail
# only while a second receiver, the tap bound to the same key, still holds
# the chain.  The 40 B datagram costs 108 B at the link, 104 B at 6lo (its
# IPv6 datagram), 64 B at ipv6 (its UDP datagram) and 56 B at udp.
RX_NOBUF_DROPS = [  # (tap key, room, frame, counter)
    (None, 64, frame(LONG_B, IP_B, udp_bytes(b"hi")), "link_rx_drops_nobuf"),
    (None, 64, link_encode(LONG_B, LONG_A, 0, frag1(640, bytes(16))),
     "reassembly_drops_nobuf"),  # the link's 36 B fit, the 656 B entry not
    ((ProtocolType.SIXLOWPAN, DEMUX_ALL), 200,
     frame(LONG_B, IP_B, udp_bytes(bytes(40))), "sixlowpan_rx_drops_nobuf"),
    ((ProtocolType.IPV6, DEMUX_RAW), 160,
     frame(LONG_B, IP_B, udp_bytes(bytes(40))), "ipv6_rx_drops_nobuf"),
    ((ProtocolType.IPV6, NEXT_HEADER_UDP), 116,
     frame(LONG_B, IP_B, udp_bytes(bytes(40))), "udp_rx_drops_nobuf"),
]


def fill(node, room):
    """Hold all but ``room`` bytes of ``node``'s idle buffer."""
    buf = node.pktbuf
    assert buf.used == 0
    return buf.alloc_snip(size=buf.capacity - room - SNIP_OVERHEAD,
                          prio=AllocPriority.CONTROL)


@pytest.mark.parametrize("tap,room,raw,counter", RX_NOBUF_DROPS,
                         ids=[case[-1] for case in RX_NOBUF_DROPS])
def test_receive_out_of_memory_is_a_counted_drop(tap, room, raw, counter):
    sim = build(two_node())
    b = sim.nodes["b"]
    if tap is not None:
        b.registry.register(*tap, b.spawn_module(
            "tap", lambda ctx, msg: b.pktbuf.release(msg.pkt),
            aux=True))
    filler = fill(b, room)
    b.devices[0]._rx_frame(raw)
    sim.run_until()
    assert sim.metrics.get(counter) == 1
    b.pktbuf.release(filler)
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_offload_receive_out_of_memory_is_a_counted_drop():
    sim = build(offload_pair())
    b = sim.nodes["b"]
    filler = fill(b, 64)  # the 80 B datagram costs 96 B
    sim.socket_layer("a").open(40000).sendto(IP_B, 7, pattern(80))
    sim.run_until()
    assert sim.metrics.get("offload_rx_drops_nobuf") == 1
    b.pktbuf.release(filler)
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


# -- send-path drops ---------------------------------------------------------

TX_DROPS = [  # (module on node a, chain size, meta, buffer capacity, counter)
    ("ipv6", 1241, {"dst_ip": IP_B}, 2048, "ipv6_tx_too_large"),
    ("6lo", 50, {"iface": 3}, 2048, "sixlowpan_no_link"),
    ("6lo", 2048, {}, 4096, "sixlowpan_tx_too_large"),  # over 2,047 B
    ("link0", 111, {}, 2048, "link_payload_too_large"),
    # the chain fits under SEND_APP's 192 B of 256, its header does not
    ("udp", 160, {}, 256, "udp_tx_drops_nobuf"),
    ("ipv6", 130, {"dst_ip": IP_B}, 256, "ipv6_tx_drops_nobuf"),
]


@pytest.mark.parametrize("module,size,meta,capacity,counter", TX_DROPS,
                         ids=[case[-1] for case in TX_DROPS])
def test_crafted_send_is_a_counted_drop(module, size, meta, capacity,
                                        counter):
    sim = build(two_node(buffer_capacity=capacity))
    node = sim.nodes["a"]
    pkt = node.pktbuf.alloc_snip(size=size)
    sim.sched.post(node.modules[module],
                   NetMessage(kind=MsgKind.MSG_SND, pkt=pkt, meta=meta))
    sim.run_until()
    assert sim.metrics.get(counter) == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_an_unfragmented_send_without_room_for_its_dispatch_byte_is_a_drop():
    sim = build(two_node())
    node = sim.nodes["a"]
    pkt = node.pktbuf.alloc_snip(size=109)  # the 6lo maximum
    # the rest of the buffer, so the 1-byte dispatch header finds no room
    filler = node.pktbuf.alloc_snip(
        size=node.pktbuf.capacity - node.pktbuf.used - SNIP_OVERHEAD,
        prio=AllocPriority.CONTROL)
    sim.sched.post(node.modules["6lo"],
                   NetMessage(kind=MsgKind.MSG_SND, pkt=pkt, meta={}))
    sim.run_until()
    assert sim.metrics.get("sixlowpan_tx_drops_nobuf") == 1
    assert sim.metrics.get("frames_sent") == 0
    node.pktbuf.release(filler)
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


# -- socket reads and release paths ------------------------------------------

def test_recvfrom_on_an_empty_socket_runs_nothing():
    sim = build(two_node())
    client, _ = open_echo_pair(sim)
    client.sendto(IP_B, 7, pattern(50))  # contexts are ready to run
    steps = sim.sched.steps
    with pytest.raises(UdpError, match="nothing queued"):
        client.recvfrom()
    assert sim.sched.steps == steps
    sim.run_until()
    assert client.recvfrom() == (IP_B, 7, pattern(50))
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_sendto_refuses_a_payload_over_the_maximum_and_does_nothing():
    sim = build(two_node())
    client = sim.socket_layer("a").open(40000)
    with pytest.raises(PayloadTooLarge):
        client.sendto(IP_B, 7, pattern(MAX_PAYLOAD + 1))  # 1,193 B
    sim.run_until()
    assert sim.metrics.counters == {}  # nothing sent, received or dropped
    assert all(n.pktbuf.stats().peak == 0 for n in sim.nodes.values())


def test_a_datagram_in_the_sock_mailbox_when_its_socket_closes_is_counted():
    """The socket closes after udp handed the datagram up and before the
    sock context reads it: the sock context finds no port."""
    sim = build(two_node())
    b = sim.nodes["b"]
    server = sim.socket_layer("b").open(7)
    sim.socket_layer("a").open(40000).sendto(IP_B, 7, pattern(20))
    while not b.aux["sock"].mailbox:
        assert sim.sched.step()
    server.close()
    sim.run_until()
    assert sim.metrics.get("sock_no_port") == 1
    assert sim.metrics.get("udp_delivered") == 0
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_fragmentation_out_of_memory_releases_the_fragments():
    sim = build(two_node(buffer_capacity=1024))
    client, _ = open_echo_pair(sim)
    client.sendto(IP_B, 7, pattern(600))  # fits; its fragments do not
    sim.run_until()
    assert sim.metrics.get("sixlowpan_tx_drops_nobuf") == 1
    assert sim.metrics.get("frames_sent") == 0
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_an_offload_context_answers_get_address():
    sim = build(offload_pair())
    for name, address in (("a", IP_A), ("b", IP_B)):
        ack = send_cmd(sim.sched, sim.nodes[name].modules["offload"],
                       NetMessage(kind=MsgKind.MSG_GET,
                                  option=(OptionKey.ADDRESS, b"")))
        assert (ack.status, ack.value) == (OK, address)


def test_close_releases_queued_datagrams():
    sim = build(two_node())
    sink = sim.socket_layer("b").open(7)
    client = sim.socket_layer("a").open(40000)
    for i in range(3):
        client.sendto(IP_B, 7, pattern(20 + i))
    sim.run_until()
    assert len(sink.queue) == 3
    assert sim.nodes["b"].pktbuf.used > 0
    sink.close()
    assert not sink.queue
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_frame_sent_while_the_radio_is_busy_goes_out_on_tx_done():
    sim = build(two_node())
    node = sim.nodes["a"]
    link = node.modules["link0"]
    pkt = node.pktbuf.alloc_snip(payload=pattern(50))
    sim.sched.post(link, NetMessage(kind=MsgKind.MSG_SND, pkt=pkt, meta={}))
    held = node.pktbuf.used
    # the radio starts another frame before the link handler runs
    node.devices[0].dev_send(link_encode(LONG_B, LONG_A, 0, pattern(20)))
    sim.sched.step()  # the link handler finds the radio busy
    assert len(link.module._pending) == 1
    # the waiting frame's chain stays in the packet buffer
    assert link.module._pending[0][1] is pkt
    assert node.pktbuf.used == held > 0
    sim.run_until()
    assert not link.module._pending
    assert sim.metrics.get("frames_sent") == 2
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_a_frame_refused_again_on_tx_done_waits_for_the_next_one():
    sim = build(two_node())
    node = sim.nodes["a"]
    link, radio = node.modules["link0"], node.devices[0]
    pkt = node.pktbuf.alloc_snip(payload=pattern(50))
    sim.sched.post(link, NetMessage(kind=MsgKind.MSG_SND, pkt=pkt, meta={}))
    radio.dev_send(link_encode(LONG_B, LONG_A, 0, pattern(20)))
    sim.sched.step()  # the link handler finds the radio busy
    assert len(link.module._pending) == 1
    while not link._ctrl:  # up to the first frame's TX_DONE
        sim.sched.step()
    # the radio starts another frame before the link reads the marker
    radio.dev_send(link_encode(LONG_B, LONG_A, 1, pattern(30)))
    sim.sched.step()  # the link handler: TX_DONE, and the radio is busy
    assert len(link.module._pending) == 1
    assert link.module._pending[0][1] is pkt
    sim.run_until()
    assert not link.module._pending
    assert sim.metrics.get("frames_sent") == 3
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_a_radio_posts_one_marker_object_per_event_kind():
    """A radio posts the ``DevNotify`` member itself to its link.  Two
    frames that reach b before its link runs leave RX_READY twice in the
    link's control lane, and the link reads both frames."""
    sim = build(two_node())
    b = sim.nodes["b"]
    radio, link = b.devices[0], b.modules["link0"]
    posted = []
    post = sim.sched.post

    def recording_post(ctx, msg):
        if isinstance(msg, DevNotify):
            posted.append((ctx, msg))
        return post(ctx, msg)

    sim.sched.post = recording_post
    sink = sim.socket_layer("b").open(7)
    for payload in (b"one", b"two"):
        radio._rx_frame(frame(LONG_B, IP_B, udp_bytes(payload)))
    assert list(link._ctrl) == [DevNotify.RX_READY] * 2
    sim.run_until()
    assert [sink.recv_nowait()[2] for _ in range(2)] == [b"one", b"two"]
    client = sim.socket_layer("a").open(40000)
    for payload in (b"three", b"four"):
        client.sendto(IP_B, 7, payload)
    sim.run_until()
    assert len(sink.queue) == 2
    # a's radio sent twice and b's received four frames, each event posted
    # to the radio's own link
    assert collections.Counter(posted) == {
        (link, DevNotify.RX_READY): 4,
        (sim.nodes["a"].modules["link0"], DevNotify.TX_DONE): 2}


def test_link_shutdown_drops_the_frames_waiting_for_the_radio():
    sim = build(two_node())
    node = sim.nodes["a"]
    link = node.modules["link0"]
    pkt = node.pktbuf.alloc_snip(payload=pattern(50))
    sim.sched.post(link, NetMessage(kind=MsgKind.MSG_SND, pkt=pkt, meta={}))
    node.devices[0].dev_send(link_encode(LONG_B, LONG_A, 0, pattern(20)))
    sim.sched.step()  # the link handler finds the radio busy
    assert len(link.module._pending) == 1
    assert node.pktbuf.used > 0
    node.shutdown_module(link)
    assert not link.module._pending
    assert sim.metrics.get("link_shutdown_drops") == 1
    assert node.pktbuf.used == 0  # the waiting frame's chain went back
    sim.run_until()
    assert sim.metrics.get("frames_sent") == 1  # TX_DONE sent nothing
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_link_shutdown_drops_the_frames_the_radio_holds():
    """Frames the radio received but the link has not read go with the
    link; a frame that arrives later is dropped by the radio itself."""
    sim = build(two_node())
    b = sim.nodes["b"]
    radio = b.devices[0]
    for _ in range(2):
        radio._rx_frame(frame(LONG_B, IP_B, udp_bytes(b"hi")))
    b.shutdown_module(b.modules["link0"])
    assert radio._rx == []
    assert sim.metrics.get("link_shutdown_drops") == 2
    sim.socket_layer("a").open(40000).sendto(IP_B, 7, pattern(20))
    sim.run_until()
    assert radio._rx == []
    assert sim.metrics.get("dev_rx_drops_no_owner") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_sock_shutdown_counts_each_queued_datagram():
    sim = build(two_node())
    b = sim.nodes["b"]
    server = sim.socket_layer("b").open(7)  # no app: datagrams stay queued
    client = sim.socket_layer("a").open(40000)
    for _ in range(3):
        client.sendto(IP_B, 7, pattern(20))
    sim.run_until()
    assert len(server.queue) == 3
    b.shutdown_module(b.aux["sock"])
    assert sim.metrics.get("sock_close_drops") == 3
    assert b.pktbuf.used == 0


def test_open_after_sock_shutdown_is_refused():
    """A socket layer whose context is shut down binds no port, so a
    datagram to that port is the udp layer's counted miss."""
    sim = build(two_node())
    b = sim.nodes["b"]
    layer = sim.socket_layer("b")
    b.shutdown_module(b.aux["sock"])
    with pytest.raises(UdpError, match="shut down"):
        layer.open(7)
    assert layer.ports == {}
    assert b.registry.lookup(ProtocolType.UDP, 7) == []
    sim.socket_layer("a").open(40000).sendto(IP_B, 7, pattern(20))
    sim.run_until()
    assert sim.metrics.get("udp_rx_no_port") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


@pytest.mark.parametrize("context,before_run", [("ipv6", True),
                                                ("udp", False)])
def test_a_datagram_a_closed_context_takes_is_counted(context, before_run):
    """A datagram posted to a shut-down context, or left in its mailbox
    when it shuts down, is counted as ``closed_drops``."""
    sim = build(two_node())
    a = sim.nodes["a"]
    sock = sim.socket_layer("a").open(40000)
    if before_run:
        a.shutdown_module(a.modules[context])
    sock.sendto(IP_B, 7, pattern(20))
    if not before_run:
        a.shutdown_module(a.modules[context])
    sim.run_until()
    assert sim.metrics.get("closed_drops") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())
