"""Message protocol, registry, and module runtime on the deterministic
scheduler."""

import pytest

from modnet import netapi
from modnet.netapi import (CmdTimeout, DEMUX_ALL, ENOTSUP, MsgKind,
                          NetMessage, OK, Registry, RegistryFull, send_cmd)
from modnet.pktbuf import AllocPriority, ArenaBuffer, ProtocolType
from modnet.metrics import memory_report
from modnet.runtime import DetScheduler, DuplicateName, Node


def make_node(name="n0", capacity=2048, record=False):
    sched = DetScheduler(record=record)
    node = Node(name, sched, ArenaBuffer(capacity))
    return sched, node


def collector():
    received = []

    def handler(ctx, msg):
        received.append(msg)
        if msg.kind in (MsgKind.MSG_SET, MsgKind.MSG_GET):
            msg.ack(ENOTSUP)
        if msg.kind == MsgKind.MSG_RCV and msg.pkt is not None:
            ctx.node.pktbuf.release(msg.pkt)

    return handler, received


# -- registry ---------------------------------------------------------------

def test_register_then_dispatch_delivers():
    sched, node = make_node()
    handler, received = collector()
    ctx = node.spawn_module("m", handler)
    node.registry.register(ProtocolType.UDP, 5683, ctx)
    pkt = node.pktbuf.alloc_snip(size=10)
    n = netapi.dispatch(node, ProtocolType.UDP, 5683, pkt, {}, "miss")
    assert n == 1
    assert pkt.users == 1  # the caller's reference went to the receiver
    sched.run_until()
    assert len(received) == 1
    assert received[0].kind == MsgKind.MSG_RCV
    assert node.pktbuf.stats().used == 0


def test_unregister_idempotent():
    _, node = make_node()
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)
    node.registry.register(ProtocolType.UDP, 7, ctx)
    node.registry.unregister(ProtocolType.UDP, 7, ctx)
    node.registry.unregister(ProtocolType.UDP, 7, ctx)  # no-op
    assert len(node.registry) == 0


def test_registry_capacity():
    _, node = make_node()
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)
    for port in range(Registry.CAPACITY):
        node.registry.register(ProtocolType.UDP, port, ctx)
    with pytest.raises(RegistryFull):
        node.registry.register(ProtocolType.UDP, 99, ctx)


def test_dispatch_two_receivers_holds_twice():
    sched, node = make_node()
    h1, r1 = collector()
    h2, r2 = collector()
    c1 = node.spawn_module("m1", h1)
    c2 = node.spawn_module("m2", h2)
    node.registry.register(ProtocolType.UDP, 5683, c1)
    node.registry.register(ProtocolType.UDP, 5683, c2)
    pkt = node.pktbuf.alloc_snip(size=10)
    assert netapi.dispatch(node, ProtocolType.UDP, 5683, pkt, {}, "miss") == 2
    assert pkt.users == 2  # one hold for the second receiver
    sched.run_until()
    assert len(r1) == len(r2) == 1
    assert node.pktbuf.stats().used == 0


def test_lookup_sees_every_registry_change():
    _, node = make_node()
    handler, _ = collector()
    c1 = node.spawn_module("m1", handler)
    c2 = node.spawn_module("m2", handler)
    reg, udp = node.registry, ProtocolType.UDP
    assert reg.lookup(udp, 7) == []
    reg.register(udp, 7, c1)
    assert reg.lookup(udp, 7) == [c1]
    reg.unregister(udp, 7, c1)
    assert reg.lookup(udp, 7) == []
    reg.register(udp, DEMUX_ALL, c1)
    assert reg.lookup(udp, 7) == [c1]
    reg.unregister_target(c1)
    assert reg.lookup(udp, 7) == []
    reg.register(udp, 7, c2)
    assert reg.lookup(udp, 7) == [c2]
    node.shutdown_module(c2)
    assert reg.lookup(udp, 7) == []


def test_lookup_returns_a_fresh_list():
    _, node = make_node()
    handler, _ = collector()
    c1 = node.spawn_module("m1", handler)
    c2 = node.spawn_module("m2", handler)
    node.registry.register(ProtocolType.UDP, 7, c1)
    first = node.registry.lookup(ProtocolType.UDP, 7)
    first.append(c2)
    assert node.registry.lookup(ProtocolType.UDP, 7) == [c1]
    node.registry.lookup(ProtocolType.UDP, 7).clear()
    assert node.registry.lookup(ProtocolType.UDP, 7) == [c1]


def test_lookup_keeps_only_registered_keys():
    _, node = make_node()
    handler, _ = collector()
    c1 = node.spawn_module("m1", handler)
    c2 = node.spawn_module("m2", handler)
    reg, udp = node.registry, ProtocolType.UDP
    reg.register(udp, 7, c1)
    reg.register(ProtocolType.IPV6, DEMUX_ALL, c2)
    for port in range(768):
        assert reg.lookup(udp, port) == ([c1] if port == 7 else [])
        assert reg.lookup(ProtocolType.IPV6, port) == [c2]
    assert set(reg._table) == {(udp, 7), (ProtocolType.IPV6, DEMUX_ALL)}
    reg.unregister_target(c1)
    assert set(reg._table) == {(ProtocolType.IPV6, DEMUX_ALL)}


def test_lookup_lists_exact_then_wildcard_targets():
    _, node = make_node()
    handler, _ = collector()
    w1, e1, w2, e2 = (node.spawn_module(name, handler)
                      for name in ("w1", "e1", "w2", "e2"))
    reg, udp = node.registry, ProtocolType.UDP
    reg.register(udp, DEMUX_ALL, w1)
    reg.register(udp, 80, e1)
    reg.register(udp, DEMUX_ALL, w2)
    reg.register(udp, 80, e2)
    reg.register(udp, 80, e1)  # an exact triple registers once
    assert reg.lookup(udp, 80) == [e1, e2, w1, w2]
    assert reg.lookup(udp, 81) == [w1, w2]
    assert reg.lookup(udp, DEMUX_ALL) == [w1, w2]
    reg.lookup(udp, DEMUX_ALL).clear()  # a fresh list here too
    assert reg.lookup(udp, 81) == [w1, w2]
    assert len(reg) == 4


def test_dispatch_no_receivers_releases_and_counts():
    sched, node = make_node()
    pkt = node.pktbuf.alloc_snip(size=10)
    assert netapi.dispatch(node, ProtocolType.UDP, 1234, pkt, {}, "miss") == 0
    assert node.metrics.get("miss") == 1
    assert node.pktbuf.stats().used == 0


def test_dispatch_wildcard_union():
    sched, node = make_node()
    h1, r1 = collector()
    h2, r2 = collector()
    c1 = node.spawn_module("wild", h1)
    c2 = node.spawn_module("exact", h2)
    node.registry.register(ProtocolType.UDP, DEMUX_ALL, c1)
    node.registry.register(ProtocolType.UDP, 80, c2)
    pkt = node.pktbuf.alloc_snip(size=4)
    assert netapi.dispatch(node, ProtocolType.UDP, 80, pkt, {}, "miss") == 2
    assert pkt.users == 2
    sched.run_until()
    assert len(r1) == len(r2) == 1
    assert node.pktbuf.stats().used == 0


@pytest.mark.parametrize("receivers", [0, 1, 2, 3])
def test_dispatch_holds_once_less_than_it_has_receivers(monkeypatch,
                                                         receivers):
    """GNRC's rule: the caller's reference goes to a receiver, so n
    receivers cost n - 1 holds; with none it is released, counted."""
    sched, node = make_node()
    holds = []
    hold = node.pktbuf.hold
    monkeypatch.setattr(node.pktbuf, "hold",
                        lambda snip: holds.append(snip) or hold(snip))
    for i in range(receivers):
        ctx = node.spawn_module(f"m{i}", collector()[0])
        node.registry.register(ProtocolType.UDP, 7, ctx)
    pkt = node.pktbuf.alloc_snip(size=10)
    assert netapi.dispatch(node, ProtocolType.UDP, 7, pkt, {},
                           "miss") == receivers
    assert len(holds) == max(receivers - 1, 0)
    assert pkt.users == receivers
    assert node.metrics.get("miss") == (not receivers)
    sched.run_until()
    assert node.pktbuf.stats().used == 0


def test_dispatch_refused_post_releases_that_receivers_reference():
    sched, node = make_node()
    h1, r1 = collector()
    h2, r2 = collector()
    full = node.spawn_module("full", h1, mailbox_capacity=1)
    other = node.spawn_module("other", h2)
    node.registry.register(ProtocolType.UDP, 7, full)
    node.registry.register(ProtocolType.UDP, 7, other)
    assert sched.post(full, NetMessage(kind=MsgKind.MSG_RCV))  # lane full
    pkt = node.pktbuf.alloc_snip(size=10)
    assert netapi.dispatch(node, ProtocolType.UDP, 7, pkt, {}, "miss") == 2
    assert node.metrics.get("mailbox_drops") == 1
    assert pkt.users == 1  # the accepted receiver's reference
    sched.run_until()
    # "full" ran only the message that filled its lane; "other" the packet
    assert (len(r1), len(r2)) == (1, 1) and r1[0].pkt is None
    assert r2[0].pkt is pkt
    assert node.pktbuf.stats().used == 0


# -- send_cmd ----------------------------------------------------------------

def test_send_cmd_roundtrip():
    sched, node = make_node()

    def handler(ctx, msg):
        if msg.kind == MsgKind.MSG_GET and msg.option[0] == 3:
            msg.ack(OK, 127)
        elif msg.kind in (MsgKind.MSG_SET, MsgKind.MSG_GET):
            msg.ack(ENOTSUP)

    ctx = node.spawn_module("m", handler)
    ack = send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                          option=(3, b"")))
    assert ack.status == OK
    assert ack.value == 127


def test_send_cmd_unknown_key_enotsup():
    sched, node = make_node()
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)
    ack = send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                          option=(0xFFFF, b"")))
    assert ack.status == ENOTSUP


def test_send_cmd_timeout_on_silent_module():
    sched, node = make_node()

    def mute(ctx, msg):
        pass

    ctx = node.spawn_module("mute", mute)
    with pytest.raises(CmdTimeout):
        send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                        option=(1, b"")))


def test_send_cmd_to_self_asserts():
    sched, node = make_node()
    failures = []

    def selfish(ctx, msg):
        if msg.kind == MsgKind.MSG_GET:
            try:
                send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                                option=(1, b"")))
            except AssertionError as exc:
                failures.append(exc)
                msg.ack(ENOTSUP)

    ctx = node.spawn_module("selfish", selfish)
    send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
    assert failures


def test_send_cmd_between_modules_nested():
    sched, node = make_node()

    def server(ctx, msg):
        if msg.kind == MsgKind.MSG_GET:
            msg.ack(OK, 42)

    def proxy(ctx, msg):
        if msg.kind == MsgKind.MSG_GET:
            inner = send_cmd(sched, server_ctx,
                             NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
            msg.ack(inner.status, inner.value)

    server_ctx = node.spawn_module("server", server)
    proxy_ctx = node.spawn_module("proxy", proxy)
    ack = send_cmd(sched, proxy_ctx, NetMessage(kind=MsgKind.MSG_GET,
                                                option=(1, b"")))
    assert ack.status == OK
    assert ack.value == 42


def test_send_cmd_returns_the_posted_message():
    sched, node = make_node()
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)
    msg = NetMessage(kind=MsgKind.MSG_SET, option=(1, b""))
    assert msg.status is None  # unanswered
    assert send_cmd(sched, ctx, msg) is msg
    assert msg.status == ENOTSUP


def test_first_answer_wins():
    sched, node = make_node()

    def twice(ctx, msg):
        msg.ack(OK, 1)
        msg.ack(ENOTSUP, 2)

    ctx = node.spawn_module("twice", twice)
    ack = send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                          option=(1, b"")))
    assert (ack.status, ack.value) == (OK, 1)


def test_answer_after_timeout_raises_nothing():
    sched, node = make_node()
    held = []

    def slow(ctx, msg):
        held.append(msg)
        sched.call_later(2_000_000, lambda: msg.ack(OK, 7))

    ctx = node.spawn_module("slow", slow)
    with pytest.raises(CmdTimeout):
        send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                        option=(1, b"")), timeout_us=1_000_000)
    sched.run_until()
    assert (held[0].status, held[0].value) == (OK, 7)


def test_four_message_kinds():
    assert [k.name for k in MsgKind] == [
        "MSG_SND", "MSG_RCV", "MSG_SET", "MSG_GET"]


# -- runtime ----------------------------------------------------------------

def test_spawn_duplicate_name():
    _, node = make_node()
    handler, _ = collector()
    node.spawn_module("m", handler)
    with pytest.raises(DuplicateName):
        node.spawn_module("m", handler)


def test_spawn_four_modules_accounting():
    _, node = make_node()
    handler, _ = collector()
    for name in ("udp", "ipv6", "6lo", "link"):
        node.spawn_module(name, handler)
    assert memory_report(node)["stack_note_total"] == 4 * 1024


def test_mailbox_flood_drops_data_but_not_control():
    sched, node = make_node()
    handler, received = collector()
    ctx = node.spawn_module("m", handler, mailbox_capacity=8)
    # stall the handler by not running the scheduler while posting
    for _ in range(20):
        sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV))
    assert sched.metrics.get("mailbox_drops") >= 12
    for _ in range(5):
        sched.post(ctx, NetMessage(kind=MsgKind.MSG_SET, option=(1, b"")))
    sched.run_until()
    assert len([m for m in received if m.kind == MsgKind.MSG_SET]) == 5
    assert len([m for m in received if m.kind == MsgKind.MSG_RCV]) == 8


def test_mailbox_overflow_releases_packets():
    sched, node = make_node()
    handler, _ = collector()
    ctx = node.spawn_module("m", handler, mailbox_capacity=1)
    for _ in range(4):
        pkt = node.pktbuf.alloc_snip(size=16)
        sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=pkt))
    sched.run_until()
    assert node.pktbuf.stats().used == 0


def test_shutdown_module_reclaims_and_unregisters():
    sched, node = make_node()
    handler, received = collector()
    ctx = node.spawn_module("udp", handler)
    node.registry.register(ProtocolType.UDP, 7, ctx)
    pkt = node.pktbuf.alloc_snip(size=16)
    sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=pkt))
    node.shutdown_module(ctx)
    node.shutdown_module(ctx)  # idempotent
    assert len(node.registry) == 0
    assert node.pktbuf.stats().used == 0
    assert node.metrics.get("closed_drops") == 1  # the drained message
    pkt2 = node.pktbuf.alloc_snip(size=16)
    assert netapi.dispatch(node, ProtocolType.UDP, 7, pkt2, {}, "miss") == 0
    assert node.metrics.get("miss") == 1
    sched.run_until()
    assert not received
    assert node.pktbuf.stats().used == 0


def test_a_closed_context_refuses_every_message_counted():
    """Data and commands posted to a closed context are refused, counted
    as ``closed_drops``, and a data message's packet is released."""
    sched, node = make_node()
    handler, received = collector()
    ctx = node.spawn_module("m", handler)
    node.shutdown_module(ctx)
    pkt = node.pktbuf.alloc_snip(size=16)
    assert not sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=pkt))
    assert not sched.post(ctx, NetMessage(kind=MsgKind.MSG_GET,
                                          option=(1, b"")))
    assert node.metrics.get("closed_drops") == 2
    assert node.pktbuf.stats().used == 0
    sched.run_until()
    assert not received


def test_idle_scheduler_does_no_work():
    sched, node = make_node()
    handler, received = collector()
    node.spawn_module("m", handler)
    sched.run_until(t_us=10_000)
    assert received == []
    assert sched.steps == 0


def test_same_time_timers_and_ready_contexts_run_in_queue_order():
    sched, node = make_node()
    order = []
    ctx = node.spawn_module("m", lambda c, m: order.append("m"))
    sched.call_at(sched.now_us, lambda: order.append("timer before"))
    sched.post(ctx, NetMessage(kind=MsgKind.MSG_SET, option=(1, b"")))
    sched.call_at(sched.now_us, lambda: order.append("timer after"))
    sched.call_later(5, lambda: order.append("later"))
    assert sched.pending_events() == 4
    sched.run_until()
    assert order == ["timer before", "m", "timer after", "later"]
    assert sched.steps == 4
    assert sched.pending_events() == 0
    assert sched.now_us == 5


def test_command_reply_wait_keeps_the_queue_order():
    sched, node = make_node()
    order = []

    def server(ctx, msg):
        order.append("server")
        msg.ack(OK)

    ctx = node.spawn_module("server", server)
    sched.call_at(0, lambda: order.append("timer before"))
    ack = send_cmd(sched, ctx, NetMessage(kind=MsgKind.MSG_GET,
                                          option=(1, b"")))
    assert ack.status == OK
    assert order == ["timer before", "server"]
    assert sched.steps == 2


def test_a_context_posted_to_while_its_handler_waits_runs_once_after():
    """A proxy's handler waits on a command; the server posts to the proxy
    and answers from a timer.  The proxy stays queued-or-running the whole
    time, so every step calls a handler or a timer."""
    sched, node = make_node()
    calls = []

    def server(ctx, msg):
        calls.append("server")
        sched.post(proxy, NetMessage(kind=MsgKind.MSG_GET, option=(2, b"")))
        sched.call_later(1, lambda: (calls.append("timer"), msg.ack(OK)))

    def proxy_handler(ctx, msg):
        calls.append("proxy")
        if msg.option[0] == 1:
            assert send_cmd(sched, srv, NetMessage(
                kind=MsgKind.MSG_GET, option=(9, b""))).status == OK
        msg.ack(OK)

    srv = node.spawn_module("server", server)
    proxy = node.spawn_module("proxy", proxy_handler)
    sched.post(proxy, NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
    sched.run_until()
    assert calls == ["proxy", "server", "timer", "proxy"]
    assert sched.steps == len(calls)
    assert not proxy._scheduled and sched.pending_events() == 0


def test_trace_records_render_the_lines_at_post_time():
    sched, node = make_node(record=True)
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)

    def relay(rctx, msg):
        sched.post(ctx, msg)

    relay_ctx = node.spawn_module("relay", relay)
    pkt = node.pktbuf.alloc_snip(size=10, proto=ProtocolType.UDP)
    node.pktbuf.hold(pkt)  # one holder per message below
    sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=pkt))
    grown = node.pktbuf.prepend_header(pkt, 8, proto=ProtocolType.IPV6)
    assert grown.total_size == 18
    sched.post(relay_ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=grown))
    sched.post(ctx, NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
    sched.run_until()
    expected = [
        "t=0 node=n0 ext->m kind=MSG_RCV proto=UDP size=10",
        "t=0 node=n0 ext->relay kind=MSG_RCV proto=IPV6 size=18",
        "t=0 node=n0 ext->m kind=MSG_GET proto=- size=0",
        "t=0 node=n0 relay->m kind=MSG_RCV proto=IPV6 size=18",
    ]
    assert len(sched.trace) == 4
    assert list(sched.trace) == expected
    assert sched.trace[0] == expected[0]
    assert sched.trace[-1] == expected[-1]
    assert sched.trace[1:3] == expected[1:3]
    assert sched.trace[::-1] == expected[::-1]
    with pytest.raises(IndexError):
        sched.trace[4]
    assert node.pktbuf.stats().used == 0


def test_trace_names_the_type_of_other_messages():
    sched, node = make_node(record=True)
    ctx = node.spawn_module("m", lambda c, m: None)

    class Wakeup:
        pass

    sched.post(ctx, Wakeup())
    assert list(sched.trace) == [
        "t=0 node=n0 ext->m kind=Wakeup proto=- size=0"]


def test_trace_line_format():
    sched, node = make_node(record=True)
    handler, _ = collector()
    ctx = node.spawn_module("m", handler)
    pkt = node.pktbuf.alloc_snip(size=10, proto=ProtocolType.UDP)
    sched.post(ctx, NetMessage(kind=MsgKind.MSG_RCV, pkt=pkt))
    assert sched.trace[-1] == "t=0 node=n0 ext->m kind=MSG_RCV proto=UDP size=10"
