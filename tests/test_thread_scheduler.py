"""The par scheduler: a fixed worker pool draining one ready queue.

No test here sleeps to time anything: each waits on the scheduler itself,
through ``send_cmd`` or ``run_until()``.
"""

import hashlib
import pathlib
import sys
import threading
import time

import pytest

from modnet import simnet
from modnet.ipv6 import NEIGHBOR_CACHES
from modnet.metrics import CopySite, Metrics
from modnet.netapi import MsgKind, NetMessage, OK, Registry, send_cmd
from modnet.netdev import DevNotify
from modnet.pktbuf import (AllocPriority, ArenaBuffer, CapacityTooSmall,
                           BACKENDS, DynamicBuffer, ProtocolType)
from modnet.runtime import DetScheduler, Node, ThreadScheduler
from modnet.scenario import (apply_workload, collect_stats,
                             load_scenario_file, run_scenario)
from modnet.simnet import InvalidTopology, LinkDesc, build
from topo import two_node

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


def make_node(record=False):
    sched = ThreadScheduler(record=record)
    return sched, Node("n0", sched, ArenaBuffer(2048))


def pool_threads():
    return {t for t in threading.enumerate()
            if t.name.startswith("modnet-worker")}


def test_nested_send_cmd():
    sched, node = make_node()
    try:
        def server(ctx, msg):
            msg.ack(OK, 42)

        def proxy(ctx, msg):
            inner = send_cmd(sched, server_ctx,
                             NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
            msg.ack(inner.status, inner.value)

        server_ctx = node.spawn_module("server", server)
        proxy_ctx = node.spawn_module("proxy", proxy)
        ack = send_cmd(sched, proxy_ctx,
                       NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")))
        assert (ack.status, ack.value) == (OK, 42)
        assert not sched.errors
    finally:
        sched.stop()


def test_one_handler_per_context_under_a_flood():
    sched, node = make_node()
    lock = threading.Lock()
    seen = {"active": 0, "peak": 0, "handled": 0}
    block = bytes(1 << 16)

    def handler(ctx, msg):
        with lock:
            seen["active"] += 1
            seen["peak"] = max(seen["peak"], seen["active"])
        hashlib.sha256(block).digest()  # releases the GIL while it hashes
        with lock:
            seen["active"] -= 1
            seen["handled"] += 1

    try:
        ctx = node.spawn_module("m", handler)
        for i in range(50):
            assert sched.post(ctx, ("note", i))  # control lane: unbounded
        sched.run_until()
        assert seen["handled"] == 50
        assert seen["peak"] == 1
        assert not sched.errors
    finally:
        sched.stop()


def test_raising_handler_is_recorded_and_the_pool_keeps_serving():
    sched, node = make_node()
    handled = []

    def handler(ctx, msg):
        if msg == "boom":
            raise ValueError(msg)
        handled.append(msg)

    try:
        ctx = node.spawn_module("m", handler)
        # more failures than workers: a worker lost to an exception shows
        for _ in range(ThreadScheduler.WORKERS + 1):
            sched.post(ctx, "boom")
        sched.post(ctx, "after")
        sched.run_until()
        assert handled == ["after"]
        assert len(sched.errors) == ThreadScheduler.WORKERS + 1
        assert all(isinstance(e, ValueError) for e in sched.errors)
    finally:
        sched.stop()


def test_thread_count_is_the_pool_size():
    before = pool_threads()
    topology = load_scenario_file(
        str(SCENARIO_DIR / "border_router.json")).topology
    sim = build(topology, mode="par")
    try:
        started = pool_threads() - before
        assert len(started) == ThreadScheduler.WORKERS
    finally:
        sim.stop()
    assert not any(t.is_alive() for t in started)


def test_failed_build_stops_the_pool():
    before = pool_threads()
    topology = two_node()
    topology.links.append(LinkDesc("a", "zz"))
    with pytest.raises(InvalidTopology) as exc:
        build(topology, mode="par")
    assert exc.value.pointer == "/links/1/b"
    assert pool_threads() == before


def test_construction_error_past_the_check_stops_the_pool(monkeypatch):
    before = pool_threads()

    def refuse(capacity, locked):  # a valid topology, refused late
        raise CapacityTooSmall(f"no room for {capacity} B")

    monkeypatch.setitem(simnet.BACKENDS, "STATIC_ARENA", refuse)
    with pytest.raises(CapacityTooSmall):
        build(two_node(), mode="par")
    assert pool_threads() == before


def test_shared_structures_lock_under_the_pool():
    """Two contexts hammer the node's metrics, buffer and registry on both
    workers while this thread registers and unregisters one entry.  A tiny
    switch interval makes an unlocked read-modify-write lose updates, and
    an unlocked lookup can read a change half made."""
    sched, node = make_node(record=True)
    metrics, buf, registry = sched.metrics, node.pktbuf, node.registry
    rounds = 2000
    ids, finished = [], []
    target = object()

    def hammer(ctx, msg):
        mine = []
        for _ in range(rounds):
            pid = metrics.new_packet_id()
            mine.append(pid)
            metrics.count("hits")
            metrics.count(f"pair{pid // 2}")  # a new key, raced for by both
            metrics.record_copy(CopySite.BUF_INTERNAL, 0, 1)
            for _ in range(3):
                snip = buf.alloc_snip(size=40, prio=AllocPriority.RECEIVE)
                buf.hold(snip)
                buf.release(snip)
                buf.release(snip)
            registry.lookup(ProtocolType.UDP, 7)
        ids.extend(mine)
        finished.append(ctx.name)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("a", "b"):
            sched.post(node.spawn_module(name, hammer), "go")
        edits, deadline = 0, time.monotonic() + 60
        while (len(finished) < 2 and not sched.errors
               and time.monotonic() < deadline):
            registry.register(ProtocolType.UDP, 7, target)
            registry.unregister(ProtocolType.UDP, 7, target)
            edits += 1
        sched.run_until()  # the handlers' loops are finite
    finally:
        sys.setswitchinterval(old_interval)
        sched.stop()
    assert not sched.errors
    assert sorted(finished) == ["a", "b"] and edits > 0
    counters = metrics.as_dict()["counters"]
    assert counters.pop("hits") == 2 * rounds
    assert sum(counters.values()) == 2 * rounds  # the pair* keys
    assert sorted(ids) == list(range(1, 2 * rounds + 1))
    assert metrics.copy_bytes(0) == {CopySite.BUF_INTERNAL: 2 * rounds}
    assert buf.used == 0
    assert buf.free_list() == [(0, buf.capacity)]
    assert registry.lookup(ProtocolType.UDP, 7) == []


def test_post_refusals_under_the_pool():
    """The pool refuses a chain posted to a closed context, and a data
    message that finds the lane full while the handler blocks, counted as
    ``mailbox_drops``.  Either way the chain goes back to the buffer."""
    sched, node = make_node()
    started, go = threading.Event(), threading.Event()

    def handler(ctx, msg):
        if msg == "block":
            started.set()
            go.wait(10)
        else:
            node.pktbuf.release(msg.pkt)

    def chain_msg():
        return NetMessage(kind=MsgKind.MSG_RCV, pkt=node.pktbuf.alloc_snip(
            size=16, prio=AllocPriority.RECEIVE))

    try:
        closed = node.spawn_module("closed", handler)
        node.shutdown_module(closed)
        assert not sched.post(closed, chain_msg())
        ctx = node.spawn_module("m", handler, mailbox_capacity=2)
        assert sched.post(ctx, "block")
        assert started.wait(10)
        accepted = [sched.post(ctx, chain_msg()) for _ in range(5)]
        assert accepted == [True, True, False, False, False]
        assert sched.metrics.get("mailbox_drops") == 3
        go.set()
        sched.run_until()
        assert not sched.errors
        assert node.pktbuf.used == 0
    finally:
        go.set()
        sched.stop()


@pytest.mark.parametrize("sched_cls", [DetScheduler, ThreadScheduler])
def test_post_puts_each_kind_in_its_lane(sched_cls):
    """Both schedulers admit through the one shared ``post``: data kinds go
    in the bounded data lane, option kinds and a radio marker in the
    control lane, and a data message that finds the data lane full is
    refused, counted as ``mailbox_drops``, with its chain back in the
    buffer."""
    sched = sched_cls()
    node = Node("n0", sched, ArenaBuffer(2048, locked=sched.parallel))
    started, go = threading.Event(), threading.Event()

    def handler(ctx, msg):
        if msg == "block":
            started.set()
            go.wait(10)
        elif isinstance(msg, NetMessage) and msg.pkt is not None:
            node.pktbuf.release(msg.pkt)
        elif isinstance(msg, NetMessage):
            msg.ack(OK)

    def chain_msg(kind):
        return NetMessage(kind=kind, pkt=node.pktbuf.alloc_snip(
            size=16, prio=AllocPriority.RECEIVE))

    try:
        ctx = node.spawn_module("m", handler, mailbox_capacity=2)
        if sched.parallel:  # hold the context, so its mail stays queued
            assert sched.post(ctx, "block")
            assert started.wait(10)
        lanes = [(chain_msg(MsgKind.MSG_SND), "data"),
                 (chain_msg(MsgKind.MSG_RCV), "data"),
                 (NetMessage(kind=MsgKind.MSG_SET, option=(1, b"")), "ctrl"),
                 (NetMessage(kind=MsgKind.MSG_GET, option=(1, b"")), "ctrl"),
                 (DevNotify.RX_READY, "ctrl")]
        assert all(sched.post(ctx, msg) for msg, _ in lanes)
        assert list(ctx._data) == [m for m, lane in lanes if lane == "data"]
        assert list(ctx._ctrl) == [m for m, lane in lanes if lane == "ctrl"]
        assert not sched.post(ctx, chain_msg(MsgKind.MSG_RCV))
        assert sched.metrics.get("mailbox_drops") == 1
        assert len(ctx._data) == 2
        go.set()
        sched.run_until()
        assert node.pktbuf.used == 0
    finally:
        go.set()
        sched.stop()


def test_a_context_shut_down_while_it_waits_ready_is_skipped():
    """A worker that takes a context closed while it waited in the ready
    FIFO skips it: the handler never runs and the context is unmarked.
    ``c`` holds one worker and ``a`` the other while ``a`` posts to ``b``
    and shuts ``b`` down, so ``b`` is still queued when a worker frees."""
    sched, node = make_node()
    started, release = threading.Event(), threading.Event()
    ran = []

    def hold(ctx, msg):
        started.set()
        release.wait(10)

    def post_then_shut(ctx, msg):
        sched.post(b, "note")
        node.shutdown_module(b)
        release.set()

    try:
        c = node.spawn_module("c", hold)
        a = node.spawn_module("a", post_then_shut)
        b = node.spawn_module("b", lambda ctx, msg: ran.append(msg))
        sched.post(c, "go")
        assert started.wait(10)
        sched.post(a, "go")
        sched.run_until()
        assert ran == []
        assert b._scheduled is False
        assert sched.metrics.get("closed_drops") == 1
        assert sched.errors == []
    finally:
        release.set()
        sched.stop()


def test_pool_timers_clamp_to_now_and_count_as_pending():
    """The pool queues timers on the shared heap: one set in the past runs
    at ``now_us``, and ``pending_events`` counts those not yet taken."""
    sched = ThreadScheduler()
    ran = []
    try:
        sched.run_until(1000)
        sched.call_at(5, lambda: ran.append(("past", sched.now_us)))
        sched.call_at(2000, lambda: ran.append(("future", sched.now_us)))
        assert sched.pending_events() == 2
        sched.run_until(1500)
        assert ran == [("past", 1000)]
        assert sched.pending_events() == 1
        sched.run_until()
        assert ran == [("past", 1000), ("future", 2000)]
        assert sched.pending_events() == 0
        assert not sched.errors
    finally:
        sched.stop()


def test_shutdown_module_unregisters_under_the_pool():
    """The registry's lock is not reentrant, so ``unregister_target``
    calling another locked method would hang ``shutdown_module`` here."""
    sched, node = make_node()
    try:
        ctx = node.spawn_module("udp", lambda ctx, msg: None)
        node.registry.register(ProtocolType.UDP, 7, ctx)
        node.registry.register(ProtocolType.IPV6, 17, ctx)
        shutdown = threading.Thread(target=node.shutdown_module, args=(ctx,),
                                    daemon=True)
        shutdown.start()
        shutdown.join(timeout=10)
        assert not shutdown.is_alive()
        assert len(node.registry) == 0
        assert node.registry.lookup(ProtocolType.UDP, 7) == []
    finally:
        sched.stop()


def locked(obj):
    """Whether ``obj`` got its lock wrappers: each shadows a class method."""
    shadowed = {name for name in type(obj)._LOCKED if name in vars(obj)}
    assert shadowed in (set(), set(type(obj)._LOCKED))
    return bool(shadowed)


@pytest.mark.parametrize("mode", ["det", "par"])
def test_only_the_par_pool_locks_shared_structures(mode):
    sim = build(two_node(), mode=mode)
    try:
        shared = [sim.metrics]
        for node in sim.nodes.values():
            shared += [node.registry, node.pktbuf]
        assert [locked(obj) for obj in shared] == [mode == "par"] * 5
    finally:
        sim.stop()


def test_pool_nodes_and_unspecified_structures_lock():
    sched, node = make_node()  # the buffer is not told its scheduler
    sched.stop()
    for obj in (sched.metrics, node.registry, node.pktbuf, Metrics(),
                Registry(), DynamicBuffer(2048)):
        assert locked(obj)


SHIPPED = sorted(p.name for p in SCENARIO_DIR.glob("*.json"))


def delivered(stats):
    return ({sock: s["received"] for sock, s in stats["sockets"].items()},
            stats["counters"].get("udp_delivered", 0))


@pytest.mark.parametrize("cache", NEIGHBOR_CACHES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", SHIPPED)
def test_par_matches_det_on_shipped_scenario(name, backend, cache):
    """``par`` delivers what ``det`` delivers at the same simulated time,
    on every buffer backend and neighbour cache, and both end with every
    buffer byte released, no mailbox drop and, under ``par``, no handler
    error."""
    seen = {}
    for mode in ("det", "par"):
        scenario = load_scenario_file(str(SCENARIO_DIR / name))
        for nd in scenario.topology.nodes:
            nd.backend, nd.neighbor_cache = backend, cache
        sim, stats = run_scenario(scenario, mode=mode)
        seen[mode] = delivered(stats), stats["now_us"]
        assert [n.pktbuf.used for n in sim.nodes.values()] == \
            [0] * len(sim.nodes)
        assert "mailbox_drops" not in stats["counters"]
        assert not getattr(sim.sched, "errors", [])
    assert seen["par"] == seen["det"]


@pytest.mark.parametrize("name", SHIPPED)
def test_par_stops_at_the_time_bound(name):
    """``--until`` is simulated time in both modes: no timer later than
    the bound runs, and the clock ends on the bound."""
    scenario = load_scenario_file(str(SCENARIO_DIR / name))
    _, det = run_scenario(scenario, until=20_000)
    sim, par = run_scenario(scenario, mode="par", until=20_000)
    assert not sim.sched.errors
    assert par["now_us"] == det["now_us"] == 20_000
    assert (par["sends"], delivered(par)) == (det["sends"], delivered(det))


def slowed(handler):
    def slow(ctx, msg):
        time.sleep(0.0002)
        handler(ctx, msg)
    return slow


def test_slow_handlers_keep_par_on_det_schedule():
    """Every protocol handler takes 0.2 ms more per message.  The send
    timers of ``lossy.json`` still wait until the stack has handled what
    came before, so no mailbox overflows and ``par`` delivers what ``det``
    delivers."""
    scenario = load_scenario_file(str(SCENARIO_DIR / "lossy.json"))
    _, det = run_scenario(scenario)
    sim = build(scenario.topology, mode="par")
    try:
        book = apply_workload(sim, scenario)
        for node in sim.nodes.values():
            for ctx in node.modules.values():  # not the sock context
                ctx.handler = slowed(ctx.handler)
        sim.run_until()
        stats = collect_stats(sim, book)
    finally:
        sim.stop()
    assert not sim.sched.errors
    assert "mailbox_drops" not in stats["counters"]
    assert delivered(stats) == delivered(det)
    assert stats["sockets"]["b:7"]["received"] == 175
