"""The par scheduler: a fixed worker pool draining one ready queue.

No test here sleeps to time anything: each waits on the scheduler itself,
through ``send_cmd``, ``wait_for`` or ``run_until()``.
"""

import hashlib
import pathlib
import sys
import threading
import time

import pytest

from modnet.metrics import CopySite, Metrics
from modnet.netapi import MsgKind, NetMessage, OK, Registry, send_cmd
from modnet.pktbuf import AllocPriority, Backend, ProtocolType, buffer_create
from modnet.runtime import ModuleDesc, Node, ThreadScheduler
from modnet.scenario import load_scenario_file, run_scenario
from modnet.simnet import InvalidTopology, LinkDesc, build
from topo import two_node

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"


def make_node():
    sched = ThreadScheduler()
    return sched, Node("n0", sched, buffer_create(2048))


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

        server_ctx = node.spawn_module(ModuleDesc("server", server))
        proxy_ctx = node.spawn_module(ModuleDesc("proxy", proxy))
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
        ctx = node.spawn_module(ModuleDesc("m", handler))
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
        ctx = node.spawn_module(ModuleDesc("m", handler))
        # more failures than workers: a worker lost to an exception shows
        for _ in range(ThreadScheduler.WORKERS + 1):
            sched.post(ctx, "boom")
        sched.post(ctx, "after")
        # one handler at a time, in order: every error is in by "after"
        assert sched.wait_for(lambda: handled, 5_000_000)
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
    with pytest.raises(InvalidTopology):
        build(topology, mode="par")
    assert pool_threads() == before


def test_shared_structures_lock_under_the_pool():
    """Two contexts hammer the node's metrics, buffer and registry on both
    workers while this thread edits the registry in two-entry batches.  A
    tiny switch interval makes an unlocked read-modify-write lose updates
    and lets a lookup see half a batch."""
    sched, node = make_node()
    metrics, buf, registry = sched.metrics, node.pktbuf, node.registry
    rounds = 2000
    ids, torn, finished = [], [], []
    pair = (object(), object())
    register = [("register", ProtocolType.UDP, 7, t) for t in pair]
    unregister = [("unregister", ProtocolType.UDP, 7, t) for t in pair]

    def hammer(ctx, msg):
        mine = []
        for r in range(rounds):
            pid = metrics.new_packet_id()
            mine.append(pid)
            metrics.count("hits")
            metrics.count(f"pair{pid // 2}")  # a new key, raced for by both
            metrics.record_copy(CopySite.BUF_INTERNAL, 0, 1)
            for _ in range(3):
                snip = buf.alloc_snip(size=40, prio=AllocPriority.CONTROL)
                buf.hold(snip)
                buf.release(snip)
                buf.release(snip)
            if len(registry.lookup(ProtocolType.UDP, 7)) == 1:
                torn.append(r)
        ids.extend(mine)
        finished.append(ctx.name)

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name in ("a", "b"):
            sched.post(node.spawn_module(ModuleDesc(name, hammer)), "go")
        edits, deadline = 0, time.monotonic() + 60
        while (len(finished) < 2 and not sched.errors
               and time.monotonic() < deadline):
            registry.apply(register)
            registry.apply(unregister)
            edits += 1
        sched.run_until()  # the handlers' loops are finite
    finally:
        sys.setswitchinterval(old_interval)
        sched.stop()
    assert not sched.errors
    assert sorted(finished) == ["a", "b"] and edits > 0
    assert torn == []
    counters = metrics.as_dict()["counters"]
    assert counters.pop("hits") == 2 * rounds
    assert sum(counters.values()) == 2 * rounds  # the pair* keys
    assert sorted(ids) == list(range(1, 2 * rounds + 1))
    assert metrics.copy_bytes(0) == {CopySite.BUF_INTERNAL: 2 * rounds}
    assert buf.used == 0
    assert buf.free_list() == [(0, buf.capacity)]
    assert registry.lookup(ProtocolType.UDP, 7) == []


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
                Registry(), buffer_create(2048, Backend.DYNAMIC)):
        assert locked(obj)


@pytest.mark.parametrize("name", sorted(p.name for p in
                                        SCENARIO_DIR.glob("*.json")))
def test_par_matches_det_on_shipped_scenario(name):
    """``par`` delivers what ``det`` delivers, and both end with every
    buffer byte released, no mailbox drop and, under ``par``, no handler
    error.  ``echo_frag.json`` takes about 5 s of wall time: ``par`` waits
    out its 5 s reassembly expiry timer on the wall clock."""
    delivered = {}
    for mode in ("det", "par"):
        sim, stats = run_scenario(
            load_scenario_file(str(SCENARIO_DIR / name)), mode=mode)
        delivered[mode] = (
            {sock: s["received"] for sock, s in stats["sockets"].items()},
            stats["counters"].get("udp_delivered", 0))
        assert [n.pktbuf.used for n in sim.nodes.values()] == \
            [0] * len(sim.nodes)
        assert "mailbox_drops" not in stats["counters"]
        assert not getattr(sim.sched, "errors", [])
    assert delivered["par"] == delivered["det"]
