"""The par scheduler: a fixed worker pool draining one ready queue.

No test here sleeps to time anything: each waits on the scheduler itself,
through ``send_cmd``, ``wait_for`` or ``run_until()``.
"""

import hashlib
import pathlib
import threading

from modnet.netapi import MsgKind, NetMessage, OK, send_cmd
from modnet.pktbuf import buffer_create
from modnet.runtime import ModuleDesc, Node, ThreadScheduler
from modnet.scenario import load_scenario_file
from modnet.simnet import build

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
