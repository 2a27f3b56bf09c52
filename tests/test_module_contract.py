"""Every stack module follows the base contract: data it does not take is
a counted drop that frees its chain, and unknown options answer ENOTSUP."""

import ast
import json
import pathlib

import pytest

from modnet.ipv6 import DEFAULT_HOP_LIMIT
from modnet.metrics import memory_report
from modnet.netapi import ENOTSUP, OK, MsgKind, NetMessage, OptionKey, send_cmd
from modnet.pktbuf import PacketChain, ProtocolType
from modnet.scenario import (apply_workload, collect_stats, load_scenario,
                             load_scenario_file, run_scenario)
from modnet.simnet import build
from topo import IP_B, two_node

SCENARIO_DIR = pathlib.Path(__file__).parent.parent / "scenarios"
SCENARIOS = ("echo.json", "offload_echo.json")
UNKNOWN_KEY = 0xBEEF

# context kind -> (data kind it does not implement, counter of the drop)
UNEXPECTED = {
    "link": (MsgKind.MSG_RCV, "link_unexpected_rcv"),
    "sock": (MsgKind.MSG_SND, "sock_unexpected_snd"),
    # a chain from no channel names no port
    "offload": (MsgKind.MSG_RCV, "offload_rx_no_port"),
}


def build_scenario(name, mode="det"):
    return build(load_scenario_file(str(SCENARIO_DIR / name)).topology,
                 mode=mode)


def every_context():
    for name in SCENARIOS:
        for node in build_scenario(name).nodes.values():
            for ctx in node.all_contexts():
                yield pytest.param(name, node.name, ctx.name,
                                   id=f"{name}:{node.name}/{ctx.name}")


@pytest.mark.parametrize("scenario,node_name,ctx_name", every_context())
def test_module_follows_the_base_contract(scenario, node_name, ctx_name):
    sim = build_scenario(scenario)
    node = sim.nodes[node_name]
    ctx = next(c for c in node.all_contexts() if c.name == ctx_name)
    kind_of_ctx = "link" if ctx_name.startswith("link") else ctx_name
    if kind_of_ctx in UNEXPECTED:
        kind, counter = UNEXPECTED[kind_of_ctx]
        snip = node.pktbuf.alloc_snip(payload=b"\x2a", proto=ProtocolType.APP)
        assert sim.sched.post(ctx, NetMessage(kind=kind,
                                              pkt=snip))
        sim.run_until()
        assert sim.metrics.get(counter) == 1
    assert node.pktbuf.used == 0
    for kind in (MsgKind.MSG_GET, MsgKind.MSG_SET):
        ack = send_cmd(sim.sched, ctx,
                       NetMessage(kind=kind, option=(UNKNOWN_KEY, b"")))
        assert ack.status == ENOTSUP


# commands that are not one (key, value) tuple, with keys some layer serves
MALFORMED = [None, (OptionKey.ADDRESS,), (OptionKey.HOP_LIMIT,),
             (OptionKey.HOP_LIMIT, 64, b""), OptionKey.HOP_LIMIT,
             b"\x04\x40", [OptionKey.HOP_LIMIT, 64]]


@pytest.mark.parametrize("mode", ["det", "par"])
@pytest.mark.parametrize("scenario,node_name,ctx_name", every_context())
def test_a_malformed_command_or_bad_value_answers_enotsup(
        scenario, node_name, ctx_name, mode):
    sim = build_scenario(scenario, mode)
    try:
        ctx = next(c for c in sim.nodes[node_name].all_contexts()
                   if c.name == ctx_name)
        commands = [NetMessage(kind=kind, option=option)
                    for option in MALFORMED
                    for kind in (MsgKind.MSG_GET, MsgKind.MSG_SET)]
        commands += [NetMessage(kind=MsgKind.MSG_SET,
                                option=(OptionKey.HOP_LIMIT, value))
                     for value in (300, -1, 256, "x", float("inf"),
                                   float("nan"))]
        commands += [NetMessage(kind=MsgKind.MSG_SET,
                                option=(OptionKey.CHANNEL, value))
                     for value in (-7, 200, True)]
        for cmd in commands:
            assert send_cmd(sim.sched, ctx, cmd).status == ENOTSUP, cmd
        if ctx_name == "ipv6":
            assert ctx.module.hop_limit == DEFAULT_HOP_LIMIT
            ack = send_cmd(sim.sched, ctx, NetMessage(
                kind=MsgKind.MSG_GET, option=(OptionKey.HOP_LIMIT, b"")))
            assert (ack.status, ack.value) == (OK, DEFAULT_HOP_LIMIT)
        if ctx_name.startswith("link"):
            assert ctx.module.device.channel == 11
        assert not getattr(sim.sched, "errors", [])
    finally:
        sim.stop()


# (receiver, kind) -> the meta keys each message on that edge carries
MESSAGE_KEYS = {
    ("udp", "MSG_SND"): {("dst_ip", "dst_port", "packet_id", "src_port")},
    ("offload", "MSG_SND"): {("dst_ip", "dst_port", "packet_id", "src_port")},
    ("ipv6", "MSG_SND"): {("dst_ip", "packet_id")},
    ("6lo", "MSG_SND"): {("iface", "next_hop_link", "packet_id", "prio")},
    ("link", "MSG_SND"): {("dst_link", "packet_id")},
    ("6lo", "MSG_RCV"): {("dst_link", "packet_id", "src_link")},
    ("ipv6", "MSG_RCV"): {("packet_id",)},
    ("udp", "MSG_RCV"): {("dst_ip", "hop_limit", "packet_id", "src_ip")},
    ("sock", "MSG_RCV"): {  # from udp, and from offload
        ("dst_port", "hop_limit", "packet_id", "src_ip", "src_port"),
        ("dst_port", "packet_id", "src_ip", "src_port")},
    ("offload", "MSG_RCV"): {("dst_port", "packet_id", "src_ip", "src_port")},
}


def test_each_message_carries_only_what_its_receiver_reads(monkeypatch):
    """Every data message also carries its packet: no edge hands a layer
    bytes beside the chain, or no chain."""
    from modnet.runtime import DetScheduler
    from modnet.scenario import run_scenario
    seen, chainless = {}, set()
    post = DetScheduler.post

    def recording_post(sched, ctx, msg):
        if isinstance(msg, NetMessage):
            receiver = "link" if ctx.name.startswith("link") else ctx.name
            seen.setdefault((receiver, msg.kind.name), set()).add(
                tuple(sorted(msg.meta)))
            if msg.kind in (MsgKind.MSG_SND, MsgKind.MSG_RCV) and (
                    msg.pkt is None):
                chainless.add((path.name, receiver, msg.kind.name))
        return post(sched, ctx, msg)

    monkeypatch.setattr(DetScheduler, "post", recording_post)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        run_scenario(load_scenario_file(str(path)))
    assert seen == MESSAGE_KEYS
    assert not chainless


def test_shutting_down_sock_releases_queued_datagrams():
    """``Node.shutdown_module`` lets the layer give back what it holds: the
    sock context closes its sockets, so their queued datagrams go back to
    the buffer."""
    sim = build_scenario("echo.json")
    b = sim.nodes["b"]
    ip_b = sim.topology.nodes[1].address
    server = sim.socket_layer("b").open(7)  # no app: datagrams stay queued
    client = sim.socket_layer("a").open(40000)
    for _ in range(3):
        client.sendto(ip_b, 7, bytes(30))
    sim.run_until()
    assert len(server.queue) == 3 and b.pktbuf.used > 0
    layer = sim.socket_layer("b")
    b.shutdown_module(b.aux["sock"])
    assert server.closed and layer.ports == {}
    assert b.pktbuf.used == 0
    assert b.registry.lookup(ProtocolType.UDP, 7) == []


def test_shutting_down_6lo_releases_open_reassembly_entries():
    """A 6lo context shut down mid-reassembly gives the entry's buffer back
    at once, counted, instead of at its 5 s expiry."""
    scenario = load_scenario_file(str(SCENARIO_DIR / "echo_frag.json"))
    sim = build(scenario.topology)
    apply_workload(sim, scenario)
    b = sim.nodes["b"]
    table = b.modules["6lo"].module.reassembly_table
    while not table.entries:
        assert sim.sched.step()
    assert b.pktbuf.used > 0
    b.shutdown_module(b.modules["6lo"])
    sim.run_until(sim.sched.now_us + 1_000)
    assert sim.sched.now_us < 10_000
    assert sim.metrics.get("reassembly_shutdown_drops") == 1
    assert table.entries == {} and b.pktbuf.used == 0


def test_send_after_sock_shutdown_is_skipped_and_counted():
    """lossy.json: a's sock context goes at t=2000; the send timer due at
    t=2010 finds its socket closed and ends the op, counted, raising
    nothing."""
    scenario = load_scenario_file(str(SCENARIO_DIR / "lossy.json"))
    sim = build(scenario.topology)
    book = apply_workload(sim, scenario)
    a = sim.nodes["a"]
    sim.sched.call_at(2000, lambda: a.shutdown_module(a.aux["sock"]))
    sim.run_until()
    assert sim.metrics.get("workload_ops_skipped") == 1
    assert book["sends"] == 4  # at t=10, 510, 1010 and 1510
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def test_open_after_sock_shutdown_is_skipped_and_counted():
    """echo.json with b's sock context gone before the workload starts:
    the open on b is skipped and counted, and a's datagram finds no port."""
    scenario = load_scenario_file(str(SCENARIO_DIR / "echo.json"))
    sim = build(scenario.topology)
    b = sim.nodes["b"]
    b.shutdown_module(b.aux["sock"])
    book = apply_workload(sim, scenario)
    sim.run_until()
    assert sim.metrics.get("workload_ops_skipped") == 1
    assert book["sends"] == 1
    assert sim.metrics.get("udp_rx_no_port") == 1
    assert all(n.pktbuf.used == 0 for n in sim.nodes.values())


def echo_without_drain():
    """echo.json, but a's socket has no app: the echo stays queued."""
    doc = json.loads((SCENARIO_DIR / "echo.json").read_text())
    del doc["workload"][1]["args"]["app"]
    return load_scenario(doc)


SWEPT = [pytest.param(load_scenario_file(str(path)), id=path.name)
         for path in sorted(SCENARIO_DIR.glob("*.json"))]
SWEPT.append(pytest.param(echo_without_drain(), id="echo.json-no-drain"))


@pytest.mark.parametrize("scenario", SWEPT)
def test_shutting_down_any_context_mid_run_leaks_nothing(scenario):
    """Each context of the run is shut down, from outside any handler,
    after each of six step counts spread over the run.  The run goes on to
    quiescence raising nothing, every node ends with ``used == 0`` once
    the apps have read their sockets, and no radio holds a frame."""
    sim, _ = run_scenario(scenario)
    steps = sim.sched.steps
    contexts = [(node.name, ctx.name) for node in sim.nodes.values()
                for ctx in node.all_contexts()]
    for node_name, ctx_name in contexts:
        for k in sorted({steps * i // 5 for i in range(6)}):
            sim = build(scenario.topology)
            book = apply_workload(sim, scenario)
            for _ in range(k):
                sim.sched.step()
            node = sim.nodes[node_name]
            node.shutdown_module(
                node.modules.get(ctx_name) or node.aux[ctx_name])
            sim.run_until()
            collect_stats(sim, book)  # the apps read what is queued
            where = f"{node_name}/{ctx_name} after {k} steps"
            assert [n.pktbuf.used for n in sim.nodes.values()] == \
                [0] * len(sim.nodes), where
            assert not any(dev._rx for n in sim.nodes.values()
                           for dev in n.devices), where


def test_measured_names_stay_on_the_event_path(monkeypatch):
    """The benchmark's tracer wraps ``DetScheduler.step``,
    ``PacketBuffer.alloc_snip``, ``PacketChain.to_bytes``, the radio's
    ``dev_send`` and ``dev_recv`` and ``ReassemblyTable.expire`` to time
    events, count copied bytes, frames and expiry runs.  Every event, a
    command's nested ones too, runs through ``step``, and an echo of
    ``echo_frag.json`` calls the others as often as it always has: a fast
    path around them would hide its work from the tracer.  An expiry timer
    binds ``expire`` when it is scheduled, so the wrapper must be in place
    by then."""
    from modnet.netdev import SimRadioDevice
    from modnet.pktbuf import PacketBuffer
    from modnet.runtime import DetScheduler
    from modnet.sixlowpan import ReassemblyTable
    calls = dict.fromkeys(("step", "alloc_snip", "to_bytes", "dev_send",
                           "dev_recv", "expire"), 0)

    def count_calls(owner, name):
        fn = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    count_calls(DetScheduler, "step")
    count_calls(PacketBuffer, "alloc_snip")
    count_calls(PacketChain, "to_bytes")
    count_calls(SimRadioDevice, "dev_send")
    count_calls(SimRadioDevice, "dev_recv")
    count_calls(ReassemblyTable, "expire")
    scenario = load_scenario_file(str(SCENARIO_DIR / "echo_frag.json"))
    sim = build(scenario.topology)
    apply_workload(sim, scenario)
    # a command waits for its answer by stepping the events before it
    send_cmd(sim.sched, sim.nodes["b"].modules["link0"],
             NetMessage(kind=MsgKind.MSG_GET, option=(UNKNOWN_KEY, b"")))
    sim.run_until()
    assert calls["step"] == sim.sched.steps > 0
    assert (calls["alloc_snip"], calls["to_bytes"]) == (40, 38)
    assert (calls["dev_send"], calls["dev_recv"]) == (14, 14)
    assert calls["expire"] == 12


def test_the_buffer_names_the_benchmark_patches_stay_live(monkeypatch):
    """A packet is its head snip, and ``pktbuf`` keeps two older names for
    the benchmark: ``perfbench/tracer.py`` replaces ``to_bytes`` and
    ``total_size`` in ``vars(pktbuf.PacketChain)`` (its copy counter too)
    and reads ``.head`` off a complete ``ReassemblyTable.step`` result.
    The stack must call what is patched under those names, and ``.head``
    must be the reassembled datagram, the snip its entry held."""
    from modnet import pktbuf
    from modnet.sixlowpan import ReassemblyStatus, ReassemblyTable
    chain = pktbuf.PacketChain
    to_bytes, total_size = vars(chain)["to_bytes"], vars(chain)["total_size"]
    calls = {"to_bytes": 0, "total_size": 0}
    completed = []

    def counted_to_bytes(pkt):
        calls["to_bytes"] += 1
        return to_bytes(pkt)

    def counted_total_size(pkt):
        calls["total_size"] += 1
        return total_size.fget(pkt)

    step = ReassemblyTable.step

    def observed_step(table, *args):
        held = {id(e.snip): e.size for e in table.entries.values()}
        status, pkt, pid = step(table, *args)
        if status is ReassemblyStatus.COMPLETE:
            completed.append((held.get(id(pkt.head)), len(pkt.to_bytes())))
        return status, pkt, pid

    monkeypatch.setattr(chain, "to_bytes", counted_to_bytes)
    monkeypatch.setattr(chain, "total_size", property(counted_total_size))
    monkeypatch.setattr(ReassemblyTable, "step", observed_step)
    sim, stats = run_scenario(
        load_scenario_file(str(SCENARIO_DIR / "echo_frag.json")))
    assert stats["counters"]["udp_delivered"] == 2  # request and echo
    assert calls["to_bytes"] > 0 and calls["total_size"] > 0
    assert len(completed) == 2
    for held_size, size in completed:
        assert held_size == size > 0


def test_the_benchmark_tracer_sees_the_stack(monkeypatch):
    """``perfbench/tracer.py`` patches and reads names of ``modnet`` from
    outside the package.  Installed as the benchmark installs it, over a
    run of ``echo_frag.json``, its figures for the scheduler, the buffer
    and reassembly must read non-zero, so a rename of a name it uses
    fails here."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).parent.parent / "perfbench"))
    from tracer import CopyCounter, Patches, Tracer
    scenario = load_scenario_file(str(SCENARIO_DIR / "echo_frag.json"))
    tracer, copies = Tracer(), CopyCounter()
    with Patches() as patches:
        tracer.install(patches)
        copies.install(patches)
        sim = build(scenario.topology)
        book = apply_workload(sim, scenario)
        sim.run_until(10)  # both opens; the send is at t=20
        tracer.on_built(sim)  # after set-up, as the benchmark calls it
        sim.run_until()
        stats = collect_stats(sim, book)
        tracer.end_round()
    assert stats["counters"]["udp_delivered"] == 2  # request and echo
    figures = tracer.layer_metrics(ops=1)
    for name in ("runtime.mailbox_hwm", "runtime.heap_peak",
                 "pktbuf.alloc_calls_per_op", "pktbuf.to_bytes_bytes_per_op",
                 "sixlowpan.expire_calls_per_op",
                 "netapi.dispatch_calls_per_op"):
        assert figures[name][0] > 0, name
    assert copies.bytes > 0


def test_the_benchmark_tracer_leaves_module_state_reachable(monkeypatch):
    """``Tracer.on_built`` replaces every context's ``handler`` with a
    wrapper.  The stack reaches a module's state through ``ctx.module``,
    so sockets opened, memory reported and a context shut down after it
    see the module itself."""
    monkeypatch.syspath_prepend(
        str(pathlib.Path(__file__).parent.parent / "perfbench"))
    from tracer import Patches, Tracer
    tracer = Tracer()
    with Patches() as patches:
        tracer.install(patches)
        sim = build(two_node())
        tracer.on_built(sim)
        client = sim.socket_layer("a").open(40000)
        server = sim.socket_layer("b").open(7)
        client.sendto(IP_B, 7, bytes(600))
        b = sim.nodes["b"]
        table = b.modules["6lo"].module.reassembly_table
        while not table.entries:  # up to the first fragment's arrival at b
            assert sim.sched.step()
        assert memory_report(b)["reassembly_bytes"] == 680
        sim.run_until()
        assert len(server.queue) == 1
        b.shutdown_module(b.aux["sock"])
        tracer.end_round()
    assert server.closed
    assert b.pktbuf.stats().used == 0


def test_no_module_state_is_read_through_a_handler():
    """``ctx.handler`` is only what the schedulers call, and a tool may
    wrap it: ``src/modnet`` calls it and assigns it, and reads no
    attribute of it, and no test reads an attribute of it (a test may
    wrap it).  A module's state is reached through ``ctx.module``."""
    here = pathlib.Path(__file__).parent
    reads = []
    for path in sorted((here.parent / "src" / "modnet").glob("*.py")):
        tree = ast.parse(path.read_text())
        for parent in ast.walk(tree):
            for node in ast.iter_child_nodes(parent):
                if (isinstance(node, ast.Attribute) and node.attr == "handler"
                        and not isinstance(node.ctx, ast.Store)
                        and not (isinstance(parent, ast.Call)
                                 and parent.func is node)):
                    reads.append(f"{path.name}:{node.lineno}")
    for path in sorted(here.glob("*.py")):
        reads += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(ast.parse(path.read_text()))
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Attribute)
                  and node.value.attr == "handler"]
    assert reads == []


def test_no_module_imports_dispatch_by_name():
    """``perfbench/tracer.py`` wraps ``netapi.dispatch`` on the module, so
    a layer reaches it as ``netapi.dispatch``: a name bound by ``from
    .netapi import dispatch`` would keep the unwrapped function and hide
    every upward hop from the tracer."""
    src = pathlib.Path(__file__).parent.parent / "src" / "modnet"
    imports = [f"{path.name}:{node.lineno}"
               for path in sorted(src.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ImportFrom)
               and any(alias.name == "dispatch" for alias in node.names)]
    assert imports == []


@pytest.mark.parametrize("name", ["echo_frag.json", "border_router.json"])
def test_an_unrecorded_run_makes_no_ledger_calls(monkeypatch, name):
    """Turned off, the copy ledger costs nothing on the hot path: a run
    without ``record`` calls neither ``record_copy`` nor ``merge_packet``,
    while a recorded run of the same scenario calls both where it copies
    or reassembles."""
    from modnet.metrics import Metrics
    calls = {"record_copy": 0, "merge_packet": 0}
    for method in calls:
        fn = getattr(Metrics, method)

        def counted(*args, _fn=fn, _name=method, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(Metrics, method, counted)
    scenario = load_scenario_file(str(SCENARIO_DIR / name))
    _, stats = run_scenario(scenario)
    assert stats["counters"]["udp_delivered"] > 0
    assert calls == {"record_copy": 0, "merge_packet": 0}
    _, stats = run_scenario(scenario, record=True)
    assert stats["packets"] and calls["record_copy"] > 0
    assert calls["merge_packet"] > 0 or name == "border_router.json"
