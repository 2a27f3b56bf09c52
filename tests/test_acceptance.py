"""Conformance gate: twelve whole-system budget and property checks.

Each test prints exactly one PASS/FAIL line so the suite doubles as a
report; run with ``pytest tests/test_acceptance.py -s`` to see them live.
Desk-scale analogs stand in for figures that only exist on embedded
hardware: ROM size becomes the accounted RAM budget, cycle counts become
the message-pass vs function-call ratio.
"""

import glob
import random
import time
from collections import Counter

import pytest

from modnet import cli
from modnet.ipv6 import RingNeighborCache, SortedNeighborCache
from modnet.metrics import (BOUNDARY_SITES, CopySite, Metrics,
                            ipc_overhead_bench, memory_report)
from modnet.pktbuf import AllocPriority, NoBufferSpace, buffer_create
from modnet.scenario import load_scenario_file
from modnet.simnet import build
from modnet.sixlowpan import ReassemblyStatus, ReassemblyTable, fragment
from modnet.udp import PortInUse

from oracles import fragment_oracle, reassemble_oracle
from test_ipv6 import random_script, run_cache_script
from topo import (IP_A2, IP_B, IP_B2, echo_on, offload_pair,
                  three_node_router, two_node)


def pattern(n):
    return bytes((i * 7 + 13) & 0xFF for i in range(n))


def verdict(num, desc, ok, detail=""):
    print(f"[{num:02d}] {desc}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"check {num} ({desc}) {detail}"


def sink_on(sock, store):
    """Drain every arrival immediately so queued data never pins buffer."""
    def drain(s):
        while True:
            got = s.recv_nowait()
            if got is None:
                return
            store.append(got)
    sock.on_ready = drain
    return sock


def test_01_copy_twice_boundary_counts():
    t0 = time.monotonic()
    sim = build(two_node(), record=True)
    client = sim.socket_layer("a").open(40000)
    echo_on(sim.socket_layer("b").open(7))
    n = 20
    for i in range(n):
        payload = pattern(40 + i)
        client.sendto(IP_B, 7, payload)
        sim.run_until()
        assert client.recv_nowait() == (IP_B, 7, payload)
    tx_shape = {CopySite.APP_TO_BUF: 1, CopySite.BUF_TO_DEV: 1}
    rx_shape = {CopySite.DEV_TO_BUF: 1, CopySite.BUF_TO_APP: 1}
    shapes = Counter()
    bad = []
    for pid in sim.metrics.packet_ids():
        report = {site: count
                  for site, count in sim.metrics.copy_report(pid).items()
                  if site in BOUNDARY_SITES}
        if report == tx_shape:
            shapes["tx"] += 1
        elif report == rx_shape:
            shapes["rx"] += 1
        else:
            bad.append((pid, report))
    elapsed = time.monotonic() - t0
    # n client sends + n echo replies, each with a distinct RX-side packet
    ok = (not bad and shapes["tx"] == 2 * n and shapes["rx"] == 2 * n
          and elapsed < 5.0)
    verdict(1, "copy-twice: exactly one copy in and one copy out per "
            "direction", ok,
            f"shapes={dict(shapes)} bad={bad[:3]} elapsed={elapsed:.2f}s")


def test_02_fragmented_echo_within_2048_byte_buffer():
    sim = build(two_node(buffer_capacity=2048))
    client = sim.socket_layer("a").open(40000)
    echo_on(sim.socket_layer("b").open(7))
    # 1192-byte payload -> 1240-byte datagram, the largest the stack carries
    payload = pattern(1192)
    ok = True
    for _ in range(3):
        client.sendto(IP_B, 7, payload)
        sim.run_until()
        ok = ok and client.recv_nowait() == (IP_B, 7, payload)
    fails = {}
    for node in sim.nodes.values():
        fails[node.name] = dict(node.pktbuf.failed_allocs)
        ok = (ok and node.pktbuf.failed_allocs[AllocPriority.RECEIVE] == 0
              and node.pktbuf.failed_allocs[AllocPriority.CONTROL] == 0
              and node.pktbuf.stats().used == 0)
    verdict(2, "max-size fragmented echo completes in a 2048-byte buffer "
            "with zero receive/control exhaustion", ok, f"fails={fails}")


def test_03_accounted_memory_budget():
    sim = build(two_node())
    report = memory_report(sim.nodes["a"])
    ok = report["module_count"] == 4 and report["total_budget"] < 10240
    verdict(3, "four-module node fits the 10240-byte accounted budget", ok,
            f"report={report}")


def test_04_fragmentation_matches_oracle():
    t0 = time.monotonic()
    rng = random.Random(4)
    buf = buffer_create(4096)
    table = ReassemblyTable(buf, Metrics(locked=False))
    mismatches = 0

    def check(size, budget, tag, reassemble_via_table):
        nonlocal mismatches
        datagram = bytes(rng.randrange(256) for _ in range(size))
        frags = fragment(datagram, budget, tag)
        if frags != fragment_oracle(datagram, budget, tag):
            mismatches += 1
            return
        if not reassemble_via_table:
            if reassemble_oracle(frags) != datagram:
                mismatches += 1
            return
        if len(frags) == 1:
            if frags[0][1:] != datagram:
                mismatches += 1
            return
        rng.shuffle(frags)
        result = None
        for frag in frags:
            status, chain, _ = table.step(frag, b"\x0a", b"\x0b", 0)
            if status == ReassemblyStatus.COMPLETE:
                result = chain.to_bytes()
                buf.release(chain)
        if result != datagram:
            mismatches += 1

    sizes = [round(1 + i * 1399 / 19) for i in range(20)]
    budgets = [round(16 + i * 94 / 9) for i in range(10)]
    for size in sizes:
        for budget in budgets:
            check(size, budget, rng.randrange(0x10000),
                  reassemble_via_table=True)
    for _ in range(10_000):
        check(rng.randint(1, 1400), rng.randint(16, 110),
              rng.randrange(0x10000), reassemble_via_table=False)
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and buf.stats().used == 0 and elapsed < 60.0
    verdict(4, "fragment layouts and round trips match the independent "
            "oracle on a 200-point grid plus 10^4 random cases", ok,
            f"mismatches={mismatches} elapsed={elapsed:.1f}s")


def _run_four_flows(loss, seed, mode, count=100):
    sim = build(three_node_router(loss_ar=loss, loss_rb=loss, seed=seed),
                mode=mode)
    try:
        stores = []
        for flow in range(4):
            store = []
            sink_on(sim.socket_layer("b").open(7000 + flow), store)
            stores.append(store)
            client = sim.socket_layer("a").open(40000 + flow)

            def fire(sock=client, port=7000 + flow, f=flow, i=0):
                try:
                    sock.sendto(IP_B2, port, bytes([f, i]) + pattern(38))
                except NoBufferSpace:
                    pass  # paced flows should never hit this; counted below
                if i + 1 < count:
                    sim.sched.call_later(
                        500, lambda: fire(sock, port, f, i + 1))
            sim.sched.call_later(100 * flow, fire)
        sim.run_until()
    finally:
        sim.stop()
    delivered = 0
    intact = True
    for flow, store in enumerate(stores):
        expected = {bytes([flow, i]) + pattern(38) for i in range(count)}
        for src_ip, src_port, payload in store:
            intact = intact and src_ip == IP_A2 and payload in expected
        delivered += len(store)
    return delivered, intact, sim


def _check_05(mode):
    count = 100
    delivered, intact, _ = _run_four_flows(loss=0.0, seed=9, mode=mode,
                                           count=count)
    ok = intact and delivered == 4 * count

    delivered, intact, _ = _run_four_flows(loss=0.1, seed=9, mode=mode,
                                           count=count)
    n = 4 * count
    p = 0.9 * 0.9  # two lossy hops per datagram
    sigma = (n * p * (1 - p)) ** 0.5
    lo, hi = n * p - 3 * sigma, n * p + 3 * sigma
    ok = ok and intact and lo <= delivered <= hi
    verdict(5, "four concurrent flows across a relay: lossless intact, "
            f"10% loss within 3 sigma ({mode})", ok,
            f"delivered={delivered} expected [{lo:.0f}, {hi:.0f}]")


def test_05_four_parallel_flows():
    _check_05("det")


def _check_06(mode):
    sim = build(three_node_router(), mode=mode)
    try:
        client = sim.socket_layer("a").open(40000)
        sink = sim.socket_layer("b").open(7)
        n = 20
        ok = True
        for i in range(n):
            client.sendto(IP_B2, 7, pattern(30 + i))
            sim.run_until()
            got = sink.recvfrom()
            ok = (ok and got == (IP_A2, 40000, pattern(30 + i))
                  and sink.last_hop_limit == 63)  # decremented exactly once
        ok = ok and sim.metrics.get("ipv6_forwarded") == n
    finally:
        sim.stop()
    verdict(6, "relay forwards between interfaces, all datagrams through, "
            f"hop limit down by one ({mode})",
            ok, f"forwarded={sim.metrics.get('ipv6_forwarded')}")


def test_06_forwarding_between_interfaces():
    _check_06("det")


def test_07_option_fuzz_conformance():
    scenario = load_scenario_file("scenarios/echo.json")
    report = cli.fuzz_enotsup(scenario, ops=10_000, seed=1)
    ok = (report["clean"]
          and report["ok"] + report["enotsup"] == report["ops"])
    verdict(7, "10^4 random option messages: no timeouts, no crashes, "
            "unsupported keys answered ENOTSUP", ok,
            f"timeouts={len(report['timeouts'])} "
            f"crashes={len(report['crashes'])} "
            f"bad={len(report['unknown_key_non_enotsup'])}")


def _check_08(mode):
    ok = True
    for seed in range(100):
        rng = random.Random(seed)
        size = rng.choice((16, 32, 48, 64, 96, 128))
        probe = buffer_create(2048)
        probe.alloc_snip(size=size)
        cost = probe.used  # accounted cost of one snip at this size

        buf = buffer_create(2048)
        held = []
        while True:  # saturate the app-send class
            try:
                held.append(buf.alloc_snip(size=size,
                                           prio=AllocPriority.SEND_APP))
            except NoBufferSpace:
                break
        while buf.used + cost <= buf.capacity:
            prio = rng.choice((AllocPriority.RECEIVE, AllocPriority.CONTROL))
            try:
                held.append(buf.alloc_snip(size=size, prio=prio))
            except NoBufferSpace:
                ok = False  # reserve must carry the receive path
                break
        rng.shuffle(held)
        for snip in held:
            buf.release(snip)
        ok = ok and buf.used == 0  # quiescence: everything drained

    # end-to-end: a flood that outruns the radio still terminates
    sim = build(two_node(), mode=mode)
    try:
        client = sim.socket_layer("a").open(40000)
        sink_on(sim.socket_layer("b").open(7), [])

        def flood(i=0):
            try:
                client.sendto(IP_B, 7, pattern(60))
            except NoBufferSpace:
                pass  # app backs off; the stack itself must not wedge
            if i + 1 < 300:
                sim.sched.call_later(1, lambda: flood(i + 1))
        sim.sched.call_later(0, flood)
        sim.run_until()
    finally:
        sim.stop()
    ok = (ok and all(n.pktbuf.stats().used == 0 for n in sim.nodes.values())
          and all(n.pktbuf.failed_allocs[AllocPriority.RECEIVE] == 0
                  for n in sim.nodes.values()))
    verdict(8, "receive/control allocations ride the reserve under send "
            f"saturation; 100 scripts and a flood all drain ({mode})", ok)


def test_08_receive_survives_send_saturation():
    _check_08("det")


def test_09_neighbor_cache_substitutability():
    mismatched = 0
    for seed in range(100):
        ops = random_script(random.Random(seed), 10_000)
        ring = run_cache_script(RingNeighborCache(capacity=8), ops)
        hashed = run_cache_script(SortedNeighborCache(capacity=8), ops)
        if ring != hashed:
            mismatched += 1
    verdict(9, "both neighbor cache builds agree on 10^4-operation scripts "
            "across 100 seeds", mismatched == 0, f"mismatched={mismatched}")


def _exercise_sockets(sim):
    """Socket-level behavior probe, wiring-agnostic by construction."""
    out = []
    layer_a, layer_b = sim.socket_layer("a"), sim.socket_layer("b")
    client = layer_a.open(40000)
    echo_on(layer_b.open(7))
    sink = layer_b.open(9)
    for n in (1, 33, 80):
        client.sendto(IP_B, 7, pattern(n))
        sim.run_until()
        out.append(client.recv_nowait())
    client.sendto(IP_B, 9, pattern(25))
    sim.run_until()
    out.append(sink.recvfrom())
    try:
        layer_b.open(7)
        out.append("reopened")
    except PortInUse:
        out.append("port-in-use")
    client.close()
    out.append(40000 in layer_a.ports)
    return out


def _check_10(mode):
    baseline = _exercise_sockets(build(two_node()))
    sim = build(offload_pair(), mode=mode, record=True)
    try:
        offload = _exercise_sockets(sim)
    finally:
        sim.stop()
    offloaded = [line for line in sim.sched.trace
                 if "6lo" in line or "ipv6" in line]
    # the trace saw the traffic, through the offload contexts
    traced = sum("->offload" in line for line in sim.sched.trace)
    ok = offload == baseline and not offloaded and traced > 0
    verdict(10, f"socket suite unchanged over the offload module ({mode}), "
            "no adaptation/network trace on the offload nodes", ok,
            f"match={offload == baseline} stray={offloaded[:2]} "
            f"traced={traced}")


def test_10_offload_rewiring_preserves_socket_behavior():
    _check_10("det")


@pytest.mark.parametrize("check", [_check_05, _check_06, _check_08,
                                   _check_10], ids=["05", "06", "08", "10"])
def test_checks_hold_under_par(check):
    """Checks 5, 6, 8 and 10 under the par pool."""
    check("par")


def test_11_message_pass_overhead_ratio():
    base = ipc_overhead_bench(10_000)
    doubled = ipc_overhead_bench(20_000)
    drift = abs(doubled["ratio"] - base["ratio"]) / base["ratio"]
    ok = base["ratio"] <= 100 and doubled["ratio"] <= 100 and drift < 0.2
    verdict(11, "message round trip within 100x a function call, stable "
            "on iteration doubling", ok,
            f"ratio={base['ratio']:.1f}/{doubled['ratio']:.1f} "
            f"drift={drift:.1%}")


def test_12_deterministic_traces(tmp_path):
    ok = True
    for path in sorted(glob.glob("scenarios/*.json")):
        blobs = []
        for run in range(2):
            trace = tmp_path / f"{run}.trace"
            code = cli.main(["run", path, "--trace", str(trace)])
            ok = ok and code == 0
            blobs.append(trace.read_bytes())
        ok = ok and blobs[0] == blobs[1] and len(blobs[0]) > 0
    verdict(12, "every shipped scenario replays to byte-identical traces",
            ok)
