"""The benchmark's workloads: seeded inputs, one round of traffic, and the
correctness gate that every round passes through.

A round is one fresh topology, built the way a user builds one: a scenario
document goes through ``scenario.load_scenario`` and ``simnet.build`` on the
deterministic scheduler, then traffic goes through the public socket API
(``SocketLayer.open``, ``Socket.sendto``, ``on_ready`` sinks) or through
``netapi.send_cmd``.  A round's inputs come only from the seed and the
round's index, so a round replays exactly: the same deliveries, the same
simulated latencies, the same scheduler steps and the same buffer peak.
"""

from __future__ import annotations

import random
import time
from array import array
from dataclasses import dataclass, field

from modnet import netapi, scenario, simnet
from modnet.netapi import ENOTSUP, OK, MsgKind, NetMessage, OptionKey
from modnet.pktbuf import NoBufferSpace

clock_ns = time.perf_counter_ns

SINK_PORT = 7
CLIENT_PORT = 40000
SEQ_LEN = 4  # every data payload starts with a big-endian sequence id


# -- scenario documents ------------------------------------------------------

def _host(name, dev_hex, address, neighbors, routes=()):
    return {"name": name, "modules": ["link", "6lowpan", "ipv6", "udp"],
            "devices": [{"addr_short": dev_hex[-4:], "addr_long": dev_hex}],
            "address": address,
            "routes": list(routes),
            "neighbors": [{"addr": a, "link": ln} for a, ln in neighbors]}


def two_node_doc(seed: int, loss: float) -> dict:
    """a -- b on one /64."""
    return {"version": 1, "seed": seed, "nodes": [
        _host("a", "000000000000000a", "fd00::1",
              [("fd00::2", "000000000000000b")]),
        _host("b", "000000000000000b", "fd00::2",
              [("fd00::1", "000000000000000a")]),
    ], "links": [{"a": "a", "b": "b", "loss": loss, "delay_us": 1}]}


def router_doc(seed: int, loss: float) -> dict:
    """a -- r -- b with a /64 on each side; r forwards between them."""
    default_a = {"prefix": "::", "prefix_len": 0, "iface": 0,
                 "next_hop": "fd00:0:0:1::fe"}
    default_b = {"prefix": "::", "prefix_len": 0, "iface": 0,
                 "next_hop": "fd00:0:0:2::fe"}
    router = {
        "name": "r", "modules": ["link", "6lowpan", "ipv6", "udp"],
        "devices": [{"addr_short": "00e0", "addr_long": "00000000000000e0"},
                    {"addr_short": "00e1", "addr_long": "00000000000000e1"}],
        "address": "fd00:0:0:1::fe",
        "iface_addrs": [
            {"iface": 0, "addr": "fd00:0:0:1::fe", "prefix_len": 64},
            {"iface": 1, "addr": "fd00:0:0:2::fe", "prefix_len": 64}],
        "neighbors": [{"addr": "fd00:0:0:1::1", "link": "000000000000000a"},
                      {"addr": "fd00:0:0:2::1", "link": "000000000000000b"}],
    }
    return {"version": 1, "seed": seed, "nodes": [
        _host("a", "000000000000000a", "fd00:0:0:1::1",
              [("fd00:0:0:1::fe", "00000000000000e0")], [default_a]),
        router,
        _host("b", "000000000000000b", "fd00:0:0:2::1",
              [("fd00:0:0:2::fe", "00000000000000e1")], [default_b]),
    ], "links": [{"a": "a", "b": "r:0", "loss": loss, "delay_us": 1},
                 {"a": "r:1", "b": "b", "loss": loss, "delay_us": 1}]}


def ctrl_doc(seed: int) -> dict:
    """The border-router topology plus a pair of offload nodes."""
    doc = router_doc(seed, 0.0)
    doc["nodes"] += [
        {"name": "c", "modules": ["offload"], "address": "fd00::c",
         "offload_peer": "d"},
        {"name": "d", "modules": ["offload"], "address": "fd00::d",
         "offload_peer": "c"},
    ]
    return doc


# -- round bookkeeping -------------------------------------------------------

@dataclass
class Round:
    """Inputs of one round, generated before anything is timed."""

    doc: dict
    sends: list = field(default_factory=list)  # (t_us, flow, seq, payload)
    commands: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one round did, as the benchmark's own apps observed it."""

    attempted: int = 0      # operations issued
    completed: int = 0      # operations that finished intact
    refused: int = 0        # sendto calls answered with NoBufferSpace
    dgrams: int = 0         # datagrams delivered intact to a benchmark app
    dgram_bytes: int = 0    # their payload bytes
    steps: int = 0          # DetScheduler.steps
    buf_peak: int = 0       # highest pktbuf peak over the round's nodes
    sim_lat_us: list = field(default_factory=list)
    host_lat_ns: array = field(default_factory=lambda: array("q"))
    load_ns: int = 0
    build_ns: int = 0
    setup_ns: int = 0       # load + build + socket open
    traffic_ns: int = 0
    violations: list = field(default_factory=list)

    def signature(self) -> tuple:
        """Everything about the round that must replay bit for bit."""
        return (self.attempted, self.completed, self.refused, self.dgrams,
                self.dgram_bytes, self.steps, self.buf_peak,
                tuple(self.sim_lat_us))


def seeded_payload(rng: random.Random, seq: int, size: int) -> bytes:
    return seq.to_bytes(SEQ_LEN, "big") + rng.randbytes(size - SEQ_LEN)


def seeded_sizes(rng: random.Random, sizes: tuple, n: int) -> list:
    """n sizes from the inclusive range, one drawn from each of n equal
    strata, in seeded order: every seed gets nearly the same mix of sizes,
    so size-driven figures such as fragment counts do not swing between
    seeds."""
    lo, hi = sizes
    width = (hi - lo + 1) / n
    out = [lo + int((j + rng.random()) * width) for j in range(n)]
    rng.shuffle(out)
    return out


class PayloadCheck:
    """Gate for data payloads: each must arrive byte-exact and at most once."""

    def __init__(self, out: Outcome):
        self.out = out
        self.expected: dict[int, bytes] = {}
        self.seen: set[int] = set()

    def accept(self, payload: bytes) -> int | None:
        """Return the sequence id of an intact first delivery, else None
        (and record a violation)."""
        seq = int.from_bytes(payload[:SEQ_LEN], "big")
        if self.expected.get(seq) != payload:
            self.out.violations.append(f"payload {seq} arrived corrupted")
            return None
        if seq in self.seen:
            self.out.violations.append(f"payload {seq} delivered twice")
            return None
        self.seen.add(seq)
        self.out.dgrams += 1
        self.out.dgram_bytes += len(payload)
        return seq


# -- workloads -------------------------------------------------------------

class Workload:
    """One traffic mix.  Subclasses define the inputs and the traffic."""

    name = ""
    rounds = 1          # rounds in the exact pass
    traced_rounds = 6   # rounds the traced run replays with spans
    data = True         # False: control plane only, no payload moves

    def make_round(self, seed: int, index: int) -> Round:
        raise NotImplementedError

    def run(self, rnd: Round, on_built=None) -> Outcome:
        """Build the round's topology, drive its traffic to quiescence and
        check the result.  ``on_built(sim)`` runs after set-up, untimed."""
        out = Outcome()
        t0 = clock_ns()
        sc = scenario.load_scenario(rnd.doc)
        t1 = clock_ns()
        sim = simnet.build(sc.topology)
        t2 = clock_ns()
        state = self.open(sim, rnd, out)
        t3 = clock_ns()
        out.load_ns, out.build_ns, out.setup_ns = t1 - t0, t2 - t1, t3 - t0
        if on_built is not None:
            on_built(sim)
        t4 = clock_ns()
        self.traffic(sim, rnd, state, out)
        out.traffic_ns = clock_ns() - t4
        out.steps = sim.sched.steps
        for name, node in sim.nodes.items():
            out.buf_peak = max(out.buf_peak, node.pktbuf.peak)
            if node.pktbuf.used != 0:
                out.violations.append(
                    f"node {name}: pktbuf.used={node.pktbuf.used} after drain")
        return out

    def open(self, sim, rnd, out):
        raise NotImplementedError

    def traffic(self, sim, rnd, state, out):
        raise NotImplementedError


class _Stream(Workload):
    """Open loop: each flow sends on a fixed simulated-time schedule
    whatever happened to earlier datagrams; sinks drain on ``on_ready``."""

    flows: tuple = ()   # (src node, dst node)

    def open(self, sim, rnd, out):
        check = PayloadCheck(out)
        pending = {}  # seq -> (due sim us, send host ns)
        sched = sim.sched

        def drain(sock):
            while True:
                got = sock.recv_nowait()
                if got is None:
                    return
                seq = check.accept(got[2])
                if seq is not None:
                    t_us, t_ns = pending.pop(seq)
                    out.host_lat_ns.append(clock_ns() - t_ns)
                    out.sim_lat_us.append(sched.now_us - t_us)
                    out.completed += 1

        senders = {}
        for src, dst in self.flows:
            sink = sim.socket_layer(dst).open(SINK_PORT, queue_capacity=16)
            sink.on_ready = drain
            senders[src] = sim.socket_layer(src).open(CLIENT_PORT)
        addr = {nd.name: nd.address for nd in sim.topology.nodes}
        return check, pending, senders, addr

    def traffic(self, sim, rnd, state, out):
        check, pending, senders, addr = state
        sched = sim.sched

        def fire(flow, seq, payload):
            src, dst = self.flows[flow]
            out.attempted += 1
            t_ns = clock_ns()
            try:
                senders[src].sendto(addr[dst], SINK_PORT, payload)
            except NoBufferSpace:
                out.refused += 1
                return
            pending[seq] = (sched.now_us, t_ns)

        for t_us, flow, seq, payload in rnd.sends:
            check.expected[seq] = payload
            sched.call_at(t_us, lambda f=flow, s=seq, p=payload: fire(f, s, p))
        sim.run_until()


class SmallStream(_Stream):
    """Two opposing flows of single-frame datagrams across the border
    router, with loss on both hops: per-packet cost dominates."""

    name = "small_stream"
    rounds = 6
    flows = (("a", "b"), ("b", "a"))
    PER_FLOW = 300
    INTERVAL_US = 400
    LOSS = 0.05
    SIZES = (4, 61)  # 61 B + 8 UDP + 40 IPv6 + 1 dispatch = 110 B frame

    def make_round(self, seed, index):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        rnd = Round(router_doc(rng.getrandbits(32), self.LOSS))
        sizes = seeded_sizes(rng, self.SIZES, 2 * self.PER_FLOW)
        for k in range(self.PER_FLOW):
            for flow in range(2):
                seq = 2 * k + flow
                t_us = 10 + k * self.INTERVAL_US + flow * self.INTERVAL_US // 2
                rnd.sends.append((t_us, flow, seq,
                                  seeded_payload(rng, seq, sizes[seq])))
        return rnd


class FragStream(_Stream):
    """A one-way stream of fragmented datagrams at a rate the stack
    carries in full on a lossless link, over a link that loses 2% of
    frames: exercises reassembly timeouts and buffer pressure."""

    name = "frag_stream"
    rounds = 400
    traced_rounds = 30
    flows = (("a", "b"),)
    COUNT = 50
    INTERVAL_US = 100
    LOSS = 0.02
    SIZES = (300, 1192)

    def make_round(self, seed, index):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        rnd = Round(two_node_doc(rng.getrandbits(32), self.LOSS))
        sizes = seeded_sizes(rng, self.SIZES, self.COUNT)
        for seq, size in enumerate(sizes):
            rnd.sends.append((10 + seq * self.INTERVAL_US, 0, seq,
                              seeded_payload(rng, seq, size)))
        return rnd


class FragEcho(Workload):
    """Closed loop, one client: the next fragmented request leaves only
    when the echo of the previous one has returned intact."""

    name = "frag_echo"
    rounds = 6
    COUNT = 150
    SIZES = (200, 1192)

    def make_round(self, seed, index):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        rnd = Round(two_node_doc(rng.getrandbits(32), 0.0))
        sizes = seeded_sizes(rng, self.SIZES, self.COUNT)
        for seq, size in enumerate(sizes):
            rnd.sends.append((0, 0, seq, seeded_payload(rng, seq, size)))
        return rnd

    def open(self, sim, rnd, out):
        check = PayloadCheck(out)
        for _, _, seq, payload in rnd.sends:
            check.expected[seq] = payload
        client = sim.socket_layer("a").open(CLIENT_PORT)
        server = sim.socket_layer("b").open(SINK_PORT)
        addr_b = sim.topology.nodes[1].address
        sched = sim.sched
        inflight = {}

        def send_next():
            if out.attempted == len(rnd.sends):
                return
            _, _, seq, payload = rnd.sends[out.attempted]
            out.attempted += 1
            t_ns = clock_ns()
            try:
                client.sendto(addr_b, SINK_PORT, payload)
            except NoBufferSpace:
                out.refused += 1
                return send_next()
            inflight["op"] = (seq, sched.now_us, t_ns)

        def echo(sock):  # the server app
            while True:
                got = sock.recv_nowait()
                if got is None:
                    return
                src_ip, src_port, payload = got
                if check.accept(payload) is None:
                    continue
                try:
                    sock.sendto(src_ip, src_port, payload)
                except NoBufferSpace:
                    out.refused += 1  # this operation fails; loop stalls

        def returned(sock):  # the client app
            while True:
                got = sock.recv_nowait()
                if got is None:
                    return
                payload = got[2]
                seq, t_us, t_ns = inflight.pop("op", (None, 0, 0))
                if (seq is None or payload != check.expected[seq]):
                    out.violations.append(f"echo {seq} arrived corrupted")
                    continue
                out.host_lat_ns.append(clock_ns() - t_ns)
                out.sim_lat_us.append(sched.now_us - t_us)
                out.completed += 1
                out.dgrams += 1
                out.dgram_bytes += len(payload)
                send_next()

        server.on_ready = echo
        client.on_ready = returned
        return send_next

    def traffic(self, sim, rnd, send_next, out):
        sim.sched.call_at(10, send_next)
        sim.run_until()


class CtrlPlane(Workload):
    """Closed loop, one command outstanding: MSG_GET/MSG_SET through
    ``netapi.send_cmd`` to every module context of full-stack and offload
    nodes.  No payload moves."""

    name = "ctrl_plane"
    rounds = 6
    traced_rounds = 1
    data = False
    COUNT = 20_000
    UNKNOWN_SHARE = 0.5

    # (context kind, message kind, option key) -> value sent with it, for
    # every option some module implements; everything else is ENOTSUP
    KNOWN = {
        ("link", MsgKind.MSG_GET, OptionKey.MTU): b"",
        ("link", MsgKind.MSG_GET, OptionKey.ADDRESS): b"",
        ("link", MsgKind.MSG_GET, OptionKey.ADDRESS_LONG): b"",
        ("link", MsgKind.MSG_GET, OptionKey.CHANNEL): b"",
        ("link", MsgKind.MSG_GET, OptionKey.LOSS_RATE): b"",
        ("link", MsgKind.MSG_SET, OptionKey.CHANNEL): 11,
        ("link", MsgKind.MSG_SET, OptionKey.LOSS_RATE): 0.0,
        ("ipv6", MsgKind.MSG_GET, OptionKey.HOP_LIMIT): b"",
        ("ipv6", MsgKind.MSG_GET, OptionKey.ADDRESS): b"",
        ("ipv6", MsgKind.MSG_SET, OptionKey.HOP_LIMIT): 64,
        ("offload", MsgKind.MSG_GET, OptionKey.ADDRESS): b"",
    }

    @staticmethod
    def kind_of(ctx_name: str) -> str:
        return "link" if ctx_name.startswith("link") else ctx_name

    def make_round(self, seed, index):
        rng = random.Random(f"{self.name}/{seed}/{index}")
        doc = ctrl_doc(rng.getrandbits(32))
        targets = []
        for node in doc["nodes"]:
            if node["modules"] == ["offload"]:
                names = ["sock", "offload"]
            else:
                names = [f"link{i}" for i in range(len(node["devices"]))]
                names += ["6lo", "ipv6", "udp", "sock"]
            targets += [(node["name"], n) for n in names]
        kinds = (MsgKind.MSG_GET, MsgKind.MSG_SET)
        rnd = Round(doc)
        for _ in range(self.COUNT):
            node, ctx_name = rng.choice(targets)
            kind = rng.choice(kinds)
            if rng.random() < self.UNKNOWN_SHARE:
                key, value = rng.randint(max(OptionKey) + 1, 0xFFFF), b""
                expect = ENOTSUP
            else:
                key = rng.choice(list(OptionKey))
                entry = (self.kind_of(ctx_name), kind, key)
                value = self.KNOWN.get(entry, b"")
                expect = OK if entry in self.KNOWN else ENOTSUP
            rnd.commands.append((node, ctx_name, kind, key, value, expect))
        return rnd

    def open(self, sim, rnd, out):
        return {(name, ctx.name): ctx for name, node in sim.nodes.items()
                for ctx in node.all_contexts()}

    def traffic(self, sim, rnd, contexts, out):
        sched = sim.sched
        for node, ctx_name, kind, key, value, expect in rnd.commands:
            target = contexts[(node, ctx_name)]
            out.attempted += 1
            t_ns = clock_ns()
            try:
                ack = netapi.send_cmd(sched, target,
                                      NetMessage(kind, option=(key, value)))
            except netapi.CmdTimeout:
                out.violations.append(f"{node}/{ctx_name}: CmdTimeout")
                continue
            out.host_lat_ns.append(clock_ns() - t_ns)
            if ack.status != expect:
                out.violations.append(
                    f"{node}/{ctx_name} {kind.name} key {int(key)}: "
                    f"status {ack.status}, expected {expect}")
                continue
            out.completed += 1


WORKLOADS = {wl.name: wl for wl in
             (SmallStream(), FragEcho(), FragStream(), CtrlPlane())}
