"""Scenario files: a versioned JSON document that describes a topology and
a timed workload, read straight into the simulator's descriptions.

A scenario is the unit the command line runs: nodes (with their stack
flavor and addressing), links, a seed, and a list of timed socket
operations.  Loading produces the same ``Topology`` the tests build by
hand, so behavior is identical either way: a field the document leaves
out is not passed, and the description's own default applies.

The reader checks only what reading needs: each object's keys, and no
null; that hex and address texts parse; the module list; one address per
interface; and the workload, against the nodes.  Every rule on a
description's values belongs to ``simnet.check_topology``, which ``build``
runs, and its pointers are the same pointers into the document.  A
refusal is a ``ScenarioError`` at its JSON pointer, joined only then.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from ipaddress import IPv6Address

from . import udp
from .ipv6 import IFACE_PREFIX_LEN
from .pktbuf import NoBufferSpace
from .simnet import (DeviceDesc, LinkDesc, NodeDesc, RouteDesc, Simulator,
                     Topology, build)

SCHEMA_VERSION = 1

STACK_MODULES = ["link", "6lowpan", "ipv6", "udp"]
_MODULES = (*STACK_MODULES, "offload")


def _keys(required: str, optional: str = "") -> tuple:
    required = frozenset(required.split())
    return required, required | frozenset(optional.split())


# each object's required keys and every key it may have
_DOC = _keys("version nodes", "seed links workload")
_ENTRY = {  # of the objects in each list, by the list's key
    "nodes": _keys("name modules", "devices address iface_addrs routes "
                   "neighbors offload_peer buffer_capacity backend "
                   "neighbor_cache"),
    "devices": _keys("addr_short addr_long"),
    "iface_addrs": _keys("iface addr", "prefix_len"),
    "routes": _keys("prefix prefix_len iface", "next_hop"),
    "neighbors": _keys("addr link"),
    "links": _keys("a b", "loss delay_us"),
    "workload": _keys("t_us node op", "args"),
}
_PORT = (0, 65535)
_OPS = {  # each op's argument keys, and each int argument's range
    "open": (_keys("port", "app queue_capacity"),
             {"port": _PORT, "queue_capacity": (1, None)}),
    "send": (_keys("src_port dst dst_port size", "count interval_us"),
             {"src_port": _PORT, "dst_port": _PORT,
              "size": (1, udp.MAX_PAYLOAD), "count": (1, None),
              "interval_us": (0, None)}),
}


class ScenarioError(Exception):
    """Invalid scenario document; ``pointer`` locates the offending field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer
        self.message = message


@dataclass
class WorkloadOp:
    t_us: int
    node: str
    op: str
    args: dict = field(default_factory=dict)
    dst: bytes | None = None  # a send's destination address, resolved


@dataclass
class Scenario:
    topology: Topology
    workload: list[WorkloadOp]  # by t_us, ties in document order
    version: int = SCHEMA_VERSION


def _error(message: str, *where) -> ScenarioError:
    """``ScenarioError`` at the pointer whose parts are ``where``, joined
    only now: a document that loads formats no pointer."""
    return ScenarioError(message, "/" + "/".join(map(str, where)))


def _object(obj, keys: tuple, *where) -> dict:
    """``obj``, if it is an object with every required key of ``keys``, no
    key it may not have, and no null."""
    required, known = keys
    if type(obj) is not dict:
        raise _error(f"{obj!r} is not an object", *where)
    if required <= obj.keys() <= known and None not in obj.values():
        return obj
    missing = sorted(required - obj.keys())
    if missing:
        raise _error(f"{missing[0]!r} is missing", *where)
    for key, value in obj.items():
        if key not in known:
            raise _error(f"{key!r} is not a key here", *where)
        if value is None:
            raise _error("null is not a value", *where, key)


def _entries(obj: dict, key: str, *where):
    """``(k, entry)`` for each object in the list ``obj[key]``, if given."""
    if key in obj:
        value = obj[key]
        if type(value) is not list:
            raise _error(f"{value!r} is not a list", *where, key)
        for k, entry in enumerate(value):
            yield k, _object(entry, _ENTRY[key], *where, key, k)


def _text(value, *where) -> str:
    if type(value) is not str:
        raise _error(f"{value!r} is not a str", *where)
    return value


def _int(value, low: int, high: int | None, *where) -> int:
    if not (type(value) is int and low <= value  # nor a bool
            and (high is None or value <= high)):
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise _error(f"{value!r} is not an int {span}", *where)
    return value


def _hex(value, *where) -> bytes:
    """The bytes of a text of one or more pairs of hex digits."""
    if type(value) is str:
        try:
            raw = bytes.fromhex(value)
        except ValueError:
            raw = b""
        if raw and 2 * len(raw) == len(value):  # fromhex skips whitespace
            return raw
    raise _error(f"{value!r} is not a text of hex digit pairs", *where)


@functools.lru_cache(maxsize=1024)
def _packed_ip(text: str) -> bytes:
    """The 16 bytes of the IPv6 address ``text``, parsed once per distinct
    text: a document names few addresses, each several times.  A refused
    text raises ``ValueError``, which the cache does not keep."""
    addr = IPv6Address(text)
    if addr.scope_id is not None:  # .packed would drop the zone
        raise ValueError(f"{text!r} has a zone; an address here has none")
    return addr.packed


def _parse_ip(text, *where) -> bytes:
    """``text`` as packed bytes, or ``ScenarioError`` at ``where``."""
    try:
        if type(text) is str:  # IPv6Address(7) is an address
            return _packed_ip(text)
        message = f"{text!r} is not a str"
    except ValueError as exc:
        message = str(exc)
    raise _error(message, *where)


def _given(doc: dict, *keys) -> dict:
    """The named fields that ``doc`` sets, to pass on as keywords."""
    return {k: doc[k] for k in keys if k in doc}


def _node_desc(nj: dict, *at) -> NodeDesc:
    modules = nj["modules"]
    if type(modules) is not list:
        raise _error(f"{modules!r} is not a list", *at, "modules")
    for k, module in enumerate(modules):
        if module not in _MODULES:
            raise _error(f"no module {module!r}", *at, "modules", k)
    offload = modules == ["offload"]
    if not offload and sorted(modules) != sorted(STACK_MODULES):
        raise _error(f"modules are {STACK_MODULES} or ['offload']",
                     *at, "modules")
    iface_addrs = {}
    for k, ia in _entries(nj, "iface_addrs", *at):
        iface = ia["iface"]
        if type(iface) is not int:
            raise _error(f"interface {iface!r} is not an int",
                         *at, "iface_addrs", k, "iface")
        if iface in iface_addrs:  # one address per interface
            raise _error(f"interface {iface} is given twice",
                         *at, "iface_addrs", k, "iface")
        iface_addrs[iface] = (
            _parse_ip(ia["addr"], *at, "iface_addrs", k, "addr"),
            ia.get("prefix_len", IFACE_PREFIX_LEN))
    opts = _given(nj, "offload_peer", "buffer_capacity", "backend",
                  "neighbor_cache")
    return NodeDesc(
        name=_text(nj["name"], *at, "name"),
        devices=[DeviceDesc(
            addr_short=_hex(dj["addr_short"], *at, "devices", j,
                            "addr_short"),
            addr_long=_hex(dj["addr_long"], *at, "devices", j, "addr_long"))
            for j, dj in _entries(nj, "devices", *at)],
        address=(_parse_ip(nj["address"], *at, "address")
                 if "address" in nj else None),
        iface_addrs=iface_addrs,
        routes=[RouteDesc(
            prefix=_parse_ip(rj["prefix"], *at, "routes", k, "prefix"),
            prefix_len=rj["prefix_len"], iface=rj["iface"],
            next_hop=(_parse_ip(rj["next_hop"], *at, "routes", k,
                                "next_hop") if "next_hop" in rj else None))
            for k, rj in _entries(nj, "routes", *at)],
        neighbors=[(_parse_ip(ng["addr"], *at, "neighbors", k, "addr"),
                    _hex(ng["link"], *at, "neighbors", k, "link"))
                   for k, ng in _entries(nj, "neighbors", *at)],
        offload=offload, **opts)


def _workload_op(wj: dict, *at) -> WorkloadOp:
    op = wj["op"]
    if op not in ("open", "send"):
        raise _error(f"no op {op!r}", *at, "op")
    keys, ranges = _OPS[op]
    args = _object(wj.get("args", {}), keys, *at, "args")
    for key, (low, high) in ranges.items():
        if key in args:
            _int(args[key], low, high, *at, "args", key)
    if "app" in args and args["app"] not in ("echo", "sink"):
        raise _error(f"no app {args['app']!r}", *at, "args", "app")
    return WorkloadOp(t_us=_int(wj["t_us"], 0, None, *at, "t_us"),
                      node=_text(wj["node"], *at, "node"), op=op, args=args)


def load_scenario(doc: dict) -> Scenario:
    version = _object(doc, _DOC)["version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise _error(f"version {version!r} is not {SCHEMA_VERSION}",
                     "version")
    nodes = [_node_desc(nj, "nodes", i) for i, nj in _entries(doc, "nodes")]
    links = [LinkDesc(**lj) for _, lj in _entries(doc, "links")]
    ops = [_workload_op(wj, "workload", i)
           for i, wj in _entries(doc, "workload")]
    addr_of = {nd.name: nd.address for nd in nodes}
    # ops in the order apply_workload runs them: by t_us, ties in document
    # order.  A send opens its src_port unless it is open already, so only
    # an open can find its port taken.
    workload, opened = [], set()
    for i, op in sorted(enumerate(ops), key=lambda item: item[1].t_us):
        if op.node not in addr_of:
            raise _error(f"unknown node {op.node!r}", "workload", i, "node")
        if op.op == "open":
            key = (op.node, op.args["port"])
            if key in opened:
                raise _error(f"port {key[1]} of node {op.node!r} is already "
                             "open", "workload", i, "args", "port")
        else:
            key = (op.node, op.args["src_port"])
            dst = _text(op.args["dst"], "workload", i, "args", "dst")
            op.dst = (addr_of[dst] if dst in addr_of
                      else _parse_ip(dst, "workload", i, "args", "dst"))
        opened.add(key)
        workload.append(op)
    topology = Topology(nodes=nodes, links=links, **_given(doc, "seed"))
    return Scenario(topology=topology, workload=workload)


def load_scenario_file(path: str) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ScenarioError("top level must be an object")
    return load_scenario(doc)


def apply_workload(sim: Simulator, scenario: Scenario) -> dict:
    """Schedule the workload ops and return the bookkeeping dict that
    ``collect_stats`` later reads (opened sockets, expected sends).  An op
    that finds its node's sock context shut down, or its socket closed by
    that, stops and is counted once as ``workload_ops_skipped``."""
    book = {"sockets": {}, "sends": 0}

    def send(sock, dst, port, payload) -> bool:
        """Send as an app does: a full buffer refuses the datagram."""
        try:
            sock.sendto(dst, port, payload)
        except NoBufferSpace:
            sim.metrics.count("app_send_drops_nobuf")
            return False
        return True

    def do_open(op: WorkloadOp):
        layer = sim.socket_layer(op.node)
        sock = layer.open(op.args["port"],
                          **_given(op.args, "queue_capacity"))
        if op.args.get("app") == "echo":
            def bounce(s):
                src_ip, src_port, payload = s.recvfrom()
                send(s, src_ip, src_port, payload)
            sock.on_ready = bounce
        elif op.args.get("app") == "sink":
            # consume immediately so queued payloads never hold the buffer
            def drain(s):
                while s.recv_nowait() is not None:
                    pass
            sock.on_ready = drain
        book["sockets"][(op.node, op.args["port"])] = sock

    def do_send(op: WorkloadOp):
        key = (op.node, op.args["src_port"])
        sock = book["sockets"].get(key)
        if sock is None:
            sock = sim.socket_layer(op.node).open(op.args["src_port"])
            book["sockets"][key] = sock
        payload = bytes((i * 7 + 13) & 0xFF
                        for i in range(op.args["size"]))
        count = op.args.get("count", 1)
        interval = op.args.get("interval_us", 0)

        def fire(k=0):
            if sock.closed:
                sim.metrics.count("workload_ops_skipped")
                return
            if send(sock, op.dst, op.args["dst_port"], payload):
                book["sends"] += 1
            if k + 1 < count:
                sim.sched.call_later(max(interval, 1), lambda: fire(k + 1))

        fire()

    def start(op: WorkloadOp, fn):
        if "sock" in sim.nodes[op.node].aux:
            fn(op)
        else:
            sim.metrics.count("workload_ops_skipped")

    for op in scenario.workload:
        fn = do_open if op.op == "open" else do_send
        sim.sched.call_at(op.t_us, lambda o=op, f=fn: start(o, f))
    return book


def collect_stats(sim: Simulator, book: dict) -> dict:
    sockets = {}
    for (node, port), sock in book["sockets"].items():
        while sock.recv_nowait() is not None:
            pass
        sockets[f"{node}:{port}"] = {"received": sock.received}
    out = sim.metrics.as_dict()
    out["sockets"] = sockets
    out["sends"] = book["sends"]
    out["now_us"] = sim.sched.now_us
    trace = sim.sched.trace
    out["trace_lines"] = 0 if trace is None else len(trace)
    return out


def run_scenario(scenario: Scenario, mode: str = "det",
                 until: int | None = None,
                 record: bool = False) -> tuple[Simulator, dict]:
    """Build, run to quiescence (or to the time bound ``until``), and
    collect stats.  Without ``record``, ``packets`` is empty and
    ``trace_lines`` is 0."""
    sim = build(scenario.topology, mode=mode, record=record)
    book = apply_workload(sim, scenario)
    try:
        sim.run_until(until)
        stats = collect_stats(sim, book)
    finally:
        sim.stop()
    return sim, stats
