"""Scenario files: versioned JSON description of a topology plus a timed
workload, validated against a schema with JSON-pointer error reporting.
A plain-Python check compiled once from the schema accepts a valid
document; only a document it refuses goes through jsonschema, which names
the first error and its pointer.  jsonschema is imported on the first
refused document, so a run of valid scenarios never loads it.

A scenario is the unit the command line runs: nodes (with their stack
flavor and addressing), links, a seed, and a list of timed socket
operations.  Loading produces the same ``Topology`` the tests build by
hand, so behavior is identical either way: a field the document leaves
out is not passed, and the description's own default applies.  The schema
checks each field, and loading checks the workload against the nodes;
``simnet.check_topology`` checks at build time how the topology's fields
fit together, and its pointers are the same pointers into the document.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, field
from ipaddress import IPv6Address

from . import udp
from .ipv6 import IFACE_PREFIX_LEN, NEIGHBOR_CACHES
from .pktbuf import MAX_CAPACITY, MIN_CAPACITY, Backend, NoBufferSpace
from .simnet import (DeviceDesc, LinkDesc, NodeDesc, RouteDesc, Simulator,
                     Topology, build)

SCHEMA_VERSION = 1

STACK_MODULES = ["link", "6lowpan", "ipv6", "udp"]

_HEX = {"type": "string", "pattern": "^([0-9a-fA-F]{2})+$"}
_ADDR = {"type": "string", "minLength": 2}
_PREFIX_LEN = {"type": "integer", "minimum": 0, "maximum": 128}

SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["version", "nodes"],
    "additionalProperties": False,
    "properties": {
        "version": {"const": SCHEMA_VERSION},
        "seed": {"type": "integer", "minimum": 0,
                 "maximum": 2**64 - 1},
        "nodes": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "modules"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "modules": {
                        "type": "array",
                        "items": {"enum": STACK_MODULES + ["offload"]},
                    },
                    "devices": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["addr_short", "addr_long"],
                            "additionalProperties": False,
                            "properties": {
                                "addr_short": _HEX,
                                "addr_long": _HEX,
                            },
                        },
                    },
                    "address": _ADDR,
                    "iface_addrs": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["iface", "addr"],
                            "additionalProperties": False,
                            "properties": {
                                "iface": {"type": "integer", "minimum": 0},
                                "addr": _ADDR,
                                "prefix_len": _PREFIX_LEN,
                            },
                        },
                    },
                    "routes": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["prefix", "prefix_len", "iface"],
                            "additionalProperties": False,
                            "properties": {
                                "prefix": _ADDR,
                                "prefix_len": _PREFIX_LEN,
                                "iface": {"type": "integer", "minimum": 0},
                                "next_hop": _ADDR,
                            },
                        },
                    },
                    "neighbors": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["addr", "link"],
                            "additionalProperties": False,
                            "properties": {"addr": _ADDR, "link": _HEX},
                        },
                    },
                    "offload_peer": {"type": "string"},
                    "buffer_capacity": {"type": "integer",
                                        "minimum": MIN_CAPACITY,
                                        "maximum": MAX_CAPACITY},
                    "backend": {"enum": [b.name for b in Backend]},
                    "neighbor_cache": {"enum": list(NEIGHBOR_CACHES)},
                },
            },
        },
        "links": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["a", "b"],
                "additionalProperties": False,
                "properties": {
                    "a": {"type": "string"},
                    "b": {"type": "string"},
                    "loss": {"type": "number", "minimum": 0.0,
                             "maximum": 1.0},
                    "delay_us": {"type": "integer", "minimum": 0},
                },
            },
        },
        "workload": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["t_us", "node", "op"],
                "additionalProperties": False,
                "properties": {
                    "t_us": {"type": "integer", "minimum": 0},
                    "node": {"type": "string"},
                    "op": {"enum": ["open", "send"]},
                    "args": {"type": "object"},
                },
            },
        },
    },
}

_OPEN_ARGS = {
    "type": "object",
    "required": ["port"],
    "additionalProperties": False,
    "properties": {
        "port": {"type": "integer", "minimum": 0, "maximum": 65535},
        "app": {"enum": ["echo", "sink"]},
        "queue_capacity": {"type": "integer", "minimum": 1},
    },
}

_SEND_ARGS = {
    "type": "object",
    "required": ["src_port", "dst", "dst_port", "size"],
    "additionalProperties": False,
    "properties": {
        "src_port": {"type": "integer", "minimum": 0, "maximum": 65535},
        "dst": {"type": "string"},
        "dst_port": {"type": "integer", "minimum": 0, "maximum": 65535},
        "size": {"type": "integer", "minimum": 1,
                 "maximum": udp.MAX_PAYLOAD},
        "count": {"type": "integer", "minimum": 1},
        "interval_us": {"type": "integer", "minimum": 0},
    },
}


@functools.cache
def _jsonschema():
    """jsonschema's validator class for a scenario and its validators of
    the document and of each op's args.  Built on the first refused
    document: a valid one never imports jsonschema."""
    import jsonschema
    # JSON Schema counts 7.0 as an integer, and the stack needs an int
    validator = jsonschema.validators.extend(
        jsonschema.Draft202012Validator,
        type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
            "integer", lambda _, value: type(value) is int))
    return validator, {"doc": validator(SCHEMA),
                       "open": validator(_OPEN_ARGS),
                       "send": validator(_SEND_ARGS)}

_KEYWORDS = {"$schema", "type", "const", "enum", "minimum", "maximum",
             "minLength", "pattern", "minItems", "items", "required",
             "properties", "additionalProperties"}
# the Python types of a JSON type; bool is neither integer nor number
_TYPES = {"object": (dict,), "array": (list,), "string": (str,),
          "integer": (int,), "number": (int, float)}
_NUMBER = _TYPES["number"]
# the keywords whose own check refuses any value not of the JSON type
_TYPED_BY = {"object": {"required", "properties", "additionalProperties"},
             "array": {"minItems", "items"},
             "string": {"minLength", "pattern"}}


def _one_of(values: list):
    # for str, int and float values jsonschema's equality is Python's
    types = {type(e) for e in values}
    if not types <= {str, int, float}:
        raise ValueError(f"no fast check for the values {values!r}")
    values = set(values)
    return lambda v: type(v) in types and v in values


def _predicate(schema: dict):
    """Compile ``schema`` into a check that accepts nothing jsonschema's
    validator refuses, though it may refuse more: each keyword also
    refuses a value of a type it does not apply to.  A keyword without a
    check here is an error, not a hole."""
    unknown = schema.keys() - _KEYWORDS
    if unknown or schema.get("additionalProperties", False) is not False:
        raise ValueError(f"no fast check for {sorted(unknown)} or for an "
                         "additionalProperties other than false")
    s, checks = schema, []
    if s.keys() & _TYPED_BY["object"]:  # one pass over an object's keys
        props = {k: _predicate(sub)
                 for k, sub in s.get("properties", {}).items()}
        required = set(s.get("required", ()))
        closed = "additionalProperties" in s

        def obj(v):
            if type(v) is not dict or not v.keys() >= required:
                return False
            if closed and not v.keys() <= props.keys():
                return False
            for k, x in v.items():
                prop = props.get(k)
                if prop is not None and not prop(x):
                    return False
            return True
        checks.append(obj)
    if "type" in s and not s.keys() & _TYPED_BY.get(s["type"], set()):
        checks.append(lambda v, types=_TYPES[s["type"]]: type(v) in types)
    if "const" in s:
        checks.append(_one_of([s["const"]]))
    if "enum" in s:
        checks.append(_one_of(s["enum"]))
    if "minimum" in s or "maximum" in s:
        low, high = s.get("minimum", -math.inf), s.get("maximum", math.inf)
        checks.append(lambda v: type(v) in _NUMBER and low <= v <= high)
    if "minLength" in s:
        checks.append(lambda v, n=s["minLength"]:
                      type(v) is str and len(v) >= n)
    if "pattern" in s:  # re.search, as jsonschema does
        search = re.compile(s["pattern"]).search
        checks.append(lambda v: type(v) is str and search(v) is not None)
    if "minItems" in s:
        checks.append(lambda v, n=s["minItems"]:
                      type(v) is list and len(v) >= n)
    if "items" in s:
        item = _predicate(s["items"])
        checks.append(lambda v: type(v) is list and all(map(item, v)))
    if len(checks) == 1:
        return checks[0]

    def check(v):
        for c in checks:
            if not c(v):
                return False
        return True
    return check


class ScenarioError(Exception):
    """Invalid scenario document; ``pointer`` locates the offending field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(f"{pointer or '/'}: {message}" if pointer
                         else message)
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


def _pointer(error) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


@functools.lru_cache(maxsize=1024)
def _packed_ip(text: str) -> bytes:
    """The 16 bytes of the IPv6 address ``text``, parsed once per distinct
    text: a document names few addresses, each several times.  A refused
    text raises ``ValueError``, which the cache does not keep."""
    addr = IPv6Address(text)
    if addr.scope_id is not None:  # .packed would drop the zone
        raise ValueError(f"{text!r} has a zone; an address here has none")
    return addr.packed


def _parse_ip(text: str, *where) -> bytes:
    """``text`` as packed bytes, or ``ScenarioError`` at the pointer whose
    parts are ``where``, joined only then."""
    try:
        return _packed_ip(text)
    except ValueError as exc:
        pointer = "/" + "/".join(map(str, where))
        raise ScenarioError(str(exc), pointer) from None


_CHECK_DOC = _predicate(SCHEMA)
_CHECK_ARGS = {"open": _predicate(_OPEN_ARGS), "send": _predicate(_SEND_ARGS)}


def validate_document(doc: dict) -> None:
    if _CHECK_DOC(doc) and all(_CHECK_ARGS[item["op"]](item.get("args", {}))
                               for item in doc.get("workload", ())):
        return
    # refused: jsonschema finds and names the error (or, rarely, none)
    validators = _jsonschema()[1]
    errors = sorted(validators["doc"].iter_errors(doc),
                    key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        raise ScenarioError(err.message, _pointer(err))
    # per-op argument shapes (schema conditionals kept out for readable errors)
    for i, item in enumerate(doc.get("workload", ())):
        validator = validators[item["op"]]  # the document passed: a known op
        for err in validator.iter_errors(item.get("args", {})):
            raise ScenarioError(err.message,
                                f"/workload/{i}/args" + _pointer(err))


def _given(doc: dict, *keys) -> dict:
    """The named fields that ``doc`` sets, to pass on as keywords."""
    return {k: doc[k] for k in keys if k in doc}


def _node_desc(nj: dict, index: int) -> NodeDesc:
    offload = "offload" in nj["modules"]
    if offload and len(nj["modules"]) > 1:
        raise ScenarioError("offload replaces the whole stack",
                            f"/nodes/{index}/modules")
    if not offload and sorted(nj["modules"]) != sorted(STACK_MODULES):
        raise ScenarioError(f"modules must be {STACK_MODULES} or [offload]",
                            f"/nodes/{index}/modules")
    address = (_parse_ip(nj["address"], "nodes", index, "address")
               if "address" in nj else None)
    devices = [DeviceDesc(addr_short=bytes.fromhex(dj["addr_short"]),
                          addr_long=bytes.fromhex(dj["addr_long"]))
               for dj in nj.get("devices", ())]
    iface_addrs = {}
    for k, ia in enumerate(nj.get("iface_addrs", ())):
        if ia["iface"] in iface_addrs:  # one address per interface
            raise ScenarioError(f"interface {ia['iface']} is given twice",
                                f"/nodes/{index}/iface_addrs/{k}/iface")
        iface_addrs[ia["iface"]] = (
            _parse_ip(ia["addr"], "nodes", index, "iface_addrs", k, "addr"),
            ia.get("prefix_len", IFACE_PREFIX_LEN))
    routes = [RouteDesc(prefix=_parse_ip(rj["prefix"], "nodes", index,
                                         "routes", k, "prefix"),
                        prefix_len=rj["prefix_len"], iface=rj["iface"],
                        next_hop=(_parse_ip(rj["next_hop"], "nodes", index,
                                            "routes", k, "next_hop")
                                  if "next_hop" in rj else None))
              for k, rj in enumerate(nj.get("routes", ()))]
    neighbors = [(_parse_ip(ng["addr"], "nodes", index, "neighbors", k,
                            "addr"),
                  bytes.fromhex(ng["link"]))
                 for k, ng in enumerate(nj.get("neighbors", ()))]
    opts = _given(nj, "offload_peer", "buffer_capacity", "neighbor_cache")
    if "backend" in nj:
        opts["backend"] = Backend[nj["backend"]]
    return NodeDesc(
        name=nj["name"], devices=devices, address=address,
        iface_addrs=iface_addrs, routes=routes, neighbors=neighbors,
        offload=offload, **opts)


def load_scenario(doc: dict) -> Scenario:
    validate_document(doc)
    nodes = [_node_desc(nj, i) for i, nj in enumerate(doc["nodes"])]
    addr_of = {nd.name: nd.address for nd in nodes}
    # the schema admits exactly the fields of LinkDesc
    links = [LinkDesc(**lj) for lj in doc.get("links", ())]
    # ops in the order apply_workload runs them: by t_us, ties in document
    # order.  A send opens its src_port unless it is open already, so only
    # an open can find its port taken.
    workload, opened = [], set()
    for i, wj in sorted(enumerate(doc.get("workload", ())),
                        key=lambda item: item[1]["t_us"]):
        if wj["node"] not in addr_of:
            raise ScenarioError(f"unknown node {wj['node']!r}",
                                f"/workload/{i}/node")
        op = WorkloadOp(t_us=wj["t_us"], node=wj["node"], op=wj["op"],
                        args=wj.get("args", {}))
        if op.op == "open":
            key = (op.node, op.args["port"])
            if key in opened:
                raise ScenarioError(f"port {key[1]} of node {op.node!r} is "
                                    "already open", f"/workload/{i}/args/port")
        else:
            key = (op.node, op.args["src_port"])
            dst = op.args["dst"]
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
    book = {"sockets": {}, "sends": 0, "received": {}}

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
        key = (op.node, op.args["port"])
        if op.args.get("app") == "echo":
            def bounce(s):
                src_ip, src_port, payload = s.recvfrom()
                send(s, src_ip, src_port, payload)
            sock.on_ready = bounce
        elif op.args.get("app") == "sink":
            # consume immediately so queued payloads never hold the buffer
            def drain(s, k=key):
                while s.recv_nowait() is not None:
                    book["received"][k] = book["received"].get(k, 0) + 1
            sock.on_ready = drain
        book["sockets"][key] = sock

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
        received = book["received"].get((node, port), 0)
        while sock.recv_nowait() is not None:
            received += 1
        sockets[f"{node}:{port}"] = {"received": received}
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
