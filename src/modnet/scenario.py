"""Scenario files: versioned JSON description of a topology plus a timed
workload, validated against a schema with JSON-pointer error reporting.

A scenario is the unit the command line runs: nodes (with their stack
flavor and addressing), links, a seed, and a list of timed socket
operations.  Loading produces the same ``Topology`` the tests build by
hand, so behavior is identical either way: a field the document leaves
out is not passed, and the description's own default applies.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from ipaddress import IPv6Address

import jsonschema

from .ipv6 import NEIGHBOR_CACHES
from .pktbuf import Backend
from .simnet import (DeviceDesc, LinkDesc, NodeDesc, RouteDesc, Simulator,
                     Topology, build)

SCHEMA_VERSION = 1

STACK_MODULES = ["link", "6lowpan", "ipv6", "udp"]

_HEX = {"type": "string", "pattern": "^([0-9a-fA-F]{2})+$"}
_ADDR = {"type": "string", "minLength": 2}

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
                                "mtu": {"type": "integer", "minimum": 18},
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
                                "prefix_len": {"type": "integer",
                                               "minimum": 0, "maximum": 128},
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
                                "prefix_len": {"type": "integer",
                                               "minimum": 0, "maximum": 128},
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
                    "buffer_capacity": {"type": "integer", "minimum": 256},
                    "backend": {"enum": [b.name for b in Backend]},
                    "reserve_frac": {"type": "number",
                                     "minimum": 0.0, "maximum": 0.9},
                    "neighbor_cache": {"enum": list(NEIGHBOR_CACHES)},
                    "mailbox_capacity": {"type": "integer", "minimum": 1},
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
        "size": {"type": "integer", "minimum": 1, "maximum": 1192},
        "count": {"type": "integer", "minimum": 1},
        "interval_us": {"type": "integer", "minimum": 0},
    },
}


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


@dataclass
class Scenario:
    topology: Topology
    workload: list[WorkloadOp]
    version: int = SCHEMA_VERSION


def _pointer(error: jsonschema.ValidationError) -> str:
    return "/" + "/".join(str(p) for p in error.absolute_path)


def _parse_ip(text: str, pointer: str) -> bytes:
    try:
        return IPv6Address(text).packed
    except ValueError as exc:
        raise ScenarioError(str(exc), pointer) from None


def validate_document(doc: dict) -> None:
    validator = jsonschema.Draft202012Validator(SCHEMA)
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        err = errors[0]
        raise ScenarioError(err.message, _pointer(err))
    # per-op argument shapes (schema conditionals kept out for readable errors)
    for i, item in enumerate(doc.get("workload", ())):
        sub = _OPEN_ARGS if item["op"] == "open" else _SEND_ARGS
        args_validator = jsonschema.Draft202012Validator(sub)
        for err in args_validator.iter_errors(item.get("args", {})):
            raise ScenarioError(err.message,
                                f"/workload/{i}/args" + _pointer(err))


def _given(doc: dict, *keys) -> dict:
    """The named fields that ``doc`` sets, to pass on as keywords."""
    return {k: doc[k] for k in keys if k in doc}


def _node_desc(nj: dict, index: int, names: set[str]) -> NodeDesc:
    base = f"/nodes/{index}"
    offload = "offload" in nj["modules"]
    if offload and len(nj["modules"]) > 1:
        raise ScenarioError("offload replaces the whole stack",
                            base + "/modules")
    if not offload and sorted(nj["modules"]) != sorted(STACK_MODULES):
        raise ScenarioError(f"modules must be {STACK_MODULES} or [offload]",
                            base + "/modules")
    address = (_parse_ip(nj["address"], base + "/address")
               if "address" in nj else None)
    devices = [DeviceDesc(addr_short=bytes.fromhex(dj["addr_short"]),
                          addr_long=bytes.fromhex(dj["addr_long"]),
                          **_given(dj, "mtu"))
               for dj in nj.get("devices", ())]
    for j, dev in enumerate(devices):
        if len(dev.addr_short) != 2 or len(dev.addr_long) != 8:
            raise ScenarioError("addresses must be 2 and 8 bytes",
                                f"{base}/devices/{j}")
    iface_addrs = {ia["iface"]: (_parse_ip(ia["addr"],
                                           f"{base}/iface_addrs/{k}/addr"),
                                 ia.get("prefix_len", 64))
                   for k, ia in enumerate(nj.get("iface_addrs", ()))}
    routes = [RouteDesc(prefix=_parse_ip(rj["prefix"],
                                         f"{base}/routes/{k}/prefix"),
                        prefix_len=rj["prefix_len"], iface=rj["iface"],
                        next_hop=(_parse_ip(rj["next_hop"],
                                            f"{base}/routes/{k}/next_hop")
                                  if "next_hop" in rj else None))
              for k, rj in enumerate(nj.get("routes", ()))]
    neighbors = [(_parse_ip(ng["addr"], f"{base}/neighbors/{k}/addr"),
                  bytes.fromhex(ng["link"]))
                 for k, ng in enumerate(nj.get("neighbors", ()))]
    peer = nj.get("offload_peer")
    if peer is not None and peer not in names:
        raise ScenarioError(f"unknown node {peer!r}", base + "/offload_peer")
    opts = _given(nj, "buffer_capacity", "reserve_frac", "neighbor_cache",
                  "mailbox_capacity")
    if "backend" in nj:
        opts["backend"] = Backend[nj["backend"]]
    return NodeDesc(
        name=nj["name"], devices=devices, address=address,
        iface_addrs=iface_addrs, routes=routes, neighbors=neighbors,
        offload=offload, offload_peer=peer, **opts)


def load_scenario(doc: dict) -> Scenario:
    validate_document(doc)
    names = {nj["name"] for nj in doc["nodes"]}
    if len(names) != len(doc["nodes"]):
        raise ScenarioError("duplicate node names", "/nodes")
    nodes = [_node_desc(nj, i, names) for i, nj in enumerate(doc["nodes"])]
    # the schema admits exactly the fields of LinkDesc
    links = [LinkDesc(**lj) for lj in doc.get("links", ())]
    workload = []
    for i, wj in enumerate(doc.get("workload", ())):
        if wj["node"] not in names:
            raise ScenarioError(f"unknown node {wj['node']!r}",
                                f"/workload/{i}/node")
        workload.append(WorkloadOp(t_us=wj["t_us"], node=wj["node"],
                                   op=wj["op"], args=wj.get("args", {})))
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


def _resolve_dst(sim: Simulator, text: str, names: dict) -> bytes:
    if text in names:
        return names[text]
    return IPv6Address(text).packed


def apply_workload(sim: Simulator, scenario: Scenario) -> dict:
    """Schedule the workload ops and return the bookkeeping dict that
    ``collect_stats`` later reads (opened sockets, expected sends)."""
    addr_of = {nd.name: nd.address for nd in scenario.topology.nodes
               if nd.address is not None}
    book = {"sockets": {}, "sends": 0, "received": {}}

    def do_open(op: WorkloadOp):
        layer = sim.socket_layer(op.node)
        sock = layer.open(op.args["port"],
                          **_given(op.args, "queue_capacity"))
        key = (op.node, op.args["port"])
        if op.args.get("app") == "echo":
            def bounce(s):
                src_ip, src_port, payload = s.recvfrom(timeout_us=0)
                s.sendto(src_ip, src_port, payload)
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
        dst = _resolve_dst(sim, op.args["dst"], addr_of)
        payload = bytes((i * 7 + 13) & 0xFF
                        for i in range(op.args["size"]))
        count = op.args.get("count", 1)
        interval = op.args.get("interval_us", 0)

        def fire(k=0):
            sock.sendto(dst, op.args["dst_port"], payload)
            book["sends"] += 1
            if k + 1 < count:
                sim.sched.call_later(max(interval, 1), lambda: fire(k + 1))

        fire()

    for op in sorted(scenario.workload, key=lambda o: o.t_us):
        fn = do_open if op.op == "open" else do_send
        sim.sched.call_at(op.t_us, lambda o=op, f=fn: f(o))
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
    out["trace_lines"] = len(sim.sched.trace)
    return out


def run_scenario(scenario: Scenario, mode: str = "det",
                 until: int | None = None) -> tuple[Simulator, dict]:
    """Build, run to quiescence (or to the time bound ``until``), and
    collect stats."""
    sim = build(scenario.topology, mode=mode)
    book = apply_workload(sim, scenario)
    try:
        sim.run_until(until)
        stats = collect_stats(sim, book)
    finally:
        sim.stop()
    return sim, stats
