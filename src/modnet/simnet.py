"""Deterministic multi-node simulation: topology description, lossy/delayed
medium between device handles, and full stack assembly per node.

``check_topology`` holds every rule on how nodes, devices, neighbours and
links fit together.  ``Simulator`` runs it before it creates anything, and
it raises ``InvalidTopology`` with a JSON pointer such as ``/links/0/b``.

Determinism contract: identical seed + topology + workload produce a
bit-identical trace log in deterministic scheduler mode.  All loss draws
come from the single seeded generator; event ties break by insertion order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial

from .ipv6 import (IFACE_PREFIX_LEN, NEIGHBOR_CACHES, ON_LINK,
                   ForwardingTable, Ipv6Module)
from .link import LinkModule
from .metrics import Metrics
from .netdev import SimRadioDevice
from .offload import OffloadModule
from .pktbuf import Backend, buffer_create
from .runtime import DetScheduler, Node, ThreadScheduler
from .sixlowpan import SixlowpanModule
from .udp import SocketLayer, UdpModule


class InvalidTopology(Exception):
    """A topology that cannot be built; ``pointer`` locates the field."""

    def __init__(self, message: str, pointer: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass
class DeviceDesc:
    addr_short: bytes
    addr_long: bytes


@dataclass
class RouteDesc:
    prefix: bytes
    prefix_len: int
    iface: int
    next_hop: bytes | None = None  # None means on-link


@dataclass
class NodeDesc:
    name: str
    devices: list[DeviceDesc] = field(default_factory=list)
    address: bytes | None = None  # primary IPv6 address
    iface_addrs: dict[int, tuple[bytes, int]] = field(default_factory=dict)
    routes: list[RouteDesc] = field(default_factory=list)
    neighbors: list[tuple[bytes, bytes]] = field(default_factory=list)
    offload: bool = False
    offload_peer: str | None = None
    buffer_capacity: int = 2048
    backend: Backend = Backend.STATIC_ARENA
    neighbor_cache: str = "RING"


@dataclass
class LinkDesc:
    a: str  # "node" or "node:devindex"
    b: str
    loss: float = 0.0
    delay_us: int = 1


@dataclass
class Topology:
    nodes: list[NodeDesc]
    links: list[LinkDesc] = field(default_factory=list)
    seed: int = 1


def check_topology(topology: Topology) -> None:
    """Raise ``InvalidTopology`` at the first field that breaks a rule."""
    nodes: dict[str, NodeDesc] = {}
    for i, nd in enumerate(topology.nodes):
        at = f"/nodes/{i}"
        if nd.name in nodes:
            raise InvalidTopology(f"duplicate node name {nd.name!r}",
                                  at + "/name")
        nodes[nd.name] = nd
        if nd.address is None:
            raise InvalidTopology("every node needs an IPv6 address",
                                  at + "/address")
        if not (nd.offload or nd.devices):
            raise InvalidTopology("a stack node needs a device",
                                  at + "/devices")
        for j, dd in enumerate(nd.devices):
            if len(dd.addr_short) != 2 or len(dd.addr_long) != 8:
                raise InvalidTopology("addresses must be 2 and 8 bytes",
                                      f"{at}/devices/{j}")
        for k, (_, link_addr) in enumerate(nd.neighbors):
            if len(link_addr) != 8:
                raise InvalidTopology("link address must be 8 bytes",
                                      f"{at}/neighbors/{k}/link")
        if not isinstance(nd.backend, Backend):
            raise InvalidTopology(f"backend {nd.backend!r} is not a "
                                  "pktbuf.Backend", at + "/backend")
        if not (type(nd.neighbor_cache) is str
                and nd.neighbor_cache in NEIGHBOR_CACHES):
            raise InvalidTopology(f"no neighbor cache {nd.neighbor_cache!r}",
                                  at + "/neighbor_cache")
        for key, entries in (
                ("iface_addrs", [(iface, plen) for iface, (_, plen)
                                 in nd.iface_addrs.items()]),
                ("routes", [(rt.iface, rt.prefix_len) for rt in nd.routes])):
            for k, (iface, plen) in enumerate(entries):
                if not (nd.offload or 0 <= iface < len(nd.devices)):
                    raise InvalidTopology(f"interface {iface} names no "
                                          "device", f"{at}/{key}/{k}/iface")
                if type(plen) is not int or not 0 <= plen <= 128:
                    raise InvalidTopology(f"prefix length {plen!r} is not "
                                          "an int in 0..128",
                                          f"{at}/{key}/{k}/prefix_len")
    for i, nd in enumerate(topology.nodes):
        peer = nodes.get(nd.offload_peer)
        if nd.offload_peer is not None and not (
                nd.offload and peer is not None and peer is not nd
                and peer.offload):
            raise InvalidTopology("an offload node's peer must be another "
                                  "offload node", f"/nodes/{i}/offload_peer")
    linked = set()  # each pair of devices, as {(node, device index), ...}
    for i, ld in enumerate(topology.links):
        at = f"/links/{i}"
        ends = []
        for end in ("a", "b"):
            spec = getattr(ld, end)
            name, colon, idx = spec.partition(":")
            if name not in nodes:
                raise InvalidTopology(f"unknown node {name!r}", f"{at}/{end}")
            if (colon and not (idx.isascii() and idx.isdigit())
                    or int(idx or 0) >= len(nodes[name].devices)):
                raise InvalidTopology(f"{spec!r} names no device",
                                      f"{at}/{end}")
            ends.append((name, int(idx or 0)))
        if ends[0] == ends[1]:
            raise InvalidTopology("a link joins a device to itself", at)
        if frozenset(ends) in linked:
            raise InvalidTopology("an earlier link joins the same devices",
                                  at)
        linked.add(frozenset(ends))
        if not 0.0 <= ld.loss <= 1.0:
            raise InvalidTopology(f"loss {ld.loss} out of [0, 1]",
                                  at + "/loss")
        if ld.delay_us < 0:
            raise InvalidTopology(f"negative delay {ld.delay_us}",
                                  at + "/delay_us")


class Medium:
    """Point-to-point links between devices.  A transmit draws loss once
    and applies it to every attached link (star-of-links broadcast model);
    TX_DONE is scheduled before any RX so causality holds at equal delays."""

    def __init__(self, sched, rng: random.Random, metrics: Metrics):
        self.sched = sched
        self.rng = rng
        self.metrics = metrics
        self._adj: dict[int, list[tuple[SimRadioDevice, float, int]]] = {}

    def link(self, dev_a: SimRadioDevice, dev_b: SimRadioDevice,
             loss: float, delay_us: int):
        self._adj.setdefault(id(dev_a), []).append((dev_b, loss, delay_us))
        self._adj.setdefault(id(dev_b), []).append((dev_a, loss, delay_us))

    def transmit(self, dev: SimRadioDevice, frame: bytes):
        sched, metrics, now = self.sched, self.metrics, self.sched.now_us
        sched.call_at(now, dev._tx_done)
        metrics.count("frames_sent")
        draw = self.rng.random()  # one draw shared by the broadcast star
        keep = 1.0 - dev.loss_rate
        for peer, loss, delay_us in self._adj.get(id(dev), ()):
            eff = 1.0 - (1.0 - loss) * keep
            if draw < eff:
                metrics.count("frames_lost")
                continue
            metrics.count("frames_delivered")
            sched.call_at(now + delay_us, partial(peer._rx_frame, frame))


class Simulator:
    """Built topology: scheduler, nodes with assembled stacks, medium."""

    def __init__(self, topology: Topology, mode: str = "det",
                 record: bool = False):
        if mode not in ("det", "par"):
            raise ValueError(f"mode must be 'det' or 'par', got {mode!r}")
        check_topology(topology)  # before a par pool has any worker
        self.topology = topology
        self.mode = mode
        self.sched = (DetScheduler if mode == "det" else ThreadScheduler)(
            record=record)
        self.metrics = self.sched.metrics
        self.rng = random.Random(topology.seed)
        self.medium = Medium(self.sched, self.rng, self.metrics)
        self.nodes: dict[str, Node] = {}
        try:
            for nd in topology.nodes:
                self._build_node(nd)
            for nd in topology.nodes:
                if nd.offload_peer is not None:
                    self.nodes[nd.name].modules["offload"].handler.peer = (
                        self.nodes[nd.offload_peer].modules["offload"])
            for ld in topology.links:
                dev_a = self._resolve_endpoint(ld.a)
                dev_b = self._resolve_endpoint(ld.b)
                self.medium.link(dev_a, dev_b, ld.loss, ld.delay_us)
        except BaseException:
            self.sched.stop()  # nobody else can stop a par pool's workers
            raise

    # -- construction -----------------------------------------------------
    def _resolve_endpoint(self, spec: str) -> SimRadioDevice:
        name, _, idx = spec.partition(":")
        return self.nodes[name].devices[int(idx or 0)]

    def _build_node(self, nd: NodeDesc):
        buf = buffer_create(nd.buffer_capacity, nd.backend,
                            locked=self.sched.parallel)
        node = Node(nd.name, self.sched, buf)
        self.nodes[nd.name] = node
        for i, dd in enumerate(nd.devices):
            dev = SimRadioDevice(i, dd.addr_short, dd.addr_long)
            node.devices.append(dev)
            dev.medium = self.medium

        if nd.offload:
            transport = node.spawn_module("offload",
                                          OffloadModule(nd.address))
        else:
            iface_addrs = (dict(nd.iface_addrs)
                           or {0: (nd.address, IFACE_PREFIX_LEN)})
            fwd = ForwardingTable()
            for rt in nd.routes:
                fwd.add(rt.prefix, rt.prefix_len, rt.iface,
                        rt.next_hop if rt.next_hop is not None else ON_LINK)
            ncache = NEIGHBOR_CACHES[nd.neighbor_cache]()
            for ip, link_addr in nd.neighbors:
                ncache.insert(ip, link_addr)
            # bottom-up, so each layer is built with the context below it
            links = {dev.id: node.spawn_module(f"link{dev.id}",
                                               LinkModule(dev))
                     for dev in node.devices}
            adapt = node.spawn_module("6lo", SixlowpanModule(links))
            net = node.spawn_module("ipv6", Ipv6Module(
                nd.address, iface_addrs, ncache, fwd, adapt))
            transport = node.spawn_module("udp", UdpModule(nd.address, net))
        node.spawn_module("sock", SocketLayer(transport),
                          mailbox_capacity=16, aux=True)

    # -- execution --------------------------------------------------------
    def socket_layer(self, node_name: str) -> SocketLayer:
        return self.nodes[node_name].aux["sock"].handler

    def run_until(self, t_us: int | None = None):
        """Run to time ``t_us``, or to quiescence without one."""
        self.sched.run_until(t_us)

    def stop(self):
        self.sched.stop()


def build(topology: Topology, mode: str = "det",
          record: bool = False) -> Simulator:
    """Build ``topology``; ``record`` keeps the message trace and the
    per-packet copy ledger (see ``runtime``)."""
    return Simulator(topology, mode, record)
