"""Deterministic multi-node simulation: topology description, lossy/delayed
medium between device handles, and full stack assembly per node.

Determinism contract: identical seed + topology + workload produce a
bit-identical trace log in deterministic scheduler mode.  All loss draws
come from the single seeded generator; event ties break by insertion order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .ipv6 import (ForwardingTable, Ipv6Module, ON_LINK, make_neighbor_cache)
from .link import LinkModule
from .metrics import Metrics
from .netdev import MAX_FRAME, SimRadioDevice
from .offload import OffloadModule
from .pktbuf import RESERVE_FRAC, Backend, buffer_create
from .runtime import (MAILBOX_CAPACITY, DetScheduler, ModuleDesc, Node,
                      ThreadScheduler)
from .sixlowpan import SixlowpanModule
from .udp import SocketLayer, UdpModule


class InvalidTopology(Exception):
    pass


@dataclass
class DeviceDesc:
    addr_short: bytes
    addr_long: bytes
    mtu: int = MAX_FRAME


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
    reserve_frac: float = RESERVE_FRAC
    neighbor_cache: str = "RING"
    mailbox_capacity: int = MAILBOX_CAPACITY


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
        if not 0.0 <= loss <= 1.0:
            raise InvalidTopology(f"loss {loss} out of [0, 1]")
        if delay_us < 0:
            raise InvalidTopology(f"negative delay {delay_us}")
        self._adj.setdefault(id(dev_a), []).append((dev_b, loss, delay_us))
        self._adj.setdefault(id(dev_b), []).append((dev_a, loss, delay_us))

    def transmit(self, dev: SimRadioDevice, frame: bytes):
        now = self.sched.now_us
        self.sched.call_at(now, dev._tx_done)
        self.metrics.count("frames_sent")
        draw = self.rng.random()  # one draw shared by the broadcast star
        for peer, loss, delay_us in self._adj.get(id(dev), ()):
            eff = 1.0 - (1.0 - loss) * (1.0 - dev.loss_rate)
            if draw < eff:
                self.metrics.count("frames_lost")
                continue
            self.metrics.count("frames_delivered")
            self.sched.call_at(now + delay_us,
                               lambda p=peer, f=frame: p._rx_frame(f))


class Simulator:
    """Built topology: scheduler, nodes with assembled stacks, medium."""

    def __init__(self, topology: Topology, mode: str = "det"):
        if mode not in ("det", "par"):
            raise ValueError(f"mode must be 'det' or 'par', got {mode!r}")
        self.topology = topology
        self.mode = mode
        self.sched = DetScheduler() if mode == "det" else ThreadScheduler()
        self.metrics = self.sched.metrics
        self.rng = random.Random(topology.seed)
        self.medium = Medium(self.sched, self.rng, self.metrics)
        self.nodes: dict[str, Node] = {}
        self._offload_mods: dict[str, OffloadModule] = {}
        try:
            names = [nd.name for nd in topology.nodes]
            if len(names) != len(set(names)):
                raise InvalidTopology("duplicate node names")
            for nd in topology.nodes:
                self._build_node(nd)
            self._pair_offloads(topology)
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
        if name not in self.nodes:
            raise InvalidTopology(f"unknown node {name!r} in link")
        devices = self.nodes[name].devices
        i = int(idx) if idx else 0
        if i >= len(devices):
            raise InvalidTopology(f"node {name!r} has no device {i}")
        return devices[i]

    def _build_node(self, nd: NodeDesc):
        buf = buffer_create(nd.buffer_capacity, nd.backend, nd.reserve_frac,
                            locked=self.sched.parallel)
        node = Node(nd.name, self.sched, buf)
        self.nodes[nd.name] = node
        for i, dd in enumerate(nd.devices):
            dev = SimRadioDevice(i, dd.addr_short, dd.addr_long, dd.mtu)
            node.devices.append(dev)
            dev.medium = self.medium

        node.spawn_module(ModuleDesc("sock", SocketLayer(),
                                     mailbox_capacity=16, stack_note=0),
                          aux=True)

        if nd.offload:
            if nd.address is None:
                raise InvalidTopology(f"offload node {nd.name} needs address")
            mod = OffloadModule(nd.address)
            ctx = node.spawn_module(ModuleDesc(
                "offload", mod, mailbox_capacity=nd.mailbox_capacity))
            node.wiring["transport"] = ctx
            self._offload_mods[nd.name] = mod
            return

        if nd.address is None:
            raise InvalidTopology(f"node {nd.name} needs an IPv6 address")
        iface_addrs = dict(nd.iface_addrs) or {0: (nd.address, 64)}
        fwd = ForwardingTable()
        for rt in nd.routes:
            fwd.add(rt.prefix, rt.prefix_len, rt.iface,
                    rt.next_hop if rt.next_hop is not None else ON_LINK)
        ncache = make_neighbor_cache(nd.neighbor_cache)
        for ip, link_addr in nd.neighbors:
            ncache.insert(ip, link_addr)
        ipv6_mod = Ipv6Module(nd.address, iface_addrs, ncache, fwd)
        udp_mod = UdpModule(nd.address)

        for dev in node.devices:
            link_ctx = node.spawn_module(ModuleDesc(
                f"link{dev.id}", LinkModule(dev),
                mailbox_capacity=nd.mailbox_capacity))
            node.wiring[f"link{dev.id}"] = link_ctx
        adapt_ctx = node.spawn_module(ModuleDesc(
            "6lo", SixlowpanModule(), mailbox_capacity=nd.mailbox_capacity))
        ipv6_ctx = node.spawn_module(ModuleDesc(
            "ipv6", ipv6_mod, mailbox_capacity=nd.mailbox_capacity))
        udp_ctx = node.spawn_module(ModuleDesc(
            "udp", udp_mod, mailbox_capacity=nd.mailbox_capacity))
        node.wiring["adapt"] = adapt_ctx
        node.wiring["net"] = ipv6_ctx
        node.wiring["transport"] = udp_ctx

    def _pair_offloads(self, topology: Topology):
        for nd in topology.nodes:
            if nd.offload and nd.offload_peer:
                peer = self._offload_mods.get(nd.offload_peer)
                if peer is None:
                    raise InvalidTopology(
                        f"offload peer {nd.offload_peer!r} of {nd.name} "
                        "is not an offload node")
                self._offload_mods[nd.name].peer = peer.ctx

    # -- execution --------------------------------------------------------
    def socket_layer(self, node_name: str) -> SocketLayer:
        return self.nodes[node_name].aux["sock"].handler

    def run_until(self, t_us: int | None = None):
        """Run to time ``t_us``, or to quiescence without one."""
        return self.sched.run_until(t_us)

    def stop(self):
        self.sched.stop()


def build(topology: Topology, mode: str = "det") -> Simulator:
    return Simulator(topology, mode)
