"""Multi-node fabric topology: hosts, ToR switches, WAN links, routing.

The point-to-point harnesses elsewhere in this repo wire two devices with
one (possibly bonded) channel.  Planetary scale looks different: hosts
hang off top-of-rack switches, racks aggregate into WAN routers, and a
flow's packets cross several store-and-forward hops whose buffer / RTT /
loss / ECN profiles differ by orders of magnitude (a 100 m ToR uplink vs
a 3750 km WAN span).  This module models exactly that graph:

* :class:`FabricTopology` is the *description*: named nodes
  (``host`` / ``tor`` / ``wan``) and directed edges, each carrying its
  own :class:`~repro.common.config.ChannelConfig` profile.  Helper
  constructors build the canonical shapes (:func:`dumbbell`,
  :func:`two_tier`).
* :class:`FabricNetwork` is the *instantiation*: one
  :class:`~repro.net.channel.Channel` per directed edge (per-edge RNG
  substreams keep runs deterministic), shortest-path routing with
  deterministic tie-breaks, and store-and-forward packet relay.  Because
  every flow traversing an edge transmits through the same ``Channel``,
  the edge's serialization backlog, ECN marking and tail drops are shared
  across all of them -- the contention that makes fairness a question.

Hosts are leaves: routes never transit a ``host`` node, matching real
fabrics where NICs do not forward.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial

from repro.common.config import Bounded, ChannelConfig, bound
from repro.common.errors import ConfigError
from repro.net.channel import Channel
from repro.net.fluid import FluidLink
from repro.net.loss import LossModel
from repro.net.packet import Packet
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams

NODE_KINDS = ("host", "tor", "wan")


@dataclass(frozen=True)
class FabricNode(Bounded):
    """One vertex of the topology graph."""

    name: str = field(metadata=bound(gt=""))
    kind: str = field(metadata=bound(one_of=NODE_KINDS))


@dataclass(frozen=True)
class FabricEdge:
    """One directed edge and its channel profile."""

    src: str
    dst: str
    config: ChannelConfig
    loss: LossModel | None = None

    @property
    def cost(self) -> float:
        """Routing weight: propagation plus one-MTU serialization."""
        return self.config.one_way_delay + self.config.packet_time()


class FabricTopology:
    """Declarative multi-node graph: nodes, profiled edges, validation."""

    def __init__(self) -> None:
        self.nodes: dict[str, FabricNode] = {}
        self.edges: dict[tuple[str, str], FabricEdge] = {}
        self._adjacency: dict[str, list[str]] = {}

    # -- construction ----------------------------------------------------------

    def _add_node(self, name: str, kind: str) -> FabricNode:
        if name in self.nodes:
            raise ConfigError(f"node {name!r} already exists")
        node = FabricNode(name, kind)
        self.nodes[name] = node
        self._adjacency[name] = []
        return node

    def add_host(self, name: str) -> FabricNode:
        return self._add_node(name, "host")

    def add_switch(self, name: str, *, kind: str = "tor") -> FabricNode:
        if kind == "host":
            raise ConfigError("use add_host for host nodes")
        return self._add_node(name, kind)

    def add_link(
        self,
        a: str,
        b: str,
        config: ChannelConfig,
        *,
        loss_fwd: LossModel | None = None,
        loss_rev: LossModel | None = None,
    ) -> tuple[FabricEdge, FabricEdge]:
        """Install the two directed edges of one physical link."""
        for name in (a, b):
            if name not in self.nodes:
                raise ConfigError(f"unknown node {name!r}")
        if a == b:
            raise ConfigError(f"self-link on {a!r}")
        if (a, b) in self.edges or (b, a) in self.edges:
            raise ConfigError(f"{a!r} and {b!r} are already linked")
        fwd = FabricEdge(a, b, config, loss_fwd)
        rev = FabricEdge(b, a, config, loss_rev)
        self.edges[(a, b)] = fwd
        self.edges[(b, a)] = rev
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        return fwd, rev

    # -- queries ---------------------------------------------------------------

    @property
    def hosts(self) -> list[str]:
        return sorted(n for n, node in self.nodes.items() if node.kind == "host")

    def neighbors(self, name: str) -> list[str]:
        return sorted(self._adjacency[name])

    def edge(self, a: str, b: str) -> FabricEdge:
        try:
            return self.edges[(a, b)]
        except KeyError:
            raise ConfigError(f"no edge {a!r} -> {b!r}") from None

    def shortest_path(
        self,
        src: str,
        dst: str,
        *,
        exclude: frozenset[tuple[str, str]] = frozenset(),
    ) -> tuple[str, ...]:
        """Dijkstra over edge costs; hosts never transit.

        Ties break on (cost, hop count, lexicographic path), so routing
        is a pure function of the topology -- no RNG, no dict order.
        ``exclude`` removes directed edges from consideration (the edge
        health monitor passes its open-breaker set), so a degraded route
        is equally a pure function of (topology, excluded set).
        """
        for name in (src, dst):
            if name not in self.nodes:
                raise ConfigError(f"unknown node {name!r}")
        if src == dst:
            raise ConfigError(f"src and dst are both {src!r}")
        frontier: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, (src,))]
        best: dict[str, float] = {}
        while frontier:
            cost, hops, path = heapq.heappop(frontier)
            node = path[-1]
            if node == dst:
                return path
            if best.get(node, float("inf")) < cost:
                continue
            best[node] = cost
            if self.nodes[node].kind == "host" and node != src:
                continue  # hosts are leaves, never transit
            for nxt in self.neighbors(node):
                if nxt in path or (node, nxt) in exclude:
                    continue
                edge = self.edges[(node, nxt)]
                ncost = cost + edge.cost
                if ncost < best.get(nxt, float("inf")):
                    heapq.heappush(frontier, (ncost, hops + 1, path + (nxt,)))
        raise ConfigError(f"no route {src!r} -> {dst!r}")


# -- canonical shapes ----------------------------------------------------------


def dumbbell(
    *,
    left_hosts: int,
    right_hosts: int,
    host_link: ChannelConfig,
    bottleneck: ChannelConfig,
) -> FabricTopology:
    """``left_hosts`` -- torL == torR -- ``right_hosts``.

    The torL->torR edge is the single shared bottleneck every left-to-
    right flow must cross: the minimal topology where tenant isolation is
    a real question.
    """
    if left_hosts < 1 or right_hosts < 1:
        raise ConfigError("dumbbell needs >= 1 host on each side")
    topo = FabricTopology()
    topo.add_switch("torL")
    topo.add_switch("torR")
    topo.add_link("torL", "torR", bottleneck)
    for i in range(left_hosts):
        topo.add_host(f"hL{i}")
        topo.add_link(f"hL{i}", "torL", host_link)
    for i in range(right_hosts):
        topo.add_host(f"hR{i}")
        topo.add_link(f"hR{i}", "torR", host_link)
    return topo


def two_tier(
    *,
    tors: int,
    hosts_per_tor: int,
    host_link: ChannelConfig,
    wan_link: ChannelConfig,
    wan_routers: int = 1,
    host_uplinks: int = 1,
) -> FabricTopology:
    """``tors`` racks of ``hosts_per_tor`` hosts around a WAN core.

    Each ToR uplinks to every ``wan{w}`` router over its own WAN-profile
    link; inter-rack traffic crosses two WAN spans.  The default shape
    (one core router, single-homed hosts) is the smallest one with
    distinct intra-rack / WAN profiles and per-rack aggregation
    contention.  Redundancy knobs exist for survivability experiments:

    * ``wan_routers`` adds parallel core routers (every ToR links to every
      core), so one core or ToR uplink can die without partitioning.
    * ``host_uplinks`` multi-homes each host to that many consecutive
      ToRs (``h{t}-{h}`` connects to ``tor{t}``, ``tor{t+1}``, ... mod
      ``tors``), so a whole ToR can crash without stranding its rack.

    Names and routing stay identical to the historical shape at the
    defaults, so existing same-seed runs are unaffected.
    """
    if tors < 1 or hosts_per_tor < 1:
        raise ConfigError("two_tier needs >= 1 tor and >= 1 host per tor")
    if wan_routers < 1:
        raise ConfigError(f"need >= 1 WAN router, got {wan_routers}")
    if not 1 <= host_uplinks <= tors:
        raise ConfigError(
            f"host_uplinks must be in [1, tors={tors}], got {host_uplinks}"
        )
    topo = FabricTopology()
    for w in range(wan_routers):
        topo.add_switch(f"wan{w}", kind="wan")
    for t in range(tors):
        tor = f"tor{t}"
        topo.add_switch(tor)
        for w in range(wan_routers):
            topo.add_link(tor, f"wan{w}", wan_link)
    # Hosts attach after every ToR exists: multi-homing may wrap to tor0.
    for t in range(tors):
        for h in range(hosts_per_tor):
            host = f"h{t}-{h}"
            topo.add_host(host)
            for up in range(host_uplinks):
                topo.add_link(host, f"tor{(t + up) % tors}", host_link)
    return topo


# -- instantiation -------------------------------------------------------------


class _Transit:
    """Book-keeping for one packet in flight (a slotted hot-path record)."""

    __slots__ = ("path", "hop", "on_deliver")

    def __init__(
        self, path: tuple[str, ...], hop: int, on_deliver: Callable[[Packet], None]
    ):
        self.path = path
        self.hop = hop
        self.on_deliver = on_deliver


class _HopCache(dict):
    """Per path, the channel of each hop (``hops[i]`` carries ``path[i] ->
    path[i + 1]``), built from ``channels`` on first use."""

    def __init__(self, channels: dict[tuple[str, str], Channel]):
        super().__init__()
        self.channels = channels

    def __missing__(self, path: tuple[str, ...]) -> tuple[Channel, ...]:
        channels = self.channels
        hops = self[path] = tuple(channels[ab] for ab in zip(path, path[1:]))
        return hops


class FabricNetwork:
    """The built fabric: per-edge channels, routing tables, packet relay.

    ``send`` launches a packet from a source host toward a destination
    host along the cached shortest path; every hop transmits through that
    edge's shared :class:`Channel` (FIFO serialization, backlog, ECN,
    loss), and the packet's CE bit accumulates across hops exactly like
    an IP ECN field.  Delivery at the final host invokes the caller's
    ``on_deliver``; drops anywhere simply never deliver -- loss detection
    is the service layer's job (timeouts), as on a real fabric.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: FabricTopology,
        *,
        seed: int = 0,
    ):
        self.sim = sim
        self.topology = topology
        self.name = name = "fabric"
        self.streams = RngStreams(seed)
        self.channels: dict[tuple[str, str], Channel] = {}
        self._routes: dict[tuple[str, str], tuple[str, ...]] = {}
        #: Dropped with the route cache and by :meth:`replace_channel`.
        self._hops = _HopCache(self.channels)
        self._delay_cache: dict[tuple[str, str], float] = {}
        #: Precompiled fluid hop plans per path; ``None`` = ineligible.
        self._fluid_plans: dict[
            tuple[str, ...], tuple[tuple[FluidLink, float], ...] | None
        ] = {}
        self._inflight: dict[int, _Transit] = {}
        self.health = None  # optional EdgeHealthMonitor (fabric.health)
        self._route_listeners: list[Callable[[], None]] = []
        for (a, b), edge in sorted(topology.edges.items()):
            channel = Channel(
                sim,
                edge.config,
                rng=self.streams.get(f"{name}.edge.{a}->{b}"),
                loss=edge.loss,
                name=f"{name}.{a}->{b}",
            )
            channel.attach_sink(partial(self._on_edge_delivery, b))
            self.channels[(a, b)] = channel

    # -- routing ---------------------------------------------------------------

    def set_health(self, monitor) -> None:
        """Attach an edge-health monitor (see :mod:`repro.fabric.health`).

        From then on routing excludes edges whose breaker is open, and the
        monitor drives :meth:`routes_changed` on every breaker transition.
        """
        self.health = monitor

    def add_route_listener(self, callback: Callable[[], None]) -> None:
        """Register ``callback()`` fired after every route invalidation."""
        self._route_listeners.append(callback)

    def invalidate_routes(self) -> None:
        """Drop every cached path.

        Must be called after any topology mutation (and is called by the
        edge-health monitor on breaker transitions): the route cache is
        fill-only, so without invalidation mutated topologies would keep
        serving stale paths forever.
        """
        self._routes.clear()
        self._hops.clear()
        self._delay_cache.clear()
        self._fluid_plans.clear()

    def replace_channel(self, key: tuple[str, str], channel) -> None:
        """Re-bind the directed edge ``key`` (to a fault wrapper or back);
        packets in flight use the new channel from their next hop on."""
        self.channels[key] = channel
        self._hops.clear()

    def routes_changed(self) -> None:
        """Invalidate cached routes and notify listeners (service layers
        re-resolve their per-pair paths and rebind pacers)."""
        self.invalidate_routes()
        for callback in self._route_listeners:
            callback()

    def route(self, src: str, dst: str) -> tuple[str, ...]:
        key = (src, dst)
        path = self._routes.get(key)
        if path is None:
            exclude = (
                self.health.excluded() if self.health is not None else frozenset()
            )
            path = self.topology.shortest_path(src, dst, exclude=exclude)
            self._routes[key] = path
        return path

    def path_one_way_delay(self, src: str, dst: str) -> float:
        """Propagation plus per-hop one-MTU serialization along the route.

        Cached per (src, dst) -- it is a pure function of the resolved
        route -- and invalidated with the route cache; the fluid path
        calls this once per ACK, so recomputing the sum dominated its
        profile before caching.
        """
        key = (src, dst)
        delay = self._delay_cache.get(key)
        if delay is None:
            path = self.route(src, dst)
            delay = sum(
                self.topology.edge(a, b).cost for a, b in zip(path, path[1:])
            )
            self._delay_cache[key] = delay
        return delay

    def path_rtt(self, src: str, dst: str) -> float:
        return self.path_one_way_delay(src, dst) + self.path_one_way_delay(
            dst, src
        )

    def bottleneck_bps(self, src: str, dst: str) -> float:
        path = self.route(src, dst)
        return min(
            self.topology.edge(a, b).config.bandwidth_bps
            for a, b in zip(path, path[1:])
        )

    def uplink_bps(self, host: str) -> float:
        """Egress bandwidth of a host's (single or fastest) access link."""
        rates = [
            self.topology.edges[(host, peer)].config.bandwidth_bps
            for peer in self.topology.neighbors(host)
        ]
        return max(rates)

    # -- datapath --------------------------------------------------------------

    def send(
        self,
        src: str,
        dst: str,
        packet: Packet,
        on_deliver: Callable[[Packet], None],
    ) -> tuple[str, ...]:
        """Launch ``packet`` from host ``src`` toward host ``dst``.

        Raises :class:`ConfigError` when no route currently exists (all
        candidate paths cross open edges); the caller decides whether to
        wait for recovery or fail the flow (partition deadline).
        """
        if self.health is not None:
            # Lazy, RNG-free, event-free: the datapath drives breaker
            # evaluation so a drained simulation still terminates.
            self.health.on_datapath(self.sim.now)
        if packet.uid is None:
            raise ConfigError(
                "packet has no uid to track it by: build it with "
                "uid=sim.packet_uid()"
            )
        path = self.route(src, dst)
        self._inflight[packet.uid] = _Transit(path, 0, on_deliver)
        self._hops[path][0].transmit(packet)
        return path

    def fluid_path_eligible(self, path: tuple[str, ...]) -> bool:
        """True when every edge along ``path`` can be fluid-booked.

        A fluid booking resolves a segment's whole multi-hop journey at
        send time from each edge's fixed ``one_way_delay``.  Edges that
        perturb per-packet timing or copy packets (jitter, duplication)
        need per-packet RNG draws at transit time, so they force the
        event-driven relay.  Tail-drop buffers, ECN marking and wire-loss
        models are fine: :meth:`~repro.net.fluid.FluidLink.book` applies
        them against the edge's ring.  Subclassed channels (fault
        injectors) are never eligible -- their wrapped behavior is an
        epoch boundary by definition.
        """
        for channel in self._hops[path]:
            if type(channel) is not Channel:
                return False
            cfg = channel.config
            if cfg.jitter_fraction != 0 or cfg.duplicate_probability != 0:
                return False
        return True

    def fluid_plan(
        self, path: tuple[str, ...]
    ) -> tuple[tuple[FluidLink, float], ...] | None:
        """Precompiled ``(link, one_way_delay)`` hop list, or ``None``.

        ``None`` means the path is not fluid-eligible.  Plans are cached
        (and cleared with the route cache) so booking a journey does no
        dict or config lookups per hop.
        """
        try:
            return self._fluid_plans[path]
        except KeyError:
            pass
        plan = None
        if self.fluid_path_eligible(path):
            plan = tuple(
                (ch.fluid, ch.config.one_way_delay) for ch in self._hops[path]
            )
        self._fluid_plans[path] = plan
        return plan

    def abandon(self, uid: int) -> None:
        """Forget an in-flight packet (its RTO fired; a new attempt owns
        the byte range now).  A late copy that still arrives is dropped at
        the next hop instead of delivered twice."""
        self._inflight.pop(uid, None)

    def note_rto(self, path: tuple[str, ...]) -> None:
        """Feed a service-layer RTO into edge health (no-op unmonitored).

        The loss happened *somewhere* along ``path``; the monitor spreads
        a diluted penalty over its edges, mirroring the recovery plane's
        packet-spray attribution.
        """
        if self.health is not None:
            self.health.note_rto(path)

    def _on_edge_delivery(self, head: str, packet: Packet) -> None:
        try:
            transit = self._inflight[packet.uid]
        except KeyError:
            return  # abandoned (stale attempt) or duplicated copy
        path = transit.path
        hop = transit.hop + 1
        node = path[hop]
        if head != node:
            return  # duplicate from an earlier hop; the fresh copy leads
        if node == path[-1]:
            del self._inflight[packet.uid]
            transit.on_deliver(packet)
            return
        transit.hop = hop
        # Looked up per hop, not held by the transit: a channel re-bound
        # while the packet is in flight carries its next hop.
        self._hops[path][hop].transmit(packet)
