"""The one place a run is built and an SDR stack is wired.

Table 1's bring-up (``context_create`` -> ``qp_create`` -> ``qp_connect``,
plus a control path) behind a few calls.  Every runner builds its
``Simulator`` here from the ``telemetry`` / ``sim_config`` it takes:

* :func:`wire` -- the per-edge handshake between two contexts;
* :func:`endpoints` -- a registered reliability scheme's sender / receiver
  on a wired edge (:data:`repro.reliability.SCHEMES`);
* :func:`build_link`, :func:`build_pair`, :func:`build_ring`,
  :func:`build_fabric` -- a bare link, a wired pair, a wired ring, a fabric;
* :func:`closed_loop` -- one write at a time over a sender / receiver pair.

``examples/quickstart.py`` spells the same steps out by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError, ReproError
from repro.faults import FaultSchedule, install_dpa_faults, install_link_faults
from repro.net.multipath import connect_bonded
from repro.reliability import SCHEMES, ControlPath
from repro.sdr.context import SdrContext, context_create
from repro.sdr.qp import SdrQp
from repro.sim.engine import Event, SimConfig, Simulator
from repro.telemetry import Telemetry
from repro.verbs.device import Device, Fabric

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.fabric.topology import FabricNetwork, FabricTopology


@dataclass
class Wire:
    """One connected edge: an SDR QP pair and its control paths (a -> b)."""

    qp_a: SdrQp
    qp_b: SdrQp
    ctrl_a: ControlPath
    ctrl_b: ControlPath


@dataclass
class Link:
    """Two devices over one link: what :func:`build_link` built."""

    sim: Simulator
    fabric: Fabric
    dev_a: Device
    dev_b: Device
    channel: ChannelConfig
    #: (forward, reverse) BondedChannel when built with ``planes=...``.
    bonded: tuple | None = None


@dataclass(kw_only=True)
class Stack(Link, Wire):
    """A wired two-node stack: what :func:`build_pair` built, nothing more."""

    ctx_a: SdrContext
    ctx_b: SdrContext


def wire(ctx_a: SdrContext, ctx_b: SdrContext) -> Wire:
    """The handshake, once: a connected QP pair, then its control paths."""
    qp_a, qp_b = ctx_a.qp_create(), ctx_b.qp_create()
    qp_a.connect(qp_b.info_get())
    qp_b.connect(qp_a.info_get())
    ctrl_a, ctrl_b = ControlPath(ctx_a), ControlPath(ctx_b)
    ctrl_a.connect(ctrl_b.info())
    ctrl_b.connect(ctrl_a.info())
    return Wire(qp_a, qp_b, ctrl_a, ctrl_b)


def endpoints(scheme: str, edge, config=None, **kwargs):
    """``scheme``'s (sender, receiver) on ``edge``, a :class:`Wire` or anything
    else with ``qp_a`` / ``qp_b`` / ``ctrl_a`` / ``ctrl_b``.

    ``config`` goes to both sides; without one the scheme's registered
    overrides (if any) build it.  ``kwargs`` reach both constructors.
    """
    try:
        sender_type, receiver_type, overrides = SCHEMES[scheme]
    except KeyError:
        raise ConfigError(
            f"unknown scheme {scheme!r}; registered: {sorted(SCHEMES)}"
        ) from None
    if config is None and overrides:
        config = sender_type.config_type(**overrides)
    args = () if config is None else (config,)
    return (
        sender_type(edge.qp_a, edge.ctrl_a, *args, **kwargs),
        receiver_type(edge.qp_b, edge.ctrl_b, *args, **kwargs),
    )


def build_link(
    channel: ChannelConfig,
    *,
    planes: int | None = None,
    spread: str = "flow",
    faults: FaultSchedule | None = None,
    seed: int = 0,
    sim_config: SimConfig | None = None,
    telemetry: Telemetry | None = None,
    names: tuple[str, str] = ("dc-a", "dc-b"),
) -> Link:
    """Simulator, Fabric, two devices, the link (``planes`` bonds it), then
    ``faults`` on both link directions: one fixed order."""
    sim = Simulator(telemetry=telemetry, config=sim_config)
    fabric = Fabric(sim, seed=seed)
    dev_a, dev_b = fabric.add_device(names[0]), fabric.add_device(names[1])
    bonded = None
    if planes is not None:
        bonded = connect_bonded(
            fabric, dev_a, dev_b, channel, planes=planes, spread=spread
        )
    else:
        fabric.connect(dev_a, dev_b, channel)
    if faults is not None:
        install_link_faults(fabric, dev_a, dev_b, faults)
    return Link(sim, fabric, dev_a, dev_b, channel, bonded)


def build_pair(
    channel: ChannelConfig,
    sdr: SdrConfig | None = None,
    *,
    dpa: DpaConfig | None = None,
    faults: FaultSchedule | None = None,
    **link,
) -> Stack:
    """:func:`build_link` (``link`` are its keywords), contexts, DPA faults,
    then :func:`wire` a -> b: QPs cache their channel at connect time, so
    fault wrappers must be on the link first.  ``faults`` arms both link
    directions and the receive-side (b) DPA engine.
    """
    sdr = sdr if sdr is not None else SdrConfig()
    if sdr.mtu_bytes != channel.mtu_bytes:
        raise ConfigError(
            f"SDR MTU {sdr.mtu_bytes} must match channel MTU {channel.mtu_bytes}"
        )
    built = build_link(channel, faults=faults, **link)
    ctx_a = context_create(built.dev_a, sdr_config=sdr, dpa_config=dpa)
    ctx_b = context_create(built.dev_b, sdr_config=sdr, dpa_config=dpa)
    if faults is not None:
        install_dpa_faults(built.sim, ctx_b.dpa, faults)
    return Stack(
        **vars(built), ctx_a=ctx_a, ctx_b=ctx_b, **vars(wire(ctx_a, ctx_b))
    )


def build_ring(
    channel: ChannelConfig,
    sdr: SdrConfig,
    n: int,
    scheme: str,
    config=None,
    *,
    dpa: DpaConfig | None = None,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> tuple[Fabric, list[SdrContext], list[tuple]]:
    """``(fabric, contexts, ends)``: ``n`` devices in a ring, ``ends[i]``
    ``scheme``'s (sender, receiver) on edge i -> i+1.

    :func:`build_link` builds dc0 -> dc1 (for n = 2 edge 1 -> 0 is its
    reverse); the other devices and edges follow, then the contexts.  QPs
    and senders schedule t = 0 entries, so each edge's :func:`endpoints`
    follow its :func:`wire` at once: wiring every edge first reorders t = 0.
    """
    link = build_link(channel, seed=seed, telemetry=telemetry, names=("dc0", "dc1"))
    fabric, devices = link.fabric, [link.dev_a, link.dev_b]
    devices += [fabric.add_device(f"dc{i}") for i in range(2, n)]
    for i in range(1, n if n > 2 else 1):
        fabric.connect(devices[i], devices[(i + 1) % n], channel)
    ctxs = [context_create(d, sdr_config=sdr, dpa_config=dpa) for d in devices]
    return fabric, ctxs, [
        endpoints(scheme, wire(ctxs[i], ctxs[(i + 1) % n]), config) for i in range(n)
    ]


def build_fabric(
    topology: FabricTopology,
    *,
    seed: int = 0,
    sim_config: SimConfig | None = None,
    telemetry: Telemetry | None = None,
) -> FabricNetwork:
    """A :class:`~repro.fabric.topology.FabricNetwork` on a Simulator of its own."""
    from repro.fabric.topology import FabricNetwork  # repro.fabric imports this

    sim = Simulator(telemetry=telemetry, config=sim_config)
    return FabricNetwork(sim, topology, seed=seed)


def closed_loop(
    sim, sender, receiver, mr, length, more, write_tickets, recv_tickets=None
) -> Event:
    """Post a receive and a write, wait for the write; again while ``more(posted)``.

    Starts in an entry of its own; a clean error completion stays on its
    ticket.  Receive tickets are kept only if ``recv_tickets`` is a list.
    Returns the event that fires once the loop stops.
    """
    done = sim.event()

    def post(posted: int, ended: Event | None = None) -> None:
        if ended is not None:
            try:
                ended.value
            except ReproError:
                pass
        if not more(posted):
            done.succeed()
            return
        received = receiver.post_receive(mr, length)
        if recv_tickets is not None:
            recv_tickets.append(received)
        write_tickets.append(ticket := sender.write(length))
        ticket.done.callbacks.append(partial(post, posted + 1))

    sim.call_in(0.0, post, 0)
    return done
