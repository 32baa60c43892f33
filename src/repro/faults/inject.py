"""Installation helpers wiring fault schedules into a running topology.

:func:`install_link_faults` wraps both directions of an existing fabric
link in :class:`~repro.faults.FaultyChannel` and swaps the wrapped channels
into the device link tables, so every QP and control path that connects
*afterwards* transmits through the fault plane.  Call it after
``fabric.connect`` and before any ``qp.connect`` / ``ControlPath.connect``
-- QPs cache their channel object at connect time.

:func:`install_dpa_faults` schedules DPA-worker stalls and crashes from
the same :class:`~repro.faults.FaultSchedule`.
"""

from __future__ import annotations

import contextlib

from repro.common.errors import ConfigError
from repro.faults.channel import FaultyChannel
from repro.faults.schedule import FaultSchedule
from repro.net.channel import DuplexLink


def _link_lookup(fabric, a, b):
    """Resolve the (possibly flipped) fabric link between ``a`` and ``b``.

    Returns ``(key, link, flipped)`` where ``flipped`` means the registry
    stores the ``b`` -> ``a`` orientation.
    """
    key = (a.name, b.name)
    link = fabric.links.get(key)
    flipped = False
    if link is None:
        key = (b.name, a.name)
        link = fabric.links.get(key)
        if link is None:
            raise ConfigError(f"{a.name} and {b.name} are not connected")
        flipped = True
    return key, link, flipped


def install_link_faults(
    fabric, a, b, schedule: FaultSchedule
) -> tuple[FaultyChannel, FaultyChannel]:
    """Wrap the ``a``->``b`` link of ``fabric`` in the fault plane.

    ``schedule`` drives both directions, so e.g. a blackout severs both
    like a real fiber cut.  Returns the (forward, reverse) wrappers.
    """
    key, link, flipped = _link_lookup(fabric, a, b)
    if isinstance(link, DuplexLink):
        inner_fwd, inner_rev = link.forward, link.reverse
    else:  # connect_bonded stores a (fwd, rev) tuple of BondedChannels
        inner_fwd, inner_rev = link
    if flipped:
        # Stored forward direction is b -> a; keep ``schedule`` on a -> b.
        inner_fwd, inner_rev = inner_rev, inner_fwd
    if isinstance(inner_fwd, FaultyChannel) or isinstance(inner_rev, FaultyChannel):
        raise ConfigError(f"link {a.name}<->{b.name} already has fault injection")
    fwd = FaultyChannel(
        inner_fwd, schedule,
        rng=fabric.rng.get(f"faults.{a.name}->{b.name}"),
    )
    rev = FaultyChannel(
        inner_rev, schedule, rng=fabric.rng.get(f"faults.{b.name}->{a.name}"),
    )
    a.replace_link(b.name, outgoing=fwd, incoming=rev)
    b.replace_link(a.name, outgoing=rev, incoming=fwd)
    # Record the wrappers in the fabric's link registry too, so later
    # introspection (and the double-install guard above) sees the fault
    # plane.  ``fwd`` always carries the a -> b direction.
    stored = (rev, fwd) if flipped else (fwd, rev)
    if isinstance(link, DuplexLink):
        link.forward, link.reverse = stored
    else:
        fabric.links[key] = stored
    return fwd, rev


def uninstall_link_faults(fabric, a, b) -> bool:
    """Undo :func:`install_link_faults` on the ``a`` <-> ``b`` link.

    The original channels go back into the device link tables (so future
    connections bypass the fault plane entirely), the wrapped loss models
    are unwrapped, and the wrappers themselves are disarmed -- QPs that
    connected while faults were installed cached the wrapper object, and
    a disarmed wrapper is a pure passthrough.  Subsequent traffic is
    fault-free either way.

    Idempotent: returns ``True`` when a fault plane was removed, ``False``
    when the link had none (so chaos teardown can be unconditional).
    """
    key, link, flipped = _link_lookup(fabric, a, b)
    if isinstance(link, DuplexLink):
        fwd, rev = link.forward, link.reverse
    else:
        fwd, rev = link
    if flipped:
        fwd, rev = rev, fwd
    if not (isinstance(fwd, FaultyChannel) and isinstance(rev, FaultyChannel)):
        return False
    fwd.disarm()
    rev.disarm()
    inner_fwd, inner_rev = fwd.inner, rev.inner
    a.replace_link(b.name, outgoing=inner_fwd, incoming=inner_rev)
    b.replace_link(a.name, outgoing=inner_rev, incoming=inner_fwd)
    stored = (inner_rev, inner_fwd) if flipped else (inner_fwd, inner_rev)
    if isinstance(link, DuplexLink):
        link.forward, link.reverse = stored
    else:
        fabric.links[key] = stored
    return True


@contextlib.contextmanager
def link_faults(fabric, a, b, schedule: FaultSchedule):
    """Context-manager form of :func:`install_link_faults`.

    Yields the ``(forward, reverse)`` wrappers and uninstalls the fault
    plane on exit, restoring the original links.
    """
    wrappers = install_link_faults(fabric, a, b, schedule)
    try:
        yield wrappers
    finally:
        uninstall_link_faults(fabric, a, b)


def install_edge_faults(
    network, u: str, v: str, schedule: FaultSchedule
) -> tuple[FaultyChannel, FaultyChannel]:
    """Wrap one :class:`~repro.fabric.topology.FabricNetwork` link in the
    fault plane.

    Both directed channels of the ``u`` <-> ``v`` topology edge are swapped
    for :class:`FaultyChannel` wrappers (``network.replace_channel``, which
    drops the cached hop tuples); every hop looks its channel up afresh, so
    the swap takes effect immediately for in-flight and future packets
    alike.  ``schedule`` drives both directions (a fiber cut severs both).
    Returns the (forward, reverse) wrappers.
    """
    fwd_key, rev_key = (u, v), (v, u)
    for a, b in (fwd_key, rev_key):
        if (a, b) not in network.channels:
            raise ConfigError(f"no edge {a!r} -> {b!r}")
    if isinstance(network.channels[fwd_key], FaultyChannel) or isinstance(
        network.channels[rev_key], FaultyChannel
    ):
        raise ConfigError(f"edge {u!r} <-> {v!r} already has fault injection")
    fwd = FaultyChannel(
        network.channels[fwd_key],
        schedule,
        rng=network.streams.get(f"faults.edge.{u}->{v}"),
    )
    rev = FaultyChannel(
        network.channels[rev_key],
        schedule,
        rng=network.streams.get(f"faults.edge.{v}->{u}"),
    )
    network.replace_channel(fwd_key, fwd)
    network.replace_channel(rev_key, rev)
    return fwd, rev


def uninstall_edge_faults(network, u: str, v: str) -> bool:
    """Undo :func:`install_edge_faults` on the ``u`` <-> ``v`` edge.

    Idempotent: disarms and unwraps any installed wrappers and returns
    ``True``; returns ``False`` when the edge carries no fault plane.
    """
    removed = False
    for key in ((u, v), (v, u)):
        channel = network.channels.get(key)
        if channel is None:
            raise ConfigError(f"no edge {key[0]!r} -> {key[1]!r}")
        if isinstance(channel, FaultyChannel):
            channel.disarm()
            network.replace_channel(key, channel.inner)
            removed = True
    return removed


def install_dpa_faults(sim, engine, schedule: FaultSchedule) -> int:
    """Arm the DPA windows of ``schedule`` against ``engine``'s worker pool.

    Returns the number of windows armed.  ``dpa_stall`` freezes the target
    worker's CQE processing for the window; ``dpa_crash`` kills it at the
    window start and fails its completion queues over to the surviving
    workers (see :meth:`repro.dpa.DpaEngine.crash_worker`).
    """
    windows = schedule.dpa_windows
    if not windows:
        return 0
    scope = sim.telemetry.metrics.scope("faults.dpa")
    m_stalls = scope.counter("stalls")
    m_crashes = scope.counter("crashes")
    trace = sim.telemetry.trace

    for w in windows:
        if w.worker >= len(engine.workers):
            raise ConfigError(
                f"fault targets DPA worker {w.worker} but engine "
                f"{engine.name!r} has {len(engine.workers)}"
            )

        def _fire(w=w):
            if w.kind == "dpa_stall":
                engine.stall_worker(w.worker, until=w.end)
                m_stalls.inc()
            else:
                engine.crash_worker(w.worker)
                m_crashes.inc()
            if trace.enabled:
                trace.instant(
                    w.kind, cat="fault", track="faults.dpa",
                    worker=w.worker,
                )

        sim.call_at(max(w.start, sim.now), _fire)
    return len(windows)
