"""Differential test: the callback ``DpaWorker`` against the generator it replaced.

``GeneratorWorker`` below is the worker as it stood before the datapath
went callback-only: one ``Process`` that parks on ``any_of`` over one
``wait_nonempty()`` event per CQ.  It is kept here as the reference.
Hypothesis draws a schedule -- CQE bursts over 1-8 CQs, a stall, a crash,
late ``assign`` calls -- and both workers must call their handlers at the
same instants in the same order, count the same, and emit the same
``cqe`` spans.

Two properties of the schedules keep same-instant ties out, because that
is the one place the two differ by design (``docs/simulation.md``): an
idle callback worker takes a CQE in the ``push`` itself, the generator two
same-instant hops later.  Bursts land on distinct instants (even multiples
of ``UNIT``), and stall/crash/assign calls on odd multiples.

The chunk close has a reference too.  A CQE that closes a chunk used to
cost two heap entries at the PCIe write's instant, pushed back to back:
the SDR handler's ``RecvHandle._publish_chunk`` and the worker's
``_account``.  The worker now runs both in one (``_write_landed``).  Whole
SDR runs with the two-entry close patched back in must dispatch the same
live entries at the same instants, trace the same lines and leave the same
registry, with the PCIe write free and with a worker crashing between a
closing CQE and its write.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import DpaConfig
from repro.common.errors import ConfigError
from repro.common.units import KiB
from repro.dpa.worker import DpaWorker
from repro.net.packet import Opcode
from repro.sdr.qp import SdrQp
from repro.sim.engine import Event, Process, Simulator
from repro.stack import endpoints
from repro.telemetry import JsonlSink, Telemetry
from repro.telemetry.trace import RingBufferSink
from repro.verbs.cq import CompletionQueue, Cqe

from tests.conftest import NamingSimulator, make_sdr_pair, numbered, recording_sims
from tests.reliability.conftest import random_payload

UNIT = 0.125e-6


class GeneratorWorker:
    """The pre-callback ``DpaWorker``: a generator process per worker."""

    def __init__(self, sim, config, *, name="dpa-worker"):
        self.sim = sim
        self.config = config
        self.name = name
        self._queues = []
        self._proc: Process | None = None
        self._wake: Event | None = None
        self._stall_until = 0.0
        self.crashed = False
        scope = sim.telemetry.metrics.scope(f"dpa.{name}")
        self._m_cqes = scope.counter("cqes_processed")
        self._m_chunks = scope.counter("chunks_closed")
        self._m_busy = scope.counter("busy_seconds")
        self._trace = sim.telemetry.trace
        self._track = f"dpa.{name}"

    stats = DpaWorker.stats

    def assign(self, cq, handler):
        if self.crashed:
            raise ConfigError(f"{self.name} has crashed; cannot assign CQs")
        self._queues.append((cq, handler))
        if self._proc is None:
            self._proc = self.sim.process(self._run())
        elif self._wake is not None and not self._wake.triggered:
            self._wake.succeed(None)

    def stall_until(self, time):
        self._stall_until = max(self._stall_until, time)

    def crash(self):
        self.crashed = True

    def _next_cqe(self):
        for cq, handler in self._queues:
            got = cq.poll(1)
            if got:
                return got[0], handler
        return None

    def _run(self):
        # ``crashed`` is re-checked after every yield (and at boot), before
        # anything is polled or counted: a crash ends the process at its
        # next wake-up, whatever it was parked on.
        while not self.crashed:
            if self.sim.now < self._stall_until:
                yield self.sim.timeout(self._stall_until - self.sim.now)
                continue
            nxt = self._next_cqe()
            if nxt is None:
                self._wake = self.sim.event()
                yield self.sim.any_of(
                    [cq.wait_nonempty() for cq, _ in self._queues]
                    + [self._wake]
                )
                self._wake = None
                continue
            cqe, handler = nxt
            start = self.sim.now
            cost = self.config.per_cqe_seconds
            yield self.sim.timeout(cost)
            if self.crashed:
                return
            closed_chunk = bool(handler(cqe))
            if closed_chunk:
                extra = self.config.pcie_update_seconds
                if extra > 0:
                    yield self.sim.timeout(extra)
                    if self.crashed:
                        return
                cost += extra
                self._m_chunks.inc()
            self._m_cqes.inc()
            self._m_busy.inc(cost)
            if self._trace.enabled:
                lineage = (
                    {"msg": cqe.msg_seq, "pkt": cqe.pkt_idx, "chunk": cqe.chunk}
                    if cqe.msg_seq is not None
                    else {}
                )
                self._trace.complete(
                    "cqe", cat="dpa", track=self._track, start=start,
                    qpn=cqe.qpn, closed_chunk=closed_chunk, **lineage,
                )


@dataclass(frozen=True)
class Schedule:
    per_cqe: float
    pcie: float
    close_every: int  # handler reports a closed chunk every n-th CQE; 0 = never
    assign_at: tuple[int, ...]  # per CQ: 0 = before the run, else an odd tick
    bursts: tuple[tuple[int, int, int], ...]  # (even tick, cq index, CQEs)
    stall: tuple[int, int] | None  # (odd tick, length in ticks)
    crash: int | None  # odd tick


def odd_ticks(hi=900):
    return st.integers(0, hi // 2).map(lambda k: 2 * k + 1)


@st.composite
def schedules(draw):
    n = draw(st.integers(1, 8))
    bursts = draw(
        st.lists(
            st.tuples(
                # From tick 16 (2 us) on: the clock has passed the per-CQE
                # cost, where now + ((now + cost) - now) == now + cost is
                # exact (Sterbenz), as in every real run.
                st.integers(8, 400).map(lambda k: 2 * k),
                st.integers(0, n - 1),
                st.integers(1, 3),
            ),
            max_size=40,
            unique_by=lambda b: b[0],
        )
    )
    return Schedule(
        per_cqe=draw(st.sampled_from([1e-6, 16 / 15e6, 0.3e-6])),
        pcie=draw(st.sampled_from([0.0, 2e-7, 5e-7])),
        close_every=draw(st.integers(0, 4)),
        assign_at=tuple(
            draw(st.one_of(st.just(0), odd_ticks())) for _ in range(n)
        ),
        bursts=tuple(sorted(bursts)),
        stall=draw(st.none() | st.tuples(odd_ticks(), st.integers(1, 300))),
        crash=draw(st.none() | odd_ticks()),
    )


def drive(worker_cls, sched: Schedule):
    ring = RingBufferSink()
    sim = Simulator(telemetry=Telemetry(trace=True, trace_sinks=[ring]))
    cfg = DpaConfig(per_cqe_seconds=sched.per_cqe, pcie_update_seconds=sched.pcie)
    worker = worker_cls(sim, cfg, name="w")
    cqs = [CompletionQueue(sim, name=f"cq{i}") for i in range(len(sched.assign_at))]
    calls: list[tuple[float, int, int]] = []
    rejected: list[int] = []

    def handler_for(idx):
        def handler(cqe):
            calls.append((sim.now, idx, cqe.wr_id))
            if sched.close_every and cqe.wr_id % sched.close_every == 0:
                return (lambda _chunk: None, 0)  # a chunk-bitmap write
            return False
        return handler

    def assign(idx):
        try:
            worker.assign(cqs[idx], handler_for(idx))
        except ConfigError:
            rejected.append(idx)

    def push(idx, first, count):
        for wr_id in range(first, first + count):
            cqs[idx].push(
                Cqe(
                    qpn=idx, opcode=Opcode.WRITE_ONLY_IMM, byte_len=64,
                    timestamp=sim.now, wr_id=wr_id,
                    # Every third CQE carries lineage, like the SDR path's.
                    msg_seq=wr_id if wr_id % 3 == 0 else None, pkt_idx=wr_id,
                )
            )

    for idx, tick in enumerate(sched.assign_at):
        if tick == 0:
            assign(idx)
        else:
            sim.call_at(tick * UNIT, assign, idx)
    wr_id = 0
    for tick, idx, count in sched.bursts:
        sim.call_at(tick * UNIT, push, idx, wr_id, count)
        wr_id += count
    if sched.stall is not None:
        at, length = sched.stall
        sim.call_at(at * UNIT, worker.stall_until, (at + length) * UNIT)
    if sched.crash is not None:
        sim.call_at(sched.crash * UNIT, worker.crash)
    sim.run()

    spans = [
        (e.ts, e.dur, e.track, sorted(e.args.items()))
        for e in ring.events if e.name == "cqe"
    ]
    return {
        "calls": calls,
        "stats": worker.stats,
        "spans": spans,
        "left": [len(cq) for cq in cqs],
        "rejected": rejected,
        "clock": sim.now,
    }


@settings(max_examples=300, deadline=None)
@given(schedules())
def test_callback_worker_matches_generator_worker(sched):
    assert drive(DpaWorker, sched) == drive(GeneratorWorker, sched)


def test_crash_in_the_instant_of_the_first_assign_is_final():
    """A crash in the instant of the first ``assign``, before the process boots.

    The worker never comes up: no handler call, both CQEs left queued.  The
    reference agrees only because it checks the flag at boot too, which a
    cancel thrown into the process from outside could not do.
    """
    sched = Schedule(
        per_cqe=1e-6, pcie=0.0, close_every=0, assign_at=(5,),
        bursts=((16, 0, 2),), stall=None, crash=5,
    )
    got = drive(DpaWorker, sched)
    assert got["calls"] == [] and got["left"] == [2]
    assert drive(GeneratorWorker, sched) == got


def test_schedules_reach_every_branch():
    """The fixed schedule the property would have to find: all features at once."""
    sched = Schedule(
        per_cqe=1e-6, pcie=2e-7, close_every=2,
        assign_at=(0, 0, 41),
        bursts=((16, 0, 3), (20, 1, 2), (30, 2, 2), (60, 0, 1), (200, 1, 3)),
        stall=(51, 100), crash=205,
    )
    got = drive(DpaWorker, sched)
    assert got == drive(GeneratorWorker, sched)
    assert got["stats"].chunks_closed > 0
    assert any(t >= 151 * UNIT for t, _, _ in got["calls"])  # served after the stall
    assert sum(got["left"]) > 0  # the crash stranded completions
    assert len(got["calls"]) < 11


def test_idle_worker_takes_same_instant_arrivals_in_arrival_order():
    """The tie the schedules above avoid, pinned: the doorbell is the poll.

    Two CQs of an idle worker are pushed in one instant, the later queue
    first.  The generator woke two hops later and scanned its queues in
    assignment order; the callback worker took the CQE whose push rang it.
    Handler *instants* are the same either way.
    """
    def run(worker_cls):
        sim = Simulator()
        worker = worker_cls(sim, DpaConfig(per_cqe_seconds=1e-6, pcie_update_seconds=0.0))
        cqs = [CompletionQueue(sim), CompletionQueue(sim)]
        calls = []
        for idx, cq in enumerate(cqs):
            worker.assign(cq, lambda cqe, idx=idx: calls.append((sim.now, idx)) and False)
        for idx in (1, 0):
            sim.call_at(
                5e-6, cqs[idx].push,
                Cqe(qpn=idx, opcode=Opcode.WRITE_ONLY_IMM, byte_len=64, timestamp=5e-6),
            )
        sim.run()
        return calls

    assert [idx for _t, idx in run(DpaWorker)] == [1, 0]
    assert [idx for _t, idx in run(GeneratorWorker)] == [0, 1]
    assert [t for t, _idx in run(DpaWorker)] == [t for t, _idx in run(GeneratorWorker)]


# -- the one-entry chunk close against the two entries it replaced --------------


def _two_entry_handle(self, cqe, handler, start):
    """``DpaWorker._handle`` before the merge: the PCIe write's accounting is
    an entry of its own, pushed right behind the handler's publish entry."""
    if self.crashed:
        return
    closed_chunk = handler(cqe)
    extra = self.config.pcie_update_seconds if closed_chunk else 0.0
    if extra > 0:
        self.sim.call_in(extra, self._account, cqe, start, closed_chunk, extra)
    else:
        self._account(cqe, start, closed_chunk, extra)


def _self_publishing_handler(self, cqe):
    """``SdrQp._process_data_cqe`` before the merge: a closing packet pushes
    its own chunk-bitmap write (``_record_packet``, as the staged QP does)."""
    validated = self._validate_data_cqe(cqe)
    if validated is None:
        return False
    return self._record_packet(*validated)


def _one_entry_per_close(ran):
    """The reference's ``_publish_chunk`` + ``_account`` pair, named as the
    one entry that replaced it (and its ``_handle`` by the method's name)."""
    out = []
    for time, name, owner, live in ran:
        if name == "DpaWorker._account" and out[-1][:2] == (
            time, "RecvHandle._publish_chunk"
        ):
            out[-1] = (time, "DpaWorker._write_landed", owner, live)
        elif name == _two_entry_handle.__qualname__:
            out.append((time, "DpaWorker._handle", owner, live))
        else:
            out.append((time, name, owner, live))
    return out


def sdr_run(monkeypatch, *, two_entry, pcie, crash_on=None):
    """Three lossy SR writes; ``crash_on`` = the receiver's n-th chunk close
    crashes the worker handling it halfway through its PCIe write."""
    with monkeypatch.context() as patch:
        if two_entry:
            patch.setattr(DpaWorker, "_handle", _two_entry_handle)
            patch.setattr(SdrQp, "_process_data_cqe", _self_publishing_handler)
        closes = []
        close = SdrQp._close_chunk

        def counted_close(self, hdl, pkt_idx):
            closes.append(self.sim.now)
            if len(closes) == crash_on:
                cq = self.recv_cqs[pkt_idx % len(self.recv_cqs)]
                engine = self.ctx.dpa
                (index,) = [
                    i for i, w in enumerate(engine.workers)
                    if any(q is cq for q, _ in w._queues)
                ]
                self.sim.call_in(pcie / 2, engine.crash_worker, index)
            return close(self, hdl, pkt_idx)

        patch.setattr(SdrQp, "_close_chunk", counted_close)
        buf = io.StringIO()
        telemetry = Telemetry(trace=True, trace_sinks=[JsonlSink(buf)])
        with recording_sims(NamingSimulator) as sims:
            pair = make_sdr_pair(
                drop=0.02, seed=5, telemetry=telemetry,
                dpa=DpaConfig(pcie_update_seconds=pcie),
            )
        sender, receiver = endpoints("sr", pair)
        size = 256 * KiB
        rx_buf = bytearray(size)
        mr = pair.ctx_b.mr_reg(size, data=rx_buf)
        for seed in range(3):
            payload = random_payload(size, seed)
            rx = receiver.post_receive(mr, size)
            pair.sim.run(sender.write(size, payload).done)
            assert rx.done.ok and rx_buf == payload
        pair.sim.run()
    (sim,) = sims
    ran = sim.ran
    return {
        "ran": numbered(_one_entry_per_close(ran) if two_entry else ran),
        "trace": buf.getvalue(),
        "registry": json.dumps(telemetry.metrics.snapshot(), sort_keys=True),
        "clock": sim.now,
        "closes": closes,
    }


@pytest.mark.parametrize(
    "pcie, crash_on", [(2e-7, None), (0.0, None), (2e-7, 40)],
    ids=["pcie", "free_pcie", "crash_before_the_write"],
)
def test_one_entry_chunk_close_matches_two_entries(monkeypatch, pcie, crash_on):
    got = sdr_run(monkeypatch, two_entry=False, pcie=pcie, crash_on=crash_on)
    want = sdr_run(monkeypatch, two_entry=True, pcie=pcie, crash_on=crash_on)
    assert got == want
    assert len(got["closes"]) > 40
    names = [name for _t, name, _o, _live in got["ran"]]
    if pcie:
        assert names.count("DpaWorker._write_landed") >= len(got["closes"]) - 1
        assert "RecvHandle._publish_chunk" not in names
    else:
        assert names.count("RecvHandle._publish_chunk") == len(got["closes"])
    if crash_on is not None:
        # The write the crash cut short still published its chunk; its
        # CQE was neither counted nor traced.
        snapshot = json.loads(got["registry"])
        closed = sum(
            v for k, v in snapshot.items()
            if k.startswith("dpa.") and k.endswith(".chunks_closed")
        )
        assert closed == len(got["closes"]) - 1
