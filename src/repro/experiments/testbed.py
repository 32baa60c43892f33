"""Reusable two-node SDR testbed for the end-to-end (Section 5.4) figures.

Drives the client-server pair of the paper's benchmark loop (modeled on
``ib_write_bw``): the server preposts ``inflight`` receives and emulates a
reliability layer by watching the completion bitmap; on full reception it
completes and reposts; the client keeps the pipe full, flow-controlled by
SDR's clear-to-send.  Throughput is total payload bytes over the simulated
time to drain ``n_messages`` messages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.config import ChannelConfig, DpaConfig, SdrConfig
from repro.common.errors import ConfigError
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sim.engine import Event
from repro.stack import build_link, build_pair
from repro.telemetry import Telemetry
from repro.verbs.qp import RcQp, SendWr
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegion


@dataclass
class ThroughputResult:
    """Outcome of one client-server throughput run."""

    message_bytes: int
    n_messages: int
    elapsed: float
    cqes_processed: int
    dpa_utilization: float

    @property
    def total_bytes(self) -> int:
        return self.message_bytes * self.n_messages

    @property
    def throughput_bps(self) -> float:
        return self.total_bytes * 8.0 / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def packet_rate(self) -> float:
        return self.cqes_processed / self.elapsed if self.elapsed > 0 else 0.0


def run_sdr_throughput(
    *,
    message_bytes: int,
    n_messages: int = 32,
    inflight: int = 16,
    channel: ChannelConfig | None = None,
    sdr: SdrConfig | None = None,
    dpa: DpaConfig | None = None,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> ThroughputResult:
    """The paper's ``ib_write_bw``-style SDR benchmark loop (Section 5.4.1)."""
    if n_messages <= 0 or inflight <= 0:
        raise ConfigError("n_messages and inflight must be positive")
    bed = build_pair(
        channel if channel is not None else ChannelConfig(), sdr, dpa=dpa,
        seed=seed, telemetry=telemetry,
        names=("client", "server"),
    )
    sim, client_qp, server_qp = bed.sim, bed.qp_a, bed.qp_b
    server_mr = bed.ctx_b.mr_reg(message_bytes, name="server.buf")
    window = min(inflight, n_messages, server_qp.config.inflight_messages)
    done = _serve(sim, server_qp, server_mr, message_bytes, n_messages, window)

    def client():
        for _ in range(n_messages):
            client_qp.send_post(SdrSendWr(length=message_bytes))

    sim.call_in(0.0, client)
    sim.run(done)
    elapsed = sim.now
    engine = bed.ctx_b.dpa
    return ThroughputResult(
        message_bytes=message_bytes,
        n_messages=n_messages,
        elapsed=elapsed,
        cqes_processed=engine.cqes_processed,
        dpa_utilization=engine.utilization(elapsed),
    )


def run_rc_throughput(
    *,
    message_bytes: int,
    n_messages: int = 32,
    channel: ChannelConfig | None = None,
    seed: int = 0,
    telemetry: Telemetry | None = None,
) -> ThroughputResult:
    """Baseline: the same loop over a commodity RC QP (reliable writes)."""
    link = build_link(
        channel if channel is not None else ChannelConfig(), seed=seed,
        telemetry=telemetry, names=("client", "server"),
    )
    sim, a, b = link.sim, link.dev_a, link.dev_b
    cq_a = CompletionQueue(sim, name="rc.client.cq")
    cq_b = CompletionQueue(sim, name="rc.server.cq")
    qa = RcQp(a, send_cq=cq_a, recv_cq=cq_a)
    qb = RcQp(b, send_cq=cq_b, recv_cq=cq_b)
    qa.connect(qb.info())
    qb.connect(qa.info())
    mr = MemoryRegion(message_bytes, name="server.buf")
    b.reg_mr(mr)
    for _ in range(n_messages):
        qa.post_send(SendWr(length=message_bytes, rkey=mr.rkey, remote_offset=0))
    sim.run(_await_cqes(sim, cq_a, n_messages))
    return ThroughputResult(
        message_bytes=message_bytes,
        n_messages=n_messages,
        elapsed=sim.now,
        cqes_processed=0,
        dpa_utilization=0.0,
    )


def _serve(sim, qp, mr, length: int, n_messages: int, window: int) -> Event:
    """The one server thread: prepost ``window`` receives, then complete and
    repost in order; the event fires, with the time, once all are in."""
    done = sim.event()
    handles = []
    completed = [0]

    def wait(received: Event | None = None) -> None:
        if received is None:  # the server's first entry
            for _ in range(window):
                handles.append(qp.recv_post(SdrRecvWr(mr=mr, length=length)))
        else:
            handles.pop(0).complete()
            completed[0] += 1
            if completed[0] + len(handles) < n_messages:
                handles.append(qp.recv_post(SdrRecvWr(mr=mr, length=length)))
        if completed[0] < n_messages:
            handles[0].wait_all_chunks().callbacks.append(wait)
        else:
            done.succeed(sim.now)

    sim.call_in(0.0, wait)
    return done


def _await_cqes(sim, cq, n: int) -> Event:
    """The event that fires, with the time, once ``n`` CQEs were polled."""
    done = sim.event()
    got = [0]

    def wait(woken: Event | None = None) -> None:
        if woken is not None:
            got[0] += len(cq.poll(max_entries=n))
        if got[0] < n:
            cq.wait_nonempty().callbacks.append(wait)
        else:
            done.succeed(sim.now)

    sim.call_in(0.0, wait)
    return done
