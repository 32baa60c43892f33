"""DPA worker threads and the receive engine that schedules them.

Each :class:`DpaWorker` is a simulated hardware thread that drains the
completion queues assigned to it.  Processing one CQE costs
``DpaConfig.per_cqe_seconds`` of the worker's time; if the handler reports
that the completion closed a bitmap chunk, the worker additionally pays
``DpaConfig.pcie_update_seconds`` for the host-side chunk-bitmap write.
The thread is completion-triggered, not scheduled: an idle worker is rung
through its CQs' ``attach`` listener and a busy one is a chain of callback
heap entries, so an idle worker owns nothing on the heap and parks no
event on any CQ.

:class:`DpaEngine` owns the worker pool of one SDR context and maps channel
CQs onto workers round-robin -- the paper's multi-channel design, where
"different channels map to separate completion queues, each polled by a
different receive DPA worker thread" (Section 3.4.1).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.common.config import DPA_TOTAL_THREADS, DpaConfig
from repro.common.errors import ConfigError
from repro.sim.engine import Simulator
from repro.verbs.cq import CompletionQueue, Cqe

#: Handler invoked once a worker finishes processing a CQE.  Returns True
#: when the completion closed a chunk (triggering the PCIe update cost).
CqeHandler = Callable[[Cqe], bool]


@dataclass
class WorkerStats:
    """Snapshot of one worker's registry counters (scope ``dpa.<name>``)."""

    cqes_processed: int = 0
    chunks_closed: int = 0
    busy_seconds: float = 0.0


class DpaWorker:
    """One emulated DPA hardware thread serving a set of CQs."""

    def __init__(
        self,
        sim: Simulator,
        config: DpaConfig,
        *,
        name: str = "dpa-worker",
    ):
        self.sim = sim
        self.config = config
        self.name = name
        self._queues: list[tuple[CompletionQueue, CqeHandler]] = []
        #: True while a heap entry of this worker is pending (a CQE being
        #: processed, a PCIe write or a stall); a doorbell then does nothing.
        self._busy = False
        self._stall_until = 0.0
        self.crashed = False
        scope = sim.telemetry.metrics.scope(f"dpa.{name}")
        self._m_cqes = scope.counter("cqes_processed")
        self._m_chunks = scope.counter("chunks_closed")
        self._m_busy = scope.counter("busy_seconds")
        self._trace = sim.telemetry.trace
        self._track = f"dpa.{name}"

    @property
    def stats(self) -> WorkerStats:
        """Snapshot of this worker's registry counters."""
        return WorkerStats(
            cqes_processed=self._m_cqes.value,
            chunks_closed=self._m_chunks.value,
            busy_seconds=self._m_busy.value,
        )

    def assign(self, cq: CompletionQueue, handler: CqeHandler) -> None:
        """Add a CQ (with its backend handler) to this worker's poll set."""
        if self.crashed:
            raise ConfigError(f"{self.name} has crashed; cannot assign CQs")
        self._queues.append((cq, handler))
        cq.attach(self._ring)
        if not self._busy:
            # Poll the new queue (it may have a backlog) from the heap, not
            # from here: a stall or crash called at this same instant, after
            # this, has always been seen by that first poll.
            self._busy = True
            self.sim.call_in(0.0, self._step)

    def stall_until(self, time: float) -> None:
        """Freeze CQE processing until absolute simulated ``time``.

        A CQE already being processed finishes first (the thread is
        preempted between completions, not mid-completion).
        """
        self._stall_until = max(self._stall_until, time)

    def crash(self) -> None:
        """Kill this worker: it stops mid-CQE and no CQs may be assigned."""
        self.crashed = True

    def _ring(self, _cq: CompletionQueue) -> None:
        """CQ doorbell: an idle worker starts draining in the ``push`` itself."""
        if not self._busy:
            self._step()

    def _step(self) -> None:
        """Between completions: sit out a stall, take the next CQE or go idle."""
        if self.crashed:
            return
        sim = self.sim
        now = sim.now
        self._busy = True
        if now < self._stall_until:
            sim.call_at(self._stall_until, self._step)
            return
        for cq, handler in self._queues:
            entries = cq.entries
            if entries:  # an empty queue costs a truth test, not a poll list
                sim.call_in(
                    self.config.per_cqe_seconds, self._handle, entries.popleft(),
                    handler, now,
                )
                return
        self._busy = False

    def _handle(self, cqe: Cqe, handler: CqeHandler, start: float) -> None:
        """``per_cqe_seconds`` after the poll: run the backend handler."""
        if self.crashed:
            return
        closed_chunk = handler(cqe)
        extra = self.config.pcie_update_seconds if closed_chunk else 0.0
        if extra > 0:
            self.sim.call_in(extra, self._account, cqe, start, closed_chunk, extra)
        else:
            self._account(cqe, start, closed_chunk, extra)

    def _account(
        self, cqe: Cqe, start: float, closed_chunk: bool, extra: float
    ) -> None:
        """The CQE is done (PCIe write included): count it and carry on."""
        if self.crashed:
            return
        if closed_chunk:
            self._m_chunks.value += 1
        self._m_cqes.value += 1
        self._m_busy.value += self.config.per_cqe_seconds + extra
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
        self._step()


class DpaEngine:
    """Worker pool + CQ-to-worker mapping for one SDR context."""

    def __init__(self, sim: Simulator, config: DpaConfig, *, name: str = "dpa"):
        self.sim = sim
        self.config = config
        self.name = name
        self.workers: list[DpaWorker] = []
        self._next_worker = 0
        #: CQs stranded by a crash when no live worker remained; the
        #: reliability layers' retry budgets / global timeouts turn the
        #: resulting silence into clean error completions.
        self.orphaned: list[tuple[CompletionQueue, CqeHandler]] = []

    def spawn_workers(self, count: int | None = None) -> None:
        """Create the worker pool (default: ``config.worker_threads``)."""
        n = self.config.worker_threads if count is None else count
        if n <= 0:
            raise ConfigError(f"worker count must be > 0, got {n}")
        if n + len(self.workers) > DPA_TOTAL_THREADS:
            raise ConfigError(
                f"requested {n} workers exceeds DPA capacity of "
                f"{DPA_TOTAL_THREADS} threads"
            )
        for _ in range(n):
            self.workers.append(
                DpaWorker(
                    self.sim,
                    self.config,
                    name=f"{self.name}.w{len(self.workers)}",
                )
            )

    def attach(self, cq: CompletionQueue, handler: CqeHandler) -> None:
        """Map ``cq`` onto the next live worker round-robin with its handler."""
        if not self.workers:
            self.spawn_workers()
        alive = [w for w in self.workers if not w.crashed]
        if not alive:
            self.orphaned.append((cq, handler))
            return
        worker = alive[self._next_worker % len(alive)]
        self._next_worker += 1
        worker.assign(cq, handler)

    # -- fault injection ---------------------------------------------------------

    def stall_worker(self, index: int, *, until: float) -> None:
        """Freeze worker ``index`` until absolute simulated time ``until``."""
        self.workers[index].stall_until(until)

    def crash_worker(self, index: int) -> int:
        """Kill worker ``index`` and fail its CQs over to surviving workers.

        Returns the number of CQs reassigned.  With no survivors the queues
        are orphaned: completions stop flowing and the sender-side retry
        budget / global timeout must surface the failure.
        """
        worker = self.workers[index]
        moved, worker._queues = worker._queues, []
        worker.crash()
        alive = [w for w in self.workers if not w.crashed]
        if not alive:
            self.orphaned.extend(moved)
            return 0
        for i, (cq, handler) in enumerate(moved):
            alive[i % len(alive)].assign(cq, handler)
        return len(moved)

    # -- statistics --------------------------------------------------------------

    @property
    def cqes_processed(self) -> int:
        return sum(w.stats.cqes_processed for w in self.workers)

    @property
    def busy_seconds(self) -> float:
        return sum(w.stats.busy_seconds for w in self.workers)

    def utilization(self, elapsed: float) -> float:
        """Mean worker utilization over ``elapsed`` simulated seconds."""
        if elapsed <= 0 or not self.workers:
            return 0.0
        return self.busy_seconds / (elapsed * len(self.workers))
