"""DPA worker/engine: service rates, chunk-close costs, scaling."""

import pytest

from repro.common.config import DpaConfig
from repro.common.errors import ConfigError
from repro.dpa.worker import DpaEngine, DpaWorker
from repro.net.packet import Opcode
from repro.sim.engine import Simulator
from repro.verbs.cq import CompletionQueue, Cqe


def cqe(ts=0.0):
    return Cqe(qpn=1, opcode=Opcode.WRITE_ONLY_IMM, byte_len=64, timestamp=ts)


class TestWorker:
    def test_processes_all_cqes(self):
        sim = Simulator()
        cfg = DpaConfig(per_cqe_seconds=1e-6, pcie_update_seconds=0.0)
        worker = DpaWorker(sim, cfg)
        cq = CompletionQueue(sim)
        seen = []
        worker.assign(cq, lambda c: (seen.append(c), False)[1])
        for _ in range(10):
            cq.push(cqe())
        sim.run(until=1.0)
        assert len(seen) == 10
        assert worker.stats.cqes_processed == 10

    def test_service_rate_is_per_cqe_cost(self):
        sim = Simulator()
        cfg = DpaConfig(per_cqe_seconds=1e-6, pcie_update_seconds=0.0)
        worker = DpaWorker(sim, cfg)
        cq = CompletionQueue(sim)
        done_times = []
        worker.assign(cq, lambda c: (done_times.append(sim.now), False)[1])
        for _ in range(5):
            cq.push(cqe())
        sim.run(until=1.0)
        # Back-to-back CQEs drain at exactly 1 us apart.
        assert done_times == pytest.approx([1e-6 * (i + 1) for i in range(5)])

    def test_chunk_close_adds_pcie_cost(self):
        sim = Simulator()
        cfg = DpaConfig(per_cqe_seconds=1e-6, pcie_update_seconds=5e-7)
        worker = DpaWorker(sim, cfg)
        cq = CompletionQueue(sim)
        worker.assign(cq, lambda c: True)  # every CQE closes a chunk
        for _ in range(4):
            cq.push(cqe())
        sim.run(until=1.0)
        assert worker.stats.chunks_closed == 4
        assert worker.stats.busy_seconds == pytest.approx(4 * 1.5e-6)

    def test_a_crash_during_the_pcie_write_loses_that_cqe(self):
        """The handler ran, but the worker died before its bitmap write
        reached the host: the CQE is neither counted nor traced."""
        sim = Simulator()
        worker = DpaWorker(sim, DpaConfig(per_cqe_seconds=1e-6, pcie_update_seconds=5e-7))
        cq = CompletionQueue(sim)
        handled = []
        worker.assign(cq, lambda c: (handled.append(sim.now), True)[1])
        cq.push(cqe())
        sim.call_in(1.2e-6, worker.crash)
        sim.run(until=1.0)
        assert handled == [pytest.approx(1e-6)]
        assert (worker.stats.cqes_processed, worker.stats.chunks_closed) == (0, 0)

    def test_wakes_on_late_arrivals(self):
        sim = Simulator()
        worker = DpaWorker(sim, DpaConfig(per_cqe_seconds=1e-6))
        cq = CompletionQueue(sim)
        seen = []
        worker.assign(cq, lambda c: (seen.append(sim.now), False)[1])
        sim.call_in(0.5, lambda: cq.push(cqe()))
        sim.run(until=1.0)
        assert len(seen) == 1
        assert seen[0] == pytest.approx(0.5 + 1e-6)


class TestEngine:
    def test_round_robin_attachment(self):
        sim = Simulator()
        engine = DpaEngine(sim, DpaConfig(worker_threads=2))
        cqs = [CompletionQueue(sim) for _ in range(4)]
        for cq in cqs:
            engine.attach(cq, lambda c: False)
        assert len(engine.workers) == 2
        assert len(engine.workers[0]._queues) == 2
        assert len(engine.workers[1]._queues) == 2

    def test_aggregate_rate_scales_with_workers(self):
        for threads in (1, 4):
            sim = Simulator()
            cfg = DpaConfig(
                worker_threads=threads, per_cqe_seconds=1e-6,
                pcie_update_seconds=0.0,
            )
            engine = DpaEngine(sim, cfg)
            engine.spawn_workers()
            cqs = [CompletionQueue(sim) for _ in range(threads)]
            for cq in cqs:
                engine.attach(cq, lambda c: False)
            n_per_cq = 1000
            for cq in cqs:
                for _ in range(n_per_cq):
                    cq.push(cqe())
            sim.run(until=n_per_cq * 1e-6 + 1e-9)
            assert engine.cqes_processed == threads * n_per_cq

    def test_worker_capacity_enforced(self):
        sim = Simulator()
        engine = DpaEngine(sim, DpaConfig(worker_threads=16))
        engine.spawn_workers(250)
        with pytest.raises(ConfigError):
            engine.spawn_workers(10)
        with pytest.raises(ConfigError, match="worker count must be > 0, got 0"):
            engine.spawn_workers(0)
        assert len(engine.workers) == 250

    def test_utilization(self):
        sim = Simulator()
        cfg = DpaConfig(worker_threads=1, per_cqe_seconds=1e-3)
        engine = DpaEngine(sim, cfg)
        cq = CompletionQueue(sim)
        engine.attach(cq, lambda c: False)
        cq.push(cqe())
        sim.run(until=2e-3)
        assert engine.utilization(2e-3) == pytest.approx(0.5)
        assert engine.utilization(0) == 0.0


class TestFaultInjection:
    def _engine(self, sim, threads=2):
        cfg = DpaConfig(
            worker_threads=threads, per_cqe_seconds=1e-6,
            pcie_update_seconds=0.0,
        )
        engine = DpaEngine(sim, cfg)
        engine.spawn_workers()
        return engine

    def test_stall_defers_processing(self):
        sim = Simulator()
        engine = self._engine(sim, threads=1)
        cq = CompletionQueue(sim)
        seen = []
        engine.attach(cq, lambda c: (seen.append(sim.now), False)[1])
        engine.stall_worker(0, until=0.5)
        for _ in range(3):
            cq.push(cqe())
        sim.run(until=0.25)
        assert seen == []  # frozen inside the window
        sim.run(until=1.0)
        assert len(seen) == 3
        assert all(t >= 0.5 for t in seen)

    def test_stall_extends_not_shrinks(self):
        sim = Simulator()
        engine = self._engine(sim, threads=1)
        engine.stall_worker(0, until=0.5)
        engine.stall_worker(0, until=0.2)  # shorter: no effect
        assert engine.workers[0]._stall_until == 0.5

    def test_crash_fails_over_to_survivor(self):
        sim = Simulator()
        engine = self._engine(sim, threads=2)
        cq = CompletionQueue(sim)
        seen = []
        engine.attach(cq, lambda c: (seen.append(sim.now), False)[1])
        sim.call_in(0.5, lambda: engine.crash_worker(0))
        sim.call_in(0.6, lambda: cq.push(cqe()))
        sim.run(until=1.0)
        assert engine.workers[0].crashed
        assert len(seen) == 1  # the survivor picked up the failed-over CQ
        assert engine.workers[1].stats.cqes_processed == 1

    def test_crash_with_no_survivors_orphans_queues(self):
        sim = Simulator()
        engine = self._engine(sim, threads=1)
        cq = CompletionQueue(sim)
        engine.attach(cq, lambda c: False)
        assert engine.crash_worker(0) == 0
        assert engine.orphaned and engine.orphaned[0][0] is cq
        cq.push(cqe())
        sim.run(until=1.0)
        assert engine.cqes_processed == 0
        # Late attaches to a dead pool are orphaned too, not lost.
        cq2 = CompletionQueue(sim)
        engine.attach(cq2, lambda c: False)
        assert len(engine.orphaned) == 2

    def test_assign_to_crashed_worker_rejected(self):
        sim = Simulator()
        engine = self._engine(sim, threads=1)
        engine.crash_worker(0)
        with pytest.raises(ConfigError):
            engine.workers[0].assign(CompletionQueue(sim), lambda c: False)

    def test_sleeping_worker_wakes_for_late_assigned_cq(self):
        sim = Simulator()
        engine = self._engine(sim, threads=1)
        worker = engine.workers[0]
        idle_cq = CompletionQueue(sim)
        seen = []
        worker.assign(idle_cq, lambda c: False)  # sleeps on an empty CQ

        def late_assign():
            late_cq = CompletionQueue(sim)
            late_cq.push(cqe())
            worker.assign(late_cq, lambda c: (seen.append(sim.now), False)[1])

        sim.call_in(0.5, late_assign)
        sim.run(until=1.0)
        assert len(seen) == 1
        assert seen[0] == pytest.approx(0.5 + 1e-6)
