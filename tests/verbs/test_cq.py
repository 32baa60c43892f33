"""Completion queue semantics."""

import pytest

from repro.common.errors import ResourceError
from repro.net.packet import Opcode
from repro.sim.engine import Simulator
from repro.verbs.cq import CompletionQueue, Cqe, CqeStatus


def cqe(qpn=1, imm=None):
    return Cqe(
        qpn=qpn, opcode=Opcode.WRITE_ONLY_IMM, byte_len=64, timestamp=0.0,
        immediate=imm,
    )


class TestCq:
    def test_push_poll_fifo(self):
        cq = CompletionQueue(Simulator())
        for i in range(3):
            cq.push(cqe(imm=i))
        got = cq.poll(max_entries=10)
        assert [c.immediate for c in got] == [0, 1, 2]
        assert len(cq.entries) == 0

    def test_poll_limit(self):
        cq = CompletionQueue(Simulator())
        for i in range(5):
            cq.push(cqe())
        assert len(cq.poll(max_entries=2)) == 2
        assert len(cq.entries) == 3

    def test_poll_invalid_limit(self):
        with pytest.raises(ResourceError):
            CompletionQueue(Simulator()).poll(0)

    def test_capacity_overflow_counted(self):
        cq = CompletionQueue(Simulator(), capacity=2)
        for _ in range(4):
            cq.push(cqe())
        assert len(cq.entries) == 2
        metrics = cq.sim.telemetry.metrics
        assert metrics.value(f"cq.{cq.name}.overflows") == 2
        assert metrics.value(f"cq.{cq.name}.cqes_posted") == 2

    def test_listener_invoked(self):
        cq = CompletionQueue(Simulator())
        seen = []
        cq.attach(lambda q: seen.append(len(q.entries)))
        cq.push(cqe())
        assert seen == [1]

    def test_wait_nonempty_fires_immediately_if_pending(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        cq.push(cqe())
        ev = cq.wait_nonempty()
        assert ev.triggered

    def test_wait_nonempty_fires_on_push(self):
        sim = Simulator()
        cq = CompletionQueue(sim)
        ev = cq.wait_nonempty()
        assert not ev.triggered
        sim.call_in(1.0, lambda: cq.push(cqe()))
        sim.run(ev)
        assert sim.now == pytest.approx(1.0)


class TestCqeRecord:
    """``Cqe`` is tuple-backed; what the frozen dataclass promised still holds."""

    FULL = Cqe(
        qpn=3, opcode=Opcode.WRITE_ONLY_IMM, byte_len=64, timestamp=1.5,
        immediate=9, wr_id=4, status=CqeStatus.LOCAL_ERROR, generation=2,
        msg_seq=7, pkt_idx=11, chunk=1, ce=True,
    )

    @pytest.mark.parametrize("name", Cqe._fields)
    def test_fields_are_read_only(self, name):
        with pytest.raises(AttributeError):
            setattr(self.FULL, name, 0)
        with pytest.raises(AttributeError):
            self.FULL.extra = 0  # no instance dict either

    def test_defaults(self):
        bare = Cqe(1, Opcode.UD_SEND, 64, 0.0)
        assert bare[4:] == (None, None, CqeStatus.SUCCESS, 0, None, None, None, False)

    def test_positional_order_is_the_field_order(self):
        # Hot sites build entries positionally (docs/simulation.md).
        built = Cqe(
            3, Opcode.WRITE_ONLY_IMM, 64, 1.5, 9, 4, CqeStatus.LOCAL_ERROR,
            2, 7, 11, 1, True,
        )
        assert tuple(built) == tuple(self.FULL)

    @pytest.mark.parametrize(
        "lineage",
        [dict(generation=5), dict(msg_seq=1), dict(pkt_idx=0), dict(chunk=9),
         dict(ce=False)],
    )
    def test_equality_ignores_the_lineage_fields(self, lineage):
        other = self.FULL._replace(**lineage)
        assert tuple(other) != tuple(self.FULL)
        assert other == self.FULL and not other != self.FULL
        assert hash(other) == hash(self.FULL)

    @pytest.mark.parametrize(
        "field",
        [dict(qpn=4), dict(opcode=Opcode.UD_SEND), dict(byte_len=1),
         dict(timestamp=2.0), dict(immediate=None), dict(wr_id=5),
         dict(status=CqeStatus.SUCCESS)],
    )
    def test_equality_sees_every_other_field(self, field):
        other = self.FULL._replace(**field)
        assert other != self.FULL and not other == self.FULL
