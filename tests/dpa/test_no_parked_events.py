"""Regression: a served CQ holds no parked ``Event``, however often its worker idles.

The generator worker parked one ``wait_nonempty()`` event on each of its
CQs per idle period and was woken through one of them; the others stayed
behind in ``CompletionQueue._wakeups`` and were all fired, dead, by that
CQ's next push.  With eight CQs on one worker the lists grew by up to
seven entries per idle period.
"""

from repro.cc.incast import run_incast
from repro.dpa.worker import DpaEngine


def test_incast_leaves_no_waiter_on_any_sdr_receive_cq(monkeypatch):
    served = []
    attach = DpaEngine.attach

    def recording_attach(self, cq, handler):
        served.append(cq)
        attach(self, cq, handler)

    monkeypatch.setattr(DpaEngine, "attach", recording_attach)
    result = run_incast(senders=8, cc="swift", messages_per_sender=3)
    receive_cqs = [cq for cq in served if cq.name.startswith("dst.")]
    assert len(receive_cqs) >= 8
    assert sum(cq.total_posted for cq in receive_cqs) > 300
    assert [len(cq._wakeups) for cq in served] == [0] * len(served)
    assert [len(cq) for cq in served] == [0] * len(served)
    assert not result.sim._heap
