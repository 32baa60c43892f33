"""Reliability conformance: one scenario table run against every scheme.

Every endpoint pair -- SR, SR + NACK, EC, sampling, GBN, adaptive -- is a
policy over the same substrate (``repro.reliability.base``), so every pair
must meet the same contract: payloads round-trip, a dead data path ends
both tickets in a :class:`DeliveryError` that tells the truth about the
bitmap and leaves nothing open, an armed resumption completes, and a seed
fixes the trace.  The toy scheme at the bottom is the paper's SDK claim as
an executable check: a new scheme written only against the ``Sender`` /
``Receiver`` hooks, registered by name like the built-in ones.  The table
must cover the scheme registry, so none can be added outside the matrix.
"""

import io
import math

import numpy as np
import pytest

from repro.common.errors import DeliveryError
from repro.common.units import KiB, distance_to_rtt
from repro.faults import FaultSchedule, FaultWindow
from repro.reliability import SCHEMES as REGISTRY, register_scheme
from repro.reliability.ec import EcConfig
from repro.reliability.messages import Done
from repro.reliability.sr import SrConfig
from repro.stack import endpoints
from repro.telemetry import JsonlSink, RingBufferSink, Telemetry

from tests.conftest import drains_within, make_sdr_pair
from tests.reliability.conftest import random_payload

SIZE = 256 * KiB  # 32 chunks of 8 KiB
NCHUNKS = 32
#: Slow enough that a fault window can open mid-injection.
BANDWIDTH = 10e9
RTT = distance_to_rtt(100.0)  # make_sdr_pair's default link


def _scheme(name, **base):
    """Builder for a registered scheme whose two endpoints share one config."""

    def build(pair, **knobs):
        sender_type, _, overrides = REGISTRY[name]
        config = sender_type.config_type(**{**overrides, **base, **knobs})
        return endpoints(name, pair, config)

    return build


def _adaptive(pair, *, sr=None, ec=None):
    return endpoints(
        "adaptive", pair,
        sr_config=SrConfig(**(sr or {})), ec_config=EcConfig(k=8, m=4, **(ec or {})),
    )


_SR_TIGHT = dict(max_message_retransmits=8, serve_deadline_rtts=60.0)
_SR_RESUMABLE = dict(max_message_retransmits=8, max_resumptions=8)
_EC_TIGHT = dict(global_timeout_rtts=10.0, serve_deadline_rtts=20.0)
_EC_RESUMABLE = dict(global_timeout_rtts=10.0, max_resumptions=4)
_SAMPLING_IDLE = dict(idle_timeout_rtts=2.0, max_idle_timeouts=2)

#: scheme -> (builder, knobs that make a dead path fail fast, knobs that arm
#: resumption instead -- None where the scheme has no resumption).
SCHEMES = {
    "sr": (_scheme("sr"), _SR_TIGHT, _SR_RESUMABLE),
    "sr_nack": (_scheme("sr_nack"), _SR_TIGHT, _SR_RESUMABLE),
    "ec": (_scheme("ec", k=8, m=4), _EC_TIGHT, _EC_RESUMABLE),
    "sampling": (
        _scheme("sampling"),
        dict(_SAMPLING_IDLE, serve_deadline_rtts=60.0),
        dict(_SAMPLING_IDLE, max_resumptions=2),
    ),
    "gbn": (
        _scheme("gbn"),
        dict(max_chunk_retransmits=3, serve_deadline_rtts=60.0),
        None,
    ),
    "adaptive": (_adaptive, dict(sr=_SR_TIGHT, ec=_EC_TIGHT), None),
}
RESUMABLE = [name for name, (_, _, knobs) in SCHEMES.items() if knobs is not None]


def test_every_registered_scheme_is_in_the_matrix():
    """A scheme cannot be registered without entering the table above."""
    assert set(REGISTRY.complete()) <= set(SCHEMES)


def data_blackout(start: float, end: float = math.inf) -> FaultSchedule:
    """Data packets die inside the window; the control path stays up."""
    return FaultSchedule(
        (FaultWindow(kind="blackout", start=start, end=end, selector="data"),),
        name="data-blackout",
    )


def transfer(scheme, knobs=None, *, seed=0, trace=None, **pair_kw):
    """One SIZE-byte write under ``scheme``; the simulation runs dry."""
    if trace is not None:
        pair_kw["telemetry"] = Telemetry(trace=True, trace_sinks=[trace])
    pair = make_sdr_pair(seed=seed, inflight=64, **pair_kw)
    sender, receiver = SCHEMES[scheme][0](pair, **(knobs or {}))
    payload = random_payload(SIZE, seed)
    buf = bytearray(SIZE)
    rx = receiver.post_receive(pair.ctx_b.mr_reg(SIZE, data=buf), SIZE)
    tx = sender.write(SIZE, payload)
    pair.sim.run()  # returning at all is the "never a wedge" check
    return pair, tx, rx, payload, buf


def assert_delivered(pair, tx, rx, payload, buf):
    assert tx.done.ok and rx.done.ok
    assert not tx.failed
    assert bytes(buf) == payload
    assert not pair.qp_a._send_handles  # no SendHandle outlives its write


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_lossless_round_trip(scheme):
    assert_delivered(*transfer(scheme))


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_lossy_round_trip(scheme):
    assert_delivered(*transfer(scheme, drop=0.02, seed=1))


def _error(ticket) -> DeliveryError:
    assert ticket.done.triggered
    with pytest.raises(DeliveryError) as excinfo:
        ticket.done.value
    return excinfo.value


def _mask(error: DeliveryError) -> np.ndarray:
    bits = np.unpackbits(np.frombuffer(error.bitmap, dtype=np.uint8))
    return bits[: error.total_chunks].astype(bool)


@pytest.mark.chaos
@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_dead_data_path_fails_both_sides_cleanly(scheme, chaos_seed):
    """The data path dies for good part-way through the first transmission."""
    fraction = (1 + chaos_seed % 3) / 4
    ring = RingBufferSink(capacity=1 << 16)
    pair, tx, rx, _, _ = transfer(
        scheme, SCHEMES[scheme][1], seed=chaos_seed, trace=ring,
        bandwidth_bps=BANDWIDTH,
        faults=data_blackout(RTT / 2 + fraction * SIZE * 8 / BANDWIDTH),
    )
    sent, received = _error(tx), _error(rx)
    assert tx.failed
    assert sent.total_chunks == received.total_chunks == NCHUNKS

    # The receiver's error is its chunk bitmap: data slots in message order
    # (EC splits the message over several, parity slots follow them).
    data_slots, chunks = [], 0
    for rh in rx.recv_handles:
        if chunks < NCHUNKS:
            data_slots.append(rh)
            chunks += rh.nchunks
    present = np.concatenate(
        [rh.bitmap().as_array().astype(bool) for rh in data_slots]
    )
    assert 0 < present.sum() < NCHUNKS  # the fault really landed mid-message
    assert _mask(received).tolist() == present.tolist()
    assert received.delivered_chunks == present.sum()

    # The sender claims no chunk the receiver lacks; a scheme with no
    # per-chunk ACK state by design claims nothing at all.
    assert sent.delivered_chunks <= present.sum()
    if sent.bitmap:
        assert not (_mask(sent) & ~present).any()
        assert sent.delivered_chunks == _mask(sent).sum()

    # Stream-leak regression: a failed write ends every stream it opened,
    # so each gets its send_inject span and none stays registered.
    assert not pair.qp_a._send_handles
    events = list(ring.events)
    posted = [e for e in events if e.name == "tx" and e.args.get("attempt") == 0]
    spans = {e.args["seq"] for e in events if e.name == "send_inject"}
    assert spans and spans >= {e.args["msg"] for e in posted}


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 24(c): a write shorter than its receive is never refused",
)
@pytest.mark.parametrize("scheme", ["ec", "sampling", "sr"])
def test_a_write_shorter_than_its_receive_is_refused_on_both_sides(scheme):
    """A 128 KiB write into a 256 KiB receive: every chunk of the write
    arrives, and both tickets still end at once, each in a refusal that
    names both lengths."""
    pair = make_sdr_pair()
    tx_end, rx_end = _scheme(scheme)(pair)
    rx = rx_end.post_receive(pair.ctx_b.mr_reg(SIZE), SIZE)
    tx = tx_end.write(SIZE // 2)
    drains_within(pair.sim, dispatches=20_000, sim_seconds=0.1)
    for ticket in (tx, rx):
        assert ticket.done.triggered and not ticket.done.ok
        with pytest.raises(DeliveryError, match=f"{SIZE // 2}.*{SIZE}|{SIZE}.*{SIZE // 2}"):
            ticket.done.value


@pytest.mark.parametrize("scheme", RESUMABLE)
def test_resumption_finishes_the_write(scheme):
    """A data blackout outlives the retry budget; resumption is armed."""
    pair, tx, rx, payload, buf = transfer(
        scheme, SCHEMES[scheme][2], faults=data_blackout(0.0, 12 * RTT)
    )
    assert_delivered(pair, tx, rx, payload, buf)
    # Observable without reaching into the SR backstop: the tickets and
    # the registry carry the hand-off.
    assert tx.resumptions >= 1 and rx.resumptions >= 1
    metrics = pair.sim.telemetry.metrics
    assert metrics.value("recovery.dc-b.resumes_granted") >= 1
    assert metrics.value("recovery.dc-a.resumes_completed") == 1


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_same_seed_same_trace(scheme):
    def run() -> str:
        out = io.StringIO()
        transfer(scheme, drop=0.02, seed=3, trace=JsonlSink(out))
        return out.getvalue()

    first = run()
    assert first and first == run()


# -- the SDK claim: a new scheme in <= 40 lines, on the public hooks only ---------


def toy_scheme():
    """"Inject every chunk twice; the receiver sends one Done"."""
    from repro.reliability.base import Receiver, Sender

    class TwiceSender(Sender):
        scheme = "twice"
        config_type = SrConfig

        def _start(self, state):
            for attempt in (0, 1):
                for index in range(state.nchunks):
                    self._send_chunk(state, index, attempt=attempt)

        def _on_ctrl(self, msg):
            if isinstance(msg, Done) and msg.msg_seq in self._states:
                self._complete_write(self._states.pop(msg.msg_seq))

    class TwiceReceiver(Receiver):
        scheme = "twice"
        config_type = SrConfig

        def _serve(self, ticket, rh):
            def done():
                self.ctrl.send(Done(msg_seq=rh.seq))

            def finish():
                done()
                self._finish(ticket, [rh], done, 2 * self.rtt)

            self._watch(ticket, rh, self.rtt, lambda: None, finish)

    return TwiceSender, TwiceReceiver


@pytest.fixture
def twice(monkeypatch):
    """The toy scheme, registered the public way for one test."""
    register_scheme("twice", *toy_scheme())
    monkeypatch.setitem(SCHEMES, "twice", (_scheme("twice"), None, None))
    yield
    del REGISTRY["twice"]


def test_toy_scheme_on_the_public_hooks_completes_under_loss(twice):
    pair, tx, rx, payload, buf = transfer("twice", drop=0.01, seed=2)
    assert_delivered(pair, tx, rx, payload, buf)
    assert pair.sim.telemetry.metrics.value("twice.dc-a.writes_completed") == 1
