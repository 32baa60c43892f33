"""Live memory is bounded by what is in flight, not by what was served.

A scheme that registers per-message resources and never releases them
grows without bound over a long run: the EC parity scratch once did, 2 x
128 KiB per ``wan_ec`` message.  The benchmark's ``peak_rss_mib`` sees
such a leak only at full size, so this runs every registered scheme
closed loop for N messages, then N more, and bounds what stays live
between the two marks.
"""

import gc
import tracemalloc

import pytest

from repro.common.units import KiB
from repro.reliability import SCHEMES
from repro.stack import endpoints

from tests.conftest import make_sdr_pair
from tests.reliability.conftest import random_payload

SIZE = 256 * KiB
N = 6
#: What one more served message may leave live (a counter sample, an
#: entry in adaptive's protocol history): far below one 8 KiB chunk.
PER_MESSAGE = 8 * KiB


def _live_bytes() -> int:
    gc.collect()
    return tracemalloc.get_traced_memory()[0]


@pytest.mark.parametrize("scheme", sorted(SCHEMES.complete()))
def test_live_memory_does_not_grow_with_messages_served(scheme):
    payloads = [random_payload(SIZE, seed) for seed in range(2)]
    # 2 % loss: EC decodes, SR retransmits, adaptive picks EC.
    pair = make_sdr_pair(drop=0.02, seed=3, inflight=64)
    sender, receiver = endpoints(scheme, pair)
    buf = bytearray(SIZE)
    mr = pair.ctx_b.mr_reg(SIZE, data=buf)

    def serve(count: int) -> None:
        for i in range(count):
            payload = payloads[i % 2]
            rx = receiver.post_receive(mr, SIZE)
            pair.sim.run(sender.write(SIZE, payload).done)
            assert rx.done.ok and bytes(buf) == payload
        pair.sim.run()  # grace re-ACKs end, receivers forget the messages

    serve(1)  # lazy imports and first-use caches load untraced
    tracemalloc.start()
    try:
        serve(N)
        first = _live_bytes()
        serve(N)
        grown = _live_bytes() - first
    finally:
        tracemalloc.stop()
    assert grown < N * PER_MESSAGE, (
        f"{scheme}: {grown / N:,.0f} B stay live per extra message"
    )
