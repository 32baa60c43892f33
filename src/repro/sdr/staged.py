"""SDR over a UD-style staging backend (the Section 2.3 ablation).

The paper's reason for building SDR on UC rather than UD: "due to the
possibility of out-of-order packets ... [UD] comes at the cost of
intermediate packet staging in the host CPU or NIC memory on the receive
side".  A UD receive consumes an anonymous receive WQE, so payloads land in
bounce buffers and a host copy engine must move every byte into the user
buffer before the chunk is usable.

:class:`StagedSdrQp` models that backend: packets are validated on the DPA
exactly as in the zero-copy path, but bitmap updates (and hence chunk
publication) wait behind a FIFO host copy engine with finite ``copy_bps``
memory bandwidth.  When the wire outruns the copy engine, the copy queue --
not the DPA -- becomes the bottleneck, which is the quantitative argument
for the zero-copy UC design (claim row ``ablation_staging_backend``).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.common.config import SdrConfig
from repro.common.errors import ConfigError
from repro.sdr.qp import SdrQp
from repro.verbs.cq import Cqe

if TYPE_CHECKING:  # import cycle guard
    from repro.sdr.context import SdrContext


class StagedSdrQp(SdrQp):
    """SDR QP whose receive path pays a host staging copy per packet."""

    def __init__(
        self,
        ctx: "SdrContext",
        config: SdrConfig,
        *,
        copy_bps: float = 200e9,
    ):
        if copy_bps <= 0:
            raise ConfigError(f"copy bandwidth must be > 0, got {copy_bps}")
        super().__init__(ctx, config)
        self.copy_bps = copy_bps
        self._copy_queue: deque[tuple[object, int, int, int]] = deque()
        self._parked = False  # set while the copier waits for a packet
        self.bytes_copied = 0
        self.copy_busy_seconds = 0.0
        self.sim.call_in(0.0, self._copy)

    # -- receive path -----------------------------------------------------------

    def _process_data_cqe(self, cqe: Cqe) -> bool:
        validated = self._validate_data_cqe(cqe)
        if validated is None:
            return False
        hdl, pkt_idx, frag = validated
        self._copy_queue.append((hdl, pkt_idx, frag, cqe.byte_len))
        if self._parked:
            self._parked = False
            self.sim.call_in(0.0, self._copy)
        # Chunk-close PCIe accounting happens after the copy, not here.
        return False

    def _copy(self, done: tuple | None = None, cost: float = 0.0) -> None:
        """FIFO host copier: one packet per ``cost``; ``done`` is the one just copied."""
        if done is not None:
            hdl, pkt_idx, frag, nbytes = done
            self.bytes_copied += nbytes
            self.copy_busy_seconds += cost
            if not hdl.completed:
                self._record_packet(hdl, pkt_idx, frag)
        if not self._copy_queue:
            self._parked = True
            return
        done = self._copy_queue.popleft()
        cost = done[3] / (self.copy_bps / 8.0)  # bytes / (bytes per second)
        self.sim.call_in(cost, self._copy, done, cost)
