"""SDR context: device-level resources shared by SDR QPs.

``context_create`` in Table 1 allocates the hardware resources all QPs of a
process share: the DPA worker pool and completion queues.  In the simulation
an :class:`SdrContext` owns one :class:`~repro.dpa.DpaEngine` and provides
``mr_reg`` for user buffers.
"""

from __future__ import annotations

from repro.common.config import DpaConfig, SdrConfig
from repro.dpa.worker import DpaEngine
from repro.sdr.qp import SdrQp
from repro.verbs.device import Device
from repro.verbs.mr import MemoryRegion


class SdrContext:
    """Per-device SDR runtime state (CQs, DPA threads, QPs)."""

    def __init__(
        self,
        device: Device,
        *,
        sdr_config: SdrConfig | None = None,
        dpa_config: DpaConfig | None = None,
    ):
        self.device = device
        self.sim = device.sim
        self.sdr_config = sdr_config if sdr_config is not None else SdrConfig()
        self.dpa_config = dpa_config if dpa_config is not None else DpaConfig()
        self.dpa = DpaEngine(self.sim, self.dpa_config, name=f"{device.name}.dpa")
        self.dpa.spawn_workers()
        self.qps: list[SdrQp] = []

    def qp_create(self, config: SdrConfig | None = None) -> SdrQp:
        """``qp_create``: a new SDR QP within this context."""
        qp = SdrQp(self, config if config is not None else self.sdr_config)
        self.qps.append(qp)
        return qp

    def mr_reg(
        self, length: int, *, data: bytearray | None = None, name: str = ""
    ) -> MemoryRegion:
        """``mr_reg``: register memory for send/receive via QPs in the context.

        Pass ``data`` (a bytearray of ``length``) for payload-carrying runs;
        omit it for sized-only benchmark runs.
        """
        mr = MemoryRegion(length, data=data, name=name or f"{self.device.name}.mr")
        self.device.reg_mr(mr)
        return mr

    def channel_rtt_hint(self) -> float:
        """RTT of the device's first link (a connected QP's device has one);
        used for CTS refresh pacing."""
        return self.device.link_to(self.device.peers[0]).config.rtt


def context_create(
    device: Device,
    *,
    sdr_config: SdrConfig | None = None,
    dpa_config: DpaConfig | None = None,
) -> SdrContext:
    """``context_create``: allocate the HW resources shared by SDR QPs."""
    return SdrContext(device, sdr_config=sdr_config, dpa_config=dpa_config)
