"""Ablation: zero-copy UC backend vs UD-style staging backend (Section 2.3).

The paper builds SDR on UC because UD's out-of-order handling forces
intermediate staging: every received byte crosses host memory once more
before it is usable.  This bench drives both backends at 400 Gbit/s and
shows the staging copy engine capping throughput at its memory bandwidth
while the zero-copy path rides the wire.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.sdr import context_create
from repro.sdr.qp import SdrRecvWr, SdrSendWr
from repro.sdr.staged import StagedSdrQp
from repro.sim import Simulator
from repro.verbs import Fabric

from conftest import run_once, show

SIZE = 2 * MiB
N_MESSAGES = 6


def _throughput(copy_bps: float | None) -> float:
    """Drain N messages; returns delivered bits/s.

    ``copy_bps=None`` uses the zero-copy UC backend; otherwise the staged
    backend with the given host copy bandwidth.
    """
    sim = Simulator()
    fabric = Fabric(sim, seed=0)
    a, b = fabric.add_device("a"), fabric.add_device("b")
    channel = ChannelConfig(bandwidth_bps=400e9, distance_km=0.1, mtu_bytes=4 * KiB)
    fabric.connect(a, b, channel)
    cfg = SdrConfig(chunk_bytes=64 * KiB, max_message_bytes=SIZE, channels=16)
    ctx_a = context_create(a, sdr_config=cfg)
    ctx_b = context_create(b, sdr_config=cfg)
    qa = ctx_a.qp_create()
    if copy_bps is None:
        qb = ctx_b.qp_create()
    else:
        qb = StagedSdrQp(ctx_b, cfg, copy_bps=copy_bps)
        ctx_b.qps.append(qb)
    qa.connect(qb.info_get())
    qb.connect(qa.info_get())
    mr = ctx_b.mr_reg(SIZE)
    handles = []

    def prepost():
        # Prepost the full pipeline so CTS/repost latency is off the path.
        handles.extend(
            qb.recv_post(SdrRecvWr(mr=mr, length=SIZE)) for _ in range(N_MESSAGES)
        )

    # The server posts in the first dispatch at t = 0, after the sends.
    sim.call_in(0.0, prepost)
    for _ in range(N_MESSAGES):
        qa.send_post(SdrSendWr(length=SIZE))
    sim.run(until=0.0)
    for rh in handles:
        sim.run(rh.wait_all_chunks())
        rh.complete()
    return SIZE * N_MESSAGES * 8 / sim.now


def test_ablation_staging_backend(benchmark):
    def sweep():
        table = Table(
            title="Ablation: zero-copy UC backend vs UD staging backend",
            columns=["backend", "copy_bw_gbps", "goodput_gbps"],
            notes="400 Gbit/s wire; staging copies every byte through host memory",
        )
        table.add_row("uc-zero-copy", "-", round(_throughput(None) / 1e9, 1))
        for copy_bps in (800e9, 200e9, 100e9):
            table.add_row(
                "ud-staged",
                copy_bps / 1e9,
                round(_throughput(copy_bps) / 1e9, 1),
            )
        return table

    table = run_once(benchmark, sweep)
    show(table)
    rows = table.rows
    uc = rows[0][2]
    staged = {row[1]: row[2] for row in rows[1:]}
    # Zero-copy rides the wire.
    assert uc > 0.85 * 400
    # An over-provisioned copier keeps up...
    assert staged[800.0] > 0.8 * uc
    # ...but an under-provisioned one caps goodput near its bandwidth.
    assert staged[100.0] < 120
    assert staged[100.0] < staged[200.0] < staged[800.0] + 1e-9
