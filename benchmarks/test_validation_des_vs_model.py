"""Validation: the packet-level DES against the Section 4.2 models.

The paper validates its stochastic model against the analytic expectation
(Section 5.1.1); this repo has a third level -- the packet-granular DES
with real protocol machinery.  This bench runs the same writes at both
levels across a small grid and reports the ratio.  The DES carries real
protocol overheads (CTS, ACK cadence, repost), so ratios sit slightly
above 1 and within documented bounds.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.models.params import ModelParams
from repro.models.sr_model import sr_expected_completion
from repro.reliability.sr import SrConfig
from repro.stack import build_pair, endpoints

from conftest import run_once, show

CHUNK = 8 * KiB
SDR = SdrConfig(chunk_bytes=CHUNK, max_message_bytes=4 * MiB, channels=4)


def _channel(drop: float) -> ChannelConfig:
    return ChannelConfig(
        bandwidth_bps=100e9, distance_km=100.0, drop_probability=drop
    )


def _des_mean(size: int, drop: float, seeds) -> float:
    total = 0.0
    for seed in seeds:
        pair = build_pair(_channel(drop), SDR, seed=seed)
        sender, receiver = endpoints("sr", pair, SrConfig(nack_enabled=False))
        mr = pair.ctx_b.mr_reg(size)
        receiver.post_receive(mr, size)
        ticket = sender.write(size)
        pair.sim.run(ticket.done)
        total += ticket.completion_time
    return total / len(seeds)


def test_validation_des_vs_model(benchmark):
    def sweep():
        table = Table(
            title="Validation: DES SR writes vs analytic model (100 Gbit/s, 100 km)",
            columns=["size_B", "p_drop", "model_ms", "des_ms", "ratio"],
            notes="ratio > 1 reflects real protocol overheads (CTS, ACK cadence)",
        )
        for size in (512 * KiB, 2 * MiB):
            for drop in (0.0, 5e-3):
                params = ModelParams.from_channel(
                    _channel(drop), chunk_bytes=CHUNK
                )
                model = sr_expected_completion(params, params.chunks_in(size))
                des = _des_mean(size, drop, seeds=(61, 62, 63))
                table.add_row(
                    size, drop, round(model * 1e3, 3), round(des * 1e3, 3),
                    round(des / model, 3),
                )
        return table

    table = run_once(benchmark, sweep)
    show(table)
    ratios = table.column("ratio")
    # The DES should track the model within protocol-overhead factors.
    assert all(0.6 <= r <= 2.5 for r in ratios)
    # Lossless points are tight (overheads only).
    lossless = [
        row[4] for row in table.rows if row[1] == 0.0
    ]
    assert all(r <= 1.8 for r in lossless)
