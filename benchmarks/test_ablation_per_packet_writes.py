"""Ablation: one Write per packet vs chunk-sized UC Writes (Section 3.2.1).

The paper rejects the "simplest solution" of one Write-with-immediate per
chunk because UC's ePSN check aborts any multi-packet message whose packets
arrive out of order; SDR instead issues one single-packet Write per MTU.
This bench sweeps path jitter and measures message survival for both
strategies over raw UC QPs.
"""

from repro.common.config import ChannelConfig
from repro.common.units import KiB
from repro.experiments.report import Table
from repro.stack import build_pair
from repro.verbs.cq import CompletionQueue
from repro.verbs.mr import MemoryRegion
from repro.verbs.qp import SendWr, UcQp

from conftest import run_once, show

CHUNK = 64 * KiB  # 16 packets
N_CHUNKS = 32


def _survival(jitter: float, per_packet: bool, seed: int) -> float:
    # Only the two devices and their link are used: the QPs under test are
    # raw UC QPs beside the (idle) SDR ones.
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=200.0, jitter_fraction=jitter
    )
    wire = build_pair(channel, seed=seed, names=("a", "b"))

    def cq(name: str) -> CompletionQueue:
        return CompletionQueue(wire.sim, name=name)

    qa = UcQp(wire.dev_a, send_cq=cq("s"), recv_cq=cq("sr"))
    qb = UcQp(wire.dev_b, send_cq=cq("r"), recv_cq=cq("rr"))
    qa.connect(qb.info())
    qb.connect(qa.info())
    mr = MemoryRegion(N_CHUNKS * CHUNK)
    wire.dev_b.reg_mr(mr)
    if per_packet:
        total = N_CHUNKS * (CHUNK // (4 * KiB))
        for i in range(total):
            qa.post_send(
                SendWr(
                    length=4 * KiB, rkey=mr.rkey,
                    remote_offset=i * 4 * KiB, immediate=i,
                )
            )
    else:
        total = N_CHUNKS
        for i in range(N_CHUNKS):
            qa.post_send(
                SendWr(
                    length=CHUNK, rkey=mr.rkey,
                    remote_offset=i * CHUNK, immediate=i,
                )
            )
    wire.sim.run()
    completed = len(qb.recv_cq.poll(100_000))
    return completed / total


def test_ablation_per_packet_vs_chunk_writes(benchmark):
    def sweep():
        table = Table(
            title="Ablation: UC Write granularity vs path jitter",
            columns=["jitter_frac", "chunk_writes_survival",
                     "per_packet_survival"],
            notes="survival = completed messages / sent (lossless but jittery path)",
        )
        for jitter in (0.0, 0.5, 2.0, 5.0):
            chunk = _survival(jitter, per_packet=False, seed=7)
            pp = _survival(jitter, per_packet=True, seed=7)
            table.add_row(jitter, round(chunk, 4), round(pp, 4))
        return table

    table = run_once(benchmark, sweep)
    show(table)
    chunk_rates = table.column("chunk_writes_survival")
    pp_rates = table.column("per_packet_survival")
    # Per-packet writes never lose a message, at any jitter.
    assert all(r == 1.0 for r in pp_rates)
    # Chunk writes are fine on an ordered path but collapse under jitter.
    assert chunk_rates[0] == 1.0
    assert chunk_rates[-1] < 0.5
    assert chunk_rates == sorted(chunk_rates, reverse=True)
