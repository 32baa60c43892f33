"""Ablation: adaptive per-connection provisioning vs static protocols.

Section 2.1: endpoints talking to peers over channels with very different
loss rates need per-connection provisioning.  We run the same message
stream over a clean link and a lossy link and compare three policies:
always-SR, always-EC, and the adaptive layer (receiver-driven, model
advised).  Adaptive should track the best static choice on each link.
"""

from repro.common.config import ChannelConfig, SdrConfig
from repro.common.units import KiB, MiB
from repro.experiments.report import Table
from repro.reliability.adaptive import DropRateEstimator
from repro.reliability.ec import EcConfig
from repro.stack import build_pair, endpoints

from conftest import run_once, show

SIZE = 512 * KiB
N_MESSAGES = 6
EC_CFG = EcConfig(codec="mds", k=8, m=4)
SDR = SdrConfig(
    chunk_bytes=8 * KiB, max_message_bytes=4 * MiB, channels=4,
    inflight_messages=64,
)
#: policy -> what ``endpoints`` is given beyond the scheme's name.
POLICIES = {"sr": {}, "ec": {"config": EC_CFG}, "adaptive": {"ec_config": EC_CFG}}


def _run(policy: str, drop: float, seed: int) -> tuple[float, list[str]]:
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=100.0, drop_probability=drop
    )
    pair = build_pair(channel, SDR, seed=seed)
    sender, receiver = endpoints(policy, pair, **POLICIES[policy])
    history = [policy] * N_MESSAGES
    if policy == "adaptive":
        receiver.estimator = DropRateEstimator(initial=1e-6, alpha=0.5)
        history = None
    mr = pair.ctx_b.mr_reg(SIZE)
    total = 0.0
    for _ in range(N_MESSAGES):
        receiver.post_receive(mr, SIZE)
        ticket = sender.write(SIZE)
        pair.sim.run(ticket.done)
        total += ticket.completion_time
    if history is None:
        history = receiver.protocol_history
    return total / N_MESSAGES, history


def test_ablation_adaptive_provisioning(benchmark):
    def sweep():
        table = Table(
            title="Ablation: adaptive vs static provisioning (mean write ms)",
            columns=["link", "always_sr", "always_ec", "adaptive",
                     "adaptive_choices"],
        )
        for label, drop, seed in (("clean", 0.0, 41), ("lossy(3%)", 0.03, 43)):
            sr_t, _ = _run("sr", drop, seed)
            ec_t, _ = _run("ec", drop, seed)
            ad_t, hist = _run("adaptive", drop, seed)
            table.add_row(
                label, round(sr_t * 1e3, 3), round(ec_t * 1e3, 3),
                round(ad_t * 1e3, 3), "->".join(hist),
            )
        return table

    table = run_once(benchmark, sweep)
    show(table)
    rows = {r[0]: r for r in table.rows}
    clean, lossy = rows["clean"], rows["lossy(3%)"]
    # Clean link: adaptive sticks with SR (no parity tax) and matches it.
    assert set(clean[4].split("->")) == {"sr"}
    assert clean[3] <= clean[2] * 1.05
    # Lossy link: adaptive migrates to EC and lands near the better static.
    assert "ec" in lossy[4]
    best_static = min(lossy[1], lossy[2])
    assert lossy[3] <= best_static * 1.6
