#!/usr/bin/env python3
"""Ring Allreduce across four simulated datacenters.

Builds a 4-datacenter ring where every inter-DC hop is a lossy long-haul
link, runs the 2N-2-round ring Allreduce schedule with real SDR + Selective
Repeat endpoints on every hop (packet-level simulation), and compares the
measured completion time against the Appendix C lower bound and the
model-based Monte-Carlo estimate.

Run:  python examples/multi_dc_allreduce.py
"""

import numpy as np

from repro.collectives import (
    RingAllreduce,
    allreduce_lower_bound,
    run_des_ring_allreduce,
    sr_stage_sampler,
)
from repro.common import ChannelConfig, KiB, MiB
from repro.models import ModelParams
from repro.models.params import packet_to_chunk_drop

N_DCS = 4
BUFFER = 4 * MiB
DROP = 2e-3
CHUNK = 16 * KiB


def main() -> None:
    channel = ChannelConfig(
        bandwidth_bps=100e9, distance_km=1000.0, mtu_bytes=4 * KiB,
        drop_probability=DROP,
    )
    # SR-with-NACK endpoints on every directed ring edge; each datacenter
    # receives a segment from dc i-1 while it sends one to dc i+1.
    result = run_des_ring_allreduce(
        n_datacenters=N_DCS, buffer_bytes=BUFFER, channel=channel,
        protocol="sr_nack", chunk_bytes=CHUNK, seed=7,
    )
    measured, rounds = result.completion_time, result.rounds
    segment = BUFFER // N_DCS

    # -- model-based comparison ------------------------------------------------
    params = ModelParams(
        bandwidth_bps=channel.bandwidth_bps,
        rtt=channel.rtt,
        chunk_bytes=CHUNK,
        drop_probability=packet_to_chunk_drop(DROP, CHUNK // (4 * KiB)),
    )
    ring = RingAllreduce(n_datacenters=N_DCS, buffer_bytes=BUFFER)
    model = ring.sample(
        sr_stage_sampler(params), 2000, rng=np.random.default_rng(0)
    )
    ideal_stage = params.ideal_completion(segment)
    bound = allreduce_lower_bound(N_DCS, ideal_stage)

    print(f"ring Allreduce      : {N_DCS} DCs x {BUFFER >> 20} MiB buffer, "
          f"{channel.distance_km:g} km hops, P_drop {DROP:g}")
    print(f"rounds              : {rounds} (reduce-scatter + allgather)")
    print(f"measured (DES)      : {measured * 1e3:8.2f} ms")
    print(f"model mean          : {model.mean() * 1e3:8.2f} ms")
    print(f"model p99.9         : {np.percentile(model, 99.9) * 1e3:8.2f} ms")
    print(f"App. C lower bound  : {bound * 1e3:8.2f} ms")
    assert measured >= bound * 0.95, "DES must respect the lower bound"
    print("\nThe gap between the bound and the measurement is the "
          "accumulated reliability cost mu_X per stage -- the quantity the "
          "SDR framework lets you engineer down.")


if __name__ == "__main__":
    main()
