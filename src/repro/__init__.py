"""SDR-RDMA reproduction: software-defined reliability for long-haul RDMA.

Reproduction of Khalilov et al., *SDR-RDMA: Software-Defined Reliability
Architecture for Planetary Scale RDMA Communication* (SC 2025).

Layer map (bottom to top):

* :mod:`repro.sim` -- discrete-event simulation kernel.
* :mod:`repro.net` -- lossy long-haul channels and loss models.
* :mod:`repro.verbs` -- simulated RDMA Verbs (UC/UD/RC QPs, CQs, mkeys).
* :mod:`repro.dpa` -- emulated Data Path Accelerator worker threads.
* :mod:`repro.sdr` -- the SDR middleware SDK (partial-completion bitmap).
* :mod:`repro.ec` -- erasure codes (GF(256) Reed-Solomon, XOR modulo-group).
* :mod:`repro.reliability` -- Selective Repeat and Erasure Coding layers.
* :mod:`repro.models` -- analytical + Monte-Carlo completion-time framework.
* :mod:`repro.collectives` -- inter-datacenter ring Allreduce.
* :mod:`repro.experiments` -- one harness per paper figure/table.
"""

from repro.common import (
    Bitmap,
    ChannelConfig,
    DpaConfig,
    SdrConfig,
)
from repro.sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Bitmap",
    "ChannelConfig",
    "DpaConfig",
    "SdrConfig",
    "Simulator",
    "__version__",
]
