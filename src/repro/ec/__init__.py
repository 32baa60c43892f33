"""Erasure-coding substrate: GF(256) arithmetic, Reed-Solomon and XOR codes.

The paper compares two submessage codes (Section 5.1.1, Appendix B):

* an **MDS** code (Reed-Solomon): recovers a k-chunk data submessage from
  any k of the k+m coded chunks -- implemented in
  :mod:`repro.ec.reed_solomon` over GF(2^8) on one packed-lane NumPy table
  kernel, :func:`~repro.ec.gf256.gf_matmul_rows` (the stand-in for Intel
  ISA-L).
* a **XOR modulo-group** code: parity i is the XOR of data chunks whose
  index j satisfies ``j mod m == i``; tolerates one loss per modulo group --
  implemented in :mod:`repro.ec.xor_code` (the stand-in for the paper's
  ~100-line AVX-512 OpenMP kernel).

Both implement the :class:`~repro.ec.codec.ErasureCode` interface consumed
by the EC reliability layer and the Figure 11 codec benchmark.

Beyond the paper, the substrate also hosts the pieces the sampling
reliability mode builds on (Animica DA-style, see ``docs/protocols.md``):

* :class:`~repro.ec.rs2d.Rs2dCode` -- 2-D row+column RS parity with an
  iterative peeling decoder (registry name ``"rs2d"``).
* :class:`~repro.ec.segmented.SegmentedCode` -- arbitrary-size messages
  over fixed (k, m) groups with deterministic zero padding.
* :mod:`repro.ec.sampling` -- availability-sampling detection math.
"""

from typing import TYPE_CHECKING

from repro.common import lazy_exports
from repro.ec.codec import CodecStats, ErasureCode, get_codec, register_codec
from repro.ec.gf256 import (
    gf_inv,
    gf_mat_inv,
    gf_matmul,
    gf_matmul_rows,
    gf_mul,
    gf_mul_bytes,
    gf_pow,
)
from repro.ec.reed_solomon import ReedSolomonCode
from repro.ec.segmented import SegmentedCode, SegmentLayout

if TYPE_CHECKING:
    from repro.ec.rs2d import Rs2dCode
    from repro.ec.sampling import (
        detection_probability,
        draw_probes,
        miss_probability,
        probes_for_confidence,
    )
    from repro.ec.xor_code import XorCode

#: The codecs beyond MDS, and the sampling math, load when a name is first
#: read (:func:`get_codec` loads a built-in codec by its name).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "rs2d": ("Rs2dCode",),
    "sampling": (
        "detection_probability", "draw_probes", "miss_probability",
        "probes_for_confidence",
    ),
    "xor_code": ("XorCode",),
})

__all__ = [
    "CodecStats",
    "ErasureCode",
    "ReedSolomonCode",
    "Rs2dCode",
    "SegmentLayout",
    "SegmentedCode",
    "XorCode",
    "detection_probability",
    "draw_probes",
    "get_codec",
    "gf_inv",
    "gf_mat_inv",
    "gf_matmul",
    "gf_matmul_rows",
    "gf_mul",
    "gf_mul_bytes",
    "gf_pow",
    "miss_probability",
    "probes_for_confidence",
    "register_codec",
]
