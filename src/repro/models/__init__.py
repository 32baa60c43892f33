"""Completion-time modeling framework (Section 4.2, Appendices A and B).

This package is the reproduction of the paper's "open-source Python library
enabling system architects to design and tune the reliability layer":

* :mod:`repro.models.params` -- the channel/protocol parameter bundle.
* :mod:`repro.models.sr_model` -- Selective Repeat: the Appendix A closed
  form for E[T_SR] and a vectorized Monte-Carlo sampler for percentiles.
* :mod:`repro.models.ec_model` -- Erasure Coding: the Section 4.2.3 lower
  bound and its Monte-Carlo counterpart with SR fallback.
* :mod:`repro.models.decode_prob` -- Appendix B decode probabilities for
  MDS and XOR codes.
* :mod:`repro.models.stats` -- summary statistics (mean, p50, p99, p99.9).
"""

from repro.models.decode_prob import p_decode_mds, p_decode_rs2d, p_decode_xor
from repro.models.ec_model import (
    ec_expected_completion,
    ec_sample_completion,
)
from repro.models.params import ModelParams
from repro.models.sr_model import (
    sr_completion_percentile,
    sr_completion_tail,
    sr_expected_completion,
    sr_sample_completion,
)
from repro.models.stats import CompletionStats, summarize

__all__ = [
    "CompletionStats",
    "ModelParams",
    "ec_expected_completion",
    "ec_sample_completion",
    "p_decode_mds",
    "p_decode_rs2d",
    "p_decode_xor",
    "sr_completion_percentile",
    "sr_completion_tail",
    "sr_expected_completion",
    "sr_sample_completion",
    "summarize",
]
