"""Experiment harnesses: one module per paper figure.

Each ``figNN`` module exposes a ``run(...)`` function returning one or more
:class:`~repro.experiments.report.Table` objects whose rows regenerate the
corresponding figure's series.  The claims table (``tests/claims.py``)
calls these and asserts the paper's qualitative shapes (who wins, where
the crossovers fall); ``python -m repro.experiments`` prints them all.

==========  ==================================================================
Module      Paper content
==========  ==================================================================
``fig02``   WAN drop-rate campaign (drop rate vs payload size)
``fig03``   Reliability impact at 400 Gbit/s (size / distance / drop sweeps)
``fig09``   EC-over-SR speedup heatmap (message size x drop rate)
``fig10``   Cross-continent deep dive (means, tails, NACK, MDS splits)
``fig11``   MDS vs XOR codec (encode throughput, cores, fallback)
``fig12``   Distance x bandwidth sweep (normalized completion)
``fig13``   Ring Allreduce p99.9 speedup (EC over SR)
``fig14``   SDR end-to-end throughput + DPA thread scaling (DES testbed)
``fig15``   Bitmap chunk size vs throughput and chunk drop probability
``fig16``   Packet-rate scaling towards Tbit/s links
==========  ==================================================================
"""

from repro.experiments.report import Table

__all__ = ["Table"]
