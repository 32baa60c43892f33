"""Units and physical constants for inter-datacenter link modeling.

The paper reasons in mixed units: message sizes in KiB/MiB/GiB, link rates in
Gbit/s and Tbit/s, distances in kilometres and delays in milliseconds.  This
module centralises the conversions so that every layer of the stack agrees.

Times are SI seconds, sizes are bytes, bandwidths are bits per second, and
distances are kilometres throughout the library.
"""

from __future__ import annotations

# -- sizes (bytes) -----------------------------------------------------------
KiB: int = 1024
MiB: int = 1024 * KiB
GiB: int = 1024 * MiB

# -- bandwidths (bits per second) --------------------------------------------
Mbit: float = 1e6
Gbit: float = 1e9
Tbit: float = 1e12

#: Effective propagation speed of light in optical fiber, km/s.  The paper
#: equates 3750 km with a 25 ms RTT and 1000 km of extra cable with ~6.5 ms
#: of extra RTT, i.e. RTT = 2 * d / v with v = 3e5 km/s (we follow the
#: 3750 km = 25 ms anchor, which gives v = 2 * 3750 / 0.025 = 3.0e5 km/s).
FIBER_KM_PER_S: float = 3.0e5


def distance_to_rtt(distance_km: float) -> float:
    """Round-trip time in seconds for a fiber path of ``distance_km``.

    >>> round(distance_to_rtt(3750.0) * 1e3, 3)
    25.0
    """
    if distance_km < 0:
        raise ValueError(f"distance must be non-negative, got {distance_km}")
    return 2.0 * distance_km / FIBER_KM_PER_S
