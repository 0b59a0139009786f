"""G-force band classification for harsh-driving events, plus speed-band edges.

Acceleration-type events fall into nine severity bands: a1-a3 for positive
longitudinal acceleration, d1-d3 for braking (classified on |g|), s1-s3 for
lateral ("side") acceleration (classified on |g|). All intervals are
half-open [lo, hi) so boundary values classify deterministically.
"""
from __future__ import annotations

import numpy as np

ACCEL_BAND_NAMES = ("a1", "a2", "a3", "d1", "d2", "d3", "s1", "s2", "s3")

SPEED_BAND_NAMES = ("m_lt20", "m_20_60", "m_60_100", "m_100_130", "m_gt130")
_SPEED_EDGES = np.array([20.0, 60.0, 100.0, 130.0])


# Lower band edges, one row per family: a1-a3 (longitudinal positive),
# d1-d3 (braking, on |g|), s1-s3 (lateral, on |g|).  Each family's bands are
# contiguous and its top band open-ended, so a lower edge alone places a
# value.  The 0.4-0.5 G braking range belongs to d3, keeping the d-bands
# contiguous.
_LOWER_EDGES = np.array([[0.3, 0.4, 0.5], [0.2, 0.3, 0.4], [0.3, 0.4, 0.6]])


def accel_bands(lateral: np.ndarray, accel_g: np.ndarray) -> np.ndarray:
    """The ``ACCEL_BAND_NAMES`` index of each acceleration event, -1 below every band.

    Longitudinal positive values -> a-bands, longitudinal zero or negative
    -> d-bands on the magnitude, lateral -> s-bands on the magnitude.
    """
    family = np.where(lateral, 2, np.where(accel_g > 0, 0, 1))
    band = (np.abs(accel_g)[:, None] >= _LOWER_EDGES[family]).sum(axis=1) - 1
    return np.where(band >= 0, 3 * family + band, -1)


def speed_bands(speed_kph: np.ndarray) -> np.ndarray:
    """The ``SPEED_BAND_NAMES`` index of each speed: <20, 20-60, 60-100, 100-130, >=130 kph."""
    return np.searchsorted(_SPEED_EDGES, speed_kph, side="right")
