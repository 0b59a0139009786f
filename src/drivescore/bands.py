"""G-force band classification for harsh-driving events, plus speed-band edges.

Acceleration-type events fall into nine severity bands: a1-a3 for positive
longitudinal acceleration, d1-d3 for braking (classified on |g|), s1-s3 for
lateral ("side") acceleration (classified on |g|). All intervals are
half-open [lo, hi) so boundary values classify deterministically.
"""
from __future__ import annotations

import numpy as np

# (band, lo, hi) with hi=None meaning open-ended; each family's bands are
# contiguous, so a band's lower edge alone places a value.
# The 0.4-0.5 G braking range belongs to d3, keeping the d-bands contiguous.
_ACCEL_BANDS = (("a1", 0.3, 0.4), ("a2", 0.4, 0.5), ("a3", 0.5, None))
_DECEL_BANDS = (("d1", 0.2, 0.3), ("d2", 0.3, 0.4), ("d3", 0.4, None))
_SIDE_BANDS = (("s1", 0.3, 0.4), ("s2", 0.4, 0.6), ("s3", 0.6, None))

ACCEL_BAND_NAMES = ("a1", "a2", "a3", "d1", "d2", "d3", "s1", "s2", "s3")

SPEED_BAND_NAMES = ("m_lt20", "m_20_60", "m_60_100", "m_100_130", "m_gt130")
_SPEED_EDGES = np.array([20.0, 60.0, 100.0, 130.0])


# Lower band edges per family: longitudinal positive, longitudinal braking, lateral.
_LOWER_EDGES = np.array([[lo for _, lo, _ in family]
                         for family in (_ACCEL_BANDS, _DECEL_BANDS, _SIDE_BANDS)])


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
