"""G-band and speed-band classification at and around every band edge."""
import numpy as np

from drivescore.bands import ACCEL_BAND_NAMES, SPEED_BAND_NAMES, accel_bands, speed_bands

# (lateral, g, band name or None below every band); bands are half-open [lo, hi)
ACCEL_CASES = [
    (False, 0.29, None), (False, 0.3, "a1"), (False, 0.3999, "a1"), (False, 0.4, "a2"),
    (False, 0.5, "a3"), (False, 24.0, "a3"),
    (False, 0.0, None), (False, -0.19, None), (False, -0.2, "d1"), (False, -0.3, "d2"),
    (False, -0.4, "d3"), (False, -0.45, "d3"), (False, -24.0, "d3"),
    (True, 0.29, None), (True, -0.3, "s1"), (True, 0.4, "s2"), (True, -0.5999, "s2"),
    (True, 0.6, "s3"), (True, -0.0, None),
]


def test_accel_bands_at_the_edges():
    lateral, g, names = zip(*ACCEL_CASES)
    got = accel_bands(np.array(lateral), np.array(g))
    assert [None if i < 0 else ACCEL_BAND_NAMES[i] for i in got] == list(names)


def test_speed_bands_at_the_edges():
    speeds = [0.0, 19.99, 20.0, 59.9, 60.0, 100.0, 129.99, 130.0, 400.0]
    expected = ["m_lt20", "m_lt20", "m_20_60", "m_20_60", "m_60_100", "m_100_130",
                "m_100_130", "m_gt130", "m_gt130"]
    assert [SPEED_BAND_NAMES[i] for i in speed_bands(np.array(speeds))] == expected
