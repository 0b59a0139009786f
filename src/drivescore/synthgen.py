"""Synthetic driver population with planted accident risk.

Each driver gets a latent style profile; the profile determines an exact
expected feature vector in closed form (``oracle_features``), an event log
realization consistent with the ingest schema (``generate_event_log``), and
accident outcomes drawn from a logistic model with planted coefficients on
the oracle features.  The oracle vectors fill the rows of one lifetime
``FeatureTable``, the table ``features`` builds from event logs, and the
planted probabilities are computed from its columns.  Because outcomes
condition on the oracle vector, a logistic refit on (oracle features,
outcomes) is correctly specified and must recover the planted coefficients
up to sampling noise; that is the closed-loop check the generator exists
for.

Claim amounts are drawn so each intended severity class survives the
labeling rules exactly, plus small fractions of non-culprit and zero-loss
claims that must label as "none".
"""
from __future__ import annotations

import math
import struct
from array import array
from dataclasses import dataclass, fields
from datetime import datetime, timedelta, timezone
from typing import Iterator, Mapping

import numpy as np

from .bands import ACCEL_BAND_NAMES
from .features import (DAYTIME_HOURS, EVENING_JAM_HOURS, FEATURE_NAMES, MORNING_JAM_HOURS,
                       NIGHT_HOURS, TRIP_LONG_KM, TRIP_SHORT_KM, FeatureTable, feature_matrix)
from .fileio import sha256
from .glm import INTERCEPT_NAME, ScoringModel, predict_proba
from .ingest import (_RECORD, ACCELERATION, EPOCH, IGNITION_OFF, IGNITION_ON, LATERAL,
                     LONGITUDINAL, NAN, POSITION, SPEED, DeviceLog, DeviceLogBuilder,
                     epoch_seconds)
from .trips import EARTH_RADIUS_KM
from .labeling import TARGETS, ClaimRecord

SYNTH_EPOCH = datetime(2019, 3, 4, tzinfo=timezone.utc)  # a Monday
SYNTH_LATITUDE = 0.0  # equatorial paths make leg distance linear in longitude
# one degree of longitude along the equator, consistent with haversine_km
KM_PER_DEGREE = EARTH_RADIUS_KM * math.pi / 180.0
LONG_TRIP_LO = 210.0  # km; long-haul trips draw uniformly above this floor

MEAN_INS_SUM = 1_728_042.0
INS_SIGMA = 0.6

# Loss-ratio sampling intervals per intended class, kept strictly inside the
# labeling bands so classification round-trips exactly.
RATIO_RANGES = {"weak": (0.005, 0.045), "medium": (0.055, 0.195), "strong": (0.205, 0.60)}

NONCULPRIT_CLAIM_RATE = 0.03
ZERO_LOSS_CLAIM_RATE = 0.02

G_RANGES = {"a1": (0.30, 0.40), "a2": (0.40, 0.50), "a3": (0.50, 0.65),
            "d1": (0.20, 0.30), "d2": (0.30, 0.40), "d3": (0.40, 0.55),
            "s1": (0.30, 0.40), "s2": (0.40, 0.60), "s3": (0.60, 0.75)}

# Planted coefficients per severity target, in raw feature units.  Magnitudes
# are calibrated numerically so that, on a default 5000-driver population,
# every planted coefficient holds |z| near 5 in the full 35-column design
# (what stepwise selection actually judges), while the blended signal keeps
# the any-accident in-sample AUC inside its published-range bracket.  The
# intercepts pin the class rates near 0.18 / 0.125 / 0.075.
DEFAULT_PLANTED_BETAS: dict[str, dict[str, float]] = {
    "weak": {
        "const": -1.61867,
        "mileage": 9.56697e-05,
        "a1": 0.0166135,
        "avg_sp": -0.0502058,
        "max_mj_sp": 0.0142807,
        "s1": -0.0526568,
    },
    "medium": {
        "const": -6.50546,
        "mileage": 1.23295e-04,
        "a1": 0.0192054,
        "max_n_sp": 0.0145245,
        "d_night_m": 0.0931775,
    },
    "strong": {
        "const": -7.25846,
        "a1": 0.0202043,
        "a2": -0.155603,
        "s1": 0.0647843,
        "max_ej_sp": 0.0199631,
        "max_n_sp": 0.0171785,
    },
}

_BASE_HOUR_WEIGHTS = np.array([
    0.20, 0.15, 0.10, 0.10, 0.15, 0.20,   # 0-5 night
    0.35, 1.10, 1.45, 1.20, 1.00, 1.00,   # 6-11
    1.00, 1.00, 1.00, 1.05, 1.20, 1.45,   # 12-17
    1.55, 1.25, 0.90, 0.65, 0.45, 0.30])  # 18-23


@dataclass(frozen=True)
class DriverProfile:
    device_id: str
    active_prob_business: float
    active_prob_holiday: float
    trips_per_active_day: float     # >= some margin above 1
    holiday_factor: float           # trip-rate multiplier on holiday-class days
    trip_log_mu: float
    trip_log_sigma: float
    band_speeds: tuple[float, ...]  # representative kph per speed band, low to high
    band_shares: tuple[float, ...]  # mileage share per speed band, sums to 1
    hour_weights: tuple[float, ...]  # trip-start distribution over 24 local hours
    peak_sp: float
    peak_mj_sp: float
    peak_ej_sp: float
    peak_n_sp: float
    accel_rates: tuple[float, ...]  # events per 100 km, ACCEL_BAND_NAMES
    long_trip_prob: float = 0.0     # chance a trip is a long haul instead
    long_trip_hi: float = 0.0       # upper length of the long-haul range, km

    def __post_init__(self):
        if not 0.0 < self.active_prob_business <= 1.0:
            raise ValueError("active_prob_business out of (0, 1]")
        if not 0.0 < self.active_prob_holiday <= 1.0:
            raise ValueError("active_prob_holiday out of (0, 1]")
        if self.trips_per_active_day < 1.0:
            raise ValueError("trips_per_active_day must be >= 1")
        if self.holiday_factor * self.trips_per_active_day < 1.0:
            raise ValueError("holiday trip rate must stay >= 1")
        if abs(sum(self.band_shares) - 1.0) > 1e-9 or min(self.band_shares) < 0:
            raise ValueError("band_shares must be a distribution")
        if len(self.hour_weights) != 24 or abs(sum(self.hour_weights) - 1.0) > 1e-9:
            raise ValueError("hour_weights must be a 24-point distribution")
        if any(r < 0 for r in self.accel_rates) or len(self.accel_rates) != 9:
            raise ValueError("accel_rates must be 9 non-negative intensities")
        if max(self.peak_mj_sp, self.peak_ej_sp, self.peak_n_sp) > self.peak_sp:
            raise ValueError("slice peaks cannot exceed the overall peak")
        if not 0.0 <= self.long_trip_prob <= 0.2:
            raise ValueError("long_trip_prob out of [0, 0.2]")
        if self.long_trip_prob > 0.0 and self.long_trip_hi <= LONG_TRIP_LO:
            raise ValueError("long_trip_hi must exceed the long-haul floor")


@dataclass(frozen=True)
class SynthConfig:
    n_drivers: int
    weeks: int = 26
    seed: int = 0

    def __post_init__(self):
        if self.n_drivers < 2:
            raise ValueError("need at least 2 drivers")
        if self.weeks < 1:
            raise ValueError("need at least 1 week")


@dataclass
class SynthResult:
    config: SynthConfig
    profiles: list[DriverProfile]
    features: FeatureTable  # one lifetime row per driver, profile order
    claims: list[ClaimRecord]
    outcomes: dict[str, list[int]]  # target -> 0/1 per driver, profile order

    def truth(self) -> dict:
        """The planted set-up; ``profiles_digest`` hashes each profile's device id (UTF-8, NUL),
        then its other fields in order as little-endian float64s, tuples flattened."""
        digest, names = sha256(), [f.name for f in fields(DriverProfile)][1:]
        for p in self.profiles:
            cells = [getattr(p, name) for name in names]
            flat = [x for c in cells for x in (c if isinstance(c, tuple) else (c,))]
            digest.update(p.device_id.encode() + b"\0" + struct.pack(f"<{len(flat)}d", *flat))
        return {
            "seed": self.config.seed,
            "n_drivers": self.config.n_drivers,
            "weeks": self.config.weeks,
            "planted_betas": {t: dict(b) for t, b in DEFAULT_PLANTED_BETAS.items()},
            "positive_counts": {t: int(sum(v)) for t, v in self.outcomes.items()},
            "profiles_digest": digest.hexdigest(),
        }


def _driver_seed(seed: int, i: int, stream: int) -> np.random.SeedSequence:
    """``SeedSequence(seed).spawn(n)[i].spawn(2)[stream]`` without the spawn tree: stream 0
    draws driver ``i``'s profile, then its claims; stream 1 draws its event log."""
    return np.random.SeedSequence(seed, spawn_key=(i, stream))


def _uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    """``rng.uniform(lo, hi)`` to the bit and stream position, minus numpy's argument handling."""
    return lo + (hi - lo) * rng.random()


def sample_profile(device_id: str, rng: np.random.Generator) -> DriverProfile:
    """Draw one driver's latent style from the population distribution."""
    p_b = _uniform(rng, 0.55, 0.95)
    p_h = _uniform(rng, 0.35, 0.95)
    lam = _uniform(rng, 2.5, 7.5)
    f_h = max(_uniform(rng, 0.65, 1.50), 1.02 / lam)
    # shared distance-taste latent: drivers who make longer trips also spend
    # more of their mileage at highway speeds (tilts the band weights below)
    taste = rng.normal()
    mu = _uniform(rng, 1.2, 2.1) + 0.15 * taste
    sigma = _uniform(rng, 0.95, 1.60)
    # separate long-haul component: the lognormal tail alone cannot reach the
    # observed over_200 share, and it would leave the over_400 share so thin
    # across drivers that its column degenerates in the fit
    q_long = _uniform(rng, 0.0, 0.035)
    hi_long = _uniform(rng, 240.0, 640.0)

    # slice maxima get wide independent ratio jitter; a tight coupling to the
    # overall peak would make the four max-speed columns near-collinear and
    # sink their partial z-scores in the full design
    peak = _uniform(rng, 115.0, 175.0)
    peak_mj = peak * _uniform(rng, 0.66, 0.99)
    peak_ej = peak * _uniform(rng, 0.58, 0.95)
    peak_n = peak * _uniform(rng, 0.58, 1.00)

    v_slow = _uniform(rng, 8.0, 18.0)
    v_mid = _uniform(rng, 28.0, 55.0)
    v_hwy = _uniform(rng, 62.0, 95.0)
    w = [_uniform(rng, 0.08, 0.25) * math.exp(-0.35 * taste),
         _uniform(rng, 0.30, 0.55),
         _uniform(rng, 0.20, 0.40) * math.exp(0.55 * taste)]
    speeds = [v_slow, v_mid, v_hwy]
    # peak >= 115, so every driver has the fourth band; cap below 126 so one-second timestamp
    # truncation cannot push a reconstructed leg speed across the 130 kph band edge
    speeds.append(_uniform(rng, 102.0, min(126.0, peak - 2.0)))
    w.append(_uniform(rng, 0.02, 0.20))
    if peak > 136.0:
        speeds.append(_uniform(rng, 131.0, min(165.0, peak - 1.0)))
        w.append(_uniform(rng, 0.005, 0.05))
    else:
        speeds.append(140.0)
        w.append(0.0)
    total_w = 0.0
    for x in w:  # left to right: builtin sum compensates floats from Python 3.12 on
        total_w += x
    shares = tuple(x / total_w for x in w)

    # per-hour jitter keeps the slice mileages from collapsing onto a
    # three-parameter family (exact collinearity in the feature matrix)
    hw = _BASE_HOUR_WEIGHTS * np.exp(rng.normal(0.0, 0.30, size=24))
    hw[list(NIGHT_HOURS)] *= _uniform(rng, 0.50, 2.80)
    hw[list(MORNING_JAM_HOURS)] *= _uniform(rng, 0.50, 2.00)
    hw[list(EVENING_JAM_HOURS)] *= _uniform(rng, 0.50, 2.00)
    hw /= hw.sum()

    # mild shared aggression plus dominant per-band jitter: siblings stay
    # positively correlated without collapsing onto one latent factor; the
    # pedal factor ties the two lower acceleration severities a bit tighter
    aggr = math.exp(rng.normal(0.0, 0.25))
    aggr_side = math.sqrt(aggr) * math.exp(rng.normal(0.0, 0.25))
    pedal = math.exp(rng.normal(0.0, 0.32))
    jit = np.exp(rng.normal(0.0, 0.45, size=9))
    rates = (aggr * pedal * jit[0] * _uniform(rng, 10.0, 19.0),   # a1
             aggr * pedal * jit[1] * _uniform(rng, 1.2, 4.5),     # a2
             aggr * jit[2] * _uniform(rng, 0.4, 2.2),     # a3
             aggr * jit[3] * _uniform(rng, 3.0, 9.0),     # d1
             aggr * jit[4] * _uniform(rng, 0.4, 2.0),     # d2
             aggr * jit[5] * _uniform(rng, 0.3, 3.0),     # d3
             aggr_side * jit[6] * _uniform(rng, 3.5, 8.5),    # s1
             aggr_side * jit[7] * _uniform(rng, 0.3, 1.4),    # s2
             aggr_side * jit[8] * _uniform(rng, 0.5, 2.0))    # s3

    return DriverProfile(
        device_id=device_id,
        active_prob_business=p_b,
        active_prob_holiday=p_h,
        trips_per_active_day=lam,
        holiday_factor=f_h,
        trip_log_mu=mu,
        trip_log_sigma=sigma,
        band_speeds=tuple(speeds),
        band_shares=shares,
        hour_weights=tuple(hw),
        peak_sp=peak,
        peak_mj_sp=peak_mj,
        peak_ej_sp=peak_ej,
        peak_n_sp=peak_n,
        accel_rates=rates,
        long_trip_prob=q_long,
        long_trip_hi=hi_long,
    )


def oracle_features(profile: DriverProfile, weeks: int) -> dict[str, float]:
    """Expected model feature values implied by a profile, in closed form.

    The window has 5*weeks business days and 2*weeks weekend (holiday-class)
    days; ratios are ratios of expectations, which is what the driver's
    latent style means.  Nothing here touches the event pipeline.
    """
    p = profile
    q_long = p.long_trip_prob
    mean_len = (1.0 - q_long) * math.exp(p.trip_log_mu + 0.5 * p.trip_log_sigma ** 2)
    mean_len += q_long * 0.5 * (LONG_TRIP_LO + p.long_trip_hi)
    lam_b, lam_h = p.trips_per_active_day, p.trips_per_active_day * p.holiday_factor
    covered_b = 5.0 * weeks * p.active_prob_business
    covered_h = 2.0 * weeks * p.active_prob_holiday
    n_trips = covered_b * lam_b + covered_h * lam_h
    covered = covered_b + covered_h
    mileage = n_trips * mean_len

    hw = p.hour_weights  # numpy scalars, which builtin sum adds left to right on any Python
    share_day = sum(hw[h] for h in DAYTIME_HOURS)
    share_mj = sum(hw[h] for h in MORNING_JAM_HOURS)
    share_ej = sum(hw[h] for h in EVENING_JAM_HOURS)
    share_night = sum(hw[h] for h in NIGHT_HOURS)

    def trip_len_cdf(km: float) -> float:
        base = 0.5 * math.erfc((p.trip_log_mu - math.log(km)) / p.trip_log_sigma / math.sqrt(2.0))
        if km <= LONG_TRIP_LO:
            u = 0.0
        elif km >= p.long_trip_hi:
            u = 1.0
        else:
            u = (km - LONG_TRIP_LO) / (p.long_trip_hi - LONG_TRIP_LO)
        return (1.0 - q_long) * base + q_long * u

    d_total = mileage / covered
    hours_per_km = avg_sp = 0.0
    for q, v in zip(p.band_shares, p.band_speeds):
        hours_per_km += q / v
        avg_sp += q * v

    return dict(
        mileage=mileage,
        trips_day=n_trips / covered,
        below_10_pr=100.0 * trip_len_cdf(TRIP_SHORT_KM[0]),
        below_30_pr=100.0 * trip_len_cdf(TRIP_SHORT_KM[1]),
        over_200=100.0 * (1.0 - trip_len_cdf(TRIP_LONG_KM[0])),
        over_400=100.0 * (1.0 - trip_len_cdf(TRIP_LONG_KM[1])),
        d_total_m=d_total,
        avg_trip_mil=mean_len,
        avg_trip_dur=mean_len * hours_per_km * 3600.0,
        d_business_m=lam_b * mean_len,
        d_day_m=d_total * share_day,
        d_evening_jam_m=d_total * share_ej,
        d_morning_jam_m=d_total * share_mj,
        d_holi_m=lam_h * mean_len,
        d_night_m=d_total * share_night,
        day_m_pr=100.0 * share_day,
        ej_m_pr=100.0 * share_ej,
        avg_sp=avg_sp,
        max_sp=p.peak_sp,
        max_ej_sp=p.peak_ej_sp,
        max_mj_sp=p.peak_mj_sp,
        max_n_sp=p.peak_n_sp,
        m_pr_below_20=100.0 * p.band_shares[0],
        m_pr_below_60=100.0 * (p.band_shares[0] + p.band_shares[1]),
        m_pr_over_100=100.0 * (p.band_shares[3] + p.band_shares[4]),
        m_pr_over_130=100.0 * p.band_shares[4],
        a1=p.accel_rates[0], a2=p.accel_rates[1], a3=p.accel_rates[2],
        d1=p.accel_rates[3], d2=p.accel_rates[4], d3=p.accel_rates[5],
        s1=p.accel_rates[6], s2=p.accel_rates[7], s3=p.accel_rates[8],
    )


def planted_probabilities(features: FeatureTable, beta: Mapping[str, float]) -> list[float]:
    """Each row's planted accident probability under one target's ``beta``,
    scored as a fitted model's file is: ``const`` first, then the other
    columns in ``beta``'s order."""
    columns = (INTERCEPT_NAME, *(name for name in beta if name != INTERCEPT_NAME))
    model = ScoringModel("planted", columns, tuple(beta[name] for name in columns))
    return predict_proba(model, features.values, FEATURE_NAMES).tolist()


def _insured_sum(rng: np.random.Generator) -> float:
    """A lognormal insured sum with mean ``MEAN_INS_SUM``."""
    return math.exp(rng.normal(math.log(MEAN_INS_SUM) - 0.5 * INS_SIGMA ** 2, INS_SIGMA))


def draw_claims(dev: str, probabilities: Mapping[str, float],
                rng: np.random.Generator) -> tuple[dict[str, int], list[ClaimRecord]]:
    """Accident outcomes and claim records for one driver.

    ``probabilities`` holds the driver's planted probability per severity
    target.  Each target draws independently; a positive target yields one culprit claim whose loss
    ratio sits strictly inside that class's band.  Small noise fractions add
    a non-culprit claim and a zero-loss claim, both of which must label as
    "none".
    """
    outcomes: dict[str, int] = {}
    claims: list[ClaimRecord] = []
    for target in TARGETS[1:]:  # the severity targets
        hit = int(rng.random() < probabilities[target])
        outcomes[target] = hit
        if hit:
            lo, hi = RATIO_RANGES[target]
            ratio = _uniform(rng, lo, hi)
            ins = _insured_sum(rng)
            claims.append(ClaimRecord(dev, ratio * ins, ins, 1))
    if rng.random() < NONCULPRIT_CLAIM_RATE:
        ins = _insured_sum(rng)
        claims.append(ClaimRecord(dev, _uniform(rng, 0.01, 0.40) * ins, ins, 0))
    if rng.random() < ZERO_LOSS_CLAIM_RATE:
        claims.append(ClaimRecord(dev, 0.0, _insured_sum(rng), 1))
    outcomes["any"] = int(any(outcomes.values()))
    return outcomes, claims


def generate_population(config: SynthConfig) -> SynthResult:
    """Profiles, oracle features, outcomes and claims for the population.

    Event logs are intentionally not materialized here (they are large);
    use iter_event_logs / generate_event_log, which draw from dedicated
    per-driver substreams so logs never disturb outcome draws.
    """
    n, width = config.n_drivers, max(5, len(str(config.n_drivers - 1)))
    core_rngs = [np.random.default_rng(_driver_seed(config.seed, i, 0)) for i in range(n)]
    profiles = [sample_profile(f"d{i:0{width}d}", rng) for i, rng in enumerate(core_rngs)]
    features = FeatureTable(tuple(p.device_id for p in profiles), ("lifetime",) * n,
                            (SYNTH_EPOCH,) * n, ((),) * n,
                            feature_matrix([oracle_features(p, config.weeks) for p in profiles]))
    planted = {t: planted_probabilities(features, beta)
               for t, beta in DEFAULT_PLANTED_BETAS.items()}
    claims: list[ClaimRecord] = []
    outcomes: dict[str, list[int]] = {t: [] for t in TARGETS}
    # each driver's claims come from its own core stream, after its profile
    for i, (profile, rng) in enumerate(zip(profiles, core_rngs)):
        out, cl = draw_claims(profile.device_id, {t: p[i] for t, p in planted.items()}, rng)
        claims.extend(cl)
        for t, v in out.items():
            outcomes[t].append(v)
    return SynthResult(config=config, profiles=profiles, features=features,
                       claims=claims, outcomes=outcomes)


def _slice_peak(profile: DriverProfile, hour: int) -> float:
    if hour in MORNING_JAM_HOURS:
        return profile.peak_mj_sp
    if hour in EVENING_JAM_HOURS:
        return profile.peak_ej_sp
    if hour in NIGHT_HOURS:
        return profile.peak_n_sp
    return profile.peak_sp


# ingest's packed event record as numpy lays it out, field for field (tests pin the bytes)
_RECORD_DTYPE = np.dtype({"names": ["ts", "lat", "lon", "speed_kph", "accel_g", "tag", "kind",
                                    "axis"], "formats": ["i8", "f8", "f8", "f8", "f8", "i8",
                                                         "u1", "u1"], "itemsize": _RECORD.size})
_SEGMENT_DTYPE = np.dtype([("first", "i8"), ("start_us", "i8"), ("seg_s", "f8"), ("steps", "i8"),
                           ("lon", "f8"), ("seg_km", "f8")])
_MICROSECOND = timedelta(microseconds=1)


def _timedelta_micros(seconds: np.ndarray) -> np.ndarray:
    """``timedelta(seconds=x) // timedelta(microseconds=1)`` of each x >= 0, as CPython
    rounds: whole seconds, the fraction's whole microseconds, the rest half to even."""
    fraction, whole = np.modf(seconds)
    rest, micros = np.modf(fraction * 1e6)
    total = whole.astype(np.int64) * 10**6 + micros.astype(np.int64)
    return total + ((rest > 0.5) | ((rest == 0.5) & (total % 2 == 1)))


def _round7(x: np.ndarray) -> np.ndarray:
    """``round(v, 7)`` of each float v, |v| < 4e8, to the bit: v * 1e7 rounds half to even
    on its exact value, which Dekker's product gives where ``np.round``'s lands on a half."""
    p = x * 1e7
    hi = x * 134217729.0  # Veltkamp's split: x == hi + (x - hi), 26 bits each
    hi -= hi - x
    err = (hi * 1e7 - p) + (x - hi) * 1e7  # x * 1e7 == p + err exactly
    n = np.rint(p)
    past = (np.abs(p - n) == 0.5) & (np.sign(err) == np.sign(p - n))
    return np.where(past, n + 2.0 * (p - n), n) / 1e7


def _position_fixes(events: np.ndarray, segments: np.ndarray) -> None:
    """Each band segment's fixes into ``events`` at their emission indices: fix k of
    ``steps`` lies ``seg_s * k / steps`` s and ``seg_km * k / steps`` km past its start."""
    steps = segments["steps"]
    seg = np.repeat(np.arange(len(segments)), steps)
    k = np.arange(len(seg)) - np.repeat(np.cumsum(steps) - steps, steps) + 1
    index = segments["first"][seg] + k - 1
    dt = segments["seg_s"][seg] * k / steps[seg]
    events["ts"][index] = (segments["start_us"][seg] + _timedelta_micros(dt)) // 10**6
    events["lon"][index] = _round7(segments["lon"][seg]
                                  + segments["seg_km"][seg] * k / steps[seg] / KM_PER_DEGREE)


def generate_event_log(profile: DriverProfile, weeks: int,
                       rng: np.random.Generator) -> DeviceLog:
    """One realized JSONL-schema event log for a driver, from ``SYNTH_EPOCH``.

    Trips run along the equator at constant per-band speeds with positions
    every 60 s, so the GPS pipeline recovers the profile's band structure;
    ignition events bracket every trip exactly.  Every draw is made per trip,
    in a fixed order; a band segment only records where its position fixes
    go, and the device's fixes are computed in one array pass after its last
    trip, to the bit of ``timedelta`` and ``round`` per fix (the bytes of
    ``events.jsonl`` are pinned in tests/test_artifact_bytes.py).  That makes
    an event in about 1.9 us on a 2-core VM with Python 3.11, where a loop
    over each fix took 4.4 us.  Events reach the builder ordered by second,
    then by emission, so two draws that truncate to the same event in the
    same second make one, as parse keeps.
    """
    lon = _uniform(rng, -30.0, 30.0)
    hour_p = np.asarray(profile.hour_weights)
    records, emitted, segments, n_fixes = bytearray(), array("q"), [], 0

    def emit(ts: datetime, kind: int, axis: int = 0, lat: float = NAN, lon: float = NAN,
             speed_kph: float = NAN, accel_g: float = NAN):
        emitted.append(len(emitted) + n_fixes)  # its index among all events emitted
        records.extend(_RECORD.pack(epoch_seconds(ts), lat, lon, speed_kph, accel_g, 0, kind,
                                    axis))

    prev_end = None
    for day_i in range(weeks * 7):
        day = SYNTH_EPOCH + timedelta(days=day_i)
        weekendish = day.weekday() >= 5
        p_active = profile.active_prob_holiday if weekendish else profile.active_prob_business
        if rng.random() >= p_active:
            continue
        lam = profile.trips_per_active_day * (profile.holiday_factor if weekendish else 1.0)
        n_trips = 1 + int(rng.poisson(lam - 1.0))
        trip_hours = sorted(int(h) for h in rng.choice(24, size=n_trips, p=hour_p))
        for h in trip_hours:
            trip_start = day + timedelta(hours=int(h), minutes=_uniform(rng, 0.0, 25.0))
            if prev_end is not None and trip_start <= prev_end + timedelta(minutes=5):
                trip_start = prev_end + timedelta(minutes=5)
            if trip_start.date() != day.date():
                continue  # pushed past midnight, drop
            if rng.random() < profile.long_trip_prob:
                length = _uniform(rng, LONG_TRIP_LO, profile.long_trip_hi)
            else:
                length = min(float(rng.lognormal(profile.trip_log_mu,
                                                 profile.trip_log_sigma)), 1500.0)
            if length < 0.15:
                continue
            # keep the whole trip inside valid longitudes (< 14 degrees per trip)
            lon = (lon + 90.0) % 180.0 - 90.0
            t = trip_start
            emit(t, IGNITION_ON)
            emit(t, POSITION, lat=SYNTH_LATITUDE, lon=round(lon, 7))
            for share, speed in zip(profile.band_shares, profile.band_speeds):
                seg_km = length * share
                if seg_km <= 0.0:
                    continue
                seg_s = seg_km / speed * 3600.0
                emit(t, SPEED, speed_kph=round(speed, 3))
                steps = max(1, int(seg_s // 60.0))
                segments.append((len(emitted) + n_fixes, (t - EPOCH) // _MICROSECOND, seg_s,
                                 steps, lon, seg_km))
                n_fixes += steps
                t = t + timedelta(seconds=seg_s)
                lon += seg_km / KM_PER_DEGREE
            trip_end = t
            duration_s = (trip_end - trip_start).total_seconds()
            for band, rate in zip(ACCEL_BAND_NAMES, profile.accel_rates):
                for _ in range(rng.poisson(rate * length / 100.0)):
                    g = _uniform(rng, *G_RANGES[band])
                    offset = _uniform(rng, 1.0, max(2.0, duration_s - 1.0))
                    ts = trip_start + timedelta(seconds=offset)
                    if band.startswith("s"):  # lateral, to either side
                        axis, sign = LATERAL, 1.0 if rng.random() < 0.5 else -1.0
                    else:  # longitudinal, braking negative
                        axis, sign = LONGITUDINAL, -1.0 if band.startswith("d") else 1.0
                    emit(ts, ACCELERATION, axis=axis, accel_g=round(sign * g, 4))
            if rng.random() < 0.10:
                burst = _slice_peak(profile, h)
                ts = trip_start + timedelta(seconds=_uniform(rng, 1.0, max(2.0, duration_s - 1.0)))
                emit(ts, SPEED, speed_kph=round(burst, 3))
            emit(trip_end + timedelta(seconds=30), IGNITION_OFF)
            prev_end = trip_end + timedelta(seconds=30)
    if not emitted:
        # guarantee a parseable log even for a pathologically inactive draw
        emit(SYNTH_EPOCH + timedelta(hours=12), IGNITION_ON)
        emit(SYNTH_EPOCH + timedelta(hours=12, minutes=30), IGNITION_OFF)
    events = np.zeros(len(emitted) + n_fixes, _RECORD_DTYPE)  # each row a fix until overwritten
    events["lat"], events["speed_kph"], events["accel_g"] = SYNTH_LATITUDE, NAN, NAN
    events["kind"] = POSITION
    _position_fixes(events, np.array(segments, _SEGMENT_DTYPE))
    events[emitted] = np.frombuffer(records, _RECORD_DTYPE)
    log = DeviceLogBuilder(profile.device_id)
    log.records += events[np.argsort(events["ts"], kind="stable")].tobytes()
    return log.build()[0]


def iter_event_logs(result: SynthResult, limit: int | None = None) -> Iterator[DeviceLog]:
    """Event logs for the first ``limit`` drivers (all if None), reproducibly."""
    for i, profile in enumerate(result.profiles[:limit]):
        rng = np.random.default_rng(_driver_seed(result.config.seed, i, 1))
        yield generate_event_log(profile, result.config.weeks, rng)
