"""Synthetic population generator: determinism, planted truth, closed loop."""
import ast
import hashlib
import inspect
import json
import math
from dataclasses import fields, replace
from datetime import timezone

import numpy as np
import pytest

from drivescore.bands import ACCEL_BAND_NAMES, accel_bands, speed_bands
from drivescore.features import FEATURE_NAMES, compute_feature_table
from drivescore.ingest import iter_log_lines
from drivescore.labeling import ClaimRecord, build_targets, classify_severity
from drivescore import synthgen
from drivescore.synthgen import (DEFAULT_PLANTED_BETAS, G_RANGES, LONG_TRIP_LO,
                                 RATIO_RANGES, SYNTH_EPOCH, DriverProfile,
                                 SynthConfig, SynthResult, _BASE_HOUR_WEIGHTS,
                                 _driver_seed, _uniform,
                                 generate_event_log, generate_population,
                                 iter_event_logs, oracle_features,
                                 planted_probabilities, sample_profile)
from drivescore.trips import roll_up
from conftest import assert_same_logs

UTC = timezone.utc


def small_config(**kw):
    base = dict(n_drivers=60, weeks=6, seed=42)
    base.update(kw)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_same_population(self):
        a = generate_population(small_config())
        b = generate_population(small_config())
        assert a.features.device_ids == b.features.device_ids
        assert a.features.values.tolist() == b.features.values.tolist()
        assert a.claims == b.claims
        assert a.outcomes == b.outcomes
        assert a.truth() == b.truth()

    def test_different_seed_differs(self):
        a = generate_population(small_config())
        b = generate_population(small_config(seed=43))
        assert a.features.values.tolist() != b.features.values.tolist()

    def test_sample_profile_is_stream_deterministic(self):
        p1 = sample_profile("d0", np.random.default_rng(7))
        p2 = sample_profile("d0", np.random.default_rng(7))
        assert p1 == p2

    def test_one_generator_per_driver_and_per_log(self, monkeypatch):
        made = []
        real = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: made.append(seed) or real(seed))
        res = generate_population(small_config(n_drivers=10, weeks=1))
        assert len(made) == 10
        list(iter_event_logs(res, limit=3))
        assert len(made) == 13

    @pytest.mark.parametrize("seed", [0, 4, 42, 2**70 + 9])
    def test_driver_seed_is_the_spawn_tree(self, seed):
        n = 9
        tree = np.random.SeedSequence(seed).spawn(n)
        for i in (0, 1, n - 1):
            for stream, child in enumerate(tree[i].spawn(2)):
                assert _driver_seed(seed, i, stream).generate_state(4).tolist() == \
                    child.generate_state(4).tolist()

    def test_uniform_draws_what_generator_uniform_draws(self):
        """Same values, same stream position, on every literal range the module
        draws from (found in its source) and on the data-dependent ones."""
        literal = []
        for node in ast.walk(ast.parse(inspect.getsource(synthgen))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_uniform":
                try:
                    literal.append(tuple(ast.literal_eval(a) for a in node.args[1:]))
                except ValueError:  # a bound computed from data, covered below
                    pass
        assert len(literal) >= 30
        ranges = (literal + list(G_RANGES.values()) + list(RATIO_RANGES.values())
                  + [(LONG_TRIP_LO, hi) for hi in (240.0, 431.7, 640.0)]
                  + [(102.0, min(126.0, peak - 2.0)) for peak in (115.0, 127.9, 174.99)]
                  + [(131.0, min(165.0, peak - 1.0)) for peak in (136.01, 150.3, 174.99)]
                  + [(1.0, max(2.0, d - 1.0)) for d in (0.0, 2.5, 61.0, 3600.7, 48211.3)])
        for seed in (0, 7, 2**63 + 5):
            ours, numpys = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(50):
                for lo, hi in ranges:
                    assert _uniform(ours, lo, hi) == numpys.uniform(lo, hi), (lo, hi)
            assert ours.random() == numpys.random()


class TestConfigAndProfileValidation:
    def test_population_floor(self):
        with pytest.raises(ValueError):
            SynthConfig(n_drivers=1, weeks=4, seed=0)

    def test_weeks_floor(self):
        with pytest.raises(ValueError):
            SynthConfig(n_drivers=10, weeks=0, seed=0)

    def test_profile_invariants(self):
        base = sample_profile("p", np.random.default_rng(1))
        with pytest.raises(ValueError):
            replace(base, long_trip_prob=0.5)
        with pytest.raises(ValueError):
            replace(base, long_trip_prob=0.01, long_trip_hi=LONG_TRIP_LO)
        with pytest.raises(ValueError):
            replace(base, peak_n_sp=base.peak_sp + 1)
        with pytest.raises(ValueError):
            replace(base, band_shares=(0.5, 0.2, 0.1, 0.1, 0.05))


class TestPlantedRangesClassify:
    """The generator's draw ranges sit inside the bands the pipeline reads back."""

    @pytest.mark.parametrize("band", ACCEL_BAND_NAMES)
    def test_g_range_ends_fall_in_their_band(self, band):
        lo, hi = G_RANGES[band]
        g = np.array([lo, np.nextafter(hi, lo)])
        sign = -1.0 if band.startswith("d") else 1.0
        lateral = np.full(2, band.startswith("s"))
        got = accel_bands(lateral, sign * g)
        assert got.tolist() == [ACCEL_BAND_NAMES.index(band)] * 2
        if band.startswith("s"):  # either side of the car
            assert accel_bands(lateral, -g).tolist() == got.tolist()

    @pytest.mark.parametrize("cls", sorted(RATIO_RANGES))
    def test_ratio_range_ends_classify_as_their_class(self, cls):
        for ratio in RATIO_RANGES[cls]:
            assert classify_severity(ClaimRecord("d", ratio, 1.0, True)) == cls

    def test_band_speeds_fall_in_their_speed_band(self):
        # oracle_features reads band_shares[i] as the mileage of speed band i
        for seed in range(200):
            p = sample_profile("b", np.random.default_rng(seed))
            assert speed_bands(np.array(p.band_speeds)).tolist() == [0, 1, 2, 3, 4], seed


class TestPlantedTruth:
    def test_outcomes_recoverable_from_claims(self):
        res = generate_population(small_config(n_drivers=300, weeks=8))
        assert build_targets(res.claims, res.features.device_ids) == res.outcomes

    def test_claim_ratios_stay_inside_their_bands(self):
        res = generate_population(small_config(n_drivers=300, weeks=8))
        for c in res.claims:
            cls = classify_severity(c)
            if cls == "none":
                continue
            lo, hi = RATIO_RANGES[cls]
            assert lo <= c.loss_size / c.ins_sum <= hi

    def test_planted_probability_is_logistic(self):
        res = generate_population(small_config())
        beta = DEFAULT_PLANTED_BETAS["weak"]
        probs = planted_probabilities(res.features, beta)
        assert len(probs) == res.config.n_drivers
        for p, row in zip(probs, res.features.values.tolist()):
            fv = dict(zip(FEATURE_NAMES, row))
            eta = beta["const"] + sum(v * fv[k] for k, v in beta.items() if k != "const")
            assert p == pytest.approx(1 / (1 + math.exp(-eta)), rel=1e-12)

    def test_planted_probability_does_not_depend_on_the_order_of_beta(self):
        res = generate_population(small_config())
        for beta in DEFAULT_PLANTED_BETAS.values():
            const_last = {k: v for k, v in beta.items() if k != "const"}
            const_last["const"] = beta["const"]
            assert list(const_last)[-1] == "const"
            assert planted_probabilities(res.features, const_last) == \
                planted_probabilities(res.features, beta)

    def test_truth_payload(self):
        res = generate_population(small_config())
        truth = json.loads(json.dumps(res.truth()))
        assert truth["seed"] == 42 and truth["n_drivers"] == 60
        assert set(truth["planted_betas"]) == {"weak", "medium", "strong"}
        assert set(truth["positive_counts"]) == {"any", "weak", "medium", "strong"}
        assert truth["positive_counts"]["any"] >= truth["positive_counts"]["strong"]

    def test_profiles_digest_hashes_every_field_by_value(self):
        res = generate_population(small_config(n_drivers=4, weeks=1))

        def digest(*profiles):
            return replace(res, profiles=list(profiles)).truth()["profiles_digest"]

        # the layout: device id, NUL, then each other field flattened as <f8
        layout = hashlib.sha256()
        for p in res.profiles:
            flat = [x for f in fields(DriverProfile)[1:] for x in np.atleast_1d(getattr(p, f.name))]
            layout.update(p.device_id.encode() + b"\0" + np.array(flat, "<f8").tobytes())
        assert res.truth()["profiles_digest"] == layout.hexdigest()

        p = res.profiles[1]
        base = digest(p)
        assert digest(replace(p, device_id="d00009")) != base
        as_floats = {}
        for f in fields(DriverProfile)[1:]:
            v = getattr(p, f.name)
            cells = v if isinstance(v, tuple) else (v,)
            for k, x in enumerate(cells):
                bumped = cells[:k] + (np.nextafter(x, np.inf),) + cells[k + 1:]
                one_ulp = replace(p, **{f.name: bumped if isinstance(v, tuple) else bumped[0]})
                assert digest(one_ulp) != base, (f.name, k)
            as_floats[f.name] = tuple(map(float, cells)) if isinstance(v, tuple) else float(v)
        # numpy scalars and equal builtin floats print differently on numpy 2 but hash alike
        assert any(type(x) is np.float64 for x in p.hour_weights + p.accel_rates)
        assert digest(replace(p, **as_floats)) == base

    def test_default_sign_pattern(self):
        # the planted pattern mixes protective and risky coefficients
        weak = DEFAULT_PLANTED_BETAS["weak"]
        assert weak["mileage"] > 0 and weak["a1"] > 0
        assert weak["avg_sp"] < 0 and weak["s1"] < 0
        strong = DEFAULT_PLANTED_BETAS["strong"]
        assert strong["a1"] > 0 and strong["a2"] < 0


class TestEventLogRealism:
    def test_epoch_alignment(self):
        assert SYNTH_EPOCH.weekday() == 0  # weeks count from a Monday
        assert SYNTH_EPOCH.tzinfo is UTC

    def test_log_round_trips_through_pipeline(self):
        profile = sample_profile("r1", np.random.default_rng(3))
        log = generate_event_log(profile, 2, np.random.default_rng(3))
        assert log.device_id == "r1"
        trips, hourly = roll_up(log)
        assert trips, "a fortnight of driving must contain trips"
        assert sum(r.mileage_km for r in hourly) == pytest.approx(
            sum(t.mileage_km for t in trips), rel=1e-6)

    def test_no_event_is_written_twice(self):
        """Seed 523 draws two identical acceleration packages for d00003 in
        one second (2019-03-14T21:10:33Z); the log holds that event once."""
        res = generate_population(SynthConfig(n_drivers=6, weeks=26, seed=523))
        (log,) = list(iter_event_logs(res, limit=4))[3:]
        lines = list(iter_log_lines([log]))
        assert len(set(lines)) == len(lines)
        assert sum('"ts":"2019-03-14T21:10:33Z","kind":"acceleration"' in ln
                   for ln in lines) == 1

    def test_iter_event_logs_limit(self):
        res = generate_population(small_config(n_drivers=10, weeks=2))
        logs = list(iter_event_logs(res, limit=3))
        assert [log.device_id for log in logs] == \
            [p.device_id for p in res.profiles[:3]]
        full = list(iter_event_logs(res))
        assert len(full) == 10
        assert_same_logs(logs, full[:3])


def test_oracle_features_are_coherent():
    for seed in (0, 5, 9):
        p = sample_profile(f"o{seed}", np.random.default_rng(seed))
        fv = oracle_features(p, 26)
        assert fv["below_10_pr"] <= fv["below_30_pr"]
        assert fv["over_400"] <= fv["over_200"]
        assert 0 <= fv["over_200"] <= 100
        assert fv["mileage"] > 0
        assert fv["max_sp"] == p.peak_sp
        assert fv["avg_trip_mil"] > 0


class TestDeskScaleClosedLoop:
    """One tame driver, a year of events, realized features vs the closed form.

    The profile keeps the lognormal tail short so per-day-class realization
    noise stays inside a 10% band, and gives top-band legs enough length
    that one-second timestamp truncation cannot knock them into a lower
    speed bin.  Slice maxima, slice mileage splits and the long-trip shares
    have wider relative noise at one-driver scale and are checked elsewhere
    at population scale.
    """

    CHECKED = ("mileage", "trips_day", "d_total_m", "avg_trip_mil",
               "avg_trip_dur", "d_business_m", "d_holi_m", "below_10_pr",
               "below_30_pr", "m_pr_below_20", "m_pr_below_60",
               "m_pr_over_100", "m_pr_over_130",
               "a1", "a2", "a3", "d1", "d2", "d3", "s1", "s2", "s3")

    def test_realized_features_match_oracle(self):
        hw = _BASE_HOUR_WEIGHTS / _BASE_HOUR_WEIGHTS.sum()
        profile = DriverProfile(
            device_id="desk0",
            active_prob_business=0.90,
            active_prob_holiday=0.85,
            trips_per_active_day=4.0,
            holiday_factor=1.1,
            trip_log_mu=2.2,
            trip_log_sigma=0.8,
            band_speeds=(14.0, 42.0, 78.0, 115.0, 150.0),
            band_shares=(0.15, 0.42, 0.28, 0.10, 0.05),
            hour_weights=tuple(hw),
            peak_sp=160.0,
            peak_mj_sp=125.0,
            peak_ej_sp=122.0,
            peak_n_sp=135.0,
            accel_rates=(14.0, 4.0, 2.5, 7.0, 2.5, 3.0, 6.0, 2.5, 3.0),
        )
        weeks = 52
        log = generate_event_log(profile, weeks, np.random.default_rng(13))
        trips, hourly = roll_up(log)
        table = compute_feature_table(hourly, trips, "lifetime", frozenset(), UTC)
        assert table.device_ids == ("desk0",)
        got = dict(zip(FEATURE_NAMES, table.values[0].tolist()))
        want = oracle_features(profile, weeks)
        for name in self.CHECKED:
            rel = abs(got[name] - want[name]) / max(abs(want[name]), 1e-12)
            assert rel <= 0.10, (name, got[name], want[name], rel)


def test_population_rates_track_planted_intercepts():
    res = generate_population(SynthConfig(n_drivers=2000, weeks=26, seed=2))
    n = res.config.n_drivers
    rates = {t: sum(v) / n for t, v in res.outcomes.items()}
    assert 0.12 <= rates["weak"] <= 0.24
    assert 0.08 <= rates["medium"] <= 0.17
    assert 0.045 <= rates["strong"] <= 0.105
    assert rates["any"] <= rates["weak"] + rates["medium"] + rates["strong"]
