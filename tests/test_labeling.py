"""Claim severity classes and per-device targets."""
import math

import pytest
from hypothesis import given, strategies as st

from drivescore.labeling import (CLAIMS_CSV_COLUMNS, TARGETS, ClaimRecord,
                                 ClaimValidationError, build_targets,
                                 claim_from_row, classify_severity)


def claim(loss, ins=100_000.0, culprit=1, device="d1"):
    return ClaimRecord(device, loss, ins, culprit)


def claim_cells(loss, ins=100_000.0):
    return claim_from_row(["d1", str(loss), str(ins), "1"])


class TestClassifySeverity:
    def test_zero_loss_is_none(self):
        assert classify_severity(claim(0.0)) == "none"

    def test_non_culprit_is_none_whatever_the_loss(self):
        assert classify_severity(claim(90_000.0, culprit=0)) == "none"

    @pytest.mark.parametrize("loss,want", [
        (1.0, "weak"),
        (4_999.99, "weak"),
        (5_000.0, "medium"),     # ratio exactly 0.05
        (12_000.0, "medium"),
        (20_000.0, "medium"),    # ratio exactly 0.20
        (20_000.01, "strong"),
        (95_000.0, "strong"),
    ])
    def test_ratio_bands(self, loss, want):
        assert classify_severity(claim(loss)) == want

    def test_scale_invariance(self):
        small = claim(12.0, ins=100.0)
        big = claim(120_000.0, ins=1_000_000.0)
        assert classify_severity(small) == classify_severity(big) == "medium"


class TestClaimValidation:
    def test_negative_loss(self):
        with pytest.raises(ClaimValidationError, match="loss_size must be non-negative, got -1.0"):
            claim_cells(-1.0)

    def test_nonpositive_ins_sum(self):
        with pytest.raises(ClaimValidationError, match="ins_sum must be positive, got 0.0"):
            claim_cells(10.0, ins=0.0)

    @pytest.mark.parametrize("loss,ins", [
        (float("nan"), 100_000.0), (float("inf"), 100_000.0),
        (10.0, float("nan")), (10.0, float("inf"))])
    def test_non_finite_amounts(self, loss, ins):
        # nan compares false with every bound, and x / inf is 0, so neither
        # would fail the sign checks: a nan loss classed "strong" and an inf
        # insured sum "none"
        name, value = ("ins_sum", ins) if math.isfinite(loss) else ("loss_size", loss)
        with pytest.raises(ClaimValidationError, match=f"{name} must be finite, got {value}$"):
            claim_cells(loss, ins=ins)

    def test_non_finite_cell_fails_the_row(self):
        with pytest.raises(ClaimValidationError, match="loss_size must be finite"):
            claim_from_row(["d1", "nan", "1000", "1"])


class TestBuildTargets:
    def test_severity_targets_are_exact_class_hits(self):
        claims = [claim(1_000.0, device="a"),          # weak
                  claim(10_000.0, device="b"),         # medium
                  claim(50_000.0, device="b"),         # strong, same device
                  claim(3_000.0, device="c", culprit=0)]
        devices = ["a", "b", "c", "d"]
        assert build_targets(claims, devices) == {"any": [1, 1, 0, 0],
                                                  "weak": [1, 0, 0, 0],
                                                  "medium": [0, 1, 0, 0],
                                                  "strong": [0, 1, 0, 0]}

    def test_devices_without_claims_are_negative(self):
        labels = build_targets([], ["a", "b"])
        assert labels == {t: [0, 0] for t in TARGETS}
        assert tuple(labels) == TARGETS


def test_claim_row_round_trip():
    c = claim(1234.5, ins=98765.0, culprit=0, device="z9")
    cells = [str(v) for v in (c.device, c.loss_size, c.ins_sum, c.culprit)]
    assert CLAIMS_CSV_COLUMNS == ("device", "loss_size", "ins_sum", "culprit")
    assert claim_from_row(cells) == c


def test_claim_row_culprit_parsing():
    base = ["d", "1", "10"]
    assert claim_from_row([*base, " True"]).culprit == 1
    assert claim_from_row([*base, "0"]).culprit == 0
    with pytest.raises(ClaimValidationError, match="got 'maybe'"):
        claim_from_row([*base, "maybe"])


_RANK = {"none": 0, "weak": 1, "medium": 2, "strong": 3}


@given(st.floats(min_value=0.0, max_value=5e5, allow_nan=False),
       st.floats(min_value=0.0, max_value=5e5, allow_nan=False),
       st.floats(min_value=1.0, max_value=1e7, allow_nan=False))
def test_severity_monotone_in_loss(loss_a, loss_b, ins):
    lo, hi = sorted((loss_a, loss_b))
    assert _RANK[classify_severity(claim(lo, ins=ins))] <= \
        _RANK[classify_severity(claim(hi, ins=ins))]
