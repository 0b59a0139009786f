"""Accident-severity labeling from claims, binary target construction and
premium arithmetic.

A claim's severity class comes from its loss-to-insured-sum ratio: zero loss
counts as no accident, under 5% is weak, 5% to 20% inclusive is medium, above
20% is strong.  Claims where the driver was not the culprit are treated as no
accident for modeling.  This module needs no numpy, so the commands that only
label claims or price scores start without it.
"""
from __future__ import annotations

import math
from collections import namedtuple
from typing import Sequence

TARGETS = ("any", "weak", "medium", "strong")

WEAK_UPPER = 0.05   # r below this (and above 0) is weak
MEDIUM_UPPER = 0.20  # r above this is strong; boundaries fall to medium

CLAIMS_CSV_COLUMNS = ("device", "loss_size", "ins_sum", "culprit")
LABELS_CSV_COLUMNS = ("device", "class")

# The lower-case spellings a boolean cell or config value may take.
BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class ClaimValidationError(ValueError):
    """A claim record violates its invariants."""


class EstimationError(ValueError):
    """A target's labels admit no estimate: separation, collinearity, a
    single-class target, or an AUC over one class.  Base of the model
    layers' estimation failures, so the CLI maps them to one exit code
    without importing those layers."""


# One claim, its fields the columns of claims.csv; culprit is 1 or 0.
ClaimRecord = namedtuple("ClaimRecord", CLAIMS_CSV_COLUMNS)


def classify_severity(claim: ClaimRecord) -> str:
    """Severity class of one claim, from its loss ratio.

    Non-culprit claims and zero-loss claims classify as "none".  The 5% and
    20% boundaries both map to "medium".
    """
    if not claim.culprit:
        return "none"
    r = claim.loss_size / claim.ins_sum
    if r == 0.0:
        return "none"
    if r < WEAK_UPPER:
        return "weak"
    if r <= MEDIUM_UPPER:
        return "medium"
    return "strong"


def build_targets(claims: Sequence[ClaimRecord],
                  devices: Sequence[str]) -> dict[str, list[int]]:
    """Every target's binary label per device, from one pass over the claims,
    keyed in ``TARGETS`` order.

    "any" is 1 iff the device has at least one claim whose class is not
    "none"; a severity target is 1 iff the device has at least one claim of
    exactly that class.  A device with claims of two classes is positive in
    both severity targets.  Devices without claims are 0.
    """
    classes: dict[str, set[str]] = {}
    for c in claims:
        classes.setdefault(c.device, set()).add(classify_severity(c))
    no_claims = frozenset()  # shared: a new set per device without claims costs RSS
    got = [classes.get(dev, no_claims) for dev in devices]
    labels = {"any": [int(any(cls != "none" for cls in g)) for g in got]}
    for target in TARGETS[1:]:
        labels[target] = [int(target in g) for g in got]
    return labels


def claim_from_row(cells: Sequence[str]) -> ClaimRecord:
    """The claim of one row's cells in ``CLAIMS_CSV_COLUMNS`` order, if its amounts
    are finite, its insured sum positive and its loss not negative."""
    device, loss_size, ins_sum, culprit = cells
    flag = BOOLEANS.get(culprit.strip().lower())
    if flag is None:
        raise ClaimValidationError(f"culprit must be boolean-like, got {culprit!r}")
    claim = ClaimRecord(device, float(loss_size), float(ins_sum), int(flag))
    for name, value in zip(("loss_size", "ins_sum"), claim[1:3]):
        if not math.isfinite(value):
            raise ClaimValidationError(f"{name} must be finite, got {value}")
    if claim.ins_sum <= 0:
        raise ClaimValidationError(f"ins_sum must be positive, got {claim.ins_sum}")
    if claim.loss_size < 0:
        raise ClaimValidationError(f"loss_size must be non-negative, got {claim.loss_size}")
    return claim


def compute_premium(p_accident: float, predicted_loss: float,
                    admin_costs: float, margin: float) -> float:
    """Premium = accident probability x predicted loss + admin + margin."""
    if not 0.0 <= p_accident <= 1.0:
        raise ValueError("p_accident must be within [0, 1]")
    if not all(map(math.isfinite, (predicted_loss, admin_costs, margin))):
        raise ValueError("monetary inputs must be finite")
    if predicted_loss < 0 or admin_costs < 0 or margin < 0:
        raise ValueError("monetary inputs must be non-negative")
    return p_accident * predicted_loss + admin_costs + margin
