"""Failure machinery: iid and adversarial models, §7 attacks."""

from .attacks import DetectionOutcome, assign_attack_roles, detect_low_innovation
from .models import (
    CohortBatchFailures,
    FailureModel,
    IIDFailures,
    RandomBatchFailures,
    apply_failures,
)

__all__ = [
    "CohortBatchFailures",
    "DetectionOutcome",
    "FailureModel",
    "IIDFailures",
    "RandomBatchFailures",
    "apply_failures",
    "assign_attack_roles",
    "detect_low_innovation",
]
