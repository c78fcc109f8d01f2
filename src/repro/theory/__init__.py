"""Analytic side of the paper: drift function, closed-form bounds, collapse.

Everything here is pure computation (no networks); the benchmark harness
prints these predictions next to measured values.
"""

from .bounds import (
    Theorem4Prediction,
    collapse_exponent,
    collapse_probability_bound,
    expected_bandwidth_loss_fraction,
    lemma6_max_jump_fraction,
    theorem4_prediction,
    unicast_capacity,
)
from .collapse import (
    CollapseResult,
    mean_walk_collapse_time,
    measure_collapse_time,
    simulate_defect_walk,
)
from .drift import (
    DriftParameters,
    defect_drop_interval,
    drift,
    drift_minimum,
    drift_roots,
    paper_a1_epsilon_bound,
    paper_a1_estimate,
    paper_a2_estimate,
)

__all__ = [
    "CollapseResult",
    "DriftParameters",
    "Theorem4Prediction",
    "collapse_exponent",
    "collapse_probability_bound",
    "defect_drop_interval",
    "drift",
    "drift_minimum",
    "drift_roots",
    "expected_bandwidth_loss_fraction",
    "lemma6_max_jump_fraction",
    "mean_walk_collapse_time",
    "measure_collapse_time",
    "paper_a1_epsilon_bound",
    "paper_a1_estimate",
    "paper_a2_estimate",
    "simulate_defect_walk",
    "theorem4_prediction",
    "unicast_capacity",
]
