"""The drift function ``f(b)`` of §4 and its roots.

After Lemma 7 the paper bounds the one-step change of the normalised
defect ``b = B/A``:

    E[b'] − b  ≤  f(b)  =  p·d²/k  −  (1−p)·d(k−d²)/k² · b
                           + (1−p)·(d/k) · b^(2−1/d)

``f`` is convex on [0, 1] with a minimum near 1/2 and (in the operating
regime ``pd ≤ δ``, ``k ≥ c·d²``) two roots ``0 < a₁ < 1/2 < a₂ < 1``:

* ``a₁ ≈ pd`` — the attractor: the steady-state defect level (Theorem 4);
* ``a₂ ≈ 1 − (pd/(d−1) + d²/k)`` — the tipping point beyond which the
  defect drifts to 1 and the system collapses.

This module evaluates ``f`` and finds the roots numerically; the
experiments compare the *measured* defect trajectory against them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DriftParameters:
    """Operating point of the drift analysis.

    Attributes:
        k: Server threads.
        d: Per-node threads (>= 2).
        p: Per-interval failure probability.
    """

    k: int
    d: int
    p: float

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("the analysis requires d >= 2")
        if self.k <= self.d * self.d:
            raise ValueError("the analysis requires k > d^2")
        if not 0.0 <= self.p < 1.0:
            raise ValueError("p must be in [0, 1)")


def drift(params: DriftParameters, b: float | np.ndarray) -> float | np.ndarray:
    """Evaluate ``f(b)`` — the upper bound on the expected defect change."""
    k, d, p = params.k, params.d, params.p
    b = np.asarray(b, dtype=float)
    value = (
        p * d * d / k
        - (1.0 - p) * d * (k - d * d) / (k * k) * b
        + (1.0 - p) * (d / k) * np.power(b, 2.0 - 1.0 / d)
    )
    return float(value) if value.ndim == 0 else value


def drift_minimum(params: DriftParameters) -> tuple[float, float]:
    """Location and value of the minimum of ``f`` on [0, 1].

    The paper's closed form puts the minimiser near
    ``a₀ = (1 − d²/k)/(2 − 1/d) ≈ 1/2`` and the minimum value below
    ``−d/(8k)``; we solve numerically.
    """
    from scipy import optimize  # deferred: see repro.analysis.stats

    result = optimize.minimize_scalar(
        lambda b: drift(params, b), bounds=(0.0, 1.0), method="bounded"
    )
    return float(result.x), float(result.fun)


def drift_roots(params: DriftParameters) -> tuple[float, float]:
    """The two roots ``(a₁, a₂)`` of ``f`` in (0, 1).

    Raises ``ValueError`` when ``f`` has no sign change — i.e. the
    operating point is outside the paper's regime (``pd`` too large for
    this ``k, d``) and the system has no stable defect level.
    """
    from scipy import optimize

    minimiser, minimum = drift_minimum(params)
    if minimum >= 0.0:
        raise ValueError(
            f"f(b) has no roots: min f = {minimum:.3g} >= 0 at b = {minimiser:.3f};"
            " pd is too large for this (k, d)"
        )
    f = lambda b: drift(params, b)
    if f(0.0) <= 0.0:
        a1 = 0.0
    else:
        a1 = float(optimize.brentq(f, 0.0, minimiser))
    if f(1.0) <= 0.0:
        a2 = 1.0
    else:
        a2 = float(optimize.brentq(f, minimiser, 1.0))
    return a1, a2


def paper_a1_estimate(params: DriftParameters) -> float:
    """The paper's closed-form leading estimate of the attractor root.

    ``a₁ = pd / ((1−p)(1−d²/k)) · (1+ε)`` with ``0 < ε < (2pd)^(1−1/d)``;
    this returns the ε = 0 leading term.
    """
    k, d, p = params.k, params.d, params.p
    return p * d / ((1.0 - p) * (1.0 - d * d / k))


def paper_a1_epsilon_bound(params: DriftParameters) -> float:
    """The paper's upper bound ``(2pd)^(1−1/d)`` on ε in the a₁ estimate."""
    d, p = params.d, params.p
    return float((2.0 * p * d) ** (1.0 - 1.0 / d))


def paper_a2_estimate(params: DriftParameters) -> float:
    """The paper's closed-form leading estimate of the tipping root.

    ``a₂ = 1 − (pd/(d−1) + d²/k)(1+ε)`` with ``|ε| < 2(1/d + d²/k)``.
    (The paper's display writes ``pd/(1−d)``; the quantity subtracted from
    1 must be positive, so the intended magnitude is ``pd/(d−1)``.)
    """
    k, d, p = params.k, params.d, params.p
    return 1.0 - (p * d / (d - 1.0) + d * d / k)


def defect_drop_interval(
    params: DriftParameters, c1: float
) -> tuple[float, float]:
    """The interval ``[b₁, b₂]`` on which ``f(b) ≤ −c₁``.

    This is the strongly contracting zone used in the collapse analysis
    (Lemma 8); the paper takes ``c₁ = δ₂·d/k`` for a small constant δ₂.
    Raises ``ValueError`` when no such interval exists.
    """
    from scipy import optimize

    if c1 <= 0.0:
        raise ValueError("c1 must be positive")
    minimiser, minimum = drift_minimum(params)
    if minimum > -c1:
        raise ValueError(f"f never reaches -c1 = {-c1:.3g} (min = {minimum:.3g})")
    g = lambda b: drift(params, b) + c1
    b1 = float(optimize.brentq(g, 0.0, minimiser)) if g(0.0) > 0 else 0.0
    b2 = float(optimize.brentq(g, minimiser, 1.0)) if g(1.0) > 0 else 1.0
    return b1, b2
