"""Budgeted DP queries over arrays and tables (Q3).

Each query charges a :class:`~repro.confidentiality.accountant.PrivacyAccountant`
*before* touching the data — "answer questions without revealing secrets"
with the spend visible in the ledger.  Numeric queries require explicit
value bounds: sensitivity comes from declared bounds, never from the data
itself (peeking at the data to set bounds would leak).
"""

from __future__ import annotations

import numpy as np

from repro.confidentiality.accountant import PrivacyAccountant
from repro.confidentiality.mechanisms import (
    exponential_mechanism,
    laplace_mechanism,
)
from repro.exceptions import DataError


def _clip(values, lower: float, upper: float) -> np.ndarray:
    if lower >= upper:
        raise DataError(f"need lower < upper, got [{lower}, {upper}]")
    return np.clip(np.asarray(values, dtype=np.float64), lower, upper)


def _check_epsilon(epsilon: float) -> float:
    """Uniform ε validation shared by every ``dp_*`` entry point.

    Each query rejects a non-positive ε up front with one consistent
    message, instead of whatever the first mechanism hit would say.
    """
    if not epsilon > 0:
        raise DataError(f"epsilon must be positive, got {epsilon}")
    return float(epsilon)


def dp_count(n: int, epsilon: float, accountant: PrivacyAccountant,
             rng: np.random.Generator, label: str = "count") -> float:
    """ε-DP row count (sensitivity 1), non-negative by post-processing."""
    epsilon = _check_epsilon(epsilon)
    accountant.spend(epsilon, label=label)
    noisy = laplace_mechanism(float(n), 1.0, epsilon, rng)
    return max(0.0, noisy)


def dp_sum(values, lower: float, upper: float, epsilon: float,
           accountant: PrivacyAccountant, rng: np.random.Generator,
           label: str = "sum") -> float:
    """ε-DP sum of values clipped to [lower, upper]."""
    epsilon = _check_epsilon(epsilon)
    accountant.spend(epsilon, label=label)
    clipped = _clip(values, lower, upper)
    sensitivity = max(abs(lower), abs(upper))
    return laplace_mechanism(float(clipped.sum()), sensitivity, epsilon, rng)


def dp_mean(values, lower: float, upper: float, epsilon: float,
            accountant: PrivacyAccountant, rng: np.random.Generator,
            label: str = "mean") -> float:
    """ε-DP mean: half the budget on the sum, half on the count.

    The quotient is clamped back into the declared bounds (free
    post-processing).
    """
    epsilon = _check_epsilon(epsilon)
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        raise DataError("cannot take the mean of no values")
    half = epsilon / 2.0
    noisy_sum = dp_sum(values, lower, upper, half, accountant, rng,
                       label=f"{label}.sum")
    noisy_count = dp_count(len(values), half, accountant, rng,
                           label=f"{label}.count")
    if noisy_count < 1.0:
        noisy_count = 1.0
    return float(np.clip(noisy_sum / noisy_count, lower, upper))


def dp_histogram(values, bins: list, epsilon: float,
                 accountant: PrivacyAccountant, rng: np.random.Generator,
                 label: str = "histogram") -> dict[object, float]:
    """ε-DP histogram over disjoint categories.

    One record lands in exactly one bin, so the whole histogram costs a
    single ε (parallel composition) — charged once, noise added per bin.
    """
    epsilon = _check_epsilon(epsilon)
    if not bins:
        raise DataError("bins must be non-empty")
    # numpy strings drop trailing NULs, so "a" and "a\x00" would count
    # the same rows: two noisy copies of one count for one ε.
    if any(isinstance(value, str) and "\x00" in value for value in bins):
        raise DataError("histogram bins may not contain NUL characters")
    accountant.spend(epsilon, label=label)
    values = np.asarray(values)
    result: dict[object, float] = {}
    for bin_value in bins:
        count = float(np.sum(values == bin_value))
        result[bin_value] = max(
            0.0, laplace_mechanism(count, 1.0, epsilon, rng)
        )
    return result


def dp_quantile(values, q: float, lower: float, upper: float,
                epsilon: float, accountant: PrivacyAccountant,
                rng: np.random.Generator, n_candidates: int = 100,
                label: str = "quantile") -> float:
    """ε-DP quantile via the exponential mechanism.

    Candidates form a grid over [lower, upper]; the utility of candidate
    c is minus the distance between rank(c) and the target rank, whose
    sensitivity is 1.
    """
    epsilon = _check_epsilon(epsilon)
    if not 0.0 <= q <= 1.0:
        raise DataError(f"q must be in [0, 1], got {q}")
    accountant.spend(epsilon, label=label)
    clipped = _clip(values, lower, upper)
    candidates = np.linspace(lower, upper, n_candidates).tolist()
    target_rank = q * len(clipped)
    utilities = [
        -abs(float(np.sum(clipped <= candidate)) - target_rank)
        for candidate in candidates
    ]
    return float(exponential_mechanism(
        candidates, utilities, sensitivity=1.0, epsilon=epsilon, rng=rng
    ))
