"""Statistical significance testing.

Table I marks improvements with ``*`` when a two-sided t-test against the
best baseline gives p < 0.05; this module reproduces that test over
per-seed accuracy samples.

The two-sided p-value of Student's t with ``df`` degrees of freedom is
the regularized incomplete beta ``I_x(df/2, 1/2)`` at ``x = df/(df+t²)``,
evaluated here by its continued fraction (modified Lentz).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError

#: Continued-fraction convergence tolerance (one ulp at 1.0) and iteration
#: cap; the fraction needs O(sqrt(df)) terms.
_CF_EPS = sys.float_info.epsilon
_CF_MAX_TERMS = 10_000
#: Floor that keeps Lentz's intermediate denominators away from zero.
_CF_TINY = 1e-300


@dataclass
class SignificanceResult:
    """Outcome of one two-sided test."""

    statistic: float
    p_value: float
    significant: bool
    alpha: float


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of ``I_x(a, b)``, converging for ``x < (a+1)/(a+b+2)``."""

    def floor(value: float) -> float:
        return value if abs(value) >= _CF_TINY else _CF_TINY

    c = 1.0
    d = 1.0 / floor(1.0 - (a + b) * x / (a + 1.0))
    h = d
    for m in range(1, _CF_MAX_TERMS + 1):
        m2 = 2 * m
        even = m * (b - m) * x / ((a - 1.0 + m2) * (a + m2))
        d = 1.0 / floor(1.0 + even * d)
        c = floor(1.0 + even / c)
        h *= d * c
        odd = -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2))
        d = 1.0 / floor(1.0 + odd * d)
        c = floor(1.0 + odd / c)
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _CF_EPS:
            return h
    raise EvaluationError(
        f"incomplete beta I_x({a}, {b}) at x={x} did not converge"
    )


def _log_gamma_ratio(a: float, b: float) -> float:
    """``log Γ(a+b) - log Γ(a)``.

    For large ``a`` the two ``lgamma`` values are large and nearly equal, so
    their difference loses digits; there the Stirling series is subtracted
    term by term instead (its first omitted term is below 1e-18 at a=50).
    """
    if a < 50.0:
        return math.lgamma(a + b) - math.lgamma(a)

    def tail(z: float) -> float:
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * z2)) / z2) / z2) / z

    return (
        (a - 0.5) * math.log1p(b / a) + b * math.log(a + b) - b
        + tail(a + b) - tail(a)
    )


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta ``I_x(a, b)``, given ``x`` and ``y = 1 - x``.

    ``y`` is passed separately so a caller that knows it exactly keeps the
    digits a ``1 - x`` would cancel away when ``x`` is near 1.
    """
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    log_x = math.log(x) if x < 0.5 else math.log1p(-y)
    log_y = math.log(y) if y < 0.5 else math.log1p(-x)
    front = math.exp(
        _log_gamma_ratio(a, b) - math.lgamma(b) + a * log_x + b * log_y
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def t_two_sided_p(statistic: float, df: float) -> float:
    """Two-sided p-value ``P(|T| >= |t|)`` of Student's t with ``df`` dof."""
    if math.isnan(statistic):
        return math.nan
    if math.isinf(statistic):
        return 0.0
    t2 = statistic * statistic
    return _incomplete_beta(df / 2.0, 0.5, df / (df + t2), t2 / (df + t2))


def _welch(candidate: np.ndarray, baseline: np.ndarray) -> tuple[float, float]:
    """Welch's t statistic and two-sided p (Welch–Satterthwaite dof)."""
    se_a = candidate.var(ddof=1) / candidate.size
    se_b = baseline.var(ddof=1) / baseline.size
    diff = float(candidate.mean() - baseline.mean())
    se = float(se_a + se_b)
    if se == 0.0:
        # Both samples constant: 0/0 is undefined, a mean gap diverges.
        statistic = math.nan if diff == 0.0 else math.copysign(math.inf, diff)
        return statistic, t_two_sided_p(statistic, 1.0)
    df = se * se / (se_a**2 / (candidate.size - 1) + se_b**2 / (baseline.size - 1))
    statistic = diff / math.sqrt(se)
    return statistic, t_two_sided_p(statistic, float(df))


def two_sided_t_test(
    candidate: list[float] | np.ndarray,
    baseline: list[float] | np.ndarray,
    alpha: float = 0.05,
    paired: bool = True,
) -> SignificanceResult:
    """Two-sided t-test of ``candidate`` vs ``baseline`` accuracy samples.

    ``paired=True`` (the default) matches the experimental design: both
    methods are run on the same seeds, so per-seed differences are the
    natural unit.  Falls back to Welch's test when unpaired.
    """
    candidate = np.asarray(candidate, dtype=np.float64)
    baseline = np.asarray(baseline, dtype=np.float64)
    if candidate.size < 2 or baseline.size < 2:
        raise EvaluationError("need at least two samples per group for a t-test")
    if paired:
        if candidate.shape != baseline.shape:
            raise EvaluationError(
                f"paired test needs equal sample counts, got "
                f"{candidate.shape} vs {baseline.shape}"
            )
        differences = candidate - baseline
        if np.allclose(differences, 0.0):
            return SignificanceResult(0.0, 1.0, False, alpha)
        if np.ptp(differences) < 1e-12:
            # Constant non-zero difference: zero variance, the t statistic
            # diverges; report it as maximally significant directly rather
            # than dividing by a variance that is rounding noise.
            sign = float(np.sign(differences[0]))
            return SignificanceResult(sign * np.inf, 0.0, True, alpha)
        n = differences.size
        statistic = float(
            differences.mean() / math.sqrt(differences.var(ddof=1) / n)
        )
        p_value = t_two_sided_p(statistic, n - 1.0)
    else:
        statistic, p_value = _welch(candidate, baseline)
    return SignificanceResult(
        statistic=statistic,
        p_value=p_value,
        significant=bool(p_value < alpha),
        alpha=alpha,
    )
