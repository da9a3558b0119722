"""Statistical significance testing.

Table I marks improvements with ``*`` when a two-sided t-test against the
best baseline gives p < 0.05; this module reproduces that test over
per-seed accuracy samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import EvaluationError


@dataclass
class SignificanceResult:
    """Outcome of one two-sided test."""

    statistic: float
    p_value: float
    significant: bool
    alpha: float


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
    # scipy.stats takes most of a second to import and only this test needs
    # it, so it loads on first call rather than with ``import repro``.
    from scipy import stats

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
            # than letting scipy warn about catastrophic cancellation.
            sign = float(np.sign(differences[0]))
            return SignificanceResult(sign * np.inf, 0.0, True, alpha)
        statistic, p_value = stats.ttest_rel(candidate, baseline)
    else:
        statistic, p_value = stats.ttest_ind(candidate, baseline, equal_var=False)
    return SignificanceResult(
        statistic=float(statistic),
        p_value=float(p_value),
        significant=bool(p_value < alpha),
        alpha=alpha,
    )
