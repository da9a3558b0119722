"""Classification metrics."""

from __future__ import annotations

import numpy as np

from repro.errors import EvaluationError


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of exact matches."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise EvaluationError(
            f"predictions {predictions.shape} and labels {labels.shape} disagree"
        )
    if predictions.size == 0:
        raise EvaluationError("accuracy of an empty prediction set")
    return float((predictions == labels).mean())
