"""Evaluation: embedding extraction, KNN protocol, metrics, significance."""

from repro.eval.embeddings import extract_embeddings
from repro.eval.knn import KNNClassifier
from repro.eval.metrics import accuracy
from repro.eval.significance import SignificanceResult, two_sided_t_test
from repro.eval.protocol import (
    Table1Config,
    Table1Row,
    build_adapted_model,
    pretrain_backbone,
    run_table1,
    train_table1_model,
)
from repro.eval.robustness import (
    RobustnessCell,
    RobustnessConfig,
    degradation_slope,
    run_robustness_cell,
    run_robustness_stream,
)

__all__ = [
    "KNNClassifier",
    "RobustnessCell",
    "RobustnessConfig",
    "SignificanceResult",
    "Table1Config",
    "Table1Row",
    "accuracy",
    "build_adapted_model",
    "degradation_slope",
    "extract_embeddings",
    "pretrain_backbone",
    "run_robustness_cell",
    "run_robustness_stream",
    "run_table1",
    "train_table1_model",
    "two_sided_t_test",
]
