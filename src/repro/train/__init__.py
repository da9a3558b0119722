"""Training: optimizers, losses and the trainer loops."""

from repro.train.optim import SGD, Adam, AdamW, Optimizer
from repro.train.losses import cross_entropy, mse_loss
from repro.train.trainer import Trainer, TrainResult
from repro.train.meta_trainer import MetaTrainer

__all__ = [
    "Adam",
    "AdamW",
    "MetaTrainer",
    "Optimizer",
    "SGD",
    "TrainResult",
    "Trainer",
    "cross_entropy",
    "mse_loss",
]
