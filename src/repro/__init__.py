"""repro — a full reproduction of "MetaLoRA: Tensor-Enhanced Adaptive
Low-Rank Fine-Tuning" (ICDE 2025).

Subpackages
-----------
- :mod:`repro.autograd` — numpy reverse-mode autodiff engine (the torch
  substitute for this offline reproduction)
- :mod:`repro.nn` — neural layers (Linear, Conv2d, norms, pooling, ...)
- :mod:`repro.models` — ResNet and MLP-Mixer backbones
- :mod:`repro.tensornet` — tensor contraction, CP, Tensor Ring, Tucker,
  dummy-tensor convolution, tensor-network graphs
- :mod:`repro.peft` — LoRA, Conv-LoRA, Multi-LoRA, MoE-LoRA and the
  MetaLoRA CP/TR adapters with the mapping net (the paper's contribution)
- :mod:`repro.data` — synthetic multi-task image distribution
- :mod:`repro.train` — optimizers, trainer loops
- :mod:`repro.eval` — KNN protocol, metrics, significance, Table I runner

Quickstart
----------
>>> import numpy as np
>>> from repro.eval import Table1Config, run_table1
>>> rows = run_table1(Table1Config().quick(), seed=0)  # doctest: +SKIP
"""

from repro import autograd, data, eval, models, nn, peft, tensornet, train, utils
from repro.errors import ReproError

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "__version__",
    "autograd",
    "data",
    "eval",
    "models",
    "nn",
    "peft",
    "tensornet",
    "train",
    "utils",
]
