"""Tests for the gradient checker itself (it must catch broken gradients)."""

import numpy as np
import pytest

from repro.autograd import Tensor, check_gradients, tensor
from repro.autograd.tensor import unbroadcast
from repro.errors import GradientError


class TestCheckGradients:
    def test_passes_on_correct_gradient(self, rng):
        x = tensor(rng.normal(size=(3, 3)), requires_grad=True, dtype=np.float64)
        check_gradients(lambda x: x * x, [x])

    def test_fails_on_wrong_gradient(self, rng):
        x = tensor(rng.normal(size=(2, 2)), requires_grad=True, dtype=np.float64)

        def broken(t: Tensor) -> Tensor:
            # Correct value, doubled gradient.
            return Tensor._op(lambda data: (data.copy(), None), (lambda ctx, g: 2.0 * g,), t)

        with pytest.raises(GradientError, match="mismatch"):
            check_gradients(broken, [x])

    def test_fails_when_gradient_missing(self, rng):
        x = tensor(rng.normal(size=(2,)), requires_grad=True, dtype=np.float64)
        y = tensor(rng.normal(size=(2,)), requires_grad=True, dtype=np.float64)
        # y never participates, so it gets no gradient.
        with pytest.raises(GradientError, match="no gradient"):
            check_gradients(lambda x, y: x * 2, [x, y])

    def test_skips_non_grad_inputs(self, rng):
        x = tensor(rng.normal(size=(2,)), requires_grad=True, dtype=np.float64)
        const = tensor(rng.normal(size=(2,)), dtype=np.float64)
        check_gradients(lambda x, c: x * c, [x, const])
