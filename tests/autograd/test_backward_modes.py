"""Backward-sweep semantics: what the sweep writes and what it keeps.

Gradients flowing into a tensor with several consumers add out of place,
so the sweep never writes into an array the caller handed it, and only
leaves retain ``.grad``.
"""

from __future__ import annotations

import numpy as np
from repro.autograd import Tensor


def test_backward_never_writes_into_caller_arrays(rng):
    # The first contribution to a parent can alias an array the caller
    # owns (e.g. an identity grad_fn handing back `gradient` itself);
    # later contributions must add into a new buffer, never into it.
    x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    y = x + 0.0
    z = (y + y) + y
    seed_grad = np.ones((3, 3))
    before = seed_grad.copy()
    z.backward(seed_grad)
    assert np.array_equal(seed_grad, before)
    assert np.array_equal(x.grad, 3.0 * before)


class TestGraphSemantics:
    def test_only_leaves_retain_grad(self, rng):
        # Intermediate gradients live in the sweep and die with it.
        x = Tensor(rng.normal(size=(3,)), requires_grad=True)
        h = x * x
        y = h.sum()
        y.backward()
        assert h.grad is None and y.grad is None
        assert np.array_equal(x.grad, 2.0 * x.data)

    def test_default_mode_still_allows_graph_reuse(self, rng):
        # The sweep frees nothing of the graph, so backpropagating the
        # same graph twice accumulates (PyTorch's retain_graph=True).
        x = Tensor(rng.normal(size=(4,)), requires_grad=True)
        y = (x * x).sum()
        y.backward()
        once = x.grad.copy()
        y.backward()
        assert np.array_equal(x.grad, 2.0 * once)
