"""Gradient equivalence of in-place gradient accumulation.

``backward_inplace_accum`` (on by default) must not change a single bit
of any gradient — it only changes where the accumulation buffer lives.
These tests compare it against reference mode on graphs that fan out (a
tensor used twice is what makes gradients *accumulate* at all), and pin
that only leaves retain ``.grad``.
"""

from __future__ import annotations

import numpy as np
from repro.autograd import Tensor, relu
from repro.perf import perf_overrides, reference_mode


def _fanout_graph(rng):
    """A graph where ``x`` and ``w`` each receive several contributions."""
    x = Tensor(rng.normal(size=(5, 4)).astype(np.float32), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3)).astype(np.float32), requires_grad=True)
    h = relu(x @ w)
    y = (h * h).sum() + (x.sum() * 0.5) + (h.sum() ** 2)
    return x, w, y


def _grads(rng, **flags):
    with perf_overrides(**flags):
        x, w, y = _fanout_graph(rng)
        y.backward()
    return x.grad.copy(), w.grad.copy()


class TestGradEquivalence:
    def test_inplace_accum_is_bit_identical_to_reference(self):
        ref = _grads(np.random.default_rng(7), backward_inplace_accum=False)
        fast = _grads(np.random.default_rng(7), backward_inplace_accum=True)
        assert np.array_equal(ref[0], fast[0])
        assert np.array_equal(ref[1], fast[1])

    def test_reference_mode_disables_inplace_accum(self):
        from repro.perf import FLAGS

        with reference_mode():
            assert FLAGS.backward_inplace_accum is False

    def test_inplace_never_writes_into_caller_arrays(self, rng):
        # The first contribution to a parent can alias an array the caller
        # owns (e.g. an identity grad_fn handing back `gradient` itself);
        # in-place accumulation must only ever hit sweep-owned buffers.
        x = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
        y = x + 0.0
        z = y + 0.0
        seed_grad = np.ones((3, 3))
        before = seed_grad.copy()
        with perf_overrides(backward_inplace_accum=True):
            z.backward(seed_grad)
        assert np.array_equal(seed_grad, before)
        assert np.array_equal(x.grad, before)


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
