"""Tests for the einsum plan cache and conv2d patch sharing.

Autograd ``conv2d`` used to reuse patches through a snapshot-and-compare
cache; a ``sharing()`` scope around one forward (a captured training
step, one embedding batch) now shares each input's unfold instead
(:func:`repro.autograd.tensor.shared_op`), and ``TestConvPatchCache``
pins the same contracts on that sharing.
"""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd import conv_ops, ops
from repro.autograd.tensor import _SHARING
from repro.autograd.capture import Recorder, recording
from repro.perf import FLAGS, perf_overrides, reference_mode


@pytest.fixture(autouse=True)
def fresh_caches():
    ops.clear_einsum_plan_cache()
    conv_ops.clear_conv_caches()
    yield
    ops.clear_einsum_plan_cache()
    conv_ops.clear_conv_caches()


def tr_einsum(a, b, c):
    out = ops.einsum("ntpr,roq,nqp->nto", a, b, c)
    out.sum().backward()
    return out.data, a.grad, b.grad, c.grad


class TestEinsumPlanCache:
    def make_operands(self, rng, n=2, t=3, r=2, o=4):
        return (
            Tensor(rng.normal(size=(n, t, r, r)), requires_grad=True),
            Tensor(rng.normal(size=(r, o, r)), requires_grad=True),
            Tensor(rng.normal(size=(n, r, r)), requires_grad=True),
        )

    def test_repeat_call_hits_cache(self, rng):
        tr_einsum(*self.make_operands(rng))
        misses_after_first = ops.einsum_plan_cache_stats()["misses"]
        tr_einsum(*self.make_operands(rng))
        stats = ops.einsum_plan_cache_stats()
        assert stats["misses"] == misses_after_first  # no new plan built
        assert stats["hits"] > 0

    def test_new_shapes_miss(self, rng):
        tr_einsum(*self.make_operands(rng))
        before = ops.einsum_plan_cache_stats()["misses"]
        tr_einsum(*self.make_operands(rng, t=5))
        assert ops.einsum_plan_cache_stats()["misses"] > before

    def test_clear_resets_stats(self, rng):
        tr_einsum(*self.make_operands(rng))
        ops.clear_einsum_plan_cache()
        assert ops.einsum_plan_cache_stats() == {"hits": 0, "misses": 0, "size": 0}

    def test_cached_plans_bit_identical_to_reference(self, rng):
        """Memoization alone (no reordering) must not change a single bit."""
        operands = self.make_operands(rng)
        with perf_overrides(einsum_plan_cache=False, einsum_optimize=False):
            reference = tr_einsum(*(Tensor(t.data, requires_grad=True) for t in operands))
        with perf_overrides(einsum_plan_cache=True, einsum_optimize=False):
            tr_einsum(*(Tensor(t.data, requires_grad=True) for t in operands))  # warm
            cached = tr_einsum(*(Tensor(t.data, requires_grad=True) for t in operands))
        for ref, got in zip(reference, cached):
            np.testing.assert_array_equal(ref, got)

    def test_optimized_contraction_matches_reference(self, rng):
        operands = self.make_operands(rng, n=3, t=4, r=3, o=5)
        with reference_mode():
            reference = tr_einsum(*(Tensor(t.data, requires_grad=True) for t in operands))
        optimized = tr_einsum(*(Tensor(t.data, requires_grad=True) for t in operands))
        for ref, got in zip(reference, optimized):
            np.testing.assert_allclose(ref, got, atol=1e-12)


class TestConvPatchCache:
    """Patch sharing: within one scope only, exact, and bit-identical."""

    def paired_convs(self, x, w1, w2):
        a = conv_ops.conv2d(x, w1, None, stride=1, padding=1)
        b = conv_ops.conv2d(x, w2, None, stride=1, padding=1)
        (a.sum() + b.sum()).backward()
        return a.data, b.data, w1.grad, w2.grad

    def captured_convs(self, x, w1, w2):
        """``paired_convs`` under a recorder; returns its values and steps."""
        recorder = Recorder(x, np.zeros(0))
        with recording(recorder):
            values = self.paired_convs(x, w1, w2)
        return values, recorder

    def make_inputs(self, rng):
        x = Tensor(rng.normal(size=(2, 3, 8, 8)))
        w1 = Tensor(rng.normal(size=(3, 3, 3, 4)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(3, 3, 3, 2)), requires_grad=True)
        return x, w1, w2

    def test_same_input_second_conv_hits(self, rng, monkeypatch):
        unfolds = []
        real = conv_ops._unfold
        monkeypatch.setattr(
            conv_ops, "_unfold", lambda *args: unfolds.append(1) or real(*args)
        )
        self.captured_convs(*self.make_inputs(rng))
        assert len(unfolds) == 1  # the second conv read the first one's patches
        self.paired_convs(*self.make_inputs(rng))
        assert len(unfolds) == 3  # outside a capture every conv unfolds

    def test_cached_matches_reference(self, rng):
        x, w1, w2 = self.make_inputs(rng)
        reference = self.paired_convs(
            Tensor(x.data),
            Tensor(w1.data, requires_grad=True),
            Tensor(w2.data, requires_grad=True),
        )
        shared, __ = self.captured_convs(x, w1, w2)
        for ref, got in zip(reference, shared):
            np.testing.assert_array_equal(ref, got)

    def test_inplace_mutation_invalidates_fingerprint(self, rng):
        """Gradient checkers perturb x.data in place between forwards; no
        patches outlive the forward that unfolded them."""
        x, w1, w2 = self.make_inputs(rng)
        self.captured_convs(x, w1, w2)
        x.data[0, 0, 0, 0] += 1.0
        w1.zero_grad()
        w2.zero_grad()
        mutated, __ = self.captured_convs(x, w1, w2)
        reference = self.paired_convs(
            Tensor(x.data.copy()),
            Tensor(w1.data, requires_grad=True),
            Tensor(w2.data, requires_grad=True),
        )
        for ref, got in zip(reference, mutated):
            np.testing.assert_array_equal(ref, got)

    def test_inplace_permutation_misses(self, rng):
        """A permutation of integer values keeps every sum and sum of
        squares; the second forward must still see the new input."""
        x = rng.integers(0, 2, size=(2, 3, 8, 8)).astype(np.float64)
        t = Tensor(x)
        w = Tensor(rng.normal(size=(3, 3, 3, 4)))
        first = conv_ops.conv2d(t, w, padding=1).data.copy()
        x[...] = x[:, :, ::-1, :].copy()
        second = conv_ops.conv2d(t, w, padding=1).data
        fresh = conv_ops.conv2d(Tensor(x.copy()), w, padding=1).data
        assert not np.array_equal(second, first)
        np.testing.assert_array_equal(second, fresh)

    def test_capacity_bounded(self, rng):
        # Shared patches live only as long as the scope that built them.
        self.captured_convs(*self.make_inputs(rng))
        assert _SHARING.memo is None


class TestPerfFlags:
    def test_overrides_restore_on_exit(self):
        original = FLAGS.einsum_plan_cache
        with perf_overrides(einsum_plan_cache=not original):
            assert FLAGS.einsum_plan_cache is (not original)
        assert FLAGS.einsum_plan_cache is original

    def test_reference_mode_disables_everything(self):
        with reference_mode():
            assert not FLAGS.einsum_plan_cache
            assert not FLAGS.einsum_optimize
            assert not FLAGS.backward_inplace_accum

    def test_unknown_flag_rejected(self):
        with pytest.raises(ValueError, match="not_a_flag"):
            with perf_overrides(not_a_flag=True):
                pass
