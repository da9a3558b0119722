"""Tests for optimizers."""

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.nn.module import Parameter
from repro.train import SGD, Adam, AdamW


def quadratic_params(start=5.0):
    p = Parameter(np.array([start], dtype=np.float64))
    return p


def quadratic_step(p):
    # loss = p^2, grad = 2p (set manually — the optimizer only sees grads)
    p.grad = 2.0 * p.data
    return float(p.data[0] ** 2)


class TestSGD:
    def test_converges_on_quadratic(self):
        p = quadratic_params()
        opt = SGD([p], lr=0.1)
        for __ in range(100):
            quadratic_step(p)
            opt.step()
            opt.zero_grad()
        assert abs(p.data[0]) < 1e-3

    def test_momentum_accelerates(self):
        plain, momentum = quadratic_params(), quadratic_params()
        opt_plain = SGD([plain], lr=0.01)
        opt_momentum = SGD([momentum], lr=0.01, momentum=0.9)
        for __ in range(30):
            quadratic_step(plain)
            opt_plain.step()
            quadratic_step(momentum)
            opt_momentum.step()
        assert abs(momentum.data[0]) < abs(plain.data[0])

    def test_weight_decay_shrinks_weights(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=0.5)
        p.grad = np.zeros(1, dtype=np.float32)
        opt.step()
        assert p.data[0] < 1.0

    def test_skips_none_gradients(self):
        p, q = Parameter(np.ones(1)), Parameter(np.ones(1))
        opt = SGD([p, q], lr=0.1)
        p.grad = np.ones(1, dtype=np.float32)
        opt.step()
        assert q.data[0] == 1.0
        assert p.data[0] < 1.0

    def test_validation(self):
        with pytest.raises(TrainingError):
            SGD([], lr=0.1)
        with pytest.raises(TrainingError):
            SGD([Parameter(np.ones(1))], lr=-1.0)
        with pytest.raises(TrainingError):
            SGD([Parameter(np.ones(1))], lr=0.1, momentum=1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = quadratic_params()
        opt = Adam([p], lr=0.5)
        for __ in range(200):
            quadratic_step(p)
            opt.step()
            opt.zero_grad()
        assert abs(p.data[0]) < 1e-2

    def test_first_step_size_near_lr(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([4.0], dtype=np.float32)
        opt.step()
        # Bias-corrected Adam's first step is ~lr regardless of grad scale.
        assert 10.0 - p.data[0] == pytest.approx(0.1, rel=0.01)

    def test_adamw_decay_decoupled(self):
        p_adam = Parameter(np.array([1.0]))
        p_adamw = Parameter(np.array([1.0]))
        adam = Adam([p_adam], lr=0.1, weight_decay=0.5)
        adamw = AdamW([p_adamw], lr=0.1, weight_decay=0.5)
        p_adam.grad = np.zeros(1, dtype=np.float32)
        p_adamw.grad = np.zeros(1, dtype=np.float32)
        adam.step()
        adamw.step()
        # AdamW shrinks by exactly lr*wd; Adam (with zero grad but nonzero
        # decay folded into grad) moves by a normalized step.
        assert p_adamw.data[0] == pytest.approx(0.95)

    def test_set_lr(self):
        p = Parameter(np.ones(1))
        opt = Adam([p], lr=0.1)
        opt.set_lr(0.5)
        assert opt.lr == 0.5



class TestFlatAdam:
    """The flat-buffer Adam against the per-parameter loop, bit for bit."""

    @pytest.mark.parametrize("decoupled", [False, True])
    def test_matches_per_parameter_loop(self, rng, decoupled):
        from tests.property.test_step_replay import ReferenceAdam

        shapes = [(3, 4), (5,), (2, 2, 2), ()]
        dtypes = [np.float32, np.float32, np.float64, np.float64]

        def params():
            gen = np.random.default_rng(0)
            return [Parameter(gen.normal(size=s).astype(d)) for s, d in zip(shapes, dtypes)]

        mine, theirs = params(), params()
        cls = AdamW if decoupled else Adam
        opt = cls(mine, lr=0.05, weight_decay=0.1)
        oracle = ReferenceAdam(theirs, lr=0.05, weight_decay=0.1, decoupled=decoupled)
        for step in range(5):
            for i, (p, q) in enumerate(zip(mine, theirs)):
                # Parameter 1 has no gradient on odd steps, parameter 3 never.
                if i == 3 or (i == 1 and step % 2):
                    p.grad = q.grad = None
                else:
                    grad = rng.normal(size=p.data.shape).astype(p.data.dtype)
                    p.grad, q.grad = grad, grad.copy()
            opt.step()
            oracle.step()
            moments = zip(opt._m, opt._v, oracle._m, oracle._v)
            for p, q, (m, v, m_ref, v_ref) in zip(mine, theirs, moments):
                for got, want in ((p.data, q.data), (m, m_ref), (v, v_ref)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
