"""Tests for losses, Trainer and the episodic MetaTrainer."""

import numpy as np
import pytest

from repro.autograd import Tensor, tensor
from repro.data import TaskDistribution, generate_task_data
from repro.data.loaders import batches
from repro.errors import ShapeError, TrainingError
from repro.nn import Linear, ReLU, Sequential
from repro.train import Adam, MetaTrainer, SGD, Trainer, cross_entropy, mse_loss


class Flatten(Sequential):
    def forward(self, x):
        return x.reshape(x.shape[0], -1)


class TestLosses:
    def test_cross_entropy_uniform_logits(self):
        logits = tensor(np.zeros((4, 10)))
        loss = cross_entropy(logits, np.zeros(4, dtype=np.int64))
        assert loss.data == pytest.approx(np.log(10), rel=1e-5)

    def test_cross_entropy_perfect_prediction(self):
        logits = np.full((2, 3), -100.0, dtype=np.float32)
        logits[0, 1] = logits[1, 2] = 100.0
        loss = cross_entropy(tensor(logits), np.array([1, 2]))
        assert float(loss.data) < 1e-5

    def test_cross_entropy_gradient_direction(self):
        logits = tensor(np.zeros((1, 3)), requires_grad=True)
        cross_entropy(logits, np.array([0])).backward()
        assert logits.grad[0, 0] < 0  # pushes the true class up
        assert logits.grad[0, 1] > 0

    def test_cross_entropy_validation(self):
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros((2, 3, 4))), np.zeros(2, dtype=np.int64))
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros((2, 3))), np.zeros(3, dtype=np.int64))
        with pytest.raises(ShapeError):
            cross_entropy(tensor(np.zeros((2, 3))), np.array([0, 5]))

    def test_mse(self):
        pred = tensor(np.array([1.0, 2.0]), requires_grad=True)
        loss = mse_loss(pred, np.array([0.0, 0.0]))
        assert loss.data == pytest.approx(2.5)
        loss.backward()
        assert np.allclose(pred.grad, [1.0, 2.0])


class TestTrainer:
    def _toy_problem(self, rng, n=128):
        x = rng.normal(size=(n, 8)).astype(np.float32)
        w = rng.normal(size=(8, 3)).astype(np.float32)
        y = (x @ w).argmax(axis=1)
        return x, y

    def test_fit_reduces_loss(self, rng):
        x, y = self._toy_problem(rng)
        model = Sequential(Linear(8, 16, rng=rng), ReLU(), Linear(16, 3, rng=rng))
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-2))
        result = trainer.fit(x, y, epochs=10, batch_size=16, rng=rng)
        assert result.losses[-1] < result.losses[0] * 0.6
        assert result.accuracies[-1] > 0.8

    def test_evaluate_accuracy(self, rng):
        x, y = self._toy_problem(rng, n=32)
        model = Sequential(Linear(8, 3, rng=rng))
        acc = Trainer(model, SGD(model.parameters(), lr=0.1)).evaluate(x, y)
        assert 0.0 <= acc <= 1.0

    def test_grad_clip_bounds_norm(self, rng):
        x, y = self._toy_problem(rng, n=16)
        model = Sequential(Linear(8, 3, rng=rng))
        model[0].weight.data[...] *= 100  # force huge gradients
        opt = SGD(model.parameters(), lr=1e-9)
        trainer = Trainer(model, opt, grad_clip=1.0)
        trainer.train_step(x, y)
        total = sum(float((p.grad**2).sum()) for p in model.parameters())
        assert np.sqrt(total) <= 1.0 + 1e-4

    def test_final_loss_requires_steps(self):
        from repro.train.trainer import TrainResult

        with pytest.raises(TrainingError):
            TrainResult().final_loss

    def test_fit_validation(self, rng):
        x, y = self._toy_problem(rng, n=8)
        model = Sequential(Linear(8, 3, rng=rng))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        with pytest.raises(TrainingError):
            trainer.fit(x, y, epochs=0, batch_size=4, rng=rng)


class TestTrainEval:
    """The per-epoch train re-score: what it costs, never what the
    training trajectory is."""

    def _problem(self, n):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(n, 8)).astype(np.float32)
        w = rng.normal(size=(8, 3)).astype(np.float32)
        return x, (x @ w).argmax(axis=1)

    def _fit(self, n=600, epochs=2):
        x, y = self._problem(n)
        model = Sequential(Linear(8, 3, rng=np.random.default_rng(1)))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.05))
        result = trainer.fit(
            x, y, epochs=epochs, batch_size=32, rng=np.random.default_rng(2)
        )
        return result, trainer

    def test_subsampled_caps_the_scored_set(self):
        # n=600 > cap=256: the last epoch's score is the accuracy on the
        # evenly spaced subsample, not on the full set.
        x, y = self._problem(600)
        result, trainer = self._fit(n=600)
        assert len(result.accuracies) == 2
        subsample = np.linspace(0, 599, Trainer.TRAIN_EVAL_CAP).astype(np.int64)
        assert result.accuracies[-1] == trainer.evaluate(
            x[subsample], y[subsample], batch_size=32
        )

    def test_subsampled_is_exact_below_the_cap(self):
        x, y = self._problem(100)
        result, trainer = self._fit(n=100)
        assert result.accuracies[-1] == trainer.evaluate(x, y, batch_size=32)

    def test_trajectory_identical_across_settings(self):
        # The subsample indices never touch `rng`, so fit() trains exactly
        # like a bare train_step loop over the same batches.
        result, trainer = self._fit()
        x, y = self._problem(600)
        model = Sequential(Linear(8, 3, rng=np.random.default_rng(1)))
        bare = Trainer(model, SGD(model.parameters(), lr=0.05))
        rng = np.random.default_rng(2)
        losses = []
        for __ in range(2):
            epoch = [bare.train_step(xb, yb) for xb, yb in batches(x, y, 32, rng)]
            losses.append(float(np.mean(epoch)))
        assert result.losses == losses
        assert np.array_equal(trainer.model[0].weight.data, model[0].weight.data)

    def test_evaluate_restores_prior_mode(self, rng):
        x = rng.normal(size=(8, 8)).astype(np.float32)
        y = np.zeros(8, dtype=np.int64)
        model = Sequential(Linear(8, 3, rng=rng))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1))
        model.eval()
        trainer.evaluate(x, y)
        assert model.training is False  # no silent flip back to training
        model.train()
        trainer.evaluate(x, y)
        assert model.training is True


class TestMetaTrainer:
    def _task_sets(self, rng):
        tasks = TaskDistribution(3, seed=0)
        return [
            generate_task_data(t, 24, 4, 16, rng) for t in tasks.shifted_tasks()
        ]

    def test_episodes_logged(self, rng):
        from repro.models import resnet_small

        model = resnet_small(4, rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
        meta = MetaTrainer(trainer, self._task_sets(rng))
        log = meta.run(episodes=5, batch_size=8, rng=rng)
        assert len(log.losses) == 5
        assert set(log.task_ids) <= {1, 2}

    def test_validation(self, rng):
        from repro.models import resnet_small

        model = resnet_small(4, rng)
        trainer = Trainer(model, Adam(model.parameters(), lr=1e-3))
        with pytest.raises(TrainingError):
            MetaTrainer(trainer, [])
        meta = MetaTrainer(trainer, self._task_sets(rng))
        with pytest.raises(TrainingError):
            meta.run(episodes=0, batch_size=4, rng=rng)
