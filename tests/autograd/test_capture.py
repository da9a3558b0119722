"""Unit tests for the step recorder (``repro.autograd.capture``)."""

import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.autograd.capture import Recorder, recording
from repro.nn.module import Parameter


def _step(x, w, labels):
    return ((x @ w).sum(axis=1) * labels).sum()


class TestRecorder:
    def test_replay_matches_the_captured_step(self, rng):
        w = Parameter(rng.normal(size=(3, 2)))
        x = Tensor(rng.normal(size=(4, 3)))
        labels = rng.normal(size=4)
        recorder = Recorder(x, labels)
        with recording(recorder):
            _step(x, w, labels).backward()
        program = recorder.program()
        first = w.grad
        images, labels = rng.normal(size=(4, 3)), rng.normal(size=4)
        w.zero_grad()
        values = program.start(images, labels)
        loss = program.forward(values)
        program.backward(values)
        w_ref = Parameter(w.data.copy())
        want = _step(Tensor(images), w_ref, labels)
        want.backward()
        assert loss.tobytes() == want.data.tobytes()
        assert w.grad.tobytes() == w_ref.grad.tobytes()
        assert not np.array_equal(w.grad, first)

    def test_ops_of_other_threads_are_not_recorded(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        recorder = Recorder(x, np.zeros(2))
        with recording(recorder):
            worker = threading.Thread(target=lambda: Tensor(np.ones(2)) * 2.0)
            worker.start()
            worker.join()
            assert recorder.steps == []
            x * 2.0
            assert len(recorder.steps) == 1

    def test_one_capture_at_a_time(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with recording(Recorder(x, np.zeros(2))):
            with pytest.raises(RuntimeError, match="already being captured"):
                with recording(Recorder(x, np.zeros(2))):
                    pass

    def test_a_leaf_that_is_not_a_parameter_is_uncapturable(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        w = Parameter(rng.normal(size=(2, 2)))
        scale = Tensor(np.array(3.0), requires_grad=True)
        recorder = Recorder(x, np.zeros(2))
        with recording(recorder):
            ((x @ w) * scale).sum().backward()
        assert recorder.program() is None
        assert w.grad is not None  # the step itself still trained

    def test_an_array_computed_outside_the_ops_is_uncapturable(self, rng):
        # Tensor(x.data * 2) is a fresh array: as a constant it would
        # replay the first batch's values.
        x = Tensor(rng.normal(size=(2, 2)))
        w = Parameter(rng.normal(size=(2, 2)))
        recorder = Recorder(x, np.zeros(2))
        with recording(recorder):
            ((Tensor(x.data * 2.0) @ w) * 0.5).sum().backward()
        assert recorder.program() is None

    def test_scalars_and_the_models_arrays_are_constants(self, rng):
        from repro.nn import Linear

        model = Linear(2, 2, rng=rng)
        model.register_buffer("shift", rng.normal(size=(1, 2)))
        model.offset = rng.normal(size=(2, 2))
        x = Tensor(rng.normal(size=(2, 2)))
        recorder = Recorder(x, np.zeros(2), model)
        with recording(recorder):
            out = model(x) + Tensor(model._buffers["shift"].reshape(2)) + model.offset
            (out * 0.5).sum().backward()
        assert recorder.program() is not None

    def test_a_tensor_converted_from_the_labels_is_a_step(self, rng):
        # mse_loss wraps integer targets in a float32 Tensor: a fresh array
        # each step, so the recorder must record the conversion, not
        # freeze the first batch's targets as a constant.
        from repro.nn import Linear
        from repro.train import SGD, Trainer, mse_loss

        def loss(out, target):
            return mse_loss(out.reshape(-1), target)

        model = Linear(3, 1, rng=np.random.default_rng(0))
        oracle = Linear(3, 1, rng=np.random.default_rng(0))
        trainer = Trainer(model, SGD(model.parameters(), lr=0.1), loss_fn=loss)
        optimizer = SGD(oracle.parameters(), lr=0.1)
        for __ in range(3):
            x, y = rng.normal(size=(5, 3)), rng.integers(0, 3, size=5)
            got = trainer.train_step(x, y)
            optimizer.zero_grad()
            want = loss(oracle(Tensor(x)), y)
            want.backward()
            optimizer.step()
            assert got == float(want.data)
        assert None not in trainer._programs.values()
