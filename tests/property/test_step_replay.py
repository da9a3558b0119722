"""Captured training steps replay bit for bit what define-by-run computes.

``Trainer.train_step`` captures the first step for each capture key and
replays it after (``repro.autograd.capture``).  The oracles here are the
paths replay replaced:

- :func:`define_by_run_step` — the step as it ran before capture: the
  model's forward, ``loss.backward()``, clipping and the optimizer, with
  each adapted conv unfolding its input once for its base and adapter
  convs;
- :class:`ReferenceAdam` — Adam updating parameter by parameter;
- :func:`reference_backward` — the sweep that kept ``.grad`` on every
  node, not on leaves only (it adds gradient contributions out of place,
  as ``Tensor.backward`` does).

Generated small ResNet and MLP-Mixer configs run each Table I family and
full-backbone pretraining at float64, and every loss, parameter, batch
norm buffer (backbone and extractor) and optimizer moment must match
bitwise.  CI runs this module under the ``derandomize`` hypothesis
profile (``tests/property/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor
from repro.errors import ShapeError
from repro.eval.protocol import Table1Config, build_adapted_model, build_backbone
from repro.nn import Dropout, Linear, Sequential
from repro.nn.module import Module
from repro.train.losses import cross_entropy
from repro.train.optim import Adam, AdamW
from repro.train.trainer import Trainer

SETTINGS = dict(max_examples=6, deadline=None)
FAMILIES = ("lora", "multi_lora", "meta_lora_cp", "meta_lora_tr")


# -- oracles -------------------------------------------------------------------


class ReferenceAdam:
    """Adam (and with ``decoupled``, AdamW) one parameter at a time."""

    def __init__(self, parameters, lr, betas=(0.9, 0.999), eps=1e-8,
                 weight_decay=0.0, decoupled=False):
        self.parameters = list(parameters)
        self.lr, (self.beta1, self.beta2), self.eps = lr, betas, eps
        self.weight_decay, self.decoupled = weight_decay, decoupled
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._t = 0

    def zero_grad(self):
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        self._t += 1
        bias1 = 1.0 - self.beta1**self._t
        bias2 = 1.0 - self.beta2**self._t
        for i, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay and self.decoupled:
                param.data -= self.lr * self.weight_decay * param.data
            elif self.weight_decay:
                grad = grad + self.weight_decay * param.data
            self._m[i] = self.beta1 * self._m[i] + (1 - self.beta1) * grad
            self._v[i] = self.beta2 * self._v[i] + (1 - self.beta2) * grad**2
            m_hat = self._m[i] / bias1
            v_hat = self._v[i] / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def define_by_run_step(model, optimizer, images, labels, grad_clip=None):
    """One training step through the autograd graph, as before capture."""
    model.train()
    optimizer.zero_grad()
    loss = cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    if grad_clip is not None:
        grads = [p.grad for p in optimizer.parameters if p.grad is not None]
        norm = np.sqrt(sum(float((g**2).sum()) for g in grads))
        if norm > grad_clip:
            for g in grads:
                g *= grad_clip / (norm + 1e-12)
    optimizer.step()
    return float(loss.data)


def reference_backward(loss):
    """The sweep before leaf-only ``.grad``: every node keeps its grad."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in loss._topological_order():
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            fresh = node.grad is None
            node.grad = g.astype(node.data.dtype, copy=True) if fresh else node.grad + g
        for parent, vjp in zip(node._parents, node._grad_fns):
            contribution = vjp(node._ctx, g)
            existing = grads.get(id(parent))
            grads[id(parent)] = contribution if existing is None else existing + contribution


# -- models ---------------------------------------------------------------------


def to_float64(model: Module) -> Module:
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
    for module in model.modules():
        for name, buffer in getattr(module, "_buffers", {}).items():
            module._buffers[name] = buffer.astype(np.float64)
    return model


def configs(backbone: str):
    return st.builds(
        lambda classes, widths, hidden, rank, branches, mapping: Table1Config(
            backbone=backbone,
            num_classes=classes,
            image_size=8,
            rank=rank,
            branches=branches,
            mapping_hidden=mapping,
            resnet_channels=widths,
            mixer_hidden=hidden,
        ),
        st.integers(2, 4),
        st.sampled_from([(2, 4), (4, 8), (2, 4, 4)]),
        st.sampled_from([4, 8]),
        st.integers(1, 3),
        st.integers(2, 3),
        st.sampled_from([4, 8]),
    )


def build(config: Table1Config, method: str | None, seed: int) -> Module:
    """The Table I model for ``method``; ``None`` is full-backbone pretraining."""
    rng = np.random.default_rng(seed)
    if method is None:
        return to_float64(build_backbone(config, rng))
    state = build_backbone(config, rng).state_dict()
    extractor = build_backbone(Table1Config(resnet_channels=config.resnet_channels,
                                            num_classes=config.num_classes), rng).state_dict()
    model = build_adapted_model(method, config, state, rng, extractor_state=extractor)
    return to_float64(model)


def pair(config, method, seed, grad_clip, decoupled=False):
    """A replaying trainer and a define-by-run oracle on identical models."""
    model, oracle_model = build(config, method, seed), build(config, method, seed)
    opt_cls = AdamW if decoupled else Adam
    trainer = Trainer(model, opt_cls(list(model.trainable_parameters()), lr=3e-3,
                                     weight_decay=0.01 if decoupled else 0.0),
                      grad_clip=grad_clip)
    oracle = ReferenceAdam(list(oracle_model.trainable_parameters()), lr=3e-3,
                           weight_decay=0.01 if decoupled else 0.0, decoupled=decoupled)
    return trainer, oracle_model, oracle


def batch(rng, config, n):
    images = rng.normal(size=(n, 3, config.image_size, config.image_size))
    return images, rng.integers(0, config.num_classes, size=n)


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def assert_same_state(trainer, oracle_model, oracle):
    got, want = trainer.model.state_dict(), oracle_model.state_dict()
    assert got.keys() == want.keys()
    for name in got:  # every parameter and every BN buffer, extractor included
        assert_same_bits(got[name], want[name])
    opt = trainer.optimizer
    assert opt._t == oracle._t
    for mine, theirs in zip(opt._m + opt._v, oracle._m + oracle._v):
        assert_same_bits(mine, theirs)


def step_both(trainer, oracle_model, oracle, images, labels):
    loss = trainer.train_step(images, labels)
    want = define_by_run_step(oracle_model, oracle, images, labels, trainer.grad_clip)
    assert_same_bits(loss, want)


# -- replay ≡ define-by-run -------------------------------------------------------


class TestReplayMatchesDefineByRun:
    @pytest.mark.parametrize("method", (None,) + FAMILIES)
    @pytest.mark.parametrize("backbone", ["resnet", "mixer"])
    @given(data=st.data(), seed=st.integers(0, 2**16), n=st.integers(2, 5),
           grad_clip=st.sampled_from([None, 0.05]))
    @settings(**SETTINGS)
    def test_steps_are_bit_identical(self, backbone, method, data, seed, n, grad_clip):
        config = data.draw(configs(backbone))
        trainer, oracle_model, oracle = pair(config, method, seed, grad_clip)
        rng = np.random.default_rng(seed)
        for __ in range(3):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, n))
            assert_same_state(trainer, oracle_model, oracle)
        assert list(trainer._programs.values()) != [None]  # it did replay

    def test_extractor_batch_norm_drifts_as_define_by_run(self):
        # docs/protocol.md: train() reaches the frozen extractor's BN, so
        # adaptation moves its running stats; replay must too.
        config = Table1Config(num_classes=3, image_size=8, resnet_channels=(2, 4))
        trainer, oracle_model, oracle = pair(config, "meta_lora_tr", 3, None)
        before = trainer.model.extractor.backbone.stem_bn._buffers["running_mean"].copy()
        rng = np.random.default_rng(0)
        for __ in range(3):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        after = trainer.model.extractor.backbone.stem_bn._buffers["running_mean"]
        assert not np.array_equal(before, after)
        assert_same_state(trainer, oracle_model, oracle)

    def test_adamw_and_a_parameter_without_grad(self):
        # Meta adapters' static seeds get no grad while generated seeds are
        # installed: the flat update must leave their moments untouched.
        config = Table1Config(num_classes=3, image_size=8, resnet_channels=(2, 4))
        trainer, oracle_model, oracle = pair(config, "meta_lora_cp", 5, 0.05, decoupled=True)
        rng = np.random.default_rng(1)
        for __ in range(4):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, 3))
        assert any(p.grad is None for p in trainer.optimizer.parameters)
        assert_same_state(trainer, oracle_model, oracle)


# -- recapture ----------------------------------------------------------------------


def _resnet_pair(method="lora"):
    config = Table1Config(num_classes=3, image_size=8, resnet_channels=(2, 4))
    return config, pair(config, method, 11, None)


class TestRecapture:
    def test_changed_batch_shape_recaptures(self):
        config, (trainer, oracle_model, oracle) = _resnet_pair()
        rng = np.random.default_rng(2)
        for n in (4, 4, 3, 3, 4):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, n))
        assert len(trainer._programs) == 2
        assert_same_state(trainer, oracle_model, oracle)

    def test_train_eval_switch_recaptures(self):
        config, (trainer, oracle_model, oracle) = _resnet_pair()
        rng = np.random.default_rng(3)
        step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        for model in (trainer.model, oracle_model):
            # train() now leaves the stem's batch norm in eval mode.
            model.train = lambda mode=True, model=model: (
                Module.train(model, mode), model.stem_bn.eval()
            )[0]
        for __ in range(2):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        assert len(trainer._programs) == 2
        # The eval-mode batch norm reads views of its running statistics:
        # constants of the program, so the step is still captured.
        assert None not in trainer._programs.values()
        assert_same_state(trainer, oracle_model, oracle)

    def test_toggled_requires_grad_recaptures(self):
        config, (trainer, oracle_model, oracle) = _resnet_pair("multi_lora")
        rng = np.random.default_rng(4)
        step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        trainer.optimizer.parameters[0].requires_grad = False
        oracle.parameters[0].requires_grad = False
        for __ in range(2):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        assert len(trainer._programs) == 2
        assert trainer.optimizer.parameters[0].grad is None
        assert_same_state(trainer, oracle_model, oracle)

    def test_uncapturable_step_trains_define_by_run(self):
        # A leaf that requires grad but is not a Parameter has no place in
        # a program, so its key is never replayed: every step goes
        # through the graph.
        config, (trainer, oracle_model, oracle) = _resnet_pair()
        for model in (trainer.model, oracle_model):
            model.head = _LeafScale(model.head)
        rng = np.random.default_rng(5)
        for __ in range(3):
            step_both(trainer, oracle_model, oracle, *batch(rng, config, 4))
        assert list(trainer._programs.values()) == [None]
        assert_same_state(trainer, oracle_model, oracle)
        assert_same_bits(trainer.model.head.scale.grad, oracle_model.head.scale.grad)

    def test_labels_converted_in_the_loss_train_define_by_run(self):
        # astype() makes a fresh label array every step; frozen as a
        # constant, replay would train on the first batch's labels.
        config, (trainer, oracle_model, oracle) = _resnet_pair()
        trainer.loss_fn = lambda out, y: cross_entropy(out, y.astype(np.int64))
        rng = np.random.default_rng(7)
        for __ in range(3):
            images, labels = batch(rng, config, 4)
            step_both(trainer, oracle_model, oracle, images, labels.astype(np.int32))
        assert list(trainer._programs.values()) == [None]
        assert_same_state(trainer, oracle_model, oracle)


    @pytest.mark.parametrize("bad", [-1, 3])
    def test_replayed_step_checks_the_labels(self, bad):
        # The range check is part of the loss kernel, so a replay runs it:
        # a negative label must not wrap around to the last class.
        config, (trainer, __, __) = _resnet_pair()
        rng = np.random.default_rng(6)
        images, labels = batch(rng, config, 4)
        trainer.train_step(images, labels)
        labels[0] = bad
        with pytest.raises(ShapeError, match="labels out of range"):
            trainer.train_step(images, labels)


class _SpyRng:
    """A generator that keeps a copy of every array it draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def random(self, shape):
        draw = self.rng.random(shape)
        self.draws.append(draw.copy())
        return draw


def test_dropout_draws_a_fresh_mask_on_every_replay():
    def build_mlp():
        rng = np.random.default_rng(0)
        model = Sequential(Linear(6, 16, rng=rng), Dropout(0.5), Linear(16, 3, rng=rng))
        model[1]._rng = _SpyRng(1)
        return to_float64(model)

    model, oracle_model = build_mlp(), build_mlp()
    trainer = Trainer(model, Adam(list(model.parameters()), lr=3e-3))
    oracle = ReferenceAdam(list(oracle_model.parameters()), lr=3e-3)
    rng = np.random.default_rng(8)
    for __ in range(4):
        images, labels = rng.normal(size=(5, 6)), rng.integers(0, 3, size=5)
        step_both(trainer, oracle_model, oracle, images, labels)
    assert None not in trainer._programs.values() and len(trainer._programs) == 1
    assert_same_state(trainer, oracle_model, oracle)
    draws, want = model[1]._rng.draws, oracle_model[1]._rng.draws
    assert len(draws) == len(want) == 4
    for got, expected in zip(draws, want):
        assert_same_bits(got, expected)
    masks = {(draw < 0.5).tobytes() for draw in draws}
    assert len(masks) == 4  # a frozen first mask would repeat


class _LeafScale(Module):
    def __init__(self, inner):
        super().__init__()
        self.inner = inner
        self.scale = Tensor(np.array(2.0), requires_grad=True)

    def forward(self, x):
        return self.inner(x) * self.scale


# -- backward oracle ----------------------------------------------------------------


@pytest.mark.parametrize("method", (None,) + FAMILIES)
def test_leaf_grads_match_the_every_node_sweep(method):
    config = Table1Config(num_classes=3, image_size=8, resnet_channels=(2, 4))
    model, oracle_model = build(config, method, 7), build(config, method, 7)
    images, labels = batch(np.random.default_rng(6), config, 4)
    loss = cross_entropy(model(Tensor(images)), labels)
    loss.backward()
    reference_backward(cross_entropy(oracle_model(Tensor(images)), labels))
    assert loss.grad is None
    for (name, got), (__, want) in zip(model.named_parameters(), oracle_model.named_parameters()):
        if want.grad is None:
            assert got.grad is None, name
        else:
            assert_same_bits(got.grad, want.grad)
