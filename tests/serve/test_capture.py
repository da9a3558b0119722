"""Serving programs are captured per input shape and serve any batch.

A program records its model's forward the first time it runs on each
per-sample shape and dtype, on that batch's first sample, and checks the
recording before it serves: the batch's first two samples run together
must give each one's rows alone.  These tests pin what that buys: image
sizes that scale a mean (global average pooling's ``1/count``) get their
own capture, any batch size replays one capture bit-equal to a fresh
compile, an f32 program computes in float32 at every step, captures on
different threads do not collide, a forward that bakes its batch size
in or mixes rows is refused, and a seeded tenant's role programs each
snapshot only the modules their role reads and list their steps only
once they ran.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.errors import ServeError
from repro.eval.embeddings import extract_embeddings
from repro.models import FeatureExtractor, mixer_small, resnet_small
from repro.nn import Module
from repro.peft import MetaLoRAModel, attach
from repro.serve import AdapterRegistry, MultiTenantEngine, ServeRequest, compile_features
from repro.utils.rng import new_rng
from tests.serve.conftest import assert_serving_match


def randomize_zero_params(model, rng):
    for param in model.parameters():
        if not np.any(param.data):
            param.data[...] = (rng.normal(size=param.data.shape) * 0.2).astype(
                param.data.dtype
            )


def static_model(seed=0):
    model = resnet_small(4, new_rng(seed))
    attach(model, "lora", rank=2, rng=new_rng(seed + 1))
    randomize_zero_params(model, np.random.default_rng(seed + 2))
    return model


def meta_model(seed=10):
    backbone = resnet_small(4, new_rng(seed))
    result = attach(backbone, "meta_tr", rank=2, rng=new_rng(seed + 1))
    extractor = FeatureExtractor(resnet_small(4, new_rng(99)))
    model = MetaLoRAModel(backbone, extractor, rng=new_rng(seed + 2), adapters=result)
    randomize_zero_params(model, np.random.default_rng(seed + 3))
    return model


def images(rng, n, size=16):
    return rng.normal(size=(n, 3, size, size)).astype(np.float32)


class TestImageSizes:
    @pytest.mark.parametrize("kind", ("static", "seeded"))
    def test_one_tenant_serves_each_size_as_autograd(self, kind, rng):
        """Each image size is its own capture: a 12x12 image is not
        averaged with the 16x16 capture's ``1/count``."""
        model = static_model() if kind == "static" else meta_model()
        engine = MultiTenantEngine()
        entry = engine.register("t", model, merge=False)
        assert entry.kind == kind
        try:
            for size in (16, 12, 16, 12):
                batch = images(rng, 3, size)
                requests = [ServeRequest(sample=sample, adapter="t") for sample in batch]
                rows = np.stack([result.require() for result in engine.serve(requests)])
                assert_serving_match(rows, extract_embeddings(model, batch, batch_size=3))
        finally:
            engine.close()


class TestBatchSizes:
    @pytest.mark.parametrize("build", (static_model, meta_model), ids=("static", "meta"))
    def test_capture_at_64_serves_any_batch(self, build, rng):
        model = build()
        program = compile_features(model)
        program.run(images(rng, 64))
        for n in (1, 7, 63):
            x = images(rng, n)
            assert np.array_equal(program.run(x), compile_features(model).run(x))

    def test_batch_baked_reshape_is_refused(self, rng):
        class Baked(Module):
            """Flattens with the batch size it saw, not ``-1``."""

            def __init__(self):
                super().__init__()
                self.backbone = resnet_small(4, rng)

            def features(self, x: Tensor) -> Tensor:
                out = self.backbone.features(x)
                return out.reshape(x.shape[0], -1) * 2.0

        program = compile_features(Baked())
        with pytest.raises(ServeError, match=r"step \d+ \(Baked\.reshape\)"):
            program.run(images(rng, 4))

    def test_row_mixing_forward_is_refused(self, rng):
        class Centered(Module):
            """Subtracts the batch mean: a row depends on its neighbours."""

            def __init__(self):
                super().__init__()
                self.backbone = resnet_small(4, rng)

            def features(self, x: Tensor) -> Tensor:
                out = self.backbone.features(x)
                return out - out.mean(axis=0)

        program = compile_features(Centered())
        with pytest.raises(ServeError, match="does not serve a sample in a batch"):
            program.run(images(rng, 4))


class TestRolePrograms:
    def test_a_role_program_lists_steps_only_after_it_ran(self, rng):
        """Only a features() program has a nominal input to capture on."""
        entry = AdapterRegistry().register("t", meta_model())
        roles = (entry.extractor, entry.mapping, entry.body)
        for program in roles:
            with pytest.raises(ServeError, match="has not run yet"):
                program.describe()
        entry.run(images(rng, 2))
        assert all(program.describe() for program in roles)

    def test_each_role_snapshots_only_what_it_reads(self):
        """The mapping program holds no copy of the backbone or extractor,
        and the body none of the extractor or mapping nets."""
        model = meta_model()
        entry = AdapterRegistry().register("t", model)

        def size(module):
            return sum(param.size for param in module.parameters())

        gains = model.head_gains.size
        assert size(entry.mapping._snapshot) == size(model.trunk) + size(model.heads) + gains
        assert size(entry.body._snapshot) == size(model.backbone) + gains
        assert size(entry.extractor._snapshot) == size(model.extractor)


class TestPrecision:
    @pytest.mark.parametrize(
        "build",
        (lambda: resnet_small(4, new_rng(0)), lambda: mixer_small(4, new_rng(1)), meta_model),
        ids=("resnet", "mixer", "meta"),
    )
    def test_f32_program_computes_in_float32(self, build, rng):
        program = compile_features(build(), precision="f32")
        assert program.run(images(rng, 4)).dtype == np.float32
        lines = program.describe()
        assert lines
        for line in lines:
            assert "-> float32(" in line, line


class TestThreads:
    def test_threads_capture_at_once(self, rng):
        """More capturing threads than cores, two per program, with a short
        switch interval: each thread's recorder sees only its own ops, so
        every capture succeeds and serves the bits a later run gives."""
        programs = [compile_features(static_model(0)), compile_features(mixer_small(4, new_rng(1)))]
        batch = images(rng, 5)
        workers = 2 * len(programs)
        start = threading.Barrier(workers)
        results: dict[int, object] = {}

        def capture(index):
            start.wait()
            try:
                results[index] = programs[index % len(programs)].run(batch)
            except Exception as exc:  # asserted below
                results[index] = exc

        threads = [threading.Thread(target=capture, args=(i,)) for i in range(workers)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for index in range(workers):
            out = results[index]
            assert isinstance(out, np.ndarray), out
            assert np.array_equal(out, programs[index % len(programs)].run(batch))
