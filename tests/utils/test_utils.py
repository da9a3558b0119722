"""Tests for rng, registry, serialization and timing utilities."""

import numpy as np
import pytest

from repro.utils import Registry, Timer, load_arrays, new_rng, save_arrays, spawn_rngs


class TestRng:
    def test_new_rng_deterministic(self):
        assert new_rng(5).integers(1000) == new_rng(5).integers(1000)

    def test_spawn_rngs_independent(self):
        streams = spawn_rngs(0, 3)
        draws = [g.integers(10**9) for g in streams]
        assert len(set(draws)) == 3

    def test_spawn_rngs_reproducible(self):
        a = [g.integers(10**9) for g in spawn_rngs(1, 2)]
        b = [g.integers(10**9) for g in spawn_rngs(1, 2)]
        assert a == b

    def test_spawn_negative_count(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)


class TestRegistry:
    def test_register_and_create(self):
        reg: Registry[str] = Registry("thing")

        @reg.register("a")
        def make_a():
            return "A"

        assert reg.create("a") == "A"
        assert "a" in reg
        assert reg.names() == ["a"]
        assert len(reg) == 1

    def test_create_with_args(self):
        reg: Registry[int] = Registry("adder")
        reg.register("add")(lambda x, y: x + y)
        assert reg.create("add", 2, y=3) == 5

    def test_duplicate_name_rejected(self):
        reg: Registry[str] = Registry("thing")
        reg.register("x")(lambda: "x")
        with pytest.raises(KeyError, match="already"):
            reg.register("x")(lambda: "y")

    def test_unknown_name_lists_known(self):
        reg: Registry[str] = Registry("thing")
        reg.register("known")(lambda: "k")
        with pytest.raises(KeyError, match="known"):
            reg.create("unknown")

    def test_iteration_sorted(self):
        reg: Registry[str] = Registry("thing")
        reg.register("b")(lambda: "b")
        reg.register("a")(lambda: "a")
        assert list(reg) == ["a", "b"]


class TestSerialization:
    def test_roundtrip(self, tmp_path, rng):
        arrays = {
            "weight": rng.normal(size=(3, 4)).astype(np.float32),
            "bias": rng.normal(size=4),
        }
        path = tmp_path / "state.npz"
        save_arrays(path, arrays)
        loaded = load_arrays(path)
        assert set(loaded) == {"weight", "bias"}
        for key in arrays:
            assert np.array_equal(loaded[key], arrays[key])
            assert loaded[key].dtype == arrays[key].dtype

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_arrays(tmp_path / "x.npz", {})

    def test_model_state_roundtrip(self, tmp_path, rng):
        from repro.models import resnet_small

        model = resnet_small(3, rng)
        path = tmp_path / "model.npz"
        save_arrays(path, model.state_dict())
        model2 = resnet_small(3, np.random.default_rng(999))
        model2.load_state_dict(load_arrays(path))
        from repro.autograd import Tensor

        x = Tensor(rng.normal(size=(2, 3, 16, 16)).astype(np.float32))
        model.eval()
        model2.eval()
        assert np.allclose(model(x).data, model2(x).data, atol=1e-6)


class TestTimer:
    def test_measures_nonnegative(self):
        with Timer() as t:
            __ = sum(range(100))
        assert t.elapsed >= 0.0

    def test_reusable(self):
        t = Timer()
        with t:
            pass
        first = t.elapsed
        with t:
            __ = sum(range(10000))
        assert t.elapsed >= 0.0
        assert isinstance(first, float)
