"""The compile precision tiers.

``resolve_precision`` picks the tier (explicit argument, then
``REPRO_SERVE_PRECISION``, then f64) and rejects unknown names; the f32
tier stays within its accuracy budget of the bit-exact f64 tier.
"""

import numpy as np
import pytest

from repro.errors import ServeError
from repro.models import mixer_small, resnet_small
from repro.serve import compile_features, resolve_precision

BACKBONES = {
    "resnet": lambda rng: resnet_small(4, rng),
    "mixer": lambda rng: mixer_small(4, rng),
}


class TestResolvers:
    def test_precision_default_and_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_PRECISION", raising=False)
        assert resolve_precision(None) == "f64"
        monkeypatch.setenv("REPRO_SERVE_PRECISION", "f32")
        assert resolve_precision(None) == "f32"
        assert resolve_precision("f64") == "f64"  # explicit beats env

    def test_unknown_precision_raises(self):
        with pytest.raises(ServeError, match="unknown serve precision"):
            resolve_precision("f16")


class TestPrecisionTiers:
    @pytest.mark.parametrize("backbone", sorted(BACKBONES))
    def test_f32_close_to_f64(self, backbone, rng):
        model = BACKBONES[backbone](rng)
        images = rng.normal(size=(5, 3, 16, 16)).astype(np.float32)
        reference = compile_features(model, precision="f64").run(images)
        out = compile_features(model, precision="f32").run(images)
        assert out.dtype == np.float32
        np.testing.assert_allclose(out, reference, atol=1e-3, rtol=0)
