"""Shared helpers for the serving suite.

The suite honours ``REPRO_SERVE_PRECISION`` — CI runs it once under
``f32`` to prove the relaxed tiers serve end to end.  Bit-identity to
the autograd reference is contracted only at f64, so tests that compare
a compiled path against ``extract_embeddings`` go through
:func:`assert_serving_match`: exact equality at f64, tier-sized
closeness otherwise.  Comparisons between two *compiled* runs of the
same tier stay exact at every tier and keep using ``np.array_equal``.
"""

import numpy as np

from repro.serve import ServeRequest, resolve_precision

#: max-abs error allowed vs the f64 reference per relaxed tier (f32 is
#: rounding noise; KNN accuracy is the real budget — see
#: PRECISION_ACCURACY_BUDGETS).
TIER_ATOL = {"f32": 1e-3}


def assert_serving_match(actual, reference, precision=None):
    """Assert a served result matches the autograd reference for the tier.

    ``precision=None`` resolves the active tier (explicit argument, else
    ``REPRO_SERVE_PRECISION``, else f64).
    """
    precision = resolve_precision(precision)
    if precision == "f64":
        assert actual.dtype == reference.dtype
        assert np.array_equal(actual, reference)
    else:
        assert actual.dtype == np.float32
        np.testing.assert_allclose(
            actual.astype(np.float64),
            reference.astype(np.float64),
            atol=TIER_ATOL[precision],
            rtol=0,
        )


def serve_bulk(engine, images, batch_size=64, adapter=None):
    """Bulk-embed via the typed API, chunked like ``extract_embeddings``.

    The new-API equivalent of the deprecated ``embed`` shim: one batched
    :class:`ServeRequest` per chunk, rows concatenated in order.
    """
    images = np.asarray(images)
    requests = [
        ServeRequest(sample=images[start : start + batch_size], adapter=adapter)
        for start in range(0, images.shape[0], batch_size)
    ]
    return np.concatenate(
        [result.require() for result in engine.serve(requests)], axis=0
    )
