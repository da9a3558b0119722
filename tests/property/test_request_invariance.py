"""A served row depends only on its own request, never on its batch.

The serving contract is per request: the same input to the same adapter
gives the same bits whatever else shares the micro-batch — batch size,
tenant mix, bulk neighbours or shard — and whether its tenant's rows run
in one replay or in several row blocks.  The oracle is each image served
alone, one single-sample request per ``serve`` call, at the engine's
tier (``REPRO_SERVE_PRECISION``).

The one stage that used to break this is the MetaLoRA mapping net, whose
two products now run through the two-operand einsum kernel rather than
BLAS GEMM (``MetaLoRAModel.generate_seeds``).  The kernel property is
pinned here by name too, so routing two-operand einsum onto BLAS later
fails as itself and not only as a served-row mismatch.

CI runs this module under the ``derandomize`` hypothesis profile
(``tests/property/conftest.py``).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import ops
from repro.bench import _multi_tenant_models, build_shard_tenant
from repro.models import FeatureExtractor, mixer_small
from repro.peft import MetaLoRAModel, attach
from repro.serve import MultiTenantEngine, ServeRequest, ShardedEngine
from repro.utils.rng import new_rng
from tests.serve.test_registry import (
    images_for,
    meta_model,
    perturb_mapping,
    randomize_zero_params,
    static_lora_result,
)

#: The scheduler's default ``max_batch``: the largest micro-batch a
#: tenant mix is served in.
MAX_BATCH = 32
#: Images per tenant a drawn batch picks from.
POOL = 6
#: The most rows a drawn bulk request carries: more than one row block
#: of a ResNet program (56 rows at f64), so a tenant's rows in a batch may
#: replay in several blocks, split anywhere between its requests.
BULK_ROWS = 130
NAMES = ("static", "meta_a", "meta_b", "mixer")


def mixer_meta_model() -> MetaLoRAModel:
    """A MetaLoRA tenant on an MLP-Mixer backbone and extractor."""
    backbone = mixer_small(4, new_rng(50))
    result = attach(backbone, "meta_tr", rank=2, rng=new_rng(51))
    extractor = FeatureExtractor(mixer_small(4, new_rng(52)))
    model = MetaLoRAModel(backbone, extractor, rng=new_rng(53), adapters=result)
    randomize_zero_params(model, np.random.default_rng(54))
    return model


class Fleet:
    """One static tenant, two ResNet meta tenants with distinct mapping
    weights (sharing extractor and body), one Mixer meta tenant — and
    every pool image served alone, the per-request oracle."""

    def __init__(self) -> None:
        meta_b = meta_model(seed=10)
        perturb_mapping(meta_b, np.random.default_rng(7))
        models = (static_lora_result(0), meta_model(seed=10), meta_b, mixer_meta_model())
        self.engine = MultiTenantEngine()
        for name, model in zip(NAMES, models):
            self.engine.register(name, model)
        rng = np.random.default_rng(0)
        self.pool = {name: images_for(rng, POOL) for name in NAMES}
        self.alone = {
            name: [
                self.engine.serve(ServeRequest(sample=image, adapter=name)).require()
                for image in images
            ]
            for name, images in self.pool.items()
        }


@pytest.fixture(scope="module")
def fleet():
    fleet = Fleet()
    yield fleet
    fleet.engine.close()


#: One request: a tenant and the pool images it carries (one image is a
#: single-sample request, several a bulk request).
request_specs = st.tuples(
    st.sampled_from(NAMES),
    st.lists(st.integers(0, POOL - 1), min_size=1, max_size=3),
)
#: A bulk request of up to ``BULK_ROWS`` pool images, or none.
bulk_specs = st.none() | st.tuples(
    st.sampled_from(NAMES),
    st.lists(st.integers(0, POOL - 1), min_size=40, max_size=BULK_ROWS),
)


def roles(entry):
    return [entry.program] if entry.kind == "static" else [entry.extractor, entry.body]


def test_a_bulk_request_can_span_row_blocks(fleet):
    """The draw below reaches blocked replay: some tenant's program runs
    fewer rows per block than a bulk request may carry."""
    entries = [fleet.engine.registry.get(name) for name in NAMES]
    assert min(role.block_rows for entry in entries for role in roles(entry)) < BULK_ROWS


@settings(max_examples=25, deadline=None)
@given(
    batch=st.lists(request_specs, min_size=1, max_size=MAX_BATCH),
    bulk=bulk_specs,
    position=st.integers(0, MAX_BATCH),
)
def test_every_row_equals_its_request_served_alone(fleet, batch, bulk, position):
    if bulk is not None:
        batch = batch[:position] + [bulk] + batch[position:]
    requests = [
        ServeRequest(
            sample=fleet.pool[name][picks[0]]
            if len(picks) == 1
            else fleet.pool[name][np.asarray(picks)],
            adapter=name,
        )
        for name, picks in batch
    ]
    results = fleet.engine.serve(requests)
    for (name, picks), result in zip(batch, results):
        rows = result.require().reshape(len(picks), -1)
        for pick, row in zip(picks, rows):
            expected = fleet.alone[name][pick].reshape(-1)
            assert row.dtype == expected.dtype
            assert np.array_equal(row, expected), (name, pick, len(batch))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 64),
    data=st.data(),
    dtype=st.sampled_from([np.float64, np.float32]),
    seed=st.integers(0, 2**16),
)
def test_two_operand_einsum_row_ignores_its_neighbours(rows, data, dtype, seed):
    """``einsum("ni,io->no")`` reduces a row the same way whatever rows
    accompany it — the kernel property the mapping net relies on."""
    position = data.draw(st.integers(0, rows - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, 64)).astype(dtype)
    w = rng.normal(size=(64, 48)).astype(dtype)
    batched = ops.einsum_forward("ni,io->no", x, w)
    alone = ops.einsum_forward("ni,io->no", x[position : position + 1], w)
    assert np.array_equal(batched[position], alone[0])


@pytest.mark.parametrize("shards", [1, 2])
def test_sharded_flood_rows_equal_their_requests_served_alone(shards):
    """Concurrent traffic through shard processes: every row equals a
    direct in-process engine serving that one request."""
    static, metas = _multi_tenant_models(4)
    names = ["static", "meta_0", "meta_1", "meta_2"]
    models = [static, *metas]
    reference = MultiTenantEngine()
    engine = ShardedEngine(shards, heartbeat_interval=0.1)
    try:
        for name, model in zip(names, models):
            reference.register(name, model)
            args = ("static", 0) if name == "static" else ("meta", int(name[-1]))
            engine.register(name, model, builder=build_shard_tenant, args=args)
        samples = images_for(np.random.default_rng(3), 48)
        requests = [
            ServeRequest(sample=sample, adapter=names[index % len(names)])
            for index, sample in enumerate(samples)
        ]
        futures = [engine.submit(request) for request in requests]
        for request, future in zip(requests, futures):
            served = future.result(60.0).require()
            assert np.array_equal(served, reference.serve(request).require())
    finally:
        engine.close(5.0)
        reference.close()
