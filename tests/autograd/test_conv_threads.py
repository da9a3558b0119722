"""Concurrent convolutions give the serial results.

The compiled serving programs may run conv kernels on several threads at
once, so ``conv2d_forward`` must share no mutable scratch between calls
and its gather-index cache must survive concurrent lookups.
"""

import sys
import threading

import numpy as np
import pytest

from repro.autograd import conv_ops
from repro.autograd.conv_ops import conv2d_forward, fold_conv_weight

ITERATIONS = 300


@pytest.fixture(autouse=True)
def fresh_caches():
    conv_ops.clear_conv_caches()
    yield
    conv_ops.clear_conv_caches()


@pytest.fixture
def fast_thread_switching():
    """Switch threads far more often than the default 5 ms, so interleavings
    inside the kernel and the cache bookkeeping actually happen."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_two_threads_match_serial_reference(rng, fast_thread_switching):
    inputs = [rng.normal(size=(64, 16, 8, 8)) for _ in range(4)]
    base_w = fold_conv_weight(rng.normal(size=(3, 3, 16, 8)))
    adapter_w = fold_conv_weight(rng.normal(size=(3, 3, 16, 2)))

    def convs(x):
        # Base conv + adapter conv on the same array: the second is a
        # patch-cache hit, the first a miss that may evict.
        base = conv2d_forward(x, base_w, None, 3, 3, 1, 1)[0]
        adapter = conv2d_forward(x, adapter_w, None, 3, 3, 1, 1)[0]
        return base, adapter

    reference = [convs(x.copy()) for x in inputs]
    wrong = [0, 0]
    errors: list[BaseException] = []
    start = threading.Barrier(2)

    def worker(tid):
        try:
            start.wait()
            for i in range(ITERATIONS):
                k = 2 * tid + i % 2
                base, adapter = convs(inputs[k].copy())
                if not (
                    np.array_equal(base, reference[k][0])
                    and np.array_equal(adapter, reference[k][1])
                ):
                    wrong[tid] += 1
        except BaseException as exc:  # surfaced in the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(tid,)) for tid in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert wrong == [0, 0]
