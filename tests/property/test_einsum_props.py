"""Property tests for the einsum executor against ``np.einsum``.

Plans replay a cached pairwise contraction list instead of calling
``np.einsum(spec, *ops, optimize=path)``, which re-plans on every call.
The replay must give that call's result exactly: same dtype, shape,
strides and bytes, for every forward spec the PEFT families and the
serve compile rules use and for each spec's derived gradient einsums.
The pairwise order changes only the rounding: every contraction stays
within its dtype's summation-error bound of plain ``np.einsum``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autograd import ops

#: Forward specs of the PEFT families (and their compiled fast paths).
SPECS = (
    "nrhw,ro->nohw",  # ConvLoRA, MultiLoRAConv
    "nti,ir->ntr",  # MetaLoRA-CP linear
    "ntr,ro->nto",
    "nrhw,r,ro->nohw",  # MetaLoRA-CP conv, static seed
    "nrhw,nr,ro->nohw",  # MetaLoRA-CP conv, per-sample seed
    "nti,pir->ntpr",  # MetaLoRA-TR linear
    "ntpr,roq,qp->nto",
    "ntpr,roq,nqp->nto",
    "nprhw,roq,qp->nohw",  # MetaLoRA-TR conv (Eqs. 6-7)
    "nprhw,roq,nqp->nohw",
    "ntok,nk->nto",  # MoE-LoRA gate mix
    "ntab,ay->ntby",  # TT-LoRA chain
    "ntby,ybz->ntz",
    "ntz,zcw->ntcw",
    "ntcw,wd->ntcd",
)

SETTINGS = dict(max_examples=60, deadline=None, derandomize=True)
DTYPES = (np.float32, np.float64)


def _dims(spec: str, n: int, seed: int) -> dict[str, int]:
    rng = np.random.default_rng(seed)
    labels = sorted(set(spec.replace(",", "").replace("->", "")) - {"n"})
    dims = {label: int(rng.integers(1, 6)) for label in labels}
    dims["n"] = n
    return dims


def _operands(terms, dims, seed, dtype):
    rng = np.random.default_rng(seed + 1)
    return [
        rng.normal(size=tuple(dims[label] for label in term)).astype(dtype)
        for term in terms
    ]


def _oracle(contraction, arrays) -> np.ndarray:
    optimize = contraction.path if contraction.path is not None else False
    return np.einsum(contraction.spec, *arrays, optimize=optimize)


def _assert_same(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.strides == want.strides
    assert got.tobytes() == want.tobytes()


def _cases(spec, n, seed, dtype):
    """The forward contraction and every gradient contraction of ``spec``,
    each with operands of its shapes."""
    dims = _dims(spec, n, seed)
    inputs, output = spec.split("->")
    terms = inputs.split(",")
    arrays = _operands(terms, dims, seed, dtype)
    plan = ops._get_plan(spec, tuple(a.shape for a in arrays), len(arrays))
    yield plan.contraction, arrays
    for i, gplan in enumerate(plan.grad_plans()):
        grad_terms = [output] + [t for j, t in enumerate(terms) if j != i]
        yield gplan.contraction, _operands(grad_terms, dims, seed + i, dtype)


@given(
    spec=st.sampled_from(SPECS),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 2),
    dtype=st.sampled_from(DTYPES),
)
@settings(**SETTINGS)
def test_replay_matches_numpy(spec, n, seed, dtype):
    for contraction, arrays in _cases(spec, n, seed, dtype):
        _assert_same(contraction(arrays), _oracle(contraction, arrays))


@given(
    spec=st.sampled_from(SPECS),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**31 - 2),
    dtype=st.sampled_from(DTYPES),
)
@settings(**SETTINGS)
def test_fallback_matches_numpy(spec, n, seed, dtype):
    """Without numpy's ``bmm_einsum`` the plan calls ``np.einsum`` itself."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ops, "_bmm_einsum", None)
        for contraction, arrays in _cases(spec, n, seed, dtype):
            _assert_same(contraction(arrays), _oracle(contraction, arrays))


@given(spec=st.sampled_from(SPECS), n=st.integers(1, 64), seed=st.integers(0, 2**31 - 2))
@settings(**SETTINGS)
def test_cached_list_is_numpys(spec, n, seed):
    """The list planned on shape-only dummies is the one ``np.einsum``
    builds from the real operands."""
    for contraction, arrays in _cases(spec, n, seed, np.float64):
        if contraction.path is None:
            continue
        __, expected = np.einsum_path(
            contraction.spec, *arrays, optimize=contraction.path, einsum_call=True
        )
        assert contraction.contractions == expected


def _summed_terms(spec: str, arrays) -> int:
    """How many products each output element of ``spec`` sums."""
    inputs, output = spec.split("->")
    dims = {}
    for labels, array in zip(inputs.split(","), arrays):
        dims.update(zip(labels, array.shape))
    return math.prod(size for label, size in dims.items() if label not in output)


@pytest.mark.parametrize("spec", SPECS)
@given(n=st.integers(1, 64), seed=st.integers(0, 2**31 - 2), dtype=st.sampled_from(DTYPES))
@settings(max_examples=20, deadline=None, derandomize=True)
def test_contractions_match_plain_einsum(spec, n, seed, dtype):
    """The planned forward and gradient contractions equal plain
    ``np.einsum`` (no ``optimize``) up to rounding: two sums of ``K``
    products of ``m`` operands each lie within ``(K + m) eps`` of the
    exact value, relative to the sum of the products' magnitudes."""
    for contraction, arrays in _cases(spec, n, seed, dtype):
        got = contraction(arrays)
        want = np.einsum(contraction.spec, *arrays)
        assert got.dtype == want.dtype and got.shape == want.shape
        magnitude = np.einsum(contraction.spec, *[np.abs(a) for a in arrays])
        terms = _summed_terms(contraction.spec, arrays) + len(arrays)
        bound = 2 * terms * np.finfo(dtype).eps * magnitude
        assert np.all(np.abs(got - want) <= bound), contraction.spec
