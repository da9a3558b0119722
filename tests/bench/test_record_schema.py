"""The bench record schema: every rule has teeth, and nothing crashes it.

``RECORD_SCHEMAS`` drives these tests the same way it drives
``validate_bench_record``: for every leaf of a freshly generated record
the leaf's rule supplies a value it rejects, every required key is
dropped once, every list is cut below its minimum, and every closed
object gains an unknown key — each must be rejected with an error that
names the path.  Hand-written cases remain only for the cross-field
checks and the removed record kinds and sections.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import (
    RECORD_SCHEMAS,
    ListOf,
    MapOf,
    Opt,
    Rule,
    validate_bench_record,
)

pytestmark = pytest.mark.bench_smoke

KINDS = tuple(RECORD_SCHEMAS)
PREFIX = "invalid bench record: "
ABSENT = object()  # as a replacement: delete the key


def corruptions(spec, parent, key, path):
    """Yield ``(path, parent, key, value)``: writing ``value`` at
    ``parent[key]`` (deleting the key for ``ABSENT``) must fail naming
    ``path``."""
    node = parent[key]
    if isinstance(spec, Rule):
        yield path, parent, key, spec.bad
    elif isinstance(spec, ListOf):
        if spec.min_len:
            yield path, parent, key, node[: spec.min_len - 1]
        for index in range(len(node)):
            yield from corruptions(spec.item, node, index, f"{path}[{index}]")
    elif isinstance(spec, MapOf):
        if spec.min_len:
            yield path, parent, key, dict(list(node.items())[: spec.min_len - 1])
        for name in list(node):
            yield from corruptions(spec.value, node, name, f"{path}[{name}]")
    else:
        yield (f"{path}.unexpected" if path else "unexpected"), node, "unexpected", 1
        for name, sub in spec.items():
            here = f"{path}.{name}" if path else name
            if isinstance(sub, Opt):
                if name not in node:
                    continue
                sub = sub.spec
            else:
                yield here, node, name, ABSENT
            yield from corruptions(sub, node, name, here)


def rejection(record) -> str:
    with pytest.raises(ValueError) as info:
        validate_bench_record(record)
    message = str(info.value)
    assert message.startswith(PREFIX), message
    return message[len(PREFIX):]


@pytest.mark.parametrize("kind", KINDS)
def test_every_schema_rule_rejects_its_corruption(fresh_record, kind):
    record = fresh_record(kind)
    validate_bench_record(record)
    holder = {"record": record}
    cases = list(corruptions(RECORD_SCHEMAS[kind], holder, "record", ""))
    assert len(cases) > 30
    for path, parent, key, value in cases:
        had = isinstance(parent, list) or key in parent
        old = parent[key] if had else None
        if value is ABSENT:
            del parent[key]
        else:
            parent[key] = value
        assert rejection(record).startswith(f"{path}: "), (path, value)
        if had:
            parent[key] = old
        else:
            del parent[key]
    validate_bench_record(record)  # every corruption was undone


def other_type(value) -> st.SearchStrategy:
    """NaN, or a value whose JSON type differs from ``value``'s."""

    def family(v):
        if isinstance(v, bool):
            return "bool"
        return "number" if isinstance(v, (int, float)) else type(v).__name__

    values = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 2),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=3),
        st.lists(st.integers(0, 2), max_size=2),
        st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
    )
    return st.one_of(
        st.just(math.nan), values.filter(lambda v: family(v) != family(value))
    )


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_any_node_of_another_type_is_rejected_not_crashed(fresh_record, kind, data):
    """Replace one node (root, section, list item or leaf) with NaN or a
    value of another type: a ``ValueError`` naming the record, never an
    ``AttributeError`` / ``TypeError`` from inside the validator."""
    holder = {"record": fresh_record(kind)}
    parent, key = holder, "record"
    while isinstance(parent[key], (dict, list)) and parent[key]:
        if data.draw(st.integers(0, 3), label="stop") == 0:
            break
        node = parent[key]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        parent, key = node, data.draw(st.sampled_from(keys), label="key")
    parent[key] = data.draw(other_type(parent[key]), label="replacement")
    rejection(holder["record"])


class TestCrossFieldChecks:
    @pytest.fixture()
    def robustness(self, fresh_record):
        return fresh_record("robustness")

    @pytest.fixture()
    def serve(self, fresh_record):
        return fresh_record("serve")

    @pytest.mark.parametrize(
        "mutate, path",
        [
            (lambda r: r["grid"].update(severities=[1, 3]), "grid.severities: must include 0"),
            (lambda r: r["grid"].update(severities=[0, 3, 3]), "grid.severities: must be distinct"),
            (lambda r: r["cells"].pop(), "cells: must cover the grid"),
            (lambda r: r["cells"].append(dict(r["cells"][0])), "cells[4]: duplicate cell"),
            (lambda r: r["cells"][0].update(severity=5), "cells[0]: "),
            (lambda r: r["cells"][0]["accuracy_by_k"].popitem(), "cells[0].accuracy_by_k: "),
            (lambda r: r["slopes"].pop("lora"), "slopes: one entry per grid method"),
            (
                lambda r: r["slopes"]["lora"]["per_corruption"].update(blur=0.0),
                "slopes[lora].per_corruption: ",
            ),
            (lambda r: r["headline"].update(baseline="nope"), "headline.baseline: "),
            (lambda r: r["headline"].update(meta_methods=["nope"]), "headline.meta_methods: "),
            (
                lambda r: r["stream"]["methods"]["lora"]["steps"].pop(),
                "stream.methods[lora].steps: ",
            ),
            (lambda r: r["summary"].update(headline_delta=0.123), "summary.headline_delta: "),
        ],
    )
    def test_robustness_grid_and_headline(self, robustness, mutate, path):
        validate_bench_record(robustness)
        mutate(robustness)
        assert rejection(robustness).startswith(path)

    def test_knn_drop_over_budget(self, serve):
        serve["precision"]["backbones"][0]["knn"]["max_drop"]["f32"] = 0.9
        message = rejection(serve)
        assert message.startswith("precision.backbones[0].knn.max_drop.f32: ")

    def test_f64_rows_are_bit_exact(self, serve):
        rows = serve["precision"]["backbones"][1]["rows"]
        row = next(i for i, row in enumerate(rows) if row["precision"] == "f64")
        rows[row]["max_abs_err_vs_f64"] = 1e-12
        path = f"precision.backbones[1].rows[{row}].max_abs_err_vs_f64: "
        assert rejection(serve).startswith(path)

    def test_rows_cover_every_tier(self, serve):
        for row in serve["precision"]["backbones"][0]["rows"]:
            if row["precision"] == "f32":
                row["precision"] = "f64"
        assert rejection(serve).startswith("precision.backbones[0].rows: ")


class TestRejectedShapes:
    def test_removed_kinds_and_sections(self, fresh_record):
        for kind in ("load", "autograd", "table1"):
            assert rejection({**fresh_record("serve"), "kind": kind}).startswith("kind: ")
        serve = {**fresh_record("serve"), "multi_tenant": {"bit_identical": True}}
        assert rejection(serve) == "multi_tenant: unexpected key"
        robustness = {**fresh_record("robustness"), "precision": fresh_record("serve")["precision"]}
        assert rejection(robustness) == "precision: unexpected key"

    def test_malformed_nodes_are_rejected_not_crashed(self, fresh_record):
        serve = fresh_record("serve")
        serve["entries"] = [1]
        assert rejection(serve) == "entries[0]: object"
        serve = fresh_record("serve")
        serve["precision"]["backbones"][0]["rows"] = [1, 2, 3, 4]
        assert rejection(serve) == "precision.backbones[0].rows[0]: object"
        robustness = fresh_record("robustness")
        accuracy = robustness["cells"][0]["accuracy_by_k"]
        accuracy["x"] = accuracy.popitem()[1]
        assert rejection(robustness).startswith("cells[0].accuracy_by_k[x]: key must be")
