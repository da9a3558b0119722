"""Experiment-result persistence and rendering.

The benchmark harness saves each regenerated table as JSON under
``results/`` so EXPERIMENTS.md can cite exact numbers and runs are
diffable across machines; this module owns the (de)serialization and the
markdown rendering of those records.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field
from typing import Mapping

from repro.errors import EvaluationError
from repro.eval.significance import two_sided_t_test


@dataclass
class Table1Record:
    """One Table I regeneration: accuracies (mean + per seed) and t-tests."""

    backbone: str
    seeds: list[int]
    accuracy: dict[str, dict[str, float]]  # method -> {"5": mean, "10": mean}
    per_seed: dict[str, dict[str, list[float]]] = field(default_factory=dict)
    significance: dict[str, dict[str, float]] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Table1Record":
        payload = json.loads(text)
        return cls(
            backbone=payload["backbone"],
            seeds=list(payload["seeds"]),
            accuracy={m: dict(v) for m, v in payload["accuracy"].items()},
            per_seed={
                m: {k: list(vals) for k, vals in v.items()}
                for m, v in payload.get("per_seed", {}).items()
            },
            significance={
                m: dict(v) for m, v in payload.get("significance", {}).items()
            },
        )


def record_from_rows(
    backbone: str,
    seeds: list[int],
    rows_by_seed: list[Mapping[str, object]],
    ks: tuple[int, ...],
) -> Table1Record:
    """Aggregate per-seed protocol rows into a :class:`Table1Record`.

    With two or more seeds, each meta method also gets a paired two-sided
    t-test against the best static baseline per K (the paper's ``*``),
    stored as ``significance[method][str(k)] = p_value``.
    """
    if not rows_by_seed:
        raise EvaluationError("record_from_rows needs at least one seed's rows")
    methods = list(rows_by_seed[0])
    accuracy: dict[str, dict[str, float]] = {}
    per_seed: dict[str, dict[str, list[float]]] = {}
    for method in methods:
        accuracy[method] = {}
        per_seed[method] = {}
        for k in ks:
            values = [
                float(rows[method].accuracy_by_k[k]) for rows in rows_by_seed
            ]
            per_seed[method][str(k)] = values
            accuracy[method][str(k)] = float(sum(values) / len(values))

    significance: dict[str, dict[str, float]] = {}
    baselines = [m for m in methods if not m.startswith("meta")]
    if len(rows_by_seed) >= 2 and baselines:
        for method in methods:
            if not method.startswith("meta"):
                continue
            significance[method] = {}
            for k in ks:
                best = max(
                    baselines, key=lambda m: accuracy[m][str(k)]
                )
                result = two_sided_t_test(
                    per_seed[method][str(k)], per_seed[best][str(k)]
                )
                significance[method][str(k)] = result.p_value
    return Table1Record(
        backbone=backbone,
        seeds=list(seeds),
        accuracy=accuracy,
        per_seed=per_seed,
        significance=significance,
    )


def save_record(record: Table1Record, directory: str | os.PathLike = "results") -> str:
    """Write the record to ``<directory>/table1_<backbone>.json``; returns path."""
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(str(directory), f"table1_{record.backbone}.json")
    with open(path, "w") as handle:
        handle.write(record.to_json())
    return path


def load_record(path: str | os.PathLike) -> Table1Record:
    with open(path) as handle:
        return Table1Record.from_json(handle.read())


def render_markdown(record: Table1Record, labels: Mapping[str, str]) -> str:
    """A GitHub-markdown table in the paper's layout."""
    ks = sorted({k for v in record.accuracy.values() for k in v}, key=int)
    header = "| Method | " + " | ".join(f"K={k}" for k in ks) + " |"
    divider = "|" + "---|" * (len(ks) + 1)
    lines = [header, divider]
    ordered = [m for m in labels if m in record.accuracy]
    ordered += [m for m in record.accuracy if m not in labels]
    for method in ordered:
        per_k = record.accuracy[method]
        label = labels.get(method, method)
        cells = " | ".join(f"{100 * per_k[k]:.2f}" for k in ks)
        lines.append(f"| {label} | {cells} |")
    return "\n".join(lines)
