"""The A/B gate: is a change better, no worse, or not resolvable?

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds one file per untraced run, ``<workload>-s<seed>.json``,
containing the last line ``run.py`` printed.  Runs of the two sides with
the same workload and seed form a pair.  One row is printed per
(end-to-end metric, workload), plus a ``fail_share`` row per workload:

- ``improved``: the change wins at least 9 of every 10 pairs (ties count
  for neither side) and the medians differ, in the better direction, by
  more than the parent's interquartile range;
- ``unresolved``: the run-to-run spread (interquartile range over the
  median, the larger of the two sides) exceeds the metric's bound from
  ``BENCHMARK.json``, and the two sides overlap: neither is every change
  run better than every parent run, nor every change run worse;
- ``regressed``: the change's median is worse than the parent's by more
  than the bound, or ``fail_share`` (failed / attempted, wrong outputs
  included) rose at all;
- ``unchanged``: none of the above;
- ``too_few_pairs``: fewer than 10 pairs, so nothing is claimed.

The exit code is 1 when any row regressed, otherwise 2 when any row is
``unresolved`` or ``too_few_pairs`` (no regression was ruled out), and 0
when every row is ``improved`` or ``unchanged``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import sys

from common import spread

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10
WIN_SHARE = 0.9
_RUN_FILE = re.compile(r"^(?P<workload>[A-Za-z0-9_.]+)-s(?P<seed>\d+)\.json$")


def load_runs(folder: str) -> dict[str, dict[int, dict]]:
    """``{workload: {seed: result}}`` from one side's run files."""
    runs: dict[str, dict[int, dict]] = {}
    for name in sorted(os.listdir(folder)):
        match = _RUN_FILE.match(name)
        if match is None:
            continue
        with open(os.path.join(folder, name), encoding="utf-8") as handle:
            result = json.load(handle)
        runs.setdefault(match["workload"], {})[int(match["seed"])] = result
    return runs


def _iqr(values: list[float]) -> float:
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The gate's verdict on one metric; ``parent[i]`` pairs with ``change[i]``."""
    if len(parent) < MIN_PAIRS:
        return "too_few_pairs"
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (statistics.median(change) - statistics.median(parent))
    if wins >= WIN_SHARE * len(parent) and gap > _iqr(parent):
        return "improved"
    # Signed so that larger is better on either side.
    parent_signed = [sign * v for v in parent]
    change_signed = [sign * v for v in change]
    separated = (
        min(change_signed) > max(parent_signed) or max(change_signed) < min(parent_signed)
    )
    if max(spread(parent), spread(change)) > bound and not separated:
        return "unresolved"
    if -gap > bound * abs(statistics.median(parent)):
        return "regressed"
    return "unchanged"


def fail_verdict(parent: list[dict], change: list[dict]) -> tuple[float, float, str]:
    def fail_share(results: list[dict]) -> float:
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] + (not r["correct"]) for r in results)
        return failed / max(attempted, 1)

    before, after = fail_share(parent), fail_share(change)
    if len(parent) < MIN_PAIRS:
        return before, after, "too_few_pairs"
    return before, after, "regressed" if after > before else "unchanged"


def compare(parent_dir: str, change_dir: str, declared: dict) -> list[tuple]:
    """Rows of ``(workload, metric, parent values, change values, pairs, verdict)``."""
    parent_runs, change_runs = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in sorted(set(parent_runs) | set(change_runs)):
        seeds = sorted(
            set(parent_runs.get(workload, {})) & set(change_runs.get(workload, {}))
        )
        parent = [parent_runs[workload][s] for s in seeds]
        change = [change_runs[workload][s] for s in seeds]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            before = [r["metrics"][name]["value"] for r in parent]
            after = [r["metrics"][name]["value"] for r in change]
            outcome = verdict(before, after, metric["better"], metric["bound"])
            rows.append((workload, name, before, after, len(seeds), outcome))
        before_share, after_share, fail = fail_verdict(parent, change)
        rows.append((workload, "fail_share", [before_share], [after_share], len(seeds), fail))
    return rows


def exit_code(rows: list[tuple]) -> int:
    """1 if anything regressed, 2 if a regression could not be ruled out, else 0."""
    verdicts = {row[-1] for row in rows}
    if "regressed" in verdicts:
        return 1
    if verdicts & {"unresolved", "too_few_pairs"}:
        return 2
    return 0


def _describe(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.6g}" if values else "-"
    q1, __, q3 = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}]"


def report(rows: list[tuple]) -> str:
    lines = [
        f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':<34} "
        f"{'change median [q1, q3]':<34} {'pairs':>5}  verdict"
    ]
    for workload, metric, before, after, pairs, outcome in rows:
        lines.append(
            f"{workload:<16} {metric:<12} {_describe(before):<34} "
            f"{_describe(after):<34} {pairs:>5}  {outcome}"
        )
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_dir")
    parser.add_argument("change_dir")
    args = parser.parse_args(argv)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    rows = compare(args.parent_dir, args.change_dir, declared)
    print(report(rows))
    return exit_code(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
