"""The child process of the in-process workloads (``embed_bulk``, ``table1_grid``).

    python perfbench/worker.py WORKLOAD --seed S --seconds T [--spans FILE]

The child sets the workload up, prints ``READY``, and waits for one
line on stdin: ``go`` runs the workload and prints one ``RESULT {json}``
line; anything else, or the end of stdin, ends it there (``run.py``
starts several children to time set-up).  With ``--spans`` half the
time is spent traced and the spans are written to ``FILE``.  ``run.py``
turns the result into the benchmark's; this file only measures.

    PYTHONPATH=src python perfbench/worker.py reference --seed S

rewrites ``perfbench/reference/table1_s{S}.json``, the committed rows
``table1_grid`` checks seeds 0 and 1 against.  Regenerate them only
when a change is meant to alter the Table I numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

from common import share
from hostspeed import HostSpeed, SegmentTimer
from layers import (
    install_protocol,
    install_serving,
    protocol_metrics,
    serving_metrics,
    stats_metrics,
)
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))

#: embed_bulk: images per pass (a pass takes about 2 s on the reference
#: host, so a run holds several), images per request, and the tenants
#: the requests alternate between (the demo fleet's first two).
IMAGES, CHUNK, EMBED_TENANTS = 2048, 64, ("static", "meta_0")
#: embed_bulk: requests per segment timed between two host-speed probes
#: (about 1 s on the reference host; a probe costs about 30 ms).
SEGMENT = 16


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- embed_bulk ----------------------------------------------------------------


class EmbedBulk:
    """Batched 64-image requests straight into ``MultiTenantEngine.serve``."""

    def __init__(self) -> None:
        from repro.bench import _multi_tenant_models
        from repro.serve import MultiTenantEngine, ServeRequest

        self.request = ServeRequest
        static, metas = _multi_tenant_models(len(EMBED_TENANTS))
        self.models = dict(zip(EMBED_TENANTS, (static, metas[0])))
        self.engine = MultiTenantEngine()
        for name, model in self.models.items():
            self.engine.register(name, model)
        warm = np.zeros((CHUNK, 3, 16, 16), dtype=np.float32)
        for name in EMBED_TENANTS:
            self.engine.serve(ServeRequest(sample=warm, adapter=name)).require()

    def one_pass(self, images: np.ndarray, speed: HostSpeed) -> tuple[list, float]:
        """Serve every chunk once; returns the results and the pass's seconds.

        The pass is timed in segments of ``SEGMENT`` requests, each
        divided by the host's slowness around it.
        """
        results = []
        chunks = images.shape[0] // CHUNK
        timer = SegmentTimer(speed)
        for index in range(chunks):
            sample = images[index * CHUNK : (index + 1) * CHUNK]
            results.append(
                self.engine.serve(
                    self.request(sample=sample, adapter=EMBED_TENANTS[index % 2])
                )
            )
            if (index + 1) % SEGMENT == 0 or index + 1 == chunks:
                timer.cut()
        return results, timer.seconds

    def timed(self, images: np.ndarray, seconds: float, expected: list | None) -> dict:
        """Passes until ``seconds`` ran, each checked against ``expected`` rows.

        Without ``expected`` the first pass's rows are the expected ones
        (a failed request leaves None, which no later row equals).  Set-up
        served a batch per tenant, so the first pass is warm.
        """
        walls, failed, attempted = [], 0, 0
        began = time.perf_counter()
        speed = HostSpeed()
        while not walls or time.perf_counter() - began < seconds:
            results, wall = self.one_pass(images, speed)
            if expected is None:
                expected = [r.embedding for r in results]
            walls.append(wall)
            attempted += len(results)
            failed += sum(
                not (r.ok and np.array_equal(r.embedding, row))
                for r, row in zip(results, expected)
            )
        return {
            "walls": walls,
            "attempted": attempted,
            "failed": failed,
            "expected": expected,
            "slowness": speed.slowness,
            "probing": speed.probing,
        }

    def reference_mismatches(self, images: np.ndarray, rows: list) -> int:
        """Chunks whose served rows differ from autograd ``extract_embeddings``."""
        from repro.eval.embeddings import extract_embeddings

        mismatched = 0
        for offset, name in enumerate(EMBED_TENANTS):
            model = self.models[name]
            if name == "static":
                model = model.serving_model(merge=True)
            chunks = range(offset, images.shape[0] // CHUNK, 2)
            mine = np.concatenate([images[i * CHUNK : (i + 1) * CHUNK] for i in chunks])
            reference = extract_embeddings(model, mine, batch_size=CHUNK)
            for j, i in enumerate(chunks):
                expected = reference[j * CHUNK : (j + 1) * CHUNK]
                mismatched += not np.array_equal(rows[i], expected)
        return mismatched

    def run(self, seed: int, seconds: float, spans_path: str | None) -> dict:
        images = np.random.default_rng(seed).normal(size=(IMAGES, 3, 16, 16))
        images = images.astype(np.float32)
        budget = seconds if spans_path is None else seconds / 2
        plain = self.timed(images, budget, None)
        expected = plain["expected"]
        pass_s = statistics.median(plain["walls"])
        out = {
            "attempted": plain["attempted"],
            "failed": plain["failed"],
            "rss_mb": peak_rss_mb(),
            "units_ms": [w * 1e3 for w in plain["walls"]],
            "rate_per_s": images.shape[0] / pass_s,
            "slowness": plain["slowness"],
        }
        if spans_path is not None:
            recorder = Recorder()
            install_serving(recorder, frontend=False)
            start = time.perf_counter()
            try:
                traced = self.timed(images, budget, expected)
            finally:
                recorder.restore()
            end = time.perf_counter()
            recorder.dump(spans_path)
            out["attempted"] += traced["attempted"]
            out["failed"] += traced["failed"]
            serves = [s for s in recorder.spans if s["name"] == "registry.serve"]
            # Host-speed probes run between segments, outside every layer.
            busy = end - start - traced["probing"]
            out["layers"] = {
                **serving_metrics(recorder.spans, start, end),
                **stats_metrics(self.engine.stats()),
                "trace.coverage": share(sum(s["end"] - s["start"] for s in serves), busy),
                "trace.overhead": statistics.median(traced["walls"]) / pass_s - 1,
            }
        problems = []
        if out["failed"]:
            problems.append(f"{out['failed']} request(s) failed or changed between passes")
        mismatched = self.reference_mismatches(images, expected)
        if mismatched:
            problems.append(f"{mismatched} chunk(s) differ from autograd extract_embeddings")
        out["failed"] += mismatched
        out["problems"] = problems
        return out


# -- table1_grid ---------------------------------------------------------------


def table1_seeds(seed: int) -> tuple[int, int, int]:
    return (3 * seed, 3 * seed + 1, 3 * seed + 2)


def reference_path(seed: int) -> str:
    return os.path.join(HERE, "reference", f"table1_s{seed}.json")


class Table1Grid:
    """``repro table1 --smoke --seeds 3s 3s+1 3s+2``, in process."""

    def __init__(self) -> None:
        from repro.eval.protocol import Table1Config, format_table1
        from repro.runtime.table1 import run_table1_grid

        self.config = Table1Config().quick()
        self.grid = run_table1_grid
        self.format = format_table1

    def once(self, seeds: tuple[int, ...], jobs: int = 1) -> tuple[list[dict], float]:
        """One grid plus its formatted table: ``(rows, wall seconds)``."""
        start = time.perf_counter()
        result = self.grid(self.config, seeds, jobs=jobs)
        self.format(result.rows_by_seed, self.config)
        wall = time.perf_counter() - start
        rows = [
            {m: {str(k): a for k, a in row.accuracy_by_k.items()} for m, row in by.items()}
            for by in result.rows_by_seed
        ]
        return rows, wall

    def scaled(self, seed: int, speed: HostSpeed) -> tuple[list[dict], float]:
        """One seed's grid, timed in segments cut after every cell."""
        import repro.runtime.table1 as table1

        timer = SegmentTimer(speed)
        cell = table1.run_table1_cell

        def cut_after(*args, **kwargs):
            try:
                return cell(*args, **kwargs)
            finally:
                timer.cut()

        table1.run_table1_cell = cut_after
        try:
            rows, __ = self.once((seed,))
        finally:
            table1.run_table1_cell = cell
        timer.cut()
        return rows, timer.seconds

    def cells(self, seeds: tuple[int, ...]) -> int:
        return len(seeds) * len(self.config.methods)

    def run(self, seed: int, seconds: float, spans_path: str | None) -> dict:
        seeds = table1_seeds(seed)
        budget = seconds if spans_path is None else seconds / 2
        # The timed unit is one seed's grid (``repro table1 --smoke --seeds
        # s``, a few seconds); the seeds take turns and each runs at least
        # once.
        walls, first, failed = [], {}, 0
        began = time.perf_counter()
        speed = HostSpeed()
        while len(walls) < len(seeds) or time.perf_counter() - began < budget:
            unit = seeds[len(walls) % len(seeds)]
            rows, wall = self.scaled(unit, speed)
            walls.append(wall)
            if first.setdefault(unit, rows) != rows:
                failed += self.cells((unit,))
        grid_rows = [first[unit][0] for unit in seeds]
        problems = []
        if failed:
            problems.append("repeated grids gave different rows")
        if os.path.exists(reference_path(seed)):
            with open(reference_path(seed), encoding="utf-8") as handle:
                reference = json.load(handle)
            if grid_rows != reference["rows"]:
                problems.append(f"rows differ from {os.path.basename(reference_path(seed))}")
                failed += self.cells(seeds)
        cells = len(self.config.methods) * len(walls)
        out = {
            "attempted": cells,
            "failed": failed,
            "rss_mb": peak_rss_mb(),
            "units_ms": [w * 1e3 for w in walls],
            "rate_per_s": cells / sum(walls),
            "slowness": list(speed.slowness),
            "problems": problems,
        }
        if spans_path is not None:
            grid_s = len(seeds) * statistics.median(walls)
            recorder = Recorder()
            install_protocol(recorder)
            try:
                traced_rows, traced_wall = self.once(seeds)
            finally:
                recorder.restore()
            traced_s = traced_wall / speed.segment()
            recorder.dump(spans_path)
            parallel_rows, parallel_wall = self.once(seeds, jobs=2)
            parallel_s = parallel_wall / speed.segment()
            out["attempted"] += 2 * self.cells(seeds)
            for rows, label in ((traced_rows, "traced"), (parallel_rows, "jobs=2")):
                if rows != grid_rows:
                    out["failed"] += self.cells(seeds)
                    problems.append(f"{label} rows differ from the jobs=1 rows")
            out["layers"] = {
                **protocol_metrics(recorder.spans, traced_wall),
                "runtime.jobs2_speedup": grid_s / parallel_s,
                "trace.overhead": traced_s / grid_s - 1,
            }
        return out


WORKLOADS = {"embed_bulk": EmbedBulk, "table1_grid": Table1Grid}


def write_reference(seed: int) -> None:
    seeds = table1_seeds(seed)
    rows, __ = Table1Grid().once(seeds)
    with open(reference_path(seed), "w", encoding="utf-8") as handle:
        json.dump({"seeds": list(seeds), "rows": rows}, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=(*WORKLOADS, "reference"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument(
        "--spans", default=None, help="trace: write the spans as JSON lines here"
    )
    args = parser.parse_args(argv)
    if args.workload == "reference":
        write_reference(args.seed)
        return 0
    workload = WORKLOADS[args.workload]()
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    out = workload.run(args.seed, args.seconds, args.spans)
    print("RESULT " + json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
