"""Which calls the traced runs wrap, and the per-layer metrics they yield.

Layer names are the program's module names.  Every wrapped call is a
public function or method of that layer, patched where its caller looks
it up, so the program's own code is never edited:

========== =============================================================
codec      ``decode_payload`` / ``encode_payload`` / ``encode_frame`` as
           bound in ``repro.serve.frontend``
scheduler  ``BatchScheduler.submit``
registry   ``MultiTenantEngine.serve`` (one span per batch)
compile    ``CompiledProgram.run``, by role: static / extractor /
           mapping / body, read from the registry's entries
protocol   ``prepare_table1_seed`` and ``run_table1_cell`` as bound in
           ``repro.runtime.table1``; ``train_table1_model`` as bound in
           ``repro.eval.protocol``
train      ``Trainer.train_step``, ``Adam.step``
autograd   ``Tensor.backward``; ``conv2d_forward`` (called by the
           differentiable ``conv2d``); the differentiable ``einsum``
           wherever it is imported
eval       ``extract_embeddings`` as bound in ``repro.eval.protocol``;
           ``KNNClassifier.fit`` / ``score``
========== =============================================================

A metric of a layer a workload does not run reads 0.
"""

from __future__ import annotations

import contextvars
import statistics
import time
from collections import defaultdict

from common import durations, self_times, share, summed, tail
from spans import Recorder

ROLES = ("static", "extractor", "mapping", "body")

#: The wire ``id`` of the frame the current asyncio task is handling.
_WIRE_ID: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_wire_id", default=None
)


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- serving -----------------------------------------------------------------


def install_serving(recorder: Recorder, *, frontend: bool) -> None:
    """Wrap the registry and compiled programs; with ``frontend``, also
    the wire codec and admission (the TCP serving workloads).

    Each served request is known by the ``id`` its client put on the
    wire: ``read_frame`` is tapped to remember it in the handling task's
    context, which every codec call and the ``submit`` of that request
    then read.  ``submit`` files the request object under that id, so
    the batch span that carries it can list it.
    """
    from repro.serve.compile import CompiledProgram
    from repro.serve.registry import MultiTenantEngine

    roles: dict[int, str] = {}
    rid_of: dict[int, int] = {}

    def batch(args: tuple) -> dict:
        # Learn each program's role from the registered entries, so
        # tenants registered before tracing started are known too.
        registry = args[0].registry
        for name in registry.names():
            entry = registry.get(name)
            if entry.kind == "static":
                roles[id(entry.program)] = "static"
            else:
                for role in ROLES[1:]:
                    roles[id(getattr(entry, role))] = role
        requests = args[1] if isinstance(args[1], (list, tuple)) else [args[1]]
        rids = [rid_of.pop(id(r), None) for r in requests]
        return {
            "rows": sum(r.sample.shape[0] if r.batched else 1 for r in requests),
            "rids": [rid for rid in rids if rid is not None],
        }

    def program_run(args: tuple) -> dict:
        return {"role": roles.get(id(args[0]), "other"), "rows": int(args[1].shape[0])}

    def output_bytes(args: tuple, out: object, attrs: dict) -> None:
        attrs["bytes"] = int(out.nbytes)

    recorder.patch(MultiTenantEngine, "serve", "registry.serve", before=batch)
    recorder.patch(
        CompiledProgram, "run", "compile.run", before=program_run, after=output_bytes
    )
    if frontend:
        _install_frontend(recorder, rid_of)


def _install_frontend(recorder: Recorder, rid_of: dict[int, int]) -> None:
    import repro.serve.frontend as frontend
    from repro.serve.scheduler import BatchScheduler

    read_frame = frontend._read_frame

    async def tapped_read_frame(reader):
        frame = await read_frame(reader)
        if frame is not None:
            _WIRE_ID.set(frame[0].get("id"))
        return frame

    recorder.patch_with(frontend, "_read_frame", tapped_read_frame)

    def wire_id(args: tuple) -> dict:
        return {"rid": _WIRE_ID.get()}

    def response_frame(args: tuple) -> dict:
        return {"rid": _WIRE_ID.get(), "result": "timings" in args[0]}

    def submit_before(args: tuple) -> dict:
        rid = _WIRE_ID.get()
        rid_of[id(args[1])] = rid
        return {"rid": rid}

    def submit_after(args: tuple, future: object, attrs: dict) -> None:
        future.add_done_callback(
            lambda __: attrs.__setitem__("done", time.perf_counter())
        )

    recorder.patch(frontend, "decode_payload", "codec.decode", before=wire_id)
    recorder.patch(frontend, "encode_payload", "codec.encode", before=wire_id)
    recorder.patch(frontend, "encode_frame", "codec.frame", before=response_frame)
    recorder.patch(
        BatchScheduler, "submit", "scheduler.submit", before=submit_before, after=submit_after
    )


def _histogram_median(series: dict | None) -> float:
    if not series or not series.get("buckets"):
        return 0.0
    values = sorted((float(k), v) for k, v in series["buckets"].items())
    half, seen = sum(v for __, v in values) / 2.0, 0
    for value, count in values:
        seen += count
        if seen >= half:
            return value
    return values[-1][0]


def _histogram_mean(series: dict | None) -> float:
    if not series or not series.get("buckets"):
        return 0.0
    pairs = [(float(k), v) for k, v in series["buckets"].items()]
    return sum(k * v for k, v in pairs) / sum(v for __, v in pairs)


def _calls(stats: dict, name: str) -> int:
    return int((stats.get(name) or {}).get("calls", 0))


def stats_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics read from an engine or scheduler stats snapshot
    (counts over the serving process's life)."""
    hits = _calls(stats, "serve.program_cache.hit")
    misses = _calls(stats, "serve.program_cache.miss")
    arena_hits = _calls(stats, "serve.arena.hit")
    arena_allocs = _calls(stats, "serve.arena.alloc")
    return {
        "scheduler.queue_depth.p50": _histogram_median(stats.get("serve.queue.depth")),
        "scheduler.batch_size.mean": _histogram_mean(stats.get("serve.batch.size")),
        "scheduler.rejected": float(_calls(stats, "serve.request.rejected")),
        "registry.program_cache.hit_ratio": share(hits, hits + misses),
        "compile.arena_hit_ratio": share(arena_hits, arena_hits + arena_allocs),
    }


def serving_metrics(spans: list[dict], start: float, end: float) -> dict[str, float]:
    """Registry and compile metrics from the spans inside ``[start, end]``."""
    window = [s for s in spans if s["start"] >= start and s["end"] <= end]
    serves = [s for s in window if s["name"] == "registry.serve"]
    runs = [s for s in window if s["name"] == "compile.run"]
    serve_time = sum(s["end"] - s["start"] for s in serves)
    own = self_times(serves + runs)
    metrics = {
        "registry.serve_ms.p50": _median([(s["end"] - s["start"]) * 1e3 for s in serves]),
        "registry.self_share": share(sum(own[s["sid"]] for s in serves), serve_time),
        "compile.runs_per_batch": share(len(runs), len(serves)),
        # Computed from the output arrays' sizes, not measured traffic.
        "compile.out_bytes_per_row": share(
            sum(s.get("bytes", 0) for s in runs), sum(s["rows"] for s in serves)
        ),
    }
    for role in ROLES:
        mine = [s for s in runs if s["role"] == role]
        time_in = sum(s["end"] - s["start"] for s in mine)
        metrics[f"compile.{role}.us_per_row"] = share(
            time_in * 1e6, sum(s["rows"] for s in mine)
        )
        metrics[f"compile.{role}.share"] = share(time_in, serve_time)
    return metrics


def frontend_metrics(
    spans: list[dict], answers: dict[int, float]
) -> tuple[dict[str, float], float, float]:
    """Codec, scheduler and frontend metrics of the served requests.

    ``answers`` maps each ``ok`` request's wire id to its client-side
    latency (seconds).  Returns the metrics plus the server's busy
    window ``(start, end)``: first submit to last result.
    """
    submits = {
        s["rid"]: s for s in spans if s["name"] == "scheduler.submit" and "done" in s
    }
    batch_of = {}
    for span in spans:
        if span["name"] == "registry.serve":
            for rid in span["rids"]:
                batch_of[rid] = span
    decode = defaultdict(float)
    encode = defaultdict(float)
    for span in spans:
        if span["name"] == "codec.decode":
            decode[span["rid"]] += span["end"] - span["start"]
        elif span["name"] == "codec.encode" or (
            span["name"] == "codec.frame" and span["result"]
        ):
            encode[span["rid"]] += span["end"] - span["start"]
    served = [rid for rid in answers if rid in submits and rid in batch_of]
    waits = [batch_of[rid]["start"] - submits[rid]["start"] for rid in served]
    coverage = [
        (batch_of[rid]["end"] - submits[rid]["start"]) / answers[rid] for rid in served
    ]
    residual = [answers[rid] - (submits[rid]["done"] - submits[rid]["start"]) for rid in served]
    start = min((s["start"] for s in submits.values()), default=0.0)
    end = max((s["done"] for s in submits.values()), default=0.0)
    busy = sum(
        s["end"] - s["start"]
        for s in spans
        if s["name"] == "registry.serve" and start <= s["start"] <= end
    )
    metrics = {
        "codec.decode_us.p50": _median([decode[rid] * 1e6 for rid in served]),
        "codec.encode_us.p50": _median([encode[rid] * 1e6 for rid in served]),
        "frontend.residual_ms.p50": _median([r * 1e3 for r in residual]),
        "scheduler.submit_us.p50": _median(
            [(submits[rid]["end"] - submits[rid]["start"]) * 1e6 for rid in served]
        ),
        "scheduler.queue_wait_ms.p50": _median([w * 1e3 for w in waits]),
        "scheduler.queue_wait_ms.tail": tail([w * 1e3 for w in waits])[0] if waits else 0.0,
        "scheduler.busy_share": share(busy, end - start),
        "trace.coverage": _median(coverage),
    }
    return metrics, start, end


# -- the Table I protocol ----------------------------------------------------


def install_protocol(recorder: Recorder) -> None:
    """Wrap the Table I protocol, training loop, autograd and evaluation."""
    import repro.autograd.conv_ops as conv_ops
    import repro.autograd.ops as ops
    import repro.eval.protocol as protocol
    import repro.runtime.table1 as table1
    from repro.autograd.tensor import Tensor
    from repro.eval.knn import KNNClassifier
    from repro.train.optim import Adam
    from repro.train.trainer import Trainer

    def embed_rows(args: tuple) -> dict:
        return {"rows": int(args[1].shape[0])}

    recorder.patch(table1, "prepare_table1_seed", "protocol.pretrain")
    recorder.patch(table1, "run_table1_cell", "protocol.cell")
    recorder.patch(protocol, "train_table1_model", "protocol.adapt")
    recorder.patch(protocol, "extract_embeddings", "eval.embed", before=embed_rows)
    recorder.patch(KNNClassifier, "fit", "eval.knn")
    recorder.patch(KNNClassifier, "score", "eval.knn")
    recorder.patch(Trainer, "train_step", "train.step")
    recorder.patch(Adam, "step", "train.optim")
    recorder.patch(Tensor, "backward", "autograd.backward")
    recorder.patch(conv_ops, "conv2d_forward", "autograd.conv2d_forward")
    recorder.patch_bindings(ops, "einsum", "autograd.einsum_forward")


def protocol_metrics(spans: list[dict], wall: float) -> dict[str, float]:
    """Shares of one traced grid's ``wall`` seconds, plus counts."""

    def part(name: str) -> float:
        return share(summed(spans, name), wall)

    def count(name: str) -> float:
        return float(len(durations(spans, name)))

    def p50_ms(name: str) -> float:
        return _median([d * 1e3 for d in durations(spans, name)])

    embeds = [s for s in spans if s["name"] == "eval.embed"]
    return {
        "protocol.pretrain_share": part("protocol.pretrain"),
        "protocol.adapt_share": part("protocol.adapt"),
        "protocol.eval_share": part("protocol.cell") - part("protocol.adapt"),
        "train.steps": count("train.step"),
        "train.step_ms.p50": p50_ms("train.step"),
        "train.optim_share": part("train.optim"),
        "autograd.backward_share": part("autograd.backward"),
        "autograd.backward_ms.p50": p50_ms("autograd.backward"),
        "autograd.conv2d_forward.calls": count("autograd.conv2d_forward"),
        "autograd.conv2d_forward.share": part("autograd.conv2d_forward"),
        "autograd.einsum_forward.calls": count("autograd.einsum_forward"),
        "autograd.einsum_forward.share": part("autograd.einsum_forward"),
        "eval.embed_rows_per_s": share(
            sum(s["rows"] for s in embeds), sum(s["end"] - s["start"] for s in embeds)
        ),
        "eval.knn_share": part("eval.knn"),
        "trace.coverage": share(sum(self_times(spans).values()), wall),
    }
