"""Command-line interface: regenerate the paper's artifacts from a shell.

Usage::

    python -m repro table1 --backbone resnet --seeds 0 1 2
    python -m repro table1 --backbone mixer --quick
    python -m repro table1 --quick --seeds 0 1 2 --jobs 4
    python -m repro table1 --seeds 0 1 2 --jobs 4 --out-dir runs/t1
    python -m repro table1 --resume runs/t1          # rerun only missing cells
    python -m repro robustness --smoke --severities 0 3
    python -m repro robustness --seeds 0 1 --jobs 4 --out-dir runs/rob
    python -m repro trace runs/t1                    # span-tree report
    python -m repro inspect --method meta_lora_tr
    python -m repro compile --method meta_lora_tr --precision f32 --describe
    python -m repro figures
    python -m repro bench --out .
    python -m repro bench --suite robustness --jobs 4 --out .
    python -m repro serve --port 7070
    python -m repro serve --selftest

``table1`` regenerates the paper's Table I (with t-test markers when more
than one seed is given); with ``--out-dir`` every completed cell is
checkpointed into a run directory and ``--resume`` picks a killed run
back up, re-running only the missing cells — bit-identical to an
uninterrupted run.  A run directory also gets the observability layer's
``trace.jsonl`` span export, which ``trace`` renders as a span-tree
report (slowest spans, per-phase breakdown — see docs/observability.md).
``robustness`` runs the corruption-shift matrix (methods × corruptions ×
severities — see docs/robustness.md) over the same run-dir/resume
machinery; severity-0 cells are bit-identical to the clean Table I
evaluation.  ``inspect`` prints a method's adapter layout and
parameter budget; ``compile`` captures a method's serving program
and prints its step count and rows per block (``--describe`` adds the
step listing with per-step output dtypes/shapes — the view of what the
precision tier actually produced); ``figures`` runs the Figure 1-3
numerical checks;
``bench`` runs the in-process bit-identity and accuracy pins and emits
``BENCH_serve.json`` (``--suite robustness`` is the opt-in shift matrix
emitting ``BENCH_robustness.json``; speed is perfbench's job);
``serve`` binds the asyncio TCP frontend (continuous batching,
admission control, SLO-aware ordering — see docs/serving_frontend.md)
over a demo multi-tenant fleet, with ``--selftest`` doing one
round-trip per tenant asserted bit-identical to in-process dispatch.

Flags shared between subcommands (``--backbone``, ``--jobs``, the
fault-tolerance set ``--max-retries`` / ``--cell-timeout``) are defined
once on parent parsers, so their names, types and help stay consistent
everywhere they appear.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from repro.config import PAPER, PAPER_MIXER
from repro.errors import ReproError
from repro.eval.protocol import (
    METHODS,
    build_adapted_model,
    build_backbone,
    format_table1,
    run_table1,
)
from repro.eval.significance import two_sided_t_test
from repro.peft.counts import adapter_parameter_table, count_parameters, format_table
from repro.utils.rng import new_rng


def _table1_config(args: argparse.Namespace):
    config = PAPER if args.backbone == "resnet" else PAPER_MIXER
    if getattr(args, "smoke", False):
        # Test-suite scale (seconds, not minutes): what CI smoke runs use.
        return config.quick()
    if args.quick:
        config = replace(
            config,
            num_tasks=9,
            adapt_episodes=150,
            support_per_task=40,
            query_per_task=40,
            pretrain_epochs=4,
        )
    return config


def _print_significance(config, rows_by_seed) -> None:
    baselines = [m for m in config.methods if not m.startswith("meta")]
    print("\nsignificance vs best baseline (two-sided paired t-test):")
    for k in config.ks:
        per_method = {
            m: [rows[m].accuracy_by_k[k] for rows in rows_by_seed]
            for m in config.methods
        }
        best = max(baselines, key=lambda m: float(np.mean(per_method[m])))
        for meta in ("meta_lora_cp", "meta_lora_tr"):
            result = two_sided_t_test(per_method[meta], per_method[best])
            marker = "*" if result.significant and result.statistic > 0 else ""
            print(f"  K={k}: {meta} vs {best}: p={result.p_value:.3f} {marker}")


def _table1(args: argparse.Namespace) -> int:
    from repro.runtime import fork_available, resolve_jobs, run_table1_grid

    config = _table1_config(args)
    jobs = resolve_jobs(args.jobs)
    use_runtime = (
        jobs > 1
        or args.out_dir is not None
        or args.resume is not None
        or args.max_retries > 0
        or args.cell_timeout is not None
    )
    failures = []
    if use_runtime:
        if jobs > 1 and not fork_available():
            print("(fork unavailable on this platform; falling back to jobs=1)")
        cells = len(args.seeds) * len(config.methods)
        print(
            f"running {cells} cells ({len(args.seeds)} seed(s) x "
            f"{len(config.methods)} methods) on {jobs} worker(s) ...",
            flush=True,
        )
        # Non-strict: a failed cell degrades the report instead of
        # aborting the grid — completed cells are still checkpointed
        # (with --out-dir) and printed, with failures marked.
        grid = run_table1_grid(
            config,
            tuple(args.seeds),
            jobs=jobs,
            strict=False,
            out_dir=args.out_dir,
            resume=args.resume,
            max_retries=args.max_retries,
            cell_timeout=args.cell_timeout,
        )
        if grid.restored:
            print(
                f"resumed {len(grid.restored)} completed cell(s) from "
                f"{grid.run_dir}; re-ran only the missing ones"
            )
        rows_by_seed = grid.rows_by_seed
        failures = grid.failures
    else:
        rows_by_seed = []
        for seed in args.seeds:
            print(f"running seed {seed} ...", flush=True)
            rows_by_seed.append(run_table1(config, seed))
    print()
    print(format_table1(rows_by_seed, config))
    if failures:
        print(f"\nWARNING: partial results — {len(failures)} cell(s) failed:")
        for failure in failures:
            print(f"  {failure}")
        if args.out_dir is not None or args.resume is not None:
            rerun_dir = args.resume if args.resume is not None else args.out_dir
            print(f"fix the cause and rerun with --resume {rerun_dir}")
        return 1
    if len(args.seeds) >= 2:
        _print_significance(config, rows_by_seed)
    return 0


def _robustness(args: argparse.Namespace) -> int:
    from repro.eval.robustness import RobustnessConfig, format_robustness_grid
    from repro.runtime import fork_available, resolve_jobs, run_robustness_grid

    table1 = PAPER if args.backbone == "resnet" else PAPER_MIXER
    if args.smoke:
        table1 = table1.quick()
    overrides = {}
    if args.corruptions is not None:
        overrides["corruptions"] = tuple(args.corruptions)
    if args.severities is not None:
        overrides["severities"] = tuple(args.severities)
    config = RobustnessConfig(table1=table1, **overrides)
    jobs = resolve_jobs(args.jobs)
    if jobs > 1 and not fork_available():
        print("(fork unavailable on this platform; falling back to jobs=1)")
    seeds = tuple(args.seeds)
    cells = (
        len(seeds)
        * len(config.table1.methods)
        * len(config.corruptions)
        * len(config.severities)
    )
    print(
        f"running {cells} cells ({len(seeds)} seed(s) x "
        f"{len(config.table1.methods)} methods x {len(config.corruptions)} "
        f"corruptions x {len(config.severities)} severities) on "
        f"{jobs} worker(s) ...",
        flush=True,
    )
    # Non-strict, like table1: a failed cell degrades the report instead
    # of aborting the grid; completed cells are still checkpointed.
    grid = run_robustness_grid(
        config,
        seeds,
        jobs=jobs,
        strict=False,
        out_dir=args.out_dir,
        resume=args.resume,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
    )
    if grid.restored:
        print(
            f"resumed {len(grid.restored)} completed cell(s) from "
            f"{grid.run_dir}; re-ran only the missing ones"
        )
    print()
    print(format_robustness_grid(config, seeds, grid.cells))
    if grid.failures:
        print(f"\nWARNING: partial results — {len(grid.failures)} cell(s) failed:")
        for failure in grid.failures:
            print(f"  {failure}")
        if args.out_dir is not None or args.resume is not None:
            rerun_dir = args.resume if args.resume is not None else args.out_dir
            print(f"fix the cause and rerun with --resume {rerun_dir}")
        return 1
    return 0


def _inspect(args: argparse.Namespace) -> int:
    config = PAPER if args.backbone == "resnet" else PAPER_MIXER
    rng = new_rng(args.seed)
    state = build_backbone(config, rng).state_dict()
    model = build_adapted_model(args.method, config, state, rng)
    counts = count_parameters(model)
    print(f"method:   {args.method}")
    print(f"backbone: {args.backbone}")
    print(
        f"params:   total={counts.total:,}  trainable={counts.trainable:,} "
        f"({100 * counts.trainable_fraction:.2f}%)"
    )
    backbone = getattr(model, "backbone", model)
    rows = adapter_parameter_table(backbone)
    if rows:
        print()
        print(format_table(rows))
    return 0


def _compile(args: argparse.Namespace) -> int:
    from repro.serve import compile_features

    config = PAPER if args.backbone == "resnet" else PAPER_MIXER
    rng = new_rng(args.seed)
    state = build_backbone(config, rng).state_dict()
    model = build_adapted_model(args.method, config, state, rng)
    program = compile_features(model, precision=args.precision)
    # One dummy batch resolves every step's output dtype/shape so the
    # listing shows what each kernel actually produces under this tier.
    program.run(
        np.zeros((1, 3, config.image_size, config.image_size), dtype=np.float32)
    )
    print(f"method:    {args.method}")
    print(f"backbone:  {args.backbone}")
    print(f"precision: {program.precision}")
    print(f"steps:     {len(program)}")
    print(f"rows per block: {program.block_rows}")
    if args.describe:
        print()
        for line in program.describe():
            print(line)
    return 0


def _figures(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(0)
    from repro.autograd import Tensor, conv2d
    from repro.tensornet import (
        conv1d_direct,
        conv1d_via_dummy,
        conv2d_via_dummy,
    )

    print("Fig. 2 — dummy-tensor convolution identity:")
    worst = 0.0
    for stride, padding in [(1, 0), (1, 1), (2, 1), (3, 2)]:
        signal, kernel = rng.normal(size=15), rng.normal(size=4)
        gap = np.abs(
            conv1d_via_dummy(signal, kernel, stride, padding)
            - conv1d_direct(signal, kernel, stride, padding)
        ).max()
        worst = max(worst, float(gap))
    print(f"  1-D worst gap over sweep: {worst:.2e}")
    x = rng.normal(size=(2, 3, 10, 10))
    w = rng.normal(size=(3, 3, 3, 4))
    ours = conv2d(Tensor(x.astype(np.float64)), Tensor(w.astype(np.float64)), padding=1).data
    gap = np.abs(ours - conv2d_via_dummy(x, w, 1, 1)).max()
    print(f"  2-D gap (stride 1, pad 1):  {gap:.2e}")

    print("\nFig. 3 — Conv-LoRA factorization identity:")
    from repro.nn import Conv2d
    from repro.peft import ConvLoRA

    base = Conv2d(4, 8, 3, padding=1, rng=rng)
    adapter = ConvLoRA(base, rank=2, rng=rng)
    adapter.lora_b.data[...] = rng.normal(size=adapter.lora_b.shape).astype(np.float32)
    xin = Tensor(rng.normal(size=(2, 4, 8, 8)).astype(np.float32))
    factored = adapter(xin).data
    delta = Tensor(adapter.delta_weight().astype(np.float32))
    materialized = base(xin).data + conv2d(xin, delta, padding=1).data
    print(f"  gap: {np.abs(factored - materialized).max():.2e}")
    print(
        f"  params: adapter={adapter.extra_parameter_count()} vs "
        f"full ΔW={3 * 3 * 4 * 8}"
    )
    return 0


def _trace(args: argparse.Namespace) -> int:
    from repro.obs import render_trace_target

    print(render_trace_target(args.target, max_depth=args.depth, top=args.top))
    return 0


def _report(args: argparse.Namespace) -> int:
    import glob
    import os

    from repro.eval.protocol import METHOD_LABELS
    from repro.eval.reporting import load_record, render_markdown

    paths = sorted(glob.glob(os.path.join(args.results_dir, "table1_*.json")))
    if not paths:
        print(f"no table1_*.json records under {args.results_dir!r}; "
              "run the Table I bench first")
        return 1
    for path in paths:
        record = load_record(path)
        print(f"## Table I — {record.backbone} (seeds {record.seeds})\n")
        print(render_markdown(record, METHOD_LABELS))
        if record.significance:
            baselines = [m for m in record.accuracy if not m.startswith("meta")]
            print("\nt-test p-values vs best static baseline "
                  "(* = significantly better):")
            for method, per_k in record.significance.items():
                cells = []
                for k, p in sorted(per_k.items(), key=lambda kv: int(kv[0])):
                    best = max(baselines, key=lambda m: record.accuracy[m][k])
                    better = record.accuracy[method][k] > record.accuracy[best][k]
                    star = "*" if (p < 0.05 and better) else ""
                    cells.append(f"K={k}: {p:.3f}{star}")
                print(f"  {METHOD_LABELS.get(method, method)}: {', '.join(cells)}")
        print()
    return 0


def _bench(args: argparse.Namespace) -> int:
    if args.repeats < 1:
        print(f"repro bench: error: --repeats must be >= 1, got {args.repeats}")
        return 2
    from repro.bench import format_bench_record, run_bench_suites, write_bench_record

    for record in run_bench_suites((args.suite,), args.scale, args.repeats, args.jobs):
        print(format_bench_record(record))
        if args.out:
            print(f"wrote {write_bench_record(args.out, record)}")
        print()
    return 0


def _serve(args: argparse.Namespace) -> int:
    import time

    from repro.bench import _SERVE_SCALES, _multi_tenant_models, build_shard_tenant
    from repro.serve import (
        MultiTenantEngine,
        ServeClient,
        ServeRequest,
        ServingFrontend,
        ShardedEngine,
    )

    if args.tenants < 3:
        print(f"repro serve: error: --tenants must be >= 3, got {args.tenants}")
        return 2
    if args.shards < 1:
        print(f"repro serve: error: --shards must be >= 1, got {args.shards}")
        return 2
    static, metas = _multi_tenant_models(args.tenants)
    names = ["static"] + [f"meta_{index}" for index in range(len(metas))]
    engine = MultiTenantEngine()
    sharded = None
    frontend = None
    try:
        for name, source in zip(names, [static, *metas]):
            engine.register(name, source)
        if args.shards > 1:
            # The in-process engine stays as the selftest reference; the
            # fleet serves from worker processes behind the same frontend.
            sharded = ShardedEngine(
                args.shards,
                queue_limit=args.queue_limit,
                target_batch_seconds=args.target_batch_ms / 1000.0,
            )
            for name, source in zip(names, [static, *metas]):
                kind = "static" if name == "static" else "meta"
                index = 0 if name == "static" else int(name.rsplit("_", 1)[1])
                sharded.register(
                    name, source, builder=build_shard_tenant, args=(kind, index)
                )
            frontend = ServingFrontend(
                scheduler=sharded, host=args.host, port=args.port
            )
        else:
            frontend = ServingFrontend(
                engine,
                host=args.host,
                port=args.port,
                queue_limit=args.queue_limit,
                target_batch_seconds=args.target_batch_ms / 1000.0,
            )
        host, port = frontend.start_in_thread()
        topology = (
            f"{args.shards} shard processes ({sharded.start_method})"
            if sharded is not None
            else "in-process engine"
        )
        print(
            f"serving {len(names)} tenant(s) [{', '.join(names)}] on "
            f"{host}:{port} via {topology}"
        )
        if args.selftest:
            # One round trip per tenant over a real socket, each asserted
            # bit-identical to direct in-process dispatch.
            image = _SERVE_SCALES[args.scale]["image"]
            rng = np.random.default_rng(0)
            with ServeClient(host, port) as client:
                if not client.ping():
                    print("repro serve: selftest: ping failed")
                    return 1
                for name in names:
                    sample = rng.normal(size=(3, image, image)).astype(np.float32)
                    wire = client.serve(sample, adapter=name).require()
                    direct = engine.serve(
                        ServeRequest(sample=sample, adapter=name)
                    ).require()
                    if not np.array_equal(wire, direct):
                        print(f"repro serve: selftest: tenant {name!r} diverged")
                        return 1
                depth = client.stats().get("serve.queue.depth")
                print(
                    f"selftest ok: {len(names)} tenant(s) bit-identical over "
                    f"the wire; queue-depth samples: "
                    f"{depth['calls'] if depth else 0}"
                )
            return 0
        print("press Ctrl-C to drain and stop")
        try:
            while True:
                time.sleep(1.0)
        except KeyboardInterrupt:
            print("\ndraining ...")
        return 0
    finally:
        if frontend is not None:
            frontend.stop_in_thread()  # also drains a sharded scheduler
        elif sharded is not None:
            sharded.close()
        engine.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MetaLoRA reproduction — regenerate the paper's artifacts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared flag groups.  Each is defined exactly once here and inherited
    # via ``parents=`` by every subcommand that takes it, so name, type,
    # default and help text cannot drift between subcommands.
    backbone_flags = argparse.ArgumentParser(add_help=False)
    backbone_flags.add_argument(
        "--backbone", choices=("resnet", "mixer"), default="resnet"
    )

    jobs_flags = argparse.ArgumentParser(add_help=False)
    jobs_flags.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the (method, seed) grid; results are "
        "bit-identical to --jobs 1 (default: 1, serial)",
    )

    fault_flags = argparse.ArgumentParser(add_help=False)
    fault_flags.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="re-run a failed cell up to this many times with exponential "
        "backoff before reporting it failed (default: 0)",
    )
    fault_flags.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="soft wall-clock budget per cell; a stalled cell is killed and "
        "counts as failed (default: no limit)",
    )

    run_flags = argparse.ArgumentParser(add_help=False)
    run_flags.add_argument("--seeds", type=int, nargs="+", default=[0])
    run_flags.add_argument(
        "--smoke",
        action="store_true",
        help="test-suite scale (seconds); for CI smoke runs, not paper numbers",
    )
    run_flags.add_argument(
        "--out-dir",
        default=None,
        metavar="DIR",
        help="run directory: checkpoint each completed cell so a killed run "
        "can be picked up with --resume",
    )
    run_flags.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume a previous --out-dir run: re-run only the missing "
        "cells; results are bit-identical to an uninterrupted run",
    )

    table1 = sub.add_parser(
        "table1",
        help="regenerate Table I",
        parents=[backbone_flags, jobs_flags, fault_flags, run_flags],
    )
    table1.add_argument(
        "--quick", action="store_true", help="reduced scale (~2 min instead of ~7/seed)"
    )
    table1.set_defaults(func=_table1)

    robustness = sub.add_parser(
        "robustness",
        help="run the robustness-under-shift grid "
        "(methods x corruptions x severities)",
        parents=[backbone_flags, jobs_flags, fault_flags, run_flags],
    )
    robustness.add_argument(
        "--corruptions",
        nargs="+",
        default=None,
        metavar="NAME",
        help="corruption families to evaluate (default: the full catalog; "
        "see docs/robustness.md)",
    )
    robustness.add_argument(
        "--severities",
        type=int,
        nargs="+",
        default=None,
        help="severity rungs in 0..5; 0 is the clean (Table I) pin "
        "(default: 0 1 3 5)",
    )
    robustness.set_defaults(func=_robustness)

    inspect = sub.add_parser(
        "inspect", help="show a method's adapter layout", parents=[backbone_flags]
    )
    inspect.add_argument("--method", choices=METHODS, default="meta_lora_tr")
    inspect.add_argument("--seed", type=int, default=0)
    inspect.set_defaults(func=_inspect)

    compile_cmd = sub.add_parser(
        "compile",
        help="compile a method's features() program and show the step listing",
        parents=[backbone_flags],
    )
    compile_cmd.add_argument("--method", choices=METHODS, default="meta_lora_tr")
    compile_cmd.add_argument("--seed", type=int, default=0)
    compile_cmd.add_argument(
        "--precision",
        choices=("f64", "f32"),
        default=None,
        help="precision tier (default: REPRO_SERVE_PRECISION, else f64)",
    )
    compile_cmd.add_argument(
        "--describe",
        action="store_true",
        help="print the full per-step listing with resolved output "
        "dtypes/shapes (after one dummy batch)",
    )
    compile_cmd.set_defaults(func=_compile)

    figures = sub.add_parser("figures", help="run the Figure 2/3 numerical checks")
    figures.set_defaults(func=_figures)

    trace = sub.add_parser(
        "trace",
        help="render a run directory's trace.jsonl as a span-tree report",
    )
    trace.add_argument(
        "target",
        help="run directory (from table1 --out-dir) or a trace.jsonl path",
    )
    trace.add_argument(
        "--depth",
        type=int,
        default=4,
        help="span-tree levels to show before eliding (default: 4)",
    )
    trace.add_argument(
        "--top",
        type=int,
        default=8,
        help="how many slowest spans to list (default: 8)",
    )
    trace.set_defaults(func=_trace)

    report = sub.add_parser(
        "report", help="render saved results/ records as markdown tables"
    )
    report.add_argument("--results-dir", default="results")
    report.set_defaults(func=_report)

    bench = sub.add_parser(
        "bench",
        help="run the in-process bit-identity and accuracy pins (BENCH_*.json)",
        parents=[jobs_flags],
    )
    bench.add_argument(
        "--out",
        default=None,
        help="directory for the BENCH_<suite>.json records (omit to just print)",
    )
    bench.add_argument("--scale", choices=("tiny", "small"), default="tiny")
    bench.add_argument("--repeats", type=int, default=3)
    bench.add_argument(
        "--suite",
        choices=("serve", "robustness"),
        default="serve",
        help="the bench suite to run; robustness (the full shift grid with "
        "its bit-identity pins, --jobs workers) is opt-in (default: serve)",
    )
    bench.set_defaults(func=_bench)

    serve = sub.add_parser(
        "serve",
        help="run the TCP serving frontend over a demo multi-tenant fleet",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port to bind (default: 0, an ephemeral port printed at start)",
    )
    serve.add_argument(
        "--tenants",
        type=int,
        default=3,
        help="demo fleet size: 1 static + N-1 MetaLoRA tenants (>= 3; default: 3)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="admission bound; arrivals past it are answered 'rejected' "
        "(default: 256)",
    )
    serve.add_argument(
        "--target-batch-ms",
        type=float,
        default=25.0,
        help="cost budget one micro-batch aims for (default: 25)",
    )
    serve.add_argument("--scale", choices=("tiny", "small"), default="tiny")
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="serve the fleet from N worker processes behind the frontend "
        "(1 = in-process engine, no workers; default: 1)",
    )
    serve.add_argument(
        "--selftest",
        action="store_true",
        help="serve one request per tenant over the wire, assert "
        "bit-identity against direct dispatch, and exit",
    )
    serve.set_defaults(func=_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
