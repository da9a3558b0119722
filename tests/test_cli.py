"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.backbone == "resnet"
        assert args.seeds == [0]
        assert not args.quick

    def test_table1_options(self):
        args = build_parser().parse_args(
            ["table1", "--backbone", "mixer", "--seeds", "0", "1", "--quick"]
        )
        assert args.backbone == "mixer"
        assert args.seeds == [0, 1]
        assert args.quick

    def test_table1_fault_tolerance_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.out_dir is None
        assert args.resume is None
        assert args.max_retries == 0
        assert args.cell_timeout is None

    def test_table1_rundir_flags(self):
        args = build_parser().parse_args(
            [
                "table1", "--out-dir", "runs/t1", "--max-retries", "2",
                "--cell-timeout", "30.5",
            ]
        )
        assert args.out_dir == "runs/t1"
        assert args.max_retries == 2
        assert args.cell_timeout == 30.5

    def test_shared_jobs_flag_consistent_across_subcommands(self):
        # --jobs comes from one parent parser, so its default cannot drift.
        table1 = build_parser().parse_args(["table1"])
        bench = build_parser().parse_args(["bench"])
        assert table1.jobs == bench.jobs == 1

    def test_robustness_defaults(self):
        args = build_parser().parse_args(["robustness"])
        assert args.backbone == "resnet"
        assert args.seeds == [0]
        assert args.corruptions is None  # None = the full catalog
        assert args.severities is None  # None = the config default ladder
        assert not args.smoke
        assert args.out_dir is None and args.resume is None

    def test_robustness_options(self):
        args = build_parser().parse_args(
            [
                "robustness", "--smoke", "--seeds", "0", "1",
                "--corruptions", "contrast", "occlusion",
                "--severities", "0", "3", "--jobs", "2",
            ]
        )
        assert args.smoke
        assert args.seeds == [0, 1]
        assert args.corruptions == ["contrast", "occlusion"]
        assert args.severities == [0, 3]
        assert args.jobs == 2

    def test_shared_run_flags_consistent_across_subcommands(self):
        # --smoke/--out-dir/--resume live on one parent parser: both grid
        # subcommands parse them identically.
        for command in ("table1", "robustness"):
            args = build_parser().parse_args(
                [command, "--smoke", "--out-dir", "runs/x"]
            )
            assert args.smoke and args.out_dir == "runs/x"
            resumed = build_parser().parse_args([command, "--resume", "runs/x"])
            assert resumed.resume == "runs/x"

    def test_shared_backbone_flag_consistent_across_subcommands(self):
        table1 = build_parser().parse_args(["table1", "--backbone", "mixer"])
        inspect = build_parser().parse_args(["inspect", "--backbone", "mixer"])
        assert table1.backbone == inspect.backbone == "mixer"

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "runs/t1"])
        assert args.target == "runs/t1"
        assert args.depth == 4
        assert args.top == 8

    def test_inspect_defaults(self):
        args = build_parser().parse_args(["inspect"])
        assert args.method == "meta_lora_tr"

    def test_invalid_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["inspect", "--method", "qlora"])

    def test_compile_defaults(self):
        args = build_parser().parse_args(["compile"])
        assert args.method == "meta_lora_tr"
        assert args.precision is None  # resolved env-aware at compile time
        assert args.describe is False

    def test_compile_rejects_unknown_precision(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["compile", "--precision", "f16"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_figures_runs(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 2" in out
        assert "Fig. 3" in out

    def test_inspect_runs(self, capsys):
        assert main(["inspect", "--method", "lora"]) == 0
        out = capsys.readouterr().out
        assert "trainable" in out
        assert "LoRALinear" in out

    def test_inspect_original_has_no_adapters(self, capsys):
        assert main(["inspect", "--method", "original"]) == 0
        out = capsys.readouterr().out
        assert "trainable=0" in out

    def test_compile_describe_lists_steps(self, capsys):
        assert main(
            ["compile", "--method", "lora", "--precision", "f32", "--describe"]
        ) == 0
        out = capsys.readouterr().out
        assert "precision: f32" in out
        assert re.search(r"^steps:\s+\d+$", out, re.M)
        assert re.search(r"^rows per block: \d+$", out, re.M)
        assert "fusion" not in out
        # The listing resolved per-step output dtypes from the dummy run.
        assert "float32(" in out
        assert "0: %" in out

    def test_report_renders_saved_records(self, capsys, tmp_path):
        from repro.eval.protocol import Table1Row
        from repro.eval.reporting import record_from_rows, save_record

        rows = {
            "lora": Table1Row("lora", {5: 0.8, 10: 0.7}),
            "meta_lora_tr": Table1Row("meta_lora_tr", {5: 0.9, 10: 0.8}),
        }
        record = record_from_rows("resnet", [0], [rows], ks=(5, 10))
        save_record(record, tmp_path)
        assert main(["report", "--results-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table I — resnet" in out
        assert "| Meta-LoRA TR | 90.00 | 80.00 |" in out

    def test_report_empty_dir_fails_gracefully(self, capsys, tmp_path):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1

    def test_table1_command_drives_protocol(self, capsys, monkeypatch):
        from repro.eval.protocol import Table1Row
        import repro.cli as cli

        def fake_run(config, seed):
            return {
                m: Table1Row(m, {k: 0.5 for k in config.ks})
                for m in config.methods
            }

        monkeypatch.setattr(cli, "run_table1", fake_run)
        assert main(["table1", "--seeds", "0", "1", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "Backbone: resnet" in out
        assert "significance" in out

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_table1_rejects_bad_jobs(self, capsys, jobs):
        assert main(["table1", "--jobs", jobs]) == 2
        err = capsys.readouterr().err
        assert "jobs must be >= 1" in err

    def test_trace_renders_exported_spans(self, capsys, tmp_path):
        from repro.obs import Tracer, write_trace

        tracer = Tracer(enabled=True)
        with tracer.span("table1.grid", jobs=2):
            with tracer.span("table1.cell", key="(0, 'lora')"):
                pass
        write_trace(tmp_path / "trace.jsonl", tracer.drain())
        assert main(["trace", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "table1.grid" in out
        assert "table1.cell" in out

    def test_trace_without_export_fails_gracefully(self, capsys, tmp_path):
        assert main(["trace", str(tmp_path)]) == 2
        assert "--out-dir" in capsys.readouterr().err

    def test_table1_partial_report_on_failures(self, capsys, monkeypatch):
        import repro.runtime as runtime
        from repro.eval.protocol import Table1Row
        from repro.runtime.pool import CellFailure, CellResult
        from repro.runtime.table1 import Table1GridResult

        def fake_grid(config, seeds, **kwargs):
            assert kwargs["strict"] is False
            rows = {
                m: Table1Row(m, {k: 0.5 for k in config.ks})
                for m in config.methods
                if m != "meta_lora_tr"
            }
            failed = CellResult(
                key=(0, "meta_lora_tr"),
                value=None,
                failure=CellFailure(
                    key=(0, "meta_lora_tr"),
                    error_type="FaultInjected",
                    message="boom",
                    traceback="",
                ),
            )
            return Table1GridResult(
                config=config,
                seeds=tuple(seeds),
                rows_by_seed=[rows],
                cell_results=[failed],
            )

        monkeypatch.setattr(runtime, "run_table1_grid", fake_grid)
        assert main(["table1", "--max-retries", "1"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "partial results" in out
        assert "1 cell(s) failed" in out

    def test_robustness_command_drives_grid(self, capsys, monkeypatch):
        import itertools

        import repro.runtime as runtime
        from repro.eval.robustness import RobustnessCell
        from repro.runtime.robustness import RobustnessGridResult

        def fake_grid(config, seeds, **kwargs):
            assert kwargs["strict"] is False
            cells = {
                (seed, method, corruption, severity): RobustnessCell(
                    method=method,
                    corruption=corruption,
                    severity=severity,
                    accuracy_by_k={k: 0.5 for k in config.table1.ks},
                )
                for seed, method, corruption, severity in itertools.product(
                    seeds,
                    config.table1.methods,
                    config.corruptions,
                    config.severities,
                )
            }
            return RobustnessGridResult(
                config=config, seeds=tuple(seeds), cells=cells
            )

        monkeypatch.setattr(runtime, "run_robustness_grid", fake_grid)
        assert main(
            ["robustness", "--smoke", "--corruptions", "contrast",
             "--severities", "0", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "running 10 cells" in out  # 1 seed x 5 methods x 1 x 2
        assert "contrast:" in out
        assert "slope" in out

    def test_robustness_partial_report_on_failures(self, capsys, monkeypatch):
        import repro.runtime as runtime
        from repro.runtime.pool import CellFailure, CellResult
        from repro.runtime.robustness import RobustnessGridResult

        def fake_grid(config, seeds, **kwargs):
            key = (0, "lora", "contrast", 3)
            failed = CellResult(
                key=key,
                value=None,
                failure=CellFailure(
                    key=key,
                    error_type="FaultInjected",
                    message="boom",
                    traceback="",
                ),
            )
            return RobustnessGridResult(
                config=config,
                seeds=tuple(seeds),
                cells={},
                cell_results=[failed],
            )

        monkeypatch.setattr(runtime, "run_robustness_grid", fake_grid)
        assert main(
            ["robustness", "--smoke", "--out-dir", "runs/rob"]
        ) == 1
        out = capsys.readouterr().out
        assert "partial results" in out
        assert "1 cell(s) failed" in out
        assert "--resume runs/rob" in out
