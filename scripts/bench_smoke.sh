#!/usr/bin/env sh
# CI smoke for the performance harness: run the bench_smoke-marked tests
# (schema round-trip), then produce real BENCH_*.json records at tiny scale,
# then exercise the durable-run loop: a fault-injected partial Table I run
# into a run directory, resumed to completion.
#
# Usage: scripts/bench_smoke.sh [out_dir]   (out_dir defaults to bench_out,
# so the committed BENCH_*.json records at the repo root stay untouched)
set -eu

cd "$(dirname "$0")/.."
out_dir="${1:-bench_out}"

PYTHONPATH=src python -m pytest tests/bench -m bench_smoke -q
# The default run is the serve suite, which asserts compiled-vs-reference
# bit-exactness in-process, so BENCH_serve.json existing at all means the
# compiled engine matched exactly.
PYTHONPATH=src python -m repro bench --out "$out_dir" --scale tiny --repeats 2
test -f "$out_dir/BENCH_serve.json" || { echo "bench_smoke: missing BENCH_serve.json" >&2; exit 1; }

# The precision matrix must be present and validated: every tier covered
# on both backbones, f64 rows bit-exact, KNN accuracy within budget
# (asserted in-process while the bench runs; the record carries the pin).
PYTHONPATH=src python - "$out_dir/BENCH_serve.json" <<'PYEOF'
import json, sys

from repro.bench import validate_bench_record

with open(sys.argv[1], encoding="utf-8") as handle:
    record = json.load(handle)
validate_bench_record(record)
precision = record["precision"]
names = [backbone["name"] for backbone in precision["backbones"]]
assert names == ["resnet", "mixer"], names
for backbone in precision["backbones"]:
    assert backbone["f64_bit_identical"] is True
    tiers = {row["precision"] for row in backbone["rows"]}
    assert tiers == {"f64", "f32"}, tiers
print(
    "bench_smoke: precision matrix ok "
    f"(best f32 speedup {precision['best_speedup_vs_f64']:.2f}x vs f64)"
)
PYEOF

# Robustness smoke: the opt-in corruption-shift matrix at its smallest
# headline-capable size (2 methods x 1 corruption x 2 severities).  The
# bench asserts its three bit-identity pins in-process — severity-0 ==
# clean Table I, parallel == serial, resumed == serial — so the record
# existing at all means they held; re-validate the schema round-trip.
PYTHONPATH=src python - "$out_dir/BENCH_robustness.json" <<'PYEOF'
import json, sys

from repro.bench import run_robustness_bench, validate_bench_record

record = run_robustness_bench(
    scale="tiny",
    repeats=1,
    jobs=2,
    methods=("lora", "meta_lora_cp"),
    corruptions=("contrast",),
    severities=(0, 3),
)
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    json.dump(record, handle, indent=2, sort_keys=True)
    handle.write("\n")
with open(sys.argv[1], encoding="utf-8") as handle:
    loaded = json.load(handle)
validate_bench_record(loaded)
assert loaded["severity0_bit_identical"] is True
assert loaded["parallel"]["cells_equal"] is True
assert loaded["resume"]["cells_equal"] is True
print(
    "bench_smoke: robustness ok "
    f"({len(loaded['cells'])} cells, headline delta "
    f"{loaded['headline']['corrupted_delta']:+.4f}, "
    f"{loaded['resume']['restored_cells']} cell(s) restored on resume)"
)
PYEOF
test -f "$out_dir/BENCH_robustness.json" || { echo "bench_smoke: missing BENCH_robustness.json" >&2; exit 1; }

# Durable-run smoke: inject a crash into one cell so the first run exits 1
# with a partial report and a checkpointed run dir, then resume it clean.
run_dir="$out_dir/table1_smoke_run"
rm -rf "$run_dir"
if REPRO_FAULTS="crash:0/meta_lora_tr" PYTHONPATH=src \
    python -m repro table1 --smoke --out-dir "$run_dir"; then
  echo "bench_smoke: expected the fault-injected run to exit nonzero" >&2
  exit 1
fi
# Resume re-runs only the crashed cell and must succeed.
PYTHONPATH=src python -m repro table1 --smoke --resume "$run_dir"

# Observability: both the crashed and the resumed grid export spans into
# the run directory's trace.jsonl (appended, one trace tag per export).
# Assert the file exists, parses, and renders cell spans.
test -f "$run_dir/trace.jsonl" || { echo "bench_smoke: missing trace.jsonl" >&2; exit 1; }
trace_report="$(PYTHONPATH=src python -m repro trace "$run_dir")"
case "$trace_report" in
  *table1.cell*) ;;
  *) echo "bench_smoke: trace report has no cell spans" >&2; exit 1 ;;
esac
rm -rf "$run_dir"
