"""perfbench: serving, bulk embedding and the Table I grid, end to end and per layer.

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0|1

Runs one workload for ``T`` seconds on inputs drawn from seed ``S``,
checks the program's outputs, and prints as its last line one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run is repeated with spans recorded at each
layer's boundary and the metrics are the per-layer ones.  The exit code
is nonzero when any output was wrong.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
# One BLAS thread in this process and in every child.  The arrays are
# small, so a second thread buys nothing, and on two CPUs shared with the
# load generator and a server it makes every timing depend on the
# scheduler.  Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

import loadgen  # noqa: E402
from common import percentile, tail  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from layers import frontend_metrics, serving_metrics, stats_metrics  # noqa: E402
from spans import load as load_spans  # noqa: E402

#: Children started per run to time set-up; the last one runs the workload.
SETUPS = 3
#: Timed segments of a serving run, with the host's speed probed between
#: them while no request is in flight.  A segment's rate still moves by
#: 10-20% from one to the next; the run reports the median over segments.
SEGMENTS = 10
#: Where the timed work runs: one CPU for the server, the in-process
#: workloads' child and, but on serve_saturated, the load generator (this
#: process).  Its speed and its steal time scale every time
#: (hostspeed.py), and no serve_light request waits for a second vCPU to
#: wake through the host.  serve_saturated's server never runs out of
#: queued requests, so its CPU never halts; there a load generator on the
#: other CPU keeps every batch full (README finding 6).  A traced
#: table1_grid run also times jobs=2, so its child may use every CPU.
ALL_CPUS = os.sched_getaffinity(0)
WORK_CPUS = {max(ALL_CPUS)}
LOAD_CPUS = {"serve_saturated": (ALL_CPUS - WORK_CPUS) or WORK_CPUS}
#: Distinct samples per tenant on the serving workloads.
POOL = 64
#: Requests in flight (closed loop).  Four keep batches at 1-4 requests
#: and the server busy most of the time (an open loop at a low rate let
#: it idle, and measured the host's wake-ups; README finding 5); 64 fill
#: batches and stay below the 256-request admission limit.
INFLIGHT = {"serve_light": 4, "serve_saturated": 64}
#: Untimed warm-up seconds before the first segment, and untimed ramp-up
#: seconds before each later one.
WARMUP, RAMP = 2.0, 0.3
#: Answered rows per tenant checked against autograd embeddings.
CHECKED_ROWS = 256
#: Tolerance of that check: the mapping net's float64 GEMMs round
#: differently for different batch sizes, so rows agree to ulps, not bits.
RTOL, ATOL = 1e-9, 1e-12
#: Seconds a child may take to become ready, and to finish its work.
READY_TIMEOUT, WORK_TIMEOUT = 120.0, 150.0


class ChildError(RuntimeError):
    """A child process failed, hung, or said something unexpected."""


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


class Child:
    """A child process whose stdout lines are read on a helper thread."""

    def __init__(self, argv: list[str], cpus: set[int], stdin: bool = False) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.PIPE if stdin else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        # Before the interpreter has started a thread; threads inherit it.
        os.sched_setaffinity(self.proc.pid, cpus)
        self.lines: queue.Queue[str | None] = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def expect(self, prefix: str, timeout: float) -> str:
        """The first stdout line starting with ``prefix``."""
        deadline = time.perf_counter() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(deadline - time.perf_counter(), 0.0))
            except queue.Empty:
                raise ChildError(f"no {prefix!r} line within {timeout:.0f} s") from None
            if line is None:
                raise ChildError(f"child exited ({self.proc.wait()}) before {prefix!r}")
            if line.startswith(prefix):
                return line

    def tell(self, line: str) -> None:
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()

    def stop(self, sig: int = signal.SIGINT, timeout: float = 30.0) -> None:
        """Ask the child to end, wait, and kill it if it will not.

        A worker is asked by closing its stdin, a server by ``sig``:
        SIGINT is its drain-and-stop signal.
        """
        if self.proc.stdin is not None:
            self.proc.stdin.close()
        elif self.proc.poll() is None:
            self.proc.send_signal(sig)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout)


def fmt(values: list[float]) -> str:
    return " ".join(f"{value:.4g}" for value in values)


def latency_metrics(name: str, unit: str, values_ms: list[float]) -> dict[str, float]:
    """``p50_ms``; p90 and the sparse tail are printed, not gated.

    Tail times follow the host's steal bursts, not the program: on a
    shared 2-CPU host even p90 moved by up to 0.3 between runs after
    scaling, more than any bound a gate could use.
    """
    value, label = tail(values_ms)
    p50, p90 = statistics.median(values_ms), percentile(values_ms, 90.0)
    print(
        f"{name}: {len(values_ms)} timed {unit} ({fmt(values_ms)} ms); p50 "
        f"{p50:.4g} ms, p90 {p90:.4g} ms, {label} {value:.4g} ms"
    )
    return {"p50_ms": p50}


def print_speed(name: str, slowness: list[float]) -> None:
    """The host slowness every time of this run was divided by."""
    print(
        f"{name}: host slowness {min(slowness):.3f}-{max(slowness):.3f}, median "
        f"{statistics.median(slowness):.3f}, over {len(slowness)} segments "
        "(1 = the reference host; see hostspeed.py)"
    )


# -- serving workloads ---------------------------------------------------------


class Server(Child):
    """``repro serve`` (or its traced twin), ready once a ping is answered."""

    def __init__(self, tenants: int, spans_path: str | None = None) -> None:
        cli = ["serve", "--tenants", str(tenants)]
        if spans_path is None:
            argv = [sys.executable, "-m", "repro", *cli]
        else:
            argv = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path, *cli]
        super().__init__(argv, WORK_CPUS)
        try:
            line = self.expect("serving ", READY_TIMEOUT)
            host, port = line.split(" on ", 1)[1].split(" ", 1)[0].rsplit(":", 1)
            self.host, self.port = host, int(port)
            from repro.serve import ServeClient

            with ServeClient(self.host, self.port) as client:
                if not client.ping():
                    raise ChildError("server did not answer ping")
            self.setup_s = time.perf_counter() - self.started
        except BaseException:
            self.stop()
            raise

    def stats(self) -> dict:
        from repro.serve import ServeClient

        with ServeClient(self.host, self.port) as client:
            return client.stats()

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ChildError("no VmHWM in the server's /proc status")


def tenant_names(tenants: int) -> list[str]:
    return ["static"] + [f"meta_{index}" for index in range(tenants - 1)]


def reference_rows(tenants: int, pools: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every pool sample embedded by the demo fleet's autograd models.

    The served path is compiled; this one is not, so the check covers
    the kernels as well as the wire, the queue and the batching.
    """
    from repro.bench import _multi_tenant_models
    from repro.eval.embeddings import extract_embeddings

    static, metas = _multi_tenant_models(tenants)
    models = [static.serving_model(merge=True), *metas]
    return {
        name: extract_embeddings(model, pools[name])
        for name, model in zip(tenant_names(tenants), models)
    }


def wrong_rows(report: loadgen.LoadReport, reference: dict[str, np.ndarray]) -> int:
    """Kept ``ok`` rows that differ from the reference rows."""
    from repro.serve.codec import decode_payload

    wrong = 0
    for outcome in report.outcomes:
        if outcome.payload is None:
            continue
        row = decode_payload(outcome.payload)
        expected = reference[outcome.tenant][outcome.index]
        wrong += not (
            row.shape == expected.shape
            and np.allclose(row, expected, rtol=RTOL, atol=ATOL)
        )
    return wrong


class ServeWorkload:
    """Load from this process against ``repro serve`` in a child."""

    def __init__(self, name: str, tenants: int, seed: int) -> None:
        from repro.serve.codec import encode_payload

        self.name, self.tenants, self.seed = name, tenants, seed
        self.names = tenant_names(tenants)
        rng = np.random.default_rng([seed, 0])
        self.pools = {
            name: rng.normal(size=(POOL, 3, 16, 16)).astype(np.float32)
            for name in self.names
        }
        self.payloads = {
            name: [encode_payload(sample) for sample in pool]
            for name, pool in self.pools.items()
        }
        self.part = 0

    def drive(
        self, server: Server, seconds: float, warmup: float = WARMUP
    ) -> loadgen.LoadReport:
        rng = np.random.default_rng([self.seed, 1, self.part])
        self.part += 1

        def draw() -> tuple[str, int]:
            return self.names[int(rng.integers(len(self.names)))], int(rng.integers(POOL))

        load = loadgen.closed_loop(
            server.host,
            server.port,
            draw,
            self.payloads,
            inflight=INFLIGHT[self.name],
            warmup=warmup,
            duration=seconds,
            keep_rows=CHECKED_ROWS,
        )
        return asyncio.run(load)

    @staticmethod
    def timed(report: loadgen.LoadReport) -> tuple[list[float], float]:
        """Latencies (s) of the ``ok`` requests answered in the timed window,
        and the window's seconds."""
        start, end = report.window
        ok = [o for o in report.ok() if start <= o.done <= end]
        return [o.latency for o in ok], end - start

    def metrics(self, parts: list[tuple[loadgen.LoadReport, float]]) -> dict[str, float]:
        """Latency and rate: each the median over ``(report, slowness)`` segments.

        A segment's latencies and window are divided by its slowness.  The
        median over segments leaves out one whose probes caught a spike
        the work between them did not see, or the other way round.
        """
        per_segment, pooled = [], []
        for report, slowness in parts:
            times, window = self.timed(report)
            latencies = [t * 1e3 / slowness for t in times]
            pooled += latencies
            per_segment.append(
                (
                    statistics.median(latencies),
                    percentile(latencies, 90.0),
                    len(times) / (window / slowness),
                )
            )
        p50s, p90s, rates = zip(*per_segment)
        value, label = tail(pooled)
        print(
            f"{self.name}: {len(pooled)} timed requests, {label} {value:.4g} ms; per "
            f"segment p50 {fmt(p50s)} ms, p90 {fmt(p90s)} ms, rate {fmt(rates)} /s"
        )
        return {"p50_ms": statistics.median(p50s), "rate_per_s": statistics.median(rates)}

    def run(self, seconds: float, trace: bool) -> dict:
        reference = reference_rows(self.tenants, self.pools)
        out: dict = {"attempted": 0, "failed": 0, "problems": []}

        def account(report: loadgen.LoadReport) -> None:
            wrong = wrong_rows(report, reference)
            not_ok = Counter(str(o.status) for o in report.outcomes if o.status != "ok")
            out["attempted"] += len(report.outcomes)
            out["failed"] += wrong + sum(not_ok.values())
            if wrong:
                out["problems"].append(f"{wrong} served row(s) differ from autograd extract_embeddings")
            if not_ok:
                print(f"{self.name}: requests not answered ok: {dict(not_ok)}")

        if not trace:
            speed = HostSpeed(WORK_CPUS)
            setups = []
            for attempt in range(SETUPS):
                server = Server(self.tenants)
                setups.append(server.setup_s / speed.segment())
                if attempt < SETUPS - 1:
                    # Nothing is in flight to drain.  SIGINT could land
                    # before the CLI starts waiting for it and end the
                    # server with a traceback.
                    server.stop(signal.SIGTERM)
            parts = []
            try:
                for part in range(SEGMENTS):
                    warmup = WARMUP if part == 0 else RAMP
                    report = self.drive(server, seconds / SEGMENTS, warmup)
                    parts.append((report, speed.segment()))
                rss = server.peak_rss_mb()
            finally:
                server.stop()
            for report, __ in parts:
                account(report)
            print_speed(self.name, speed.slowness)
            out["metrics"] = {
                "setup_s": statistics.median(setups),
                **self.metrics(parts),
                "peak_rss_mb": rss,
            }
            return out

        server = Server(self.tenants)
        try:
            plain = self.drive(server, seconds / 2)
        finally:
            server.stop()
        account(plain)
        spans_path = spans_file(self.name, self.seed)
        server = Server(self.tenants, spans_path)
        try:
            traced = self.drive(server, seconds / 2)
            stats = server.stats()
        finally:
            server.stop()
        account(traced)
        spans = load_spans(spans_path)
        answers = {o.rid: o.latency for o in traced.ok()}
        layers, start, end = frontend_metrics(spans, answers)
        (plain_times, plain_window), (traced_times, traced_window) = map(
            self.timed, (plain, traced)
        )
        rate_ratio = (len(traced_times) / traced_window) / (len(plain_times) / plain_window)
        out["layers"] = {
            **layers,
            **serving_metrics(spans, start, end),
            **stats_metrics(stats),
            "trace.overhead": 1 / rate_ratio - 1,
        }
        return out


# -- in-process workloads ------------------------------------------------------


def worker(name: str, seed: int, seconds: float, spans_path: str | None) -> Child:
    """A ``worker.py`` child that has printed ``READY``."""
    argv = [sys.executable, os.path.join(HERE, "worker.py"), name]
    argv += ["--seed", str(seed), "--seconds", str(seconds)]
    if spans_path is not None:
        argv += ["--spans", spans_path]
    child = Child(argv, WORK_CPUS if spans_path is None else ALL_CPUS, stdin=True)
    try:
        child.expect("READY", READY_TIMEOUT)
    except BaseException:
        child.stop()
        raise
    return child


def run_in_worker(name: str, seed: int, seconds: float, trace: bool) -> dict:
    spans_path = spans_file(name, seed) if trace else None
    setups = []
    count = 1 if trace else SETUPS
    speed = HostSpeed(WORK_CPUS)
    for attempt in range(count):
        child = worker(name, seed, seconds, spans_path)
        setups.append((time.perf_counter() - child.started) / speed.segment())
        if attempt < count - 1:
            child.stop()
    try:
        child.tell("go")
        out = json.loads(child.expect("RESULT ", WORK_TIMEOUT)[len("RESULT ") :])
    finally:
        child.stop()
    if not trace:
        print_speed(f"{name} set-up", speed.slowness)
        print_speed(name, out["slowness"])
        unit = "passes" if name == "embed_bulk" else "seed grids"
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            **latency_metrics(name, unit, out["units_ms"]),
            "rate_per_s": out["rate_per_s"],
            "peak_rss_mb": out["rss_mb"],
        }
    return out


# -- entry point ---------------------------------------------------------------

#: The serving workloads and the tenants of their ``repro serve --tenants``.
SERVE_TENANTS = {"serve_light": 3, "serve_saturated": 6}
WORKLOADS = (*SERVE_TENANTS, "embed_bulk", "table1_grid")


def spans_file(name: str, seed: int) -> str:
    folder = os.path.join(HERE, ".spans")
    os.makedirs(folder, exist_ok=True)
    return os.path.join(folder, f"{name}-s{seed}.spans.jsonl")


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name in SERVE_TENANTS:
        return ServeWorkload(name, SERVE_TENANTS[name], seed).run(seconds, trace)
    return run_in_worker(name, seed, seconds, trace)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM leaves through the ``finally`` blocks that stop every child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.sched_setaffinity(0, LOAD_CPUS.get(args.workload, WORK_CPUS))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    kind = "per_layer" if args.trace else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in declared[kind]}

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    measured = out["layers"] if args.trace else out["metrics"]
    if set(measured) - set(units) or (not args.trace and set(measured) != set(units)):
        raise SystemExit(f"metrics {sorted(measured)} do not match BENCHMARK.json {sorted(units)}")
    # A layer the workload does not run has no spans: its metrics read 0.
    values = {name: measured.get(name, 0.0) for name in units}
    for problem in out["problems"]:
        print(f"{args.workload}: WRONG OUTPUT: {problem}")
    correct = not out["problems"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(out["attempted"]),
                "failed": int(out["failed"]),
                "metrics": {
                    name: {"value": float(values[name]), "unit": units[name]}
                    for name in units
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
