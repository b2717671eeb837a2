"""Benchmark of `aokr scan`: end-to-end metrics per workload, per-layer metrics when traced.

Run from the repository root (stdlib and numpy only):

    python3 bench/run.py                       # every workload, one table
    python3 bench/run.py --trace 1             # every workload, per-layer table
    python3 bench/run.py --workload peak-jitter --seed 7 --seconds 30 --trace 0

Each workload runs in a fresh process and drives `aokr.cli.main` in-process,
in a closed loop with one client: one pass over the workload's scans at a
time, the next pass starting after the previous one ends, until another
pass would end after --seconds (one pass always runs).  Every pass is
checked against bench/reference (see workloads.py).

--trace 0 reports the end-to-end metrics: medians over passes of scan wall
and CPU seconds, the median of fresh-process set-up probes run before the
first pass and after each pass, and the peak RSS.  --trace 1 runs an
untraced warm-up pass, then traced passes, and reports the per-layer
metrics of tracing.py as medians over the traced passes.  With --workload,
the last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; without it, the last line is the summary of
run_all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracing import PER_LAYER, Tracer, layer_metrics, span_cost
from workloads import DEFAULT_SEED, WORKLOADS, CheckResult, Scan, check_scan

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
DEFAULT_SECONDS = 36
SETUP_PROBES = 5  # per batch: one batch before the first pass and one after each pass
TRACE_PASSES = 3  # fewest traced passes in a traced run

END_TO_END = (("scan_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Fresh-process set-up: import the CLI and build and validate each spec.
# Timed in CPU seconds of the main thread, which does all of that work.
# Importing numpy starts BLAS threads that spin beside it: they make the
# wall time depend on whether another core happens to be free, and the
# process's CPU time on how long they spin.
_SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[2])
start = time.thread_time()
from aokr import cli
for raw in json.loads(sys.argv[1]):
    cli.build_spec(raw)
print(repr(time.thread_time() - start))
"""


def metric_units(traced: bool) -> dict[str, str]:
    """Name -> unit of every metric a run reports, in report order."""
    return {n: u for n, u, _ in PER_LAYER} if traced else dict(END_TO_END)


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, broken set-up probe)."""


def load_cli():
    """Import `aokr.cli` from this checkout's src/, never from elsewhere."""
    package = SRC / "aokr"
    if not (package / "__init__.py").is_file():
        raise BenchError(f"no aokr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import aokr
    from aokr import cli

    if Path(aokr.__file__).resolve().parent != package.resolve():
        raise BenchError(f"imported aokr from {aokr.__file__}, expected {package}")
    return cli


def environment() -> dict:
    """The machine and libraries a result was measured on."""
    import numpy as np

    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


@dataclass
class Pass:
    """One pass over a workload's scans."""

    wall: float
    cpu: float
    scans: list[tuple[float, int]]  # (wall seconds, workers) per scan
    checks: list[CheckResult]


class Workload:
    """A workload's scans, prepared to run through `aokr.cli.main`."""

    def __init__(self, cli, name: str, seed: int) -> None:
        self.cli = cli
        self.name = name
        self.seed = seed
        self.scans: tuple[Scan, ...] = WORKLOADS[name]
        self.out = OUT_DIR / name
        self.out.mkdir(parents=True, exist_ok=True)
        self.cells = []
        for scan in self.scans:
            spec = cli.build_spec(scan.raw(seed))
            self.cells.append(len(spec.points()) * len(spec.levels))
            self._path(scan, "config.json").write_text(json.dumps(scan.raw(seed)), encoding="utf-8")

    def _path(self, scan: Scan, suffix: str) -> Path:
        return self.out / f"{scan.name}.{suffix}"

    def _argv(self, scan: Scan) -> list[str]:
        return [
            "scan", "--config", str(self._path(scan, "config.json")),
            "--workers", str(scan.workers),
            "--out", str(self._path(scan, "csv")), "--json", str(self._path(scan, "json")),
        ]

    def run_pass(self) -> Pass:
        """Run every scan once, timed, then check what each one wrote."""
        codes, scans = [], []
        cpu0, wall0 = time.process_time(), time.perf_counter()
        for scan in self.scans:
            for suffix in ("csv", "json"):
                self._path(scan, suffix).unlink(missing_ok=True)
            start = time.perf_counter()
            try:
                codes.append(self.cli.main(self._argv(scan)))
            except Exception:  # a crashed scan is failed cells, not a failed benchmark
                traceback.print_exc()
                codes.append(None)
            scans.append((time.perf_counter() - start, scan.workers))
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        checks = []
        for scan, cells, code in zip(self.scans, self.cells, codes):
            text = self._path(scan, "csv").read_text(encoding="utf-8") if code == 0 else None
            checks.append(check_scan(scan, self.seed, cells, text))
        return Pass(wall, cpu, scans, checks)

    def written_bytes(self) -> int:
        return sum(self._path(scan, suffix).stat().st_size
                   for scan in self.scans for suffix in ("csv", "json"))

    def setup_seconds(self) -> list[float]:
        """Set-up CPU seconds of SETUP_PROBES fresh interpreters, each timed inside."""
        raws = json.dumps([scan.raw(self.seed) for scan in self.scans])
        times = []
        for _ in range(SETUP_PROBES):
            probe = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE, raws, str(SRC)],
                capture_output=True, text=True, timeout=60,
            )
            if probe.returncode != 0:
                raise BenchError(f"set-up probe failed:\n{probe.stderr}")
            times.append(float(probe.stdout))
        return times


def measure(work: Workload, seconds: float) -> tuple[dict, list[Pass], dict]:
    """End-to-end metrics from a closed loop of passes lasting about `seconds`.

    Set-up probes run between passes, so that they sample the whole run.
    """
    setups = work.setup_seconds()
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(work.run_pass())
        setups += work.setup_seconds()
        if time.perf_counter() - start + passes[-1].wall > seconds:
            break
    metrics = {
        "scan_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {
        "setup_s": setups,
        "pass_wall_s": [p.wall for p in passes],
        "pass_cpu_s": [p.cpu for p in passes],
    }
    return metrics, passes, detail


def trace(work: Workload, seconds: float) -> tuple[dict, list[Pass], dict]:
    """Per-layer metrics: medians over traced passes.

    An untraced warm-up pass first keeps first-call costs out of them.
    Traced passes run until another would end after `seconds`, and at least
    TRACE_PASSES run.  trace.overhead_frac charges every span the measured
    cost of one traced call (`span_cost`).
    """
    passes = [work.run_pass()]
    cost = span_cost()
    layers = []
    start = time.perf_counter()
    while True:
        tracer = Tracer()
        with tracer.installed():
            passes.append(work.run_pass())
        layers.append(layer_metrics(tracer.spans, passes[-1].scans, work.written_bytes(), cost))
        elapsed = time.perf_counter() - start
        if len(layers) >= TRACE_PASSES and elapsed + passes[-1].wall > seconds:
            break
    metrics = {key: statistics.median(m[key] for m in layers) for key in layers[0]}
    trace_path = work.out / "trace.json"
    tracer.dump(trace_path, {"workload": work.name, "seed": work.seed, "scans": passes[-1].scans})
    detail = {"warmup_scan_s": passes[0].wall, "traced_scan_s": [p.wall for p in passes[1:]],
              "span_cost_s": cost, "trace_file": str(trace_path.relative_to(BENCH_DIR.parent))}
    return metrics, passes, detail


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    work = Workload(load_cli(), name, seed)
    metrics, passes, detail = trace(work, seconds) if traced else measure(work, seconds)
    units = metric_units(traced)
    checks = [c for p in passes for c in p.checks]
    attempted = sum(c.cells for c in checks)
    failed = sum(c.failed for c in checks)
    for problem in (pr for c in checks for pr in c.problems):
        print(f"check: {problem}", file=sys.stderr)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "env": environment(), "passes": len(passes), "attempted": attempted,
        "failed": failed, "failed_frac": failed / attempted, "metrics": metrics, "detail": detail,
    }
    (work.out / f"result-trace{int(traced)}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(f"# env: {json.dumps(record['env'], sort_keys=True)}")
    for key, value in metrics.items():
        print(f"{name:>15} {key:<26} {value:>16.6g} {units[key]}")
    print(f"{name:>15} {'failed_frac':<26} {failed / attempted:>16.6g} fraction"
          f"  ({failed} of {attempted} cells, {len(passes)} passes)")
    result = {
        # a cell that raised is failed but not wrong; one that was written wrong is both
        "correct": not any(c.wrong for c in checks),
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced: bool, save: str | None) -> int:
    """Every workload, each in a fresh process; one table, optionally saved."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        if child.returncode != 0:
            print(f"{name}: exited {child.returncode}", file=sys.stderr)
            return child.returncode
        results[name] = json.loads(child.stdout.strip().splitlines()[-1])
    units = metric_units(traced)
    print(f"{'metric':<26} {'unit':<9}" + "".join(f"{w:>16}" for w in results))
    for key in units:
        print(f"{key:<26} {units[key]:<9}"
              + "".join(f"{r['metrics'][key]['value']:>16.6g}" for r in results.values()))
    print(f"{'failed_frac':<26} {'fraction':<9}"
          + "".join(f"{r['failed'] / r['attempted']:>16.6g}" for r in results.values()))
    summary = {
        "seed": seed, "seconds": seconds, "trace": int(traced), "env": environment(),
        "correct": all(r["correct"] for r in results.values()),
        "workloads": {
            name: dict(r, failed_frac=r["failed"] / r["attempted"]) for name, r in results.items()
        },
    }
    if save:
        Path(save).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="with --workload all: write the summary JSON here")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.save and args.workload != "all":
        parser.error("--save needs --workload all")
    try:
        if args.workload == "all":
            return run_all(args.seed, args.seconds, bool(args.trace), args.save)
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
