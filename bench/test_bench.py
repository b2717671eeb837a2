"""Self-tests of the benchmark: span arithmetic, tracing side effects, exact counts, specs.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

from aokr import cli  # noqa: E402

import run  # noqa: E402
from tracing import PER_LAYER, Span, Tracer, layer_metrics, self_times, span_cost  # noqa: E402
from workloads import DEFAULT_SEED, REFERENCE_DIR, WORKLOADS, Scan, check_scan  # noqa: E402


def _span(sid, start, end, parent=None, thread=1, name="x"):
    return Span(sid, name, start, end, parent, None, thread)


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 3.0, parent=0),
        _span(2, 2.0, 5.0, parent=0),  # overlaps span 1: covered is [1, 5]
        _span(3, 1.5, 2.0, parent=1),  # grandchild: only its parent loses it
        _span(4, 9.0, 12.0, parent=0),  # runs past its parent: clipped to [9, 10]
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 1.0)
    assert selfs[1] == pytest.approx(1.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(0.5)


def test_self_time_ignores_overlapping_spans_of_other_threads():
    spans = [
        _span(0, 0.0, 10.0, thread=1),
        _span(1, 2.0, 4.0, parent=0, thread=1),
        _span(2, 1.0, 9.0, thread=2),
        _span(3, 3.0, 8.0, parent=2, thread=2),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(8.0)
    assert selfs[2] == pytest.approx(3.0)


def test_overhead_charges_every_span_the_cost_of_one_traced_call():
    cost = span_cost(calls=2000, repeats=3)
    assert 0.0 < cost < 1e-3
    spans = [_span(sid, 0.0, 0.1) for sid in range(4)]
    m = layer_metrics(spans, [(0.6, 1), (0.4, 2)], 0, 0.01)
    assert m["trace.overhead_frac"] == pytest.approx(0.04 / 0.96)


def test_tracer_parents_stay_on_their_own_thread():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)
    child = tracer.wrap("child", lambda: barrier.wait())
    parent = tracer.wrap("parent", lambda: child(), per_cell=1)
    threads = [threading.Thread(target=parent) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s.sid: s for s in tracer.spans}
    children = [s for s in tracer.spans if s.name == "child"]
    assert len(children) == 2
    for span in children:
        assert by_id[span.parent].name == "parent"
        assert by_id[span.parent].thread == span.thread
        assert by_id[span.parent].cell == span.cell
    assert sorted(s.cell for s in children) == [0, 1]


def test_tracer_pairs_theory_rate_calls_into_cells():
    tracer = Tracer()
    rate = tracer.wrap("rate", lambda: None, per_cell=2)
    for _ in range(6):
        rate()
    assert [s.cell for s in tracer.spans] == [0, 0, 1, 1, 2, 2]


# Small scans covering all three engines and the thread pool.
_TINY = {
    "quantum": Scan(
        "tiny-quantum",
        dict(engine="quantum", abscissa="hbar", lo=6.2, hi=6.35, step=0.05, kick_ratio=2.0,
             noise="period", levels=[0.0, 0.1], se_probability=0.05, kick_spread=0.05,
             kicks=4, atoms=24, realizations=2, cutoff=48, seed=3),
        workers=2,
    ),
    "map": Scan(
        "tiny-map",
        dict(engine="eps-classical", abscissa="epsilon", lo=-0.05, hi=0.05, step=0.1,
             kick_ratio=2.0, levels=[0.0, 2.0], kicks=5, atoms=100, beta_mode="uniform",
             realizations=3, seed=3),
    ),
    "theory": Scan(
        "tiny-theory",
        dict(engine="theory", abscissa="hbar", lo=5.0, hi=5.2, step=0.1, kick_ratio=2.0,
             levels=[0.0, 2.0]),
    ),
}


def _run_scan(scan: Scan, tmp_path: Path, tag: str) -> bytes:
    config = tmp_path / f"{scan.name}.json"
    config.write_text(json.dumps(scan.config), encoding="utf-8")
    out = tmp_path / f"{scan.name}-{tag}.csv"
    argv = ["scan", "--config", str(config), "--workers", str(scan.workers), "--out", str(out),
            "--json", str(tmp_path / f"{scan.name}-{tag}.sidecar.json")]
    assert cli.main(argv) == 0
    return out.read_bytes()


@pytest.fixture(scope="module")
def traced_tiny(tmp_path_factory):
    """Each tiny scan run untraced and traced: (plain CSV, traced CSV, metrics, spec, spans)."""
    tmp_path = tmp_path_factory.mktemp("tiny")
    out = {}
    for key, scan in _TINY.items():
        plain = _run_scan(scan, tmp_path, "plain")
        tracer = Tracer()
        with tracer.installed():
            traced = _run_scan(scan, tmp_path, "traced")
        metrics = layer_metrics(tracer.spans, [(1.0, scan.workers)], 0, span_cost())
        out[key] = (plain, traced, metrics, cli.build_spec(scan.config), tracer.spans)
    return out


def test_traced_scan_writes_the_same_csv_bytes(traced_tiny):
    for plain, traced, *_ in traced_tiny.values():
        assert traced == plain


def test_tracing_restores_every_wrapped_name():
    import numpy as np
    from aokr import epsmap, qkr, theory

    before = (cli.ensemble_energy, qkr.sample_atoms, epsmap.eps_step, theory.bessel_j_row,
              np.fft.fft, cli.EnergyCurve.to_csv)
    with Tracer().installed():
        assert cli.ensemble_energy is not before[0]
    after = (cli.ensemble_energy, qkr.sample_atoms, epsmap.eps_step, theory.bessel_j_row,
             np.fft.fft, cli.EnergyCurve.to_csv)
    assert after == before


def test_quantum_counts_match_their_formulas(traced_tiny):
    _, _, m, spec, _ = traced_tiny["quantum"]
    cells = len(spec.points()) * len(spec.levels)
    r, kicks = spec.realizations, spec.kicks
    assert list(m) == [name for name, _, _ in PER_LAYER]
    assert m["cli.cells"] == cells
    assert m["qkr.fft_calls"] == 2 * kicks * r * cells
    assert m["qkr.fft_len"] == 2 * spec.cutoff + 1
    assert m["qkr.fft_bytes"] == m["qkr.fft_calls"] * 2 * spec.atoms * (2 * spec.cutoff + 1) * 16
    assert m["qkr.atom_kicks"] == spec.atoms * kicks * r * cells
    assert m["noise.realization_calls"] == r * cells
    assert m["epsmap.step_calls"] == 0 and m["theory.rate_calls"] == 0


def test_map_and_theory_counts_match_their_formulas(traced_tiny):
    _, _, m, spec, _ = traced_tiny["map"]
    cells = len(spec.points()) * len(spec.levels)
    assert m["cli.cells"] == cells
    assert m["epsmap.step_calls"] == spec.kicks * spec.realizations * cells
    assert m["epsmap.traj_steps"] == spec.atoms * m["epsmap.step_calls"]
    assert m["noise.realization_calls"] == spec.realizations * cells
    assert m["qkr.fft_calls"] == 0

    _, _, m, spec, spans = traced_tiny["theory"]
    points = len(spec.points())
    assert m["cli.cells"] == points * 2
    assert m["theory.rate_calls"] == 2 * points * 2  # classical + quantum per cell
    assert m["theory.nab_calls"] == 3 * 2 * points  # J1..J3, two regimes, level 2 only
    # every quadrature node is one Bessel row; level-0 cells add one row per rate call
    rules = [s.attrs["nodes"] for s in spans if s.name == "numpy.leggauss"]
    assert m["theory.leggauss_calls"] == len(rules)
    assert m["theory.bessel_row_calls"] == sum(rules) + 2 * points
    # rules double from 64 nodes until two agree; the last one is accepted
    accepted = {s.parent: s.attrs["nodes"] for s in sorted(spans, key=lambda s: s.start)
                if s.name == "numpy.leggauss"}
    assert m["theory.quad_useful_frac"] == pytest.approx(sum(accepted.values()) / sum(rules))
    assert 0.0 < m["theory.quad_useful_frac"] < 1.0


def test_workload_specs_build_and_match_their_references():
    expected_cells = {"peak-amplitude": 10, "peak-jitter": 18, "map-eps": 20, "map-theory": 52}
    for scans in WORKLOADS.values():
        for scan in scans:
            for seed in (DEFAULT_SEED, 12345):
                spec = cli.build_spec(scan.raw(seed))
                assert spec.seed == seed
            cells = len(spec.points()) * len(spec.levels)
            assert cells == expected_cells[scan.name]
            text = (REFERENCE_DIR / f"{scan.name}.csv").read_text(encoding="utf-8")
            result = check_scan(scan, DEFAULT_SEED, cells, text)
            assert (result.failed, result.wrong) == (0, 0), result.problems
    assert cli.build_spec(WORKLOADS["peak-amplitude"][0].raw(1)).cutoff == 512  # L = 1025
    assert cli.build_spec(WORKLOADS["peak-jitter"][0].raw(1)).cutoff == 192  # L = 385


def _perturbed(text: str, row: int, value: str) -> str:
    lines = text.splitlines(keepends=True)
    fields = lines[2 + row].rstrip("\n").split(",")
    fields[-2] = value
    lines[2 + row] = ",".join(fields) + "\n"
    return "".join(lines)


def test_check_scan_counts_wrong_and_failed_cells():
    scan = WORKLOADS["peak-amplitude"][0]
    text = (REFERENCE_DIR / "peak-amplitude.csv").read_text(encoding="utf-8")
    drifted = _perturbed(text, 3, repr(float(text.splitlines()[5].split(",")[-2]) * (1 + 1e-6)))
    assert check_scan(scan, DEFAULT_SEED, 10, drifted).wrong == 1
    assert check_scan(scan, DEFAULT_SEED + 1, 10, drifted).wrong == 0  # other seeds: sanity only
    for bad in ("nan", "-1.0", "0.0"):
        assert check_scan(scan, DEFAULT_SEED + 1, 10, _perturbed(text, 0, bad)).wrong == 1
    lost = check_scan(scan, DEFAULT_SEED, 10, None)
    assert (lost.failed, lost.wrong) == (10, 0)
    short = "".join(text.splitlines(keepends=True)[:-1])
    assert check_scan(scan, DEFAULT_SEED, 10, short).wrong == 10

    theory = WORKLOADS["map-theory"][1]
    ttext = (REFERENCE_DIR / "map-theory.csv").read_text(encoding="utf-8")
    value = float(ttext.splitlines()[2].split(",")[-2])
    assert check_scan(theory, 99, 52, _perturbed(ttext, 0, repr(value * 1.001))).wrong == 1


def test_benchmark_file_names_what_run_reports():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert spec["run_seconds"] == run.DEFAULT_SECONDS
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert math.isclose(max(m["bound"] for m in spec["end_to_end"]),
                        next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"))
