"""Spans at the layer boundaries of `aokr`, recorded from outside the package.

`Tracer.installed()` replaces public functions at the names their callers
look up (module globals, `numpy.fft`, `EnergyCurve` methods) with wrappers
that record a span per call and restores them on exit.  Each thread keeps
its own parent stack, so cells run by the scan's thread pool nest correctly.
Spans stay in memory; `layer_metrics` turns them into the per-layer metrics
and `dump` writes them out.

A cell is one (point, level) entry of a scan.  Its span is the engine call
made by `aokr.cli` (one `ensemble_energy` or `eps_energy` call, or the
classical and quantum rate calls of a theory cell); every span below it
carries its cell id.
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterator

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = (
    ("cli.cells", "count", "higher"),
    ("cli.cell_p50_s", "s", "lower"),
    ("cli.write_s", "s", "lower"),
    ("cli.write_bytes", "B", "lower"),
    ("cli.pool_eff", "fraction", "higher"),
    ("qkr.fft_s", "s", "lower"),
    ("qkr.fft_calls", "count", "lower"),
    ("qkr.fft_len", "count", "lower"),
    ("qkr.fft_bytes", "B", "lower"),
    ("qkr.ensemble_s", "s", "lower"),
    ("qkr.atom_kicks", "count", "higher"),
    ("qkr.atom_kicks_per_s", "1/s", "higher"),
    ("qkr.step_self_s", "s", "lower"),
    ("qkr.sample_atoms_s", "s", "lower"),
    ("noise.realization_s", "s", "lower"),
    ("noise.realization_calls", "count", "lower"),
    ("epsmap.energy_s", "s", "lower"),
    ("epsmap.step_s", "s", "lower"),
    ("epsmap.step_calls", "count", "lower"),
    ("epsmap.traj_steps", "count", "higher"),
    ("epsmap.traj_steps_per_s", "1/s", "higher"),
    ("theory.rate_s", "s", "lower"),
    ("theory.rate_calls", "count", "lower"),
    ("theory.nab_s", "s", "lower"),
    ("theory.nab_calls", "count", "lower"),
    ("theory.leggauss_s", "s", "lower"),
    ("theory.leggauss_calls", "count", "lower"),
    ("theory.bessel_row_s", "s", "lower"),
    ("theory.bessel_row_calls", "count", "lower"),
    ("theory.quad_useful_frac", "fraction", "higher"),
    ("trace.overhead_frac", "fraction", "lower"),
)

_COMPLEX_BYTES = 16
_RATES = ("theory.diffusion_rate", "theory.diffusion_rate_with_noise")


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    cell: int | None
    thread: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children[span.sid]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.sid] = span.duration - covered
    return out


def _fft_attrs(a, n=None, axis=-1, *args, **kwargs) -> dict:
    length = a.shape[axis] if n is None else n
    return {"len": int(length), "rows": int(a.size // a.shape[axis])}


def _targets() -> list[tuple[object, str, str, Callable | None, int]]:
    """(owner, attribute, span name, attrs from call args, calls per cell)."""
    import numpy as np
    from aokr import cli, epsmap, qkr, theory

    return [
        (cli, "ensemble_energy", "qkr.ensemble_energy",
         lambda spec, params, cfg, n_real=1: {
             "atoms": spec.n_atoms, "kicks": params.kick_count, "realizations": n_real},
         1),
        (cli, "eps_energy", "epsmap.eps_energy", None, 1),
        (cli, "diffusion_rate", "theory.diffusion_rate", None, 2),
        (cli, "diffusion_rate_with_noise", "theory.diffusion_rate_with_noise", None, 2),
        (qkr, "sample_atoms", "qkr.sample_atoms", None, 0),
        (epsmap, "sample_atoms", "qkr.sample_atoms", None, 0),
        (qkr, "sample_realization", "noise.sample_realization", None, 0),
        (epsmap, "sample_realization", "noise.sample_realization", None, 0),
        (epsmap, "eps_step", "epsmap.eps_step",
         lambda phi, *args, **kwargs: {"traj": int(np.size(phi))}, 0),
        (theory, "noise_averaged_bessel", "theory.noise_averaged_bessel", None, 0),
        (theory, "bessel_j_row", "theory.bessel_j_row", None, 0),
        (np.fft, "fft", "numpy.fft", _fft_attrs, 0),
        (np.fft, "ifft", "numpy.ifft", _fft_attrs, 0),
        (np.polynomial.legendre, "leggauss", "numpy.leggauss",
         lambda deg: {"nodes": int(deg)}, 0),
        (cli.EnergyCurve, "to_csv", "cli.to_csv", None, 0),
        (cli.EnergyCurve, "to_json", "cli.to_json", None, 0),
    ]


class Tracer:
    """Records spans for calls made while `installed()` is active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_cell = 0
        self._open_pair: int | None = None

    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _cell(self, per_cell: int) -> int:
        """A fresh cell id, or the open one for the second call of a pair."""
        with self._lock:
            if per_cell == 2 and self._open_pair is not None:
                cell, self._open_pair = self._open_pair, None
                return cell
            cell = self._next_cell
            self._next_cell += 1
            if per_cell == 2:
                self._open_pair = cell
            return cell

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None, per_cell: int = 0):
        """`fn` wrapped to record a span named `name` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent, cell = stack[-1] if stack else (None, None)
            if per_cell:
                cell = self._cell(per_cell)
            sid = next(self._ids)
            stack.append((sid, cell))
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(
                    sid, name, start, end, parent, cell, threading.get_ident(),
                    attrs(*args, **kwargs) if attrs else {},
                ))

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore it."""
        saved = []
        try:
            for owner, attr, name, attrs, per_cell in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs, per_cell))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def dump(self, path, extra: dict) -> None:
        """Write every span, plus per-name totals, as JSON."""
        payload = dict(extra, by_name=by_name(self.spans), spans=[asdict(s) for s in self.spans])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def span_cost(calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one traced call adds: a no-op called through `Tracer.wrap`, less the bare no-op.

    The median over `repeats` loops of `calls` calls each.  Comparing traced
    with untraced passes cannot resolve this cost: it is well under the
    pass-to-pass noise of a shared machine.
    """

    def noop(*args, **kwargs) -> None:
        return None

    def loop(fn: Callable) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return time.perf_counter() - start

    return statistics.median(
        loop(Tracer().wrap("noop", noop)) - loop(noop) for _ in range(repeats)) / calls


def by_name(spans: list[Span]) -> dict[str, dict]:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += selfs[span.sid]
    return out


def layer_metrics(
    spans: list[Span],
    scans: list[tuple[float, int]],
    write_bytes: int,
    cost: float,
) -> dict[str, float]:
    """Per-layer metrics from one traced pass over a workload.

    `scans` holds (wall seconds, workers) for each traced scan; `write_bytes`
    is the size of the CSV and JSON files they wrote; `cost` is the seconds
    one span adds (`span_cost`).  trace.overhead_frac is the spans' cost over
    the pass's wall time without it.
    """
    selfs = self_times(spans)
    named = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def total(*names: str) -> float:
        return sum(s.duration for name in names for s in named[name])

    def calls(*names: str) -> int:
        return sum(len(named[name]) for name in names)

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0.0 else 0.0

    cell_time = defaultdict(float)
    for name in ("qkr.ensemble_energy", "epsmap.eps_energy") + _RATES:
        for span in named[name]:
            cell_time[span.cell] += span.duration
    pool_s = sum(wall * workers for wall, workers in scans)
    overhead_s = len(spans) * cost

    ffts = named["numpy.fft"] + named["numpy.ifft"]
    ensembles = named["qkr.ensemble_energy"]
    atom_kicks = sum(s.attrs["atoms"] * s.attrs["kicks"] * s.attrs["realizations"] for s in ensembles)
    traj_steps = sum(s.attrs["traj"] for s in named["epsmap.eps_step"])

    # Quadrature waste: per noise_averaged_bessel call, Bessel rows evaluated
    # against the nodes of the rule finally accepted (its last leggauss).
    evaluated = defaultdict(int)
    for span in named["theory.bessel_j_row"]:
        evaluated[span.parent] += 1
    accepted = {}
    for span in sorted(named["numpy.leggauss"], key=lambda s: s.start):
        accepted[span.parent] = span.attrs["nodes"]
    nab_ids = [s.sid for s in named["theory.noise_averaged_bessel"]]
    nodes_evaluated = sum(evaluated[sid] for sid in nab_ids)
    nodes_accepted = sum(accepted.get(sid, evaluated[sid]) for sid in nab_ids)

    return {
        "cli.cells": len(cell_time),
        "cli.cell_p50_s": statistics.median(cell_time.values()) if cell_time else 0.0,
        "cli.write_s": total("cli.to_csv", "cli.to_json"),
        "cli.write_bytes": write_bytes,
        "cli.pool_eff": ratio(sum(cell_time.values()), pool_s),
        "qkr.fft_s": total("numpy.fft", "numpy.ifft"),
        "qkr.fft_calls": len(ffts),
        "qkr.fft_len": max((s.attrs["len"] for s in ffts), default=0),
        "qkr.fft_bytes": sum(2 * s.attrs["rows"] * s.attrs["len"] * _COMPLEX_BYTES for s in ffts),
        "qkr.ensemble_s": total("qkr.ensemble_energy"),
        "qkr.atom_kicks": atom_kicks,
        "qkr.atom_kicks_per_s": ratio(atom_kicks, total("qkr.ensemble_energy")),
        "qkr.step_self_s": sum(selfs[s.sid] for s in ensembles),
        "qkr.sample_atoms_s": total("qkr.sample_atoms"),
        "noise.realization_s": total("noise.sample_realization"),
        "noise.realization_calls": calls("noise.sample_realization"),
        "epsmap.energy_s": total("epsmap.eps_energy"),
        "epsmap.step_s": total("epsmap.eps_step"),
        "epsmap.step_calls": calls("epsmap.eps_step"),
        "epsmap.traj_steps": traj_steps,
        "epsmap.traj_steps_per_s": ratio(traj_steps, total("epsmap.eps_step")),
        "theory.rate_s": total(*_RATES),
        "theory.rate_calls": calls(*_RATES),
        "theory.nab_s": total("theory.noise_averaged_bessel"),
        "theory.nab_calls": calls("theory.noise_averaged_bessel"),
        "theory.leggauss_s": total("numpy.leggauss"),
        "theory.leggauss_calls": calls("numpy.leggauss"),
        "theory.bessel_row_s": total("theory.bessel_j_row"),
        "theory.bessel_row_calls": calls("theory.bessel_j_row"),
        "theory.quad_useful_frac": ratio(nodes_accepted, nodes_evaluated),
        "trace.overhead_frac": ratio(overhead_s, sum(wall for wall, _ in scans) - overhead_s),
    }
