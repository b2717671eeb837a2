"""The benchmark's workloads: fixed `aokr scan` configurations and their checks.

A workload is a list of scans run back to back through `aokr.cli.main`, one
scan at a time.  A scan is a strict JSON scan configuration (the keys of
`aokr.cli.ScanSpec`) plus a worker count; the workload seed feeds
`ScanSpec.seed`.  Why each workload exists is written beside it.

Outputs are checked cell by cell against CSVs recorded from the seed commit
at DEFAULT_SEED (bench/reference/<scan>.csv).  At any other seed the grid
columns must still match the reference and every value must be sane; theory
cells carry no randomness, so they are always compared with the reference.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
# Reference values are byte-identical at the seed commit; 1e-9 leaves room
# for reordered floating-point reductions and nothing more.
REFERENCE_RTOL = 1e-9
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

_TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Scan:
    """One `aokr scan` invocation; `name` keys its reference CSV."""

    name: str
    config: dict
    workers: int = 1

    def raw(self, seed: int) -> dict:
        """The scan configuration for one workload seed."""
        return dict(self.config, seed=seed)


_PEAK_GRID = {"engine": "quantum", "abscissa": "hbar", "lo": _TAU - 0.2, "hi": _TAU + 0.2}

WORKLOADS: dict[str, tuple[Scan, ...]] = {
    # The FFT pair dominates at the CLI's default ladder (cutoff 512, L =
    # 1025); the plain single-threaded baseline for an automatic cutoff,
    # fast FFT lengths and fused reductions.
    "peak-amplitude": (
        Scan(
            "peak-amplitude",
            dict(
                _PEAK_GRID, step=0.1, kick_ratio=3.63, levels=[0.0, 2.0], kicks=20,
                atoms=1000, sigma_p=2.5, realizations=1,
            ),
        ),
    ),
    # Per-atom kick phases (kick spread), per-kick free phases (period
    # noise) and spontaneous-emission reshuffles dominate; the FFT is a
    # minor share.  The explicit cutoff bypasses any automatic cutoff and
    # two workers exercise the scan's thread pool.
    "peak-jitter": (
        Scan(
            "peak-jitter",
            dict(
                _PEAK_GRID, step=0.05, kick_ratio=3.63, noise="period",
                levels=[0.05, 0.1], se_probability=0.025, kick_spread=0.05, kicks=20,
                atoms=600, sigma_p=2.5, realizations=2, cutoff=192,
            ),
            workers=2,
        ),
    ),
    # No quantum ladder runs: the eps-classical map (eps = 0 excluded) and
    # the closed-form rates with Gauss-Legendre noise averages.  A change to
    # the quantum stepper should leave this workload unchanged.
    "map-theory": (
        Scan(
            "map-eps",
            dict(
                engine="eps-classical", abscissa="epsilon", lo=-0.09, hi=0.09, step=0.02,
                kick_ratio=3.63, levels=[0.0, 2.0], kicks=20, atoms=20000,
                beta_mode="uniform", realizations=12,
            ),
        ),
        Scan(
            "map-theory",
            dict(
                engine="theory", abscissa="hbar", lo=5.0, hi=7.5, step=0.1,
                kick_ratio=3.63, levels=[0.0, 2.0],
            ),
        ),
    ),
}


@dataclass(frozen=True)
class CheckResult:
    """Cells of one scan; those that failed, those of them that were output but wrong, and why."""

    cells: int
    failed: int
    wrong: int
    problems: tuple[str, ...]


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    table = list(csv.reader(io.StringIO("\n".join(lines))))
    return (table[0], table[1:]) if table else ([], [])


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isclose(a, b, rel_tol=rtol, abs_tol=0.0) or a == b


def check_scan(scan: Scan, seed: int, cells: int, text: str | None) -> CheckResult:
    """Check one scan's CSV output; `text` None means the scan raised or exited non-zero.

    A cell fails when it is missing, non-finite, has energy <= 0 or s.e.m. < 0
    (quantum and map engines), or differs from the reference where the
    reference applies.
    """
    if text is None:
        return CheckResult(cells, cells, 0, (f"{scan.name}: scan failed, {cells} cells lost",))
    ref_header, ref_rows = _rows((REFERENCE_DIR / f"{scan.name}.csv").read_text(encoding="utf-8"))
    header, rows = _rows(text)
    if header != ref_header or len(rows) != cells or len(ref_rows) != cells:
        return CheckResult(
            cells, cells, cells,
            (f"{scan.name}: header {header} and {len(rows)} rows, expected "
             f"{ref_header} and {cells} rows",),
        )
    theory = scan.config["engine"] == "theory"
    n_values = 2  # (energy, sem) or (d_classical, d_quantum)
    problems = []
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        got = [float(v) for v in row]
        want = [float(v) for v in ref]
        grid, values = got[:-n_values], got[-n_values:]
        if not all(_close(g, w, 1e-12) for g, w in zip(grid, want)):
            problems.append(f"{scan.name} row {i}: grid {grid} != reference {want[:-n_values]}")
        elif not all(math.isfinite(v) for v in values):
            problems.append(f"{scan.name} row {i}: non-finite {values}")
        elif not theory and not (values[0] > 0.0 and values[1] >= 0.0):
            problems.append(f"{scan.name} row {i}: energy {values[0]}, sem {values[1]}")
        elif (theory or seed == DEFAULT_SEED) and not all(
            _close(v, w, REFERENCE_RTOL) for v, w in zip(values, want[-n_values:])
        ):
            problems.append(f"{scan.name} row {i}: {values} != reference {want[-n_values:]}")
    return CheckResult(cells, len(problems), len(problems), tuple(problems))
