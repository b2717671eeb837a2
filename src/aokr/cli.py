"""Scan harness and command line interface.

Drives the simulation engines over a range of pulse periods (expressed as
hbar_eff, as a detuning from resonance, or directly in microseconds),
averages realizations per point, and writes plot-ready CSV files with a
JSON metadata sidecar.  All randomness is derived from one master seed via
per-(point, level) sequence spawning, so results are byte-identical no
matter how many workers run the scan or in which order points finish.

Subcommands: scan (energy curves), portrait (map phase-space point
clouds), predict (closed-form diffusion rates), extract-k (invert a
measured resonance peak to the kick strength).
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, asdict, dataclass, field, fields
from typing import IO, Iterator, Sequence

import numpy as np

from . import __version__
from .core import ScaledParams, check_fields, declared_as, field_schema, hbar_from_period
from .epsmap import EpsParams, check_portrait, eps_energy, phase_portrait
from .noise import AMPLITUDE_LEVEL_MAX, NoiseConfig
from .qkr import AUTO_CUTOFF_CAP, CutoffError, EnsembleSpec, ensemble_energy
from .qkr import _BLOCK_SITES, _MIN_CUTOFF  # the most atoms one block holds
from .theory import diffusion_rate  # noqa: F401  bench/tracing.py wraps it by this name
from .theory import ARGUMENT_MAX, diffusion_rate_with_noise, kick_strength_from_energy

log = logging.getLogger("aokr")

TWO_PI = 2.0 * math.pi

ABSCISSAS = ("hbar", "epsilon", "period-us")
NOISE_KINDS = ("amplitude", "period")

DEFAULT_REALIZATIONS = 12
DEFAULT_REALIZATIONS_NOISELESS = 3
MAX_POINTS = 100_000  # abscissa points per scan, checked before any array exists
MAX_WORK = 10**11  # atom-kicks per scan (x ladder sites for quantum); ~1 h of map on one core
# atoms of one realization; at peak (tracemalloc) the eps-classical map holds 80 B
# each with a kick spread (72 B without), 0.8 GB, and the quantum engine 50 B
# each plus one ~4.7 MB block of sites and 256 KiB of ufunc buffers
MAX_ATOMS = 10**7
# SE schedule rows (atoms x kicks, 9 B each) that one worker holds at a time: one
# block's, of at most as many atoms as fill its sites on the shortest ladder
MAX_SE_SCHEDULE = 10**8
_BLOCK_ATOMS = _BLOCK_SITES // (2 * _MIN_CUTOFF + 1)  # 3,855 atoms on 17 sites
MAX_WORKERS = 64  # scan threads; the pool starts one per cell up to this many
MAX_PORTRAIT_POINTS = 10_000_000  # portrait rows, 160 MB as (phi, rho) floats


class ConfigError(ValueError):
    """A scan configuration violated an invariant; message names the field."""


def _check_bessel_argument(kick_ratio: float, hbar: float, level: float) -> None:
    """Reject a theory cell whose largest Bessel argument exceeds ARGUMENT_MAX.

    Both regimes' arguments are at most kappa (1 + level/2), kappa = kick_ratio * hbar.
    """
    largest = kick_ratio * hbar * (1.0 + 0.5 * level)
    if largest > ARGUMENT_MAX:
        raise ConfigError(
            f"kick_ratio * hbar * (1 + level/2) = {largest:g} exceeds {ARGUMENT_MAX:g}, "
            "the largest Bessel argument the theory engine evaluates"
        )


# ---------------------------------------------------------------------------
# engines: the two values of one (abscissa point, noise level) cell
# ---------------------------------------------------------------------------
# Engine entry points are called through this module's globals, where
# bench/tracing.py wraps them.  The simulations return the energy after every
# kick; a cell keeps the final one.

def _quantum_cell(
    spec: ScanSpec, hbar: float, level: float, cfg: NoiseConfig, n_real: int
) -> tuple[float, float]:
    params = ScaledParams(
        hbar_eff=hbar, kick_strength=spec.kick_ratio * hbar, kick_count=spec.kicks
    )
    mean, sem = ensemble_energy(spec.ensemble(), params, cfg, n_real)
    return float(mean[-1]), float(sem[-1])


def _eps_cell(
    spec: ScanSpec, hbar: float, level: float, cfg: NoiseConfig, n_real: int
) -> tuple[float, float]:
    p = EpsParams(
        epsilon=hbar - TWO_PI * spec.resonance_order,
        kick_ratio=spec.kick_ratio,
        resonance_order=spec.resonance_order,
    )
    mean, sem = eps_energy(p, spec.kicks, spec.ensemble(), cfg, n_real)
    return float(mean[-1]), float(sem[-1])


def _rates(kick_ratio: float, hbar: float, level: float) -> tuple[float, float]:
    """(D_classical, D_quantum) at kappa = kick_ratio * hbar; also `aokr predict`."""
    kappa = kick_ratio * hbar
    return (
        diffusion_rate_with_noise(kappa, hbar, level, "classical"),
        diffusion_rate_with_noise(kappa, hbar, level, "quantum"),
    )


# the ScanSpec keys every engine reads (the seed also sets the sidecar's point
# seeds), and those of the noisy ensemble, which only the simulations read
_SCAN_LEVEL = frozenset(("engine", "abscissa", "lo", "hi", "step", "kick_ratio", "levels",
                         "seed", "resonance_order"))
_ENSEMBLE = frozenset(("noise", "kicks", "atoms", "realizations", "sigma_p", "beta_mode",
                       "beta_fixed", "kick_spread", "p_max", "cutoff", "se_probability"))
_ENERGY_NAMES = ("energy", "sem"), ("energies", "sems")
_RATE_NAMES = ("d_classical", "d_quantum"), ("d_classical", "d_quantum")
# engine -> (cell, CSV columns of its two values, JSON keys of the same values,
# the ScanSpec keys it reads; every other key must keep its default).  The map
# models amplitude noise only: no detection window, spontaneous emission or ladder.
_CELLS = {
    "quantum": (_quantum_cell, *_ENERGY_NAMES, _SCAN_LEVEL | _ENSEMBLE),
    "eps-classical": (_eps_cell, *_ENERGY_NAMES,
                      _SCAN_LEVEL | (_ENSEMBLE - {"noise", "p_max", "se_probability", "cutoff"})),
    "theory": (lambda spec, hbar, level, cfg, n_real: _rates(spec.kick_ratio, hbar, level),
               *_RATE_NAMES, _SCAN_LEVEL),
}
ENGINES = tuple(_CELLS)


@dataclass(frozen=True)
class ScanSpec:
    """One scan: engine, abscissa range, noise levels, ensemble knobs.

    Each field is a configuration key and the `aokr scan` flag of that name, of
    its annotated type and choices; the fields without a default are required.
    An engine key is declared as the record field it feeds (`declared_as`), with
    that field's default, choices and range, so `check_fields` checks every
    single-key range before the cross-key checks below.
    """

    engine: str = field(metadata={"choices": ENGINES})
    abscissa: str = field(metadata={"choices": ABSCISSAS})
    lo: float
    hi: float
    step: float = field(metadata={"above": 0})
    kick_ratio: float = declared_as(EpsParams, "kick_ratio")
    levels: tuple[float, ...] = (0.0,)
    noise: str = field(default="amplitude", metadata={"choices": NOISE_KINDS})
    kicks: int = declared_as(ScaledParams, "kick_count")
    atoms: int = declared_as(EnsembleSpec, "n_atoms")
    realizations: int | None = field(default=None, metadata={"min": 1})  # None: 12 (3 at level 0)
    seed: int = declared_as(NoiseConfig, "master_seed")
    sigma_p: float = declared_as(EnsembleSpec, "sigma_p")
    beta_mode: str = declared_as(EnsembleSpec, "beta_mode")
    beta_fixed: float = declared_as(EnsembleSpec, "beta_fixed")
    kick_spread: float = declared_as(EnsembleSpec, "kick_spread")
    p_max: float | None = declared_as(EnsembleSpec, "p_max")
    cutoff: int | None = declared_as(EnsembleSpec, "cutoff", help=(
        "half-width M of the last kick's ladder, L = 2M+1 sites, which earlier kicks "
        "grow to (default: sized per realization from a reach bound, at most 1025 sites)"))
    se_probability: float = declared_as(NoiseConfig, "se_probability")
    resonance_order: int = declared_as(EpsParams, "resonance_order")

    def __post_init__(self) -> None:
        check_fields(self, ConfigError)
        for key in fields(self):  # a key the engine does not read keeps its default
            value = getattr(self, key.name)
            if key.name not in _CELLS[self.engine][3] and value != key.default:
                raise ConfigError(f"{key.name} = {value!r}: engine {self.engine!r} does not "
                                  f"model it; leave it at {key.default!r}")
        if not self.lo < self.hi:
            raise ConfigError(f"range requires lo < hi, got lo = {self.lo}, hi = {self.hi}")
        # `points` makes floor(this) + 1 points; inf when the quotient overflows
        if not (self.hi - self.lo) / self.step + 1e-9 < MAX_POINTS:
            raise ConfigError(
                f"step = {self.step} makes more than {MAX_POINTS} points "
                f"over [{self.lo}, {self.hi}]"
            )
        # hbar grows with the point, so lo is the smallest
        if (self.abscissa == "period-us" and self.lo <= 0.0) or self.hbar_of(self.lo) <= 0.0:
            raise ConfigError(f"lo = {self.lo} makes hbar_eff <= 0 at the first point")
        if len(self.levels) == 0:
            raise ConfigError("levels must not be empty")
        for i, level in enumerate(self.levels):
            try:
                self.noise_config(level)
            except ValueError as exc:
                raise ConfigError(f"levels[{i}] = {level}: {exc}") from exc
        if self.engine == "theory":  # hbar grows with the point: check hi and the last
            last = max(self.hi, self.points()[-1])  # which may lie 1e-9 of a step past hi
            _check_bessel_argument(self.kick_ratio, self.hbar_of(last), max(self.levels))
        if self.engine != "theory":  # a theory cell is one pair of rates
            # the automatic ladder counts at its cap
            sites = 2 * (AUTO_CUTOFF_CAP if self.cutoff is None else self.cutoff) + 1
            work = len(self.points()) * sum(map(self.realizations_at, self.levels)) * self.atoms
            work *= self.kicks * (sites if self.engine == "quantum" else 1)
            if work > MAX_WORK:
                raise ConfigError(f"{work:.3g} atom-kicks (x ladder sites for quantum) "
                                  f"exceed MAX_WORK = {MAX_WORK:.0e}")
        if self.atoms > MAX_ATOMS:  # theory keeps the default counts
            raise ConfigError(f"atoms = {self.atoms} exceeds MAX_ATOMS = {MAX_ATOMS:.0e}")
        rows = min(self.atoms, _BLOCK_ATOMS) * self.kicks
        if self.se_probability > 0.0 and rows > MAX_SE_SCHEDULE:
            raise ConfigError(f"one block's SE rows, min(atoms, {_BLOCK_ATOMS}) * kicks = "
                              f"{rows:.3g}, exceed MAX_SE_SCHEDULE = {MAX_SE_SCHEDULE:.0e}")

    def points(self) -> np.ndarray:
        """Abscissa grid lo, lo+step, .. capped at hi (inclusive up to rounding)."""
        count = int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1
        return self.lo + self.step * np.arange(count)

    def hbar_of(self, point: float) -> float:
        if self.abscissa == "hbar":
            return float(point)
        if self.abscissa == "epsilon":
            return TWO_PI * self.resonance_order + float(point)
        return hbar_from_period(float(point) * 1e-6)

    def realizations_at(self, level: float) -> int:
        if self.realizations is not None:
            return self.realizations
        return DEFAULT_REALIZATIONS_NOISELESS if level == 0.0 else DEFAULT_REALIZATIONS

    def noise_config(self, level: float, master_seed: int = 0) -> NoiseConfig:
        return NoiseConfig(
            amplitude_level=level if self.noise == "amplitude" else 0.0,
            period_level=level if self.noise == "period" else 0.0,
            se_probability=self.se_probability,
            master_seed=master_seed,
        )

    def ensemble(self) -> EnsembleSpec:
        return EnsembleSpec(n_atoms=self.atoms, sigma_p=self.sigma_p, beta_mode=self.beta_mode,
                            beta_fixed=self.beta_fixed, kick_spread=self.kick_spread,
                            p_max=self.p_max, cutoff=self.cutoff)


def _reject_duplicates(pairs: list[tuple[str, object]]) -> dict:
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        seen[key] = value
    return seen


def load_config(path: str, overrides: dict | None = None) -> ScanSpec:
    """Parse a strict JSON scan configuration; unknown keys are errors."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_reject_duplicates)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path!r}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"configuration root must be an object, got {type(raw).__name__}")
    return build_spec(raw, overrides)


def build_spec(raw: dict, overrides: dict | None = None) -> ScanSpec:
    """Merge a raw config dict with command-line overrides into a ScanSpec."""
    merged = dict(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            merged[key] = value
    unknown = set(merged) - field_schema(ScanSpec).keys()
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    missing = [f.name for f in fields(ScanSpec) if f.default is MISSING and f.name not in merged]
    if missing:
        raise ConfigError(f"missing required configuration keys: {missing}")
    return ScanSpec(**merged)


# ---------------------------------------------------------------------------
# scan execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergyCurve:
    """Scan result: the engine's two values per (level, point) cell, named by it."""

    abscissa_name: str
    points: np.ndarray
    hbar_values: np.ndarray
    levels: tuple[float, ...]
    columns: tuple[str, str]  # CSV column names of the two values
    values: dict[str, np.ndarray]  # JSON key -> (levels, points) array, in column order
    config: dict
    point_seeds: list[list[int]]  # [level][point]

    def _columns(self) -> list[str]:
        cols = [self.abscissa_name.replace("-", "_")]
        if self.abscissa_name != "hbar":
            cols.append("hbar")
        return cols + ["level", *self.columns]

    def to_csv(self, out: IO[str]) -> None:
        out.write(f"# meta: {json.dumps(self.config, sort_keys=True)}\n")
        out.write(",".join(self._columns()) + "\n")
        first, second = self.values.values()
        for li, level in enumerate(self.levels):
            for pi, point in enumerate(self.points):
                row = [repr(float(point))]
                if self.abscissa_name != "hbar":
                    row.append(repr(float(self.hbar_values[pi])))
                row += [repr(float(x)) for x in (level, first[li, pi], second[li, pi])]
                out.write(",".join(row) + "\n")

    def to_json(self, out: IO[str]) -> None:
        payload = {
            "config": self.config,
            "abscissa": self.abscissa_name,
            "points": [float(p) for p in self.points],
            "hbar": [float(h) for h in self.hbar_values],
            "levels": list(self.levels),
            "point_seeds": self.point_seeds,
        }
        for key, value in self.values.items():
            payload[key] = [[float(v) for v in row] for row in value]
        json.dump(payload, out, sort_keys=True, indent=2)
        out.write("\n")


def _point_seed(master_seed: int, point_index: int, level_index: int) -> int:
    seq = np.random.SeedSequence(master_seed, spawn_key=(point_index, level_index))
    return int(seq.generate_state(1, np.uint64)[0])


def run_scan(spec: ScanSpec, workers: int = 1) -> EnergyCurve:
    """Run every cell on a pool of `workers` threads; the result does not depend on it."""
    points = spec.points()
    hbars = np.array([spec.hbar_of(p) for p in points])
    levels = spec.levels
    seeds = [
        [_point_seed(spec.seed, pi, li) for pi in range(len(points))]
        for li in range(len(levels))
    ]
    config = dict(asdict(spec), version=__version__)

    engine, columns, keys, _ = _CELLS[spec.engine]

    def task(cell: tuple[int, int]) -> tuple[float, float]:
        li, pi = cell
        cfg = spec.noise_config(levels[li], seeds[li][pi])
        return engine(spec, float(hbars[pi]), levels[li], cfg, spec.realizations_at(levels[li]))

    tasks = [(li, pi) for li in range(len(levels)) for pi in range(len(points))]
    log.info(
        "scan: engine=%s, %d points x %d levels, %d workers",
        spec.engine, len(points), len(levels), workers,
    )
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(task, tasks))
    values = np.array(results).reshape(len(levels), len(points), 2).transpose(2, 0, 1)
    return EnergyCurve(
        abscissa_name=spec.abscissa,
        points=points,
        hbar_values=hbars,
        levels=levels,
        columns=columns,
        values=dict(zip(keys, values)),
        config=config,
        point_seeds=seeds,
    )


def run_portrait(
    p: EpsParams, cfg: NoiseConfig, n_phi: int, n_rho: int, n_iters: int, out: IO[str]
) -> None:
    """Write a phase-portrait point cloud as two-column CSV."""
    points = phase_portrait(p, n_phi=n_phi, n_rho=n_rho, n_iters=n_iters, cfg=cfg)
    meta = {
        "epsilon": p.epsilon,
        "kick_ratio": p.kick_ratio,
        "amplitude_level": cfg.amplitude_level,
        "grid": [n_phi, n_rho],
        "iters": n_iters,
        "seed": cfg.master_seed,
        "version": __version__,
    }
    out.write(f"# meta: {json.dumps(meta, sort_keys=True)}\n")
    out.write("phi,rho\n")
    for phi, rho in points:
        out.write(f"{float(phi)!r},{float(rho)!r}\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; remap to 1 (validation)."""

    def error(self, message: str):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="aokr", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="energy curve over an abscissa range", description=(
        "A key that only some engines read must keep its default on the others."))
    scan.add_argument("--config", help="JSON configuration file (flags override it)")
    # each key is a flag; an absent flag leaves it None
    for key, (kind, _, many, choices, _) in zip(fields(ScanSpec), field_schema(ScanSpec).values()):
        readers = [engine for engine, cell in _CELLS.items() if key.name in cell[3]]
        note = f"(read by {', '.join(readers)})" if len(readers) < len(ENGINES) else ""
        scan.add_argument(
            "--" + key.name.replace("_", "-"), dest=key.name, type=kind,
            choices=choices, nargs="+" if many else None,
            help=" ".join(filter(None, (key.metadata.get("help"), note))) or None,
        )
    scan.add_argument("--workers", type=int, default=1)
    scan.add_argument("--out", required=True, help="CSV output path ('-' for stdout)")
    scan.add_argument("--json", dest="json_path", help="JSON sidecar path")

    portrait = sub.add_parser("portrait", help="map phase-space point cloud")
    portrait.add_argument("--epsilon", type=float, required=True)
    portrait.add_argument("--kick-ratio", dest="kick_ratio", type=float, required=True)
    portrait.add_argument("--level", type=float, default=0.0)
    portrait.add_argument("--grid", default="16x16", help="initial grid, e.g. 16x16")
    portrait.add_argument("--iters", type=int, default=128)
    portrait.add_argument("--seed", type=int, default=0)
    portrait.add_argument("--out", required=True, help="CSV output path ('-' for stdout)")

    predict = sub.add_parser("predict", help="closed-form diffusion rates")
    predict.add_argument("--kick-ratio", dest="kick_ratio", type=float, required=True)
    predict.add_argument("--hbar", type=float, required=True)
    predict.add_argument("--level", type=float, default=0.0)

    extract = sub.add_parser("extract-k", help="kick ratio from a measured peak energy")
    extract.add_argument("--energy", type=float, required=True)
    extract.add_argument("--kicks", type=int, required=True)
    extract.add_argument(
        "--mode",
        choices=("quasilinear", "resonant", "resonant-max-noise"),
        default="quasilinear",
    )

    return parser


@contextmanager
def _output(path: str) -> Iterator[IO[str]]:
    """A text stream for `path`, where '-' is stdout.

    Any other path is written through a temporary file beside it, opened on
    entry so that a bad path (a directory, say) fails before any work.  The
    file replaces `path` when the block succeeds and is removed when it
    fails, so no truncated output is ever left behind.
    """
    if path == "-":
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise ConfigError(f"output {path!r} is a directory")
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    log.info("wrote %s", path)


def _cmd_scan(args: argparse.Namespace) -> int:
    overrides = {key: getattr(args, key) for key in field_schema(ScanSpec)}
    spec = load_config(args.config, overrides) if args.config else build_spec({}, overrides)
    if not 1 <= args.workers <= MAX_WORKERS:
        raise ConfigError(f"workers must lie in [1, {MAX_WORKERS}], got {args.workers}")
    if args.json_path and (
        args.json_path == args.out if "-" in (args.out, args.json_path)
        else os.path.realpath(args.json_path) == os.path.realpath(args.out)
    ):  # '-' is stdout, never a file named '-'
        raise ConfigError(f"--json {args.json_path!r} names the same output as --out {args.out!r}")
    with _output(args.out) as out, (
        _output(args.json_path) if args.json_path else nullcontext()
    ) as sidecar:
        curve = run_scan(spec, workers=args.workers)
        curve.to_csv(out)
        if sidecar is not None:
            curve.to_json(sidecar)
    return 0


def _cmd_portrait(args: argparse.Namespace) -> int:
    try:
        n_phi, n_rho = (int(part) for part in args.grid.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"grid must look like 16x16, got {args.grid!r}") from exc
    if n_phi * n_rho * (args.iters + 1) > MAX_PORTRAIT_POINTS:
        raise ConfigError(f"grid {n_phi}x{n_rho} over {args.iters} iterations makes "
                          f"more than {MAX_PORTRAIT_POINTS} points")
    p = EpsParams(epsilon=args.epsilon, kick_ratio=args.kick_ratio)
    cfg = NoiseConfig(amplitude_level=args.level, master_seed=args.seed)
    check_portrait(p, n_phi, n_rho, args.iters, cfg)
    with _output(args.out) as out:
        run_portrait(p, cfg, n_phi, n_rho, args.iters, out)
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if not 0.0 <= args.kick_ratio < math.inf:
        raise ConfigError(f"kick_ratio must be finite and >= 0, got {args.kick_ratio}")
    if not 0.0 < args.hbar < math.inf:
        raise ConfigError(f"hbar must be finite and positive, got {args.hbar}")
    if not 0.0 <= args.level <= AMPLITUDE_LEVEL_MAX:
        raise ConfigError(f"level must lie in [0, {AMPLITUDE_LEVEL_MAX}], got {args.level}")
    _check_bessel_argument(args.kick_ratio, args.hbar, args.level)
    rates = _rates(args.kick_ratio, args.hbar, args.level)
    row = ",".join(repr(x) for x in (args.hbar, args.level, *rates))
    sys.stdout.write(f"hbar,level,d_classical,d_quantum\n{row}\n")
    return 0


def _cmd_extract_k(args: argparse.Namespace) -> int:
    ratio = kick_strength_from_energy(args.energy, args.kicks, args.mode)
    sys.stdout.write(f"{ratio!r}\n")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(message)s")
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help/--version or flag errors
            return int(exc.code or 0)
        commands = {"scan": _cmd_scan, "portrait": _cmd_portrait, "predict": _cmd_predict,
                    "extract-k": _cmd_extract_k}
        return commands[args.command](args)
    except (ConfigError, ValueError) as exc:
        log.error("configuration error: %s", exc)
        return 1
    except (CutoffError, RuntimeError, OSError, MemoryError) as exc:
        log.error("runtime error: %s", exc)  # numpy's MemoryError names its allocation
        return 2


if __name__ == "__main__":
    sys.exit(main())
