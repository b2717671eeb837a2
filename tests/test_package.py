"""The package namespace: every public name stays importable from `aokr`."""

import ast
import sys
from dataclasses import fields
from pathlib import Path

import aokr

# the names `aokr.__all__` listed before the single-atom operators `kick`,
# `free_evolve` and `reshuffle` were folded into the batched stepper, less
# `diffusion_curve` and `write_diffusion_curve`, which `aokr predict` replaced,
# `eps_step_inverse` and `classical_map_energy`, which only the tests ran and
# which they now keep, `QuadratureError`, whose quadrature the closed-form
# Bessel averages replaced, the laboratory-unit layer no command used, the
# single-atom API and momentum histogram that only the tests ran, `bessel_j`,
# which `noise_averaged_bessel(order, x, 0.0)` computes bit for bit, and
# `resonance_height`, which only the tests ran
PUBLIC_NAMES = """
    __version__ OMEGA_R_CS ScaledParams hbar_from_period AMPLITUDE_LEVEL_MAX
    PERIOD_LEVEL_MAX IntervalError
    NoiseConfig NoiseLevelError NoiseRealization free_evolution_intervals
    sample_realization stream_rng UnsupportedLevelError
    bessel_j_row diffusion_rate diffusion_rate_with_noise
    kick_strength_from_energy noise_averaged_bessel quantum_kick_strength
    AUTO_CUTOFF_CAP CutoffError EnsembleSpec
    ensemble_energy ensemble_energy_history sample_atoms EpsilonZeroError
    EpsParams UnsupportedNoiseError eps_energy eps_energy_history
    eps_step phase_portrait
""".split()

# (module, name) imported but never read in that module, with the reason it stays
UNREAD_IMPORTS = {
    ("cli", "diffusion_rate"): "bench/tracing.py wraps the rate by this name in aokr.cli",
}


def test_package_exports_every_public_name():
    assert len(PUBLIC_NAMES) == 33
    missing = [name for name in PUBLIC_NAMES if not hasattr(aokr, name)]
    assert missing == []
    for removed in ("kick", "free_evolve", "reshuffle"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.qkr, removed)
    for removed in ("diffusion_curve", "write_diffusion_curve"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.theory, removed)
    for removed in ("eps_step_inverse", "classical_map_energy"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.epsmap, removed)
    for removed in ("LabParams", "scale_params", "effective_potential", "DetuningError",
                    "MIN_DETUNING_RATIO"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.core, removed)
    assert not hasattr(aokr.epsmap, "_norm_ppf")  # epsmap reads no private qkr name
    for removed in ("QuantumState", "plane_wave", "evolve_atom", "momentum_distribution",
                    "MomentumDistribution", "DEFAULT_BIN_WIDTH", "NORM_TOLERANCE"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.qkr, removed)
    assert not hasattr(aokr.ScaledParams, "kick_ratio")
    for removed in ("QuadratureError", "bessel_j", "resonance_height"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.theory, removed)


def test_eps_params_carry_no_quasimomentum():
    # beta is per trajectory and goes to eps_step, never through the parameters
    assert [f.name for f in fields(aokr.EpsParams)] == [
        "epsilon", "kick_ratio", "resonance_order"
    ]


def _unread_imports(source: str) -> list[str]:
    """Names a module's import statements bind that no expression in it reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; `from m import a as b` binds `b`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\nimport json\nimport numpy.fft\n"
        "from math import pi as PI, tau\nx: tau = numpy.fft.fft(PI)\n"
    )
    assert _unread_imports(source) == ["json"]


def test_no_module_imports_a_name_it_never_reads():
    modules = sorted(Path(aokr.__file__).parent.glob("*.py"))
    names = [path.stem for path in modules if path.stem != "__init__"]
    assert names == ["cli", "core", "epsmap", "noise", "qkr", "theory"]
    unread = {
        (path.stem, name)
        for path in modules
        if path.stem != "__init__"
        for name in _unread_imports(path.read_text(encoding="utf-8"))
    }
    assert unread == set(UNREAD_IMPORTS)


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules a source imports that are neither stdlib, numpy nor relative."""
    foreign = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:
            continue
        foreign.update(
            root for root in roots if root != "numpy" and root not in sys.stdlib_module_names
        )
    return sorted(foreign)


def test_foreign_imports_are_found():
    source = (
        "import json, numpy.fft\nfrom . import core\nfrom .theory import x\n"
        "import scipy.special\nfrom mpmath import besselj\n"
        "def f():\n    from numpy import pi\n    import hypothesis as h\n"
    )
    assert _foreign_imports(source) == ["hypothesis", "mpmath", "scipy"]


def test_runtime_imports_only_the_standard_library_and_numpy():
    # README and pyproject promise a numpy-only runtime
    modules = sorted(Path(aokr.__file__).parent.glob("*.py"))
    assert len(modules) == 7
    foreign = {
        path.name: _foreign_imports(path.read_text(encoding="utf-8")) for path in modules
    }
    assert foreign == {path.name: [] for path in modules}
