"""The package namespace: every public name stays importable from `aokr`."""

import ast
from pathlib import Path

import aokr

# the names `aokr.__all__` listed before the single-atom operators `kick`,
# `free_evolve` and `reshuffle` were folded into the batched stepper, less
# `diffusion_curve` and `write_diffusion_curve`, which `aokr predict` replaced,
# and `eps_step_inverse`, which only the tests ran and which they now keep
PUBLIC_NAMES = """
    __version__ OMEGA_R_CS DetuningError LabParams ScaledParams effective_potential
    hbar_from_period scale_params AMPLITUDE_LEVEL_MAX PERIOD_LEVEL_MAX IntervalError
    NoiseConfig NoiseLevelError NoiseRealization free_evolution_intervals
    sample_realization stream_rng QuadratureError UnsupportedLevelError bessel_j
    bessel_j_row diffusion_rate diffusion_rate_with_noise
    kick_strength_from_energy noise_averaged_bessel quantum_kick_strength
    resonance_height AUTO_CUTOFF_CAP CutoffError EnsembleSpec
    MomentumDistribution QuantumState ensemble_energy ensemble_energy_history
    evolve_atom momentum_distribution plane_wave sample_atoms EpsilonZeroError
    EpsParams UnsupportedNoiseError classical_map_energy eps_energy eps_energy_history
    eps_step phase_portrait
""".split()

# (module, name) imported but never read in that module, with the reason it stays
UNREAD_IMPORTS = {
    ("cli", "diffusion_rate"): "bench/tracing.py wraps the rate by this name in aokr.cli",
}


def test_package_exports_every_public_name():
    assert len(PUBLIC_NAMES) == 46
    missing = [name for name in PUBLIC_NAMES if not hasattr(aokr, name)]
    assert missing == []
    for removed in ("kick", "free_evolve", "reshuffle"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.qkr, removed)
    for removed in ("diffusion_curve", "write_diffusion_curve"):
        assert not hasattr(aokr, removed)
        assert not hasattr(aokr.theory, removed)
    assert not hasattr(aokr, "eps_step_inverse")
    assert not hasattr(aokr.epsmap, "eps_step_inverse")


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
