"""Scan configuration, curve serialization, determinism, and exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from aokr import cli
from aokr.cli import (
    ConfigError,
    EnergyCurve,
    ScanSpec,
    _point_seed,
    build_spec,
    load_config,
    main,
    run_scan,
)
from aokr.core import ScaledParams, field_schema
from aokr.epsmap import EpsParams, eps_energy
from aokr.noise import NoiseConfig
from aokr.qkr import EnsembleSpec
from aokr.theory import diffusion_rate, diffusion_rate_with_noise, kick_strength_from_energy

TWO_PI = 2.0 * math.pi

MINIMAL = {
    "engine": "theory",
    "abscissa": "hbar",
    "lo": 6.0,
    "hi": 6.6,
    "step": 0.3,
    "kick_ratio": 3.7,
}


# ---------------------------------------------------------------------------
# spec construction
# ---------------------------------------------------------------------------

def test_build_spec_defaults():
    spec = build_spec(MINIMAL)
    assert spec.levels == (0.0,)
    assert spec.kicks == 20 and spec.atoms == 1000
    assert spec.realizations is None and spec.cutoff is None


def test_build_spec_strictness():
    with pytest.raises(ConfigError, match="unknown"):
        build_spec(dict(MINIMAL, kick_rato=3.7))
    with pytest.raises(ConfigError, match="missing"):
        build_spec({"engine": "theory"})
    with pytest.raises(ConfigError, match="levels"):
        build_spec(dict(MINIMAL, levels=2.0))
    with pytest.raises(ConfigError):
        build_spec(dict(MINIMAL, atoms="ten"))


def test_build_spec_overrides():
    quantum = dict(MINIMAL, engine="quantum")
    spec = build_spec(quantum, {"kicks": 5, "atoms": None, "levels": (1.0,)})
    assert spec.kicks == 5
    assert spec.atoms == 1000  # None means "flag not given"
    assert spec.levels == (1.0,)


def test_spec_field_validation_names_the_field():
    with pytest.raises(ConfigError, match="engine"):
        build_spec(dict(MINIMAL, engine="quantal"))
    with pytest.raises(ConfigError, match="abscissa"):
        build_spec(dict(MINIMAL, abscissa="velocity"))
    with pytest.raises(ConfigError, match="noise"):
        build_spec(dict(MINIMAL, noise="phase"))
    with pytest.raises(ConfigError, match="lo"):
        build_spec(dict(MINIMAL, lo=7.0))
    with pytest.raises(ConfigError, match="step"):
        build_spec(dict(MINIMAL, step=0.0))
    with pytest.raises(ConfigError, match="levels"):
        build_spec(dict(MINIMAL, levels=[]))
    with pytest.raises(ConfigError, match=r"levels\[1\].*\[0, 2\.0\]"):
        build_spec(dict(MINIMAL, engine="quantum", levels=[0.0, 2.5]))
    with pytest.raises(ConfigError, match=r"levels\[0\].*\[0, 1\.0\)"):
        build_spec(dict(MINIMAL, engine="quantum", noise="period", levels=[1.0]))
    with pytest.raises(ConfigError, match="kick_ratio"):
        build_spec(dict(MINIMAL, kick_ratio=-1.0))
    with pytest.raises(ConfigError, match="kicks must be >= 0"):
        build_spec(dict(MINIMAL, engine="quantum", kicks=-1))
    with pytest.raises(ConfigError, match=r"^atoms must be >= 1, got 0$"):
        build_spec(dict(MINIMAL, engine="quantum", atoms=0))
    with pytest.raises(ConfigError, match="realizations must be >= 1"):
        build_spec(dict(MINIMAL, engine="quantum", realizations=0))
    with pytest.raises(ConfigError, match="seed"):
        build_spec(dict(MINIMAL, seed=-1))
    with pytest.raises(ConfigError, match=r"^se_probability must lie in \[0, 1\], got 1\.5$"):
        build_spec(dict(MINIMAL, engine="quantum", se_probability=1.5))
    with pytest.raises(ConfigError, match="resonance_order"):
        build_spec(dict(MINIMAL, resonance_order=0))
    with pytest.raises(ConfigError, match="beta_mode"):
        build_spec(dict(MINIMAL, engine="quantum", beta_mode="warm"))
    with pytest.raises(ConfigError, match="sigma_p"):
        build_spec(dict(MINIMAL, engine="quantum", sigma_p=-2.0))
    # a single-key range is checked before the cross-key lo < hi
    with pytest.raises(ConfigError, match=r"^sigma_p must be positive, got -1\.0$"):
        build_spec(dict(MINIMAL, engine="quantum", sigma_p=-1.0, lo=7.0))
    with pytest.raises(ConfigError, match="kick_ratio must be finite"):
        build_spec(dict(MINIMAL, kick_ratio=float("nan")))
    with pytest.raises(ConfigError, match="hi must be finite"):
        build_spec(dict(MINIMAL, hi=float("inf")))
    with pytest.raises(ConfigError, match=r"levels\[1\] must be finite, got nan"):
        build_spec(dict(MINIMAL, levels=[0.0, float("nan")]))
    with pytest.raises(ConfigError, match="p_max must be finite"):
        build_spec(dict(MINIMAL, engine="quantum", p_max=float("inf")))
    with pytest.raises(ConfigError, match=f"step.*more than {cli.MAX_POINTS} points"):
        build_spec(dict(MINIMAL, step=1e-12))
    with pytest.raises(ConfigError, match="step"):
        build_spec(dict(MINIMAL, lo=-1e308, hi=1e308))
    edge = build_spec(dict(MINIMAL, lo=1.0, hi=float(cli.MAX_POINTS), step=1.0, kick_ratio=1.0))
    assert len(edge.points()) == cli.MAX_POINTS
    # theory: kick_ratio * hbar(hi) * (1 + max level / 2) <= ARGUMENT_MAX = 1e5
    at_limit = dict(MINIMAL, hi=6.25, kick_ratio=8000.0, levels=[0.0, 2.0])
    assert build_spec(at_limit).kick_ratio == 8000.0
    with pytest.raises(ConfigError, match=r"kick_ratio \* hbar .* = 100006 exceeds 100000"):
        build_spec(dict(at_limit, kick_ratio=8000.5))
    assert build_spec(dict(at_limit, kick_ratio=16000.0, levels=[0.0])).kick_ratio == 16000.0
    with pytest.raises(ConfigError, match="kick_ratio"):
        build_spec(dict(at_limit, kick_ratio=16000.5, levels=[0.0]))
    with pytest.raises(ConfigError, match="kick_ratio"):  # hbar(hi) = 2 pi + 0.01
        build_spec(dict(MINIMAL, abscissa="epsilon", lo=-0.01, hi=0.01, step=0.01,
                        kick_ratio=1e5 / (TWO_PI + 0.0099)))
    # the last point lies past hi: 11 points up to 6.0 over [5, 6 - 2e-11], and
    # the largest kick_ratio within the bound at hi exceeds it there
    past_hi = dict(MINIMAL, lo=5.0, hi=5.0 + 1.0 * (1 - 2e-11), step=0.1,
                   kick_ratio=16666.66666672222)
    assert past_hi["kick_ratio"] * past_hi["hi"] <= 1e5 < past_hi["kick_ratio"] * 6.0
    with pytest.raises(ConfigError, match=r"kick_ratio \* hbar .* exceeds 100000"):
        build_spec(past_hi)
    assert build_spec(dict(at_limit, engine="quantum", kick_ratio=1e6)).kick_ratio == 1e6


# what each engine models: the ensemble and noise keys that it does not read.
# The map explains amplitude noise only and has no detection window or SE;
# theory is a closed-form rate of kick_ratio, hbar and the level.
_ENSEMBLE_KEYS = ("noise", "kicks", "atoms", "realizations", "sigma_p", "beta_mode",
                  "beta_fixed", "kick_spread", "p_max", "cutoff", "se_probability")
_NOT_READ = {
    "quantum": (),
    "eps-classical": ("noise", "p_max", "se_probability", "cutoff"),
    "theory": _ENSEMBLE_KEYS,
}
# a valid value other than the default, as flags
_OFF_DEFAULT = dict(noise="period", kicks="5", atoms="7", realizations="5", sigma_p="1.5",
                    beta_mode="uniform", beta_fixed="0.5", kick_spread="0.3", p_max="30",
                    cutoff="32", se_probability="0.1")


def test_engine_table_names_every_key():
    keys = {key.name for key in fields(ScanSpec)}
    assert set(_ENSEMBLE_KEYS) <= keys and set(_OFF_DEFAULT) == set(_ENSEMBLE_KEYS)
    for engine, (*_, reads) in cli._CELLS.items():
        assert reads == keys - set(_NOT_READ[engine]), engine


@pytest.mark.parametrize(
    "engine, key", [(engine, key) for engine, keys in _NOT_READ.items() for key in keys]
)
def test_engine_rejects_a_key_it_does_not_read(tmp_path, monkeypatch, caplog, capsys,
                                               engine, key):
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    value = _OFF_DEFAULT[key]
    args = ["scan", "--engine", engine, "--abscissa", "hbar", "--lo", "6.1", "--hi", "6.3",
            "--step", "0.1", "--kick-ratio", "2.0", "--" + key.replace("_", "-"), value,
            "--out", str(tmp_path / "out.csv"), "--json", str(tmp_path / "out.json")]
    assert main(args) == 1
    message = caplog.records[-1].getMessage()
    assert message.startswith(f"configuration error: {key} = ")
    assert f"engine {engine!r} does not model it" in message
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_engine_noise_compatibility():
    # every engine accepts the keys it does not read at their defaults
    defaults = {key.name: key.default for key in fields(ScanSpec) if key.name in _ENSEMBLE_KEYS}
    for engine in _NOT_READ:
        assert build_spec(dict(MINIMAL, engine=engine, **defaults)).engine == engine
    # the scan-level seed sets the sidecar's point seeds of any engine
    assert build_spec(dict(MINIMAL, seed=7)).seed == 7
    quantum = build_spec(
        dict(MINIMAL, engine="quantum", noise="period", levels=[0.1], se_probability=0.2)
    )
    assert quantum.se_probability == 0.2


def test_points_fencepost():
    spec = build_spec(
        dict(MINIMAL, lo=TWO_PI - 0.2, hi=TWO_PI + 0.2, step=0.05)
    )
    pts = spec.points()
    assert len(pts) == 9
    assert pts[0] == pytest.approx(TWO_PI - 0.2)
    assert pts[-1] == pytest.approx(TWO_PI + 0.2)
    ragged = build_spec(dict(MINIMAL, lo=1.0, hi=2.0, step=0.3))
    assert np.allclose(ragged.points(), [1.0, 1.3, 1.6, 1.9])


def test_hbar_conversions():
    spec = build_spec(dict(MINIMAL, abscissa="epsilon", lo=-0.1, hi=0.1, step=0.1))
    assert spec.hbar_of(0.04) == pytest.approx(TWO_PI + 0.04)
    second = build_spec(
        dict(MINIMAL, abscissa="epsilon", lo=-0.1, hi=0.1, step=0.1, resonance_order=2)
    )
    assert second.hbar_of(-0.02) == pytest.approx(2 * TWO_PI - 0.02)
    micro = build_spec(dict(MINIMAL, abscissa="period-us", lo=55.0, hi=66.0, step=5.5))
    assert micro.hbar_of(60.5) == pytest.approx(TWO_PI, rel=1e-12)
    plain = build_spec(MINIMAL)
    assert plain.hbar_of(6.1) == 6.1


def test_realization_defaults():
    spec = build_spec(dict(MINIMAL, engine="quantum", levels=[0.0, 2.0]))
    assert spec.realizations_at(0.0) == 3
    assert spec.realizations_at(2.0) == 12
    pinned = build_spec(dict(MINIMAL, engine="quantum", realizations=7))
    assert pinned.realizations_at(0.0) == 7 and pinned.realizations_at(2.0) == 7


def test_ensemble_mapping():
    spec = build_spec(
        dict(MINIMAL, engine="quantum", atoms=42, sigma_p=1.5, cutoff=64, p_max=30.0)
    )
    ens = spec.ensemble()
    assert ens.n_atoms == 42 and ens.sigma_p == 1.5
    assert ens.cutoff == 64 and ens.p_max == 30.0


@pytest.mark.parametrize("key, record, name", [
    ("kick_ratio", EpsParams, "kick_ratio"), ("resonance_order", EpsParams, "resonance_order"),
    ("kicks", ScaledParams, "kick_count"), ("atoms", EnsembleSpec, "n_atoms"),
    ("sigma_p", EnsembleSpec, "sigma_p"), ("beta_mode", EnsembleSpec, "beta_mode"),
    ("beta_fixed", EnsembleSpec, "beta_fixed"), ("kick_spread", EnsembleSpec, "kick_spread"),
    ("p_max", EnsembleSpec, "p_max"), ("cutoff", EnsembleSpec, "cutoff"),
    ("seed", NoiseConfig, "master_seed"), ("se_probability", NoiseConfig, "se_probability"),
])
def test_engine_keys_are_declared_as_their_record_fields(key, record, name):
    # type, choices and range, then the default; the annotations are written twice
    assert field_schema(ScanSpec)[key] == field_schema(record)[name]
    assert ScanSpec.__dataclass_fields__[key].default == record.__dataclass_fields__[name].default


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def test_load_config_round_trip(tmp_path):
    path = tmp_path / "scan.json"
    path.write_text(json.dumps(dict(MINIMAL, engine="quantum", levels=[0.0, 1.0])))
    spec = load_config(str(path))
    assert spec.levels == (0.0, 1.0)
    spec = load_config(str(path), {"kicks": 9, "seed": None})
    assert spec.kicks == 9 and spec.seed == 0


def test_load_config_rejects_bad_files(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        load_config(str(bad))
    dup = tmp_path / "dup.json"
    dup.write_text('{"engine": "theory", "engine": "quantum"}')
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(str(dup))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="root"):
        load_config(str(arr))


# ---------------------------------------------------------------------------
# scan execution and serialization
# ---------------------------------------------------------------------------

def test_theory_scan_values_and_csv():
    spec = build_spec(dict(MINIMAL, levels=[0.0, 2.0]))
    curve = run_scan(spec)
    pts = spec.points()
    assert curve.columns == ("d_classical", "d_quantum")
    assert list(curve.values) == ["d_classical", "d_quantum"]
    assert curve.values["d_quantum"].shape == (2, len(pts))
    k0 = 3.7 * pts[0]
    assert curve.values["d_classical"][0, 0] == pytest.approx(
        diffusion_rate(k0, pts[0], "classical")
    )
    assert curve.values["d_quantum"][0, 0] == pytest.approx(diffusion_rate(k0, pts[0], "quantum"))
    assert curve.values["d_quantum"][1, 0] == pytest.approx(
        diffusion_rate_with_noise(k0, pts[0], 2.0, "quantum")
    )

    buf = io.StringIO()
    curve.to_csv(buf)
    lines = buf.getvalue().splitlines()
    meta = json.loads(lines[0].removeprefix("# meta: "))
    assert meta["engine"] == "theory" and meta["kick_ratio"] == 3.7
    assert "version" in meta
    assert lines[1] == "hbar,level,d_classical,d_quantum"
    assert len(lines) == 2 + 2 * len(pts)
    first = [float(x) for x in lines[2].split(",")]
    assert first[0] == pts[0] and first[1] == 0.0

    jbuf = io.StringIO()
    curve.to_json(jbuf)
    payload = json.loads(jbuf.getvalue())
    assert "d_quantum" in payload and "d_classical" in payload
    assert "energies" not in payload and "sems" not in payload
    assert payload["levels"] == [0.0, 2.0]
    assert payload["point_seeds"] == curve.point_seeds


def test_point_seeds_are_stable_per_cell():
    spec = build_spec(dict(MINIMAL, engine="quantum", atoms=2, cutoff=32, kicks=1))
    curve = run_scan(spec)
    for li in range(1):
        for pi in range(len(spec.points())):
            assert curve.point_seeds[li][pi] == _point_seed(spec.seed, pi, li)


def test_quantum_scan_worker_count_does_not_change_bytes():
    spec = build_spec(
        dict(
            MINIMAL,
            engine="quantum",
            lo=6.1,
            hi=6.5,
            step=0.2,
            atoms=8,
            cutoff=48,
            kicks=3,
            realizations=2,
            levels=[1.0],
        )
    )
    serial = io.StringIO()
    run_scan(spec, workers=1).to_csv(serial)
    threaded = io.StringIO()
    run_scan(spec, workers=4).to_csv(threaded)
    assert serial.getvalue() == threaded.getvalue()


def test_eps_scan_matches_direct_call():
    spec = build_spec(
        dict(
            MINIMAL,
            engine="eps-classical",
            abscissa="epsilon",
            lo=-0.04,
            hi=0.04,
            step=0.04,
            atoms=64,
            kicks=5,
            realizations=2,
            beta_mode="uniform",
        )
    )
    curve = run_scan(spec)
    pts = spec.points()
    assert list(pts) == pytest.approx([-0.04, 0.0, 0.04])
    want, _ = eps_energy(
        EpsParams(epsilon=-0.04, kick_ratio=3.7),
        5,
        spec.ensemble(),
        NoiseConfig(master_seed=_point_seed(0, 0, 0)),
        n_realizations=2,
    )
    assert curve.values["energies"][0, 0] == pytest.approx(want[-1], rel=1e-12)
    # epsilon abscissa carries an explicit hbar column
    buf = io.StringIO()
    curve.to_csv(buf)
    assert buf.getvalue().splitlines()[1] == "epsilon,hbar,level,energy,sem"


def test_map_scan_takes_a_hot_cloud(tmp_path):
    # the map has no ladder, and no ladder bounds the atoms' |n0|: a sigma_p
    # = 120 cloud (|n0| up to 459) once exited 2, "too close to the
    # automatic ladder's cap M = 512"
    out = tmp_path / "out.csv"
    assert main(["scan", "--engine", "eps-classical", "--abscissa", "epsilon", "--lo", "0.01",
                 "--hi", "0.02", "--step", "0.01", "--kick-ratio", "3.63", "--kicks", "5",
                 "--atoms", "1000", "--realizations", "2", "--sigma-p", "120",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[2:]]
    assert len(rows) == 2
    for row in rows:  # E = <n^2> / 2 starts near sigma_p^2 / 2 = 7,200
        assert 0.9 * 7200.0 < float(row[-2]) < 1.2 * 7200.0


# sha256 of the CSV and the JSON sidecar of tiny seeded scans, one per engine
# and a quantum one with a detection window (numpy 2.4.6, x86-64).  Any change
# to a byte of the output, the version in its meta line included, changes
# them.  They hold whether or not numpy dispatches its AVX-512 loops, and the
# eps-classical and theory pins also on baseline loops alone
# (test_seeded_scan_bytes_hold_under_every_simd_dispatch).
_GOLDEN_SCANS = {
    "quantum": (
        dict(engine="quantum", abscissa="hbar", lo=6.2, hi=6.3, step=0.05, kick_ratio=2.0,
             noise="period", levels=[0.0, 0.1], se_probability=0.05, kick_spread=0.05,
             kicks=4, atoms=24, realizations=2, cutoff=48, seed=3),
        "7e00c2f632295f35799f5af5f0b638c41d2c90e96fe381c62619d4a343e226da",
        "05e8438121894fc6ff60b7c60f4cf5bde05a4c3b8633c71b1bb0596cf17039aa",
    ),
    "eps-classical": (
        dict(engine="eps-classical", abscissa="epsilon", lo=-0.05, hi=0.05, step=0.05,
             kick_ratio=2.0, levels=[0.0, 2.0], kicks=5, atoms=100, beta_mode="uniform",
             realizations=3, seed=3),
        "b30237890102026de12252e4548b3e95d38f8e4bb7b674587b55102a29718d0b",
        "851c467c47737c07864746a1046cf4d3c7e12fff045215719c7d556ddcf5708a",
    ),
    "theory": (
        dict(engine="theory", abscissa="hbar", lo=5.0, hi=5.2, step=0.1, kick_ratio=2.0,
             levels=[0.0, 2.0]),
        "cfd93505713de8e9e72b4737db10c7e8509497af4ee65dd47971394da968673c",
        "a7ea6566d1b6f4dea55734d0a667edd51a93ab27ac6dc471730698590772bb4b",
    ),
    # uniform gaps, amplitude noise, a kick spread and SE, with |p| <= 12 detected
    "quantum-window": (
        dict(engine="quantum", abscissa="hbar", lo=6.2, hi=6.3, step=0.05, kick_ratio=3.0,
             noise="amplitude", levels=[0.0, 2.0], se_probability=0.1, kick_spread=0.05,
             kicks=10, atoms=300, realizations=2, seed=5, p_max=12.0),
        "99c3cd2f28a4b33cae9ac0cf60dbd339ddd468de77ba37b8841a385428d79cba",
        "61e5a1cc67e73f21dd034abcf1f233f29ad2e02021ccf3047b44356ca492eb9e",
    ),
}


def _as_flags(raw):
    """The command-line flags that spell the configuration `raw`."""
    flags = []
    for key, value in raw.items():
        values = value if isinstance(value, list) else [value]
        flags += ["--" + key.replace("_", "-"), *map(str, values)]
    return flags


@pytest.mark.parametrize("engine", sorted(_GOLDEN_SCANS))
def test_seeded_scan_bytes_are_pinned(tmp_path, engine):
    # the same scan from a config file and from flags: a flag parsed as the
    # wrong type (kicks as float, say) would change the meta line
    raw, csv_sha, json_sha = _GOLDEN_SCANS[engine]
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(raw))
    for source in (["--config", str(config)], _as_flags(raw)):
        out, sidecar = tmp_path / "out.csv", tmp_path / "out.json"
        assert main(["scan", *source, "--out", str(out), "--json", str(sidecar)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
        assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == json_sha


def test_integer_values_of_real_keys_give_the_pinned_bytes(tmp_path):
    # 5 and 5.0 are the same scan; the meta line and sidecar once wrote "lo": 5
    raw, csv_sha, json_sha = _GOLDEN_SCANS["theory"]
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(dict(raw, lo=5, kick_ratio=2, levels=[0, 2])))
    out, sidecar = tmp_path / "out.csv", tmp_path / "out.json"
    assert main(["scan", "--config", str(config), "--out", str(out), "--json", str(sidecar)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(sidecar.read_bytes()).hexdigest() == json_sha


# sha256 of two tiny seeded phase portraits with amplitude noise, one at each
# sign of eps (the map kernel turns phi by sign(eps) rho).  They also hold at
# both dispatch levels of the test below.
_GOLDEN_PORTRAITS = {
    eps: (["--epsilon", eps, "--kick-ratio", "3.7", "--level", "2.0", "--grid", "8x8",
           "--iters", "64", "--seed", "3"], sha)
    for eps, sha in (
        ("0.02", "f58e36b54fc58456f6e51784ee63ea8331cd21f3ec897f1a8b0ad9503f3a7709"),
        ("-0.05", "5a7562ed89408096c460931fc1dcf6b093874fe7c581d2ca5d53f15e9912ebb0"),
    )
}


@pytest.mark.parametrize("epsilon", sorted(_GOLDEN_PORTRAITS))
def test_seeded_portrait_bytes_are_pinned(tmp_path, epsilon):
    flags, sha = _GOLDEN_PORTRAITS[epsilon]
    out = tmp_path / "out.csv"
    assert main(["portrait", *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == sha


# NPY_DISABLE_CPU_FEATURES values: no AVX-512 loops, then baseline loops
# only (names numpy does not dispatch on are ignored, with a warning).  On
# baseline loops the quantum golden scan's s.e.m. moves by a few ulps, so
# that level checks the two engines whose arithmetic is dispatch-free.
_NO_AVX512 = "AVX512F AVX512CD AVX512_SKX AVX512_CLX AVX512_CNL AVX512_ICL AVX512_SPR X86_V4"
_BASELINE_ONLY = _NO_AVX512 + " AVX F16C FMA3 AVX2 X86_V3"

_GOLDEN_CHILD = """\
import hashlib, json, sys
from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
from aokr.cli import main
on = [f for f in sys.argv[1].split() if f in __cpu_dispatch__ and __cpu_features__[f]]
assert not on, on
hashes = {}
for name, argv in json.loads(sys.argv[2]).items():
    assert main(argv) == 0
    hashes[name] = [hashlib.sha256(open(argv[argv.index(flag) + 1], "rb").read()).hexdigest()
                    for flag in ("--out", "--json") if flag in argv]
print(json.dumps(hashes))
"""


# a quantum scan whose blocks fill qkr._BLOCK_SITES (819-910 atoms on the
# automatic ladder's last 72-80 sites), with a kick spread and SE: the
# stepper's per-kick sums then run over whole blocks
_FULL_BLOCK_SCAN = dict(engine="quantum", abscissa="hbar", lo=6.2, hi=6.3, step=0.1,
                        kick_ratio=5.0, noise="amplitude", levels=[0.0, 2.0],
                        se_probability=0.05, kick_spread=0.05, kicks=3, atoms=1000,
                        realizations=2, seed=3)


@pytest.mark.parametrize(
    "disabled, engines",
    [(_NO_AVX512, sorted(_GOLDEN_SCANS)), (_BASELINE_ONLY, ["eps-classical", "theory"])],
)
def test_seeded_scan_bytes_hold_under_every_simd_dispatch(tmp_path, disabled, engines):
    # the pins hold whichever SIMD loops numpy picks on the host, so a
    # machine without AVX-512 checks the same bytes
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=disabled,
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs = {engine: ["scan", *_as_flags(_GOLDEN_SCANS[engine][0]),
                     "--out", "out.csv", "--json", "out.json"] for engine in engines}
    want = {engine: list(_GOLDEN_SCANS[engine][1:]) for engine in engines}
    for epsilon, (flags, sha) in _GOLDEN_PORTRAITS.items():
        runs["portrait " + epsilon] = ["portrait", *flags, "--out", "out.csv"]
        want["portrait " + epsilon] = [sha]
    if "quantum" in engines:  # the same bytes as this process's default dispatch
        block = ["scan", *_as_flags(_FULL_BLOCK_SCAN), "--out"]
        assert main([*block, str(tmp_path / "default.csv")]) == 0
        runs["quantum block"] = [*block, "out.csv"]
        default = (tmp_path / "default.csv").read_bytes()
        want["quantum block"] = [hashlib.sha256(default).hexdigest()]
    run = subprocess.run([sys.executable, "-c", _GOLDEN_CHILD, disabled, json.dumps(runs)],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == want


# the quantum golden scan's rows (hbar, level, energy, sem) as printed when
# the period-noise free phase was a direct product of per-site power tables;
# the running-product tables move its level-0.1 rows by about 1e-14 relative
_QUANTUM_GOLDEN_ROWS = (
    (6.2, 0.0, 7.073270944543507, 0.4293298447782674),
    (6.25, 0.0, 8.994654919934248, 0.49211552426707245),
    (6.3, 0.0, 7.120196924859513, 0.3511562817241151),
    (6.2, 0.1, 7.628140628341309, 0.21908768074284876),
    (6.25, 0.1, 6.592322689570715, 0.6502046581978397),
    (6.3, 0.1, 7.093128713827909, 1.0874924990582377),
)


def test_quantum_golden_scan_values_hold_to_1e_13(tmp_path):
    out = tmp_path / "out.csv"
    assert main(["scan", *_as_flags(_GOLDEN_SCANS["quantum"][0]), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "hbar,level,energy,sem"
    rows = [tuple(map(float, line.split(","))) for line in lines[2:]]
    assert len(rows) == len(_QUANTUM_GOLDEN_ROWS)
    for got, want in zip(rows, _QUANTUM_GOLDEN_ROWS):
        assert got[:2] == want[:2]
        assert got[2:] == pytest.approx(want[2:], rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _scan_args(tmp_path, *extra):
    return [
        "scan", "--engine", "quantum", "--abscissa", "hbar",
        "--lo", "6.1", "--hi", "6.3", "--step", "0.1",
        "--kick-ratio", "2.0", "--atoms", "4", "--cutoff", "32",
        "--kicks", "2", "--realizations", "1",
        "--out", str(tmp_path / "out.csv"), *extra,
    ]


def test_main_scan_writes_csv_and_sidecar(tmp_path, capsys):
    code = main(_scan_args(tmp_path, "--json", str(tmp_path / "out.json")))
    assert code == 0
    text = (tmp_path / "out.csv").read_text()
    assert text.startswith("# meta: ")
    assert text.splitlines()[1] == "hbar,level,energy,sem"
    sidecar = json.loads((tmp_path / "out.json").read_text())
    assert sidecar["config"]["engine"] == "quantum"
    assert len(sidecar["points"]) == 3


def test_main_scan_stdout(capsys):
    code = main(
        [
            "scan", "--engine", "theory", "--abscissa", "hbar",
            "--lo", "6.0", "--hi", "6.2", "--step", "0.2",
            "--kick-ratio", "3.7", "--out", "-",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "hbar,level,d_classical,d_quantum"
    assert len(lines) == 4


def test_main_validation_failures_exit_one_without_output(tmp_path, capsys):
    out = tmp_path / "x.csv"
    args = [
        "scan", "--engine", "eps-classical", "--abscissa", "hbar",
        "--lo", "6.1", "--hi", "6.3", "--step", "0.1",
        "--kick-ratio", "2.0", "--noise", "period", "--levels", "0.1",
        "--out", str(out),
    ]
    assert main(args) == 1
    assert not out.exists()
    assert main(["scan", "--engine", "bogus", "--out", "-"]) == 1
    assert main(_scan_args(tmp_path, "--workers", "0")) == 1
    assert main(["bogus-command"]) == 1
    assert main(["portrait", "--epsilon", "0.02", "--kick-ratio", "1.0",
                 "--grid", "4y4", "--out", "-"]) == 1
    assert main(["portrait", "--epsilon", "0.0", "--kick-ratio", "1.0",
                 "--out", "-"]) == 1
    capsys.readouterr()
    assert main(["portrait", "--epsilon", "nan", "--kick-ratio", "1.0", "--out", "-"]) == 1
    assert main(["portrait", "--epsilon", "0.02", "--kick-ratio", "nan", "--out", "-"]) == 1
    # an angle that may pass the map's ANGLE_LIMIT, where its sine is no longer bounded
    assert main(["scan", "--engine", "eps-classical", "--abscissa", "epsilon", "--lo", "0.01",
                 "--hi", "0.02", "--step", "0.01", "--kick-ratio", "1e20", "--kicks", "5",
                 "--atoms", "100", "--beta-mode", "uniform", "--realizations", "1",
                 "--out", str(out)]) == 1
    assert not out.exists()
    assert main(["portrait", "--epsilon", "0.5", "--kick-ratio", "1e20", "--grid", "4x4",
                 "--iters", "5", "--out", "-"]) == 1
    # a portrait's values are checked before its output is opened
    for flags in (["--seed", "-1"], ["--epsilon", "0.0"]):
        assert main(["portrait", "--epsilon", "0.02", "--kick-ratio", "3.7", *flags,
                     "--out", str(tmp_path / "missing" / "x.csv")]) == 1
    for energy in ("nan", "inf"):
        assert main(["extract-k", "--energy", energy, "--kicks", "20"]) == 1
    assert capsys.readouterr().out == ""


def test_main_runtime_failure_exits_two(tmp_path, capsys):
    args = [
        "scan", "--engine", "quantum", "--abscissa", "hbar",
        "--lo", "6.28", "--hi", "6.29", "--step", "0.01",
        "--kick-ratio", "3.77", "--atoms", "2", "--cutoff", "8",
        "--kicks", "10", "--realizations", "1",
        "--beta-mode", "fixed", "--beta-fixed", "0.5",
        "--out", str(tmp_path / "y.csv"),
    ]
    assert main(args) == 2
    assert not (tmp_path / "y.csv").exists()
    assert list(tmp_path.iterdir()) == []  # the temporary file is gone too


def _refuse_to_scan(*args, **kwargs):
    raise AssertionError("the scan started")


@pytest.mark.parametrize(
    "extra, field",
    [
        (["--kick-ratio", "nan"], "kick_ratio"),
        (["--hi", "inf"], "hi"),
        (["--step", "1e-12"], "step"),
        (["--engine", "eps-classical", "--p-max", "30"], "p_max"),
        # a dict is a JSON config over MINIMAL, a theory scan, which reads no
        # ensemble knob; it also spells values that no flag can
        ({"kick_ratio": 1e5}, "kick_ratio"),
        (["--lo", "-0.2"], "lo"),  # hbar_eff <= 0 at the first point
        (["--abscissa", "epsilon", "--lo", "-7.0", "--hi", "0.1"], "lo"),
        (["--abscissa", "period-us", "--lo", "0.0", "--hi", "60.0"], "lo"),
        ({"p_max": 30.0}, "p_max"),
        ({"kick_spread": 0.3}, "kick_spread"),
        ({"lo": True}, "lo must be a number, got True"),
        ({"se_probability": False}, "se_probability must be a number, got False"),
        ({"levels": [True]}, "levels[0] must be a number, got True"),
        ({"levels": ["2"]}, "levels[0] must be a number, got '2'"),
        ({"kick_ratio": 10**400}, "kick_ratio must be finite"),  # beyond the float range
    ],
)
def test_main_rejects_bad_scan_input_before_any_work(tmp_path, monkeypatch, caplog, capsys,
                                                      extra, field):
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    made = []
    if isinstance(extra, dict):
        config = tmp_path / "scan.json"
        config.write_text(json.dumps(dict(MINIMAL, **extra)))
        args = ["scan", "--config", str(config), "--out", str(tmp_path / "out.csv")]
        made = [config]
    else:
        args = _scan_args(tmp_path, *extra)
    assert main(args) == 1
    assert caplog.records[-1].getMessage().startswith(f"configuration error: {field}")
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == made


@pytest.mark.parametrize("value", [2.5, True], ids=["2.5", "true"])
@pytest.mark.parametrize(
    "field", ["atoms", "kicks", "realizations", "seed", "cutoff", "resonance_order"]
)
def test_main_rejects_non_integer_counts_from_a_config(tmp_path, monkeypatch, caplog, capsys,
                                                       field, value):
    config = tmp_path / "scan.json"
    config.write_text(json.dumps(dict(MINIMAL, engine="quantum", **{field: value})))
    out = tmp_path / "out.csv"
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    assert main(["scan", "--config", str(config), "--out", str(out)]) == 1
    assert caplog.records[-1].getMessage().startswith(
        f"configuration error: {field} must be an integer"
    )
    assert "Traceback" not in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [config]


def test_spec_keeps_numpy_integer_counts_as_int():
    spec = build_spec(dict(MINIMAL, engine="quantum", kicks=np.int64(5), cutoff=np.int32(16)))
    assert spec.kicks == 5 and type(spec.kicks) is int
    assert spec.cutoff == 16 and type(spec.cutoff) is int
    assert build_spec(dict(MINIMAL, realizations=None, cutoff=None)).cutoff is None


class _RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers and maps serially."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_main_caps_workers_before_any_thread(tmp_path, monkeypatch, caplog):
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(cli, "ThreadPoolExecutor", _RecordingPool)
    for workers in (cli.MAX_WORKERS + 1, 10**9):
        assert main(_scan_args(tmp_path, "--workers", str(workers))) == 1
        assert caplog.records[-1].getMessage() == (
            f"configuration error: workers must lie in [1, {cli.MAX_WORKERS}], got {workers}"
        )
    assert _RecordingPool.sizes == []
    assert list(tmp_path.iterdir()) == []
    assert main(_scan_args(tmp_path, "--workers", str(cli.MAX_WORKERS))) == 0
    assert _RecordingPool.sizes == [cli.MAX_WORKERS]


def test_main_bad_output_path_fails_before_the_scan(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    missing = tmp_path / "missing"
    assert main(_scan_args(tmp_path, "--out", str(missing / "out.csv"))) == 2
    assert main(_scan_args(tmp_path, "--json", str(missing / "out.json"))) == 2
    assert list(tmp_path.iterdir()) == []


def test_main_rejects_a_directory_output_before_any_work(tmp_path, monkeypatch, caplog):
    # once the scan ran in full and failed only at the final rename, exit 2
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    monkeypatch.setattr(cli, "run_portrait", _refuse_to_scan)
    adir = tmp_path / "adir"
    adir.mkdir()
    portrait = ["portrait", "--epsilon", "0.02", "--kick-ratio", "3.7", "--out", str(adir)]
    for args in (
        _scan_args(tmp_path, "--out", str(adir)),
        _scan_args(tmp_path, "--json", str(adir)),
        portrait,
    ):
        assert main(args) == 1
        assert caplog.records[-1].getMessage() == (
            f"configuration error: output {str(adir)!r} is a directory"
        )
        assert list(tmp_path.iterdir()) == [adir]
        assert list(adir.iterdir()) == []


def test_main_rejects_a_sidecar_that_names_the_output(tmp_path, monkeypatch, caplog, capsys):
    # the same file by name or by another path to it, and stdout twice
    monkeypatch.setattr(cli, "run_scan", _refuse_to_scan)
    monkeypatch.chdir(tmp_path)
    for out, sidecar in (("a.csv", "a.csv"), ("./a.csv", "a.csv"), ("-", "-")):
        args = _scan_args(tmp_path, "--out", out, "--json", sidecar)
        assert main(args) == 1
        assert caplog.records[-1].getMessage() == (
            f"configuration error: --json {sidecar!r} names the same output as --out {out!r}"
        )
        assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []


def test_spec_bounds_the_work_of_a_scan():
    # points x realizations x atoms x kicks, times L = 2M + 1 ladder sites for
    # quantum; a theory cell is one pair of rates and has no such count
    assert cli.MAX_WORK == 10**11
    grid = dict(MINIMAL, abscissa="epsilon", lo=-0.05, hi=0.05, step=0.1, levels=[0.0, 2.0])
    for engine, atoms, kicks, extra in (
        ("eps-classical", 5 * 10**5, 25_000, dict(realizations=2)),  # 2 x 4 runs
        ("eps-classical", 10**6, 3_333, {}),  # 2 x (3 + 12) runs, 1.0002e11 at 3,334 kicks
        ("quantum", 5_000, 100_000, dict(realizations=2, cutoff=12)),  # 8 runs, L = 25
    ):
        raw = dict(grid, engine=engine, atoms=atoms, kicks=kicks, **extra)
        assert build_spec(raw).kicks == kicks
        with pytest.raises(ConfigError, match="exceed MAX_WORK"):
            build_spec(dict(raw, kicks=kicks + 1))
    # the automatic ladder counts at its cap, L = 1025
    with pytest.raises(ConfigError, match="8.2e\\+12 atom-kicks"):
        build_spec(dict(grid, engine="quantum", atoms=10**4, kicks=10**5, realizations=2))


def test_spec_bounds_what_one_realization_holds():
    assert cli.MAX_ATOMS == 10**7 and cli.MAX_SE_SCHEDULE == 10**8
    # 9e10 atom-kicks, within MAX_WORK, but the map's 80 B per atom: 8 GB before the first kick
    raw = dict(engine="eps-classical", abscissa="epsilon", lo=-0.05, hi=0.05, step=0.05,
               kick_ratio=3.7, atoms=10**8, kicks=100, realizations=3)
    with pytest.raises(ConfigError, match="atoms = 100000000 exceeds MAX_ATOMS = 1e"):
        build_spec(raw)
    assert build_spec(dict(raw, atoms=cli.MAX_ATOMS)).atoms == cli.MAX_ATOMS
    for engine in ("eps-classical", "quantum"):
        with pytest.raises(ConfigError, match="MAX_ATOMS"):
            build_spec(dict(raw, engine=engine, atoms=cli.MAX_ATOMS + 1, kicks=1,
                            **({"cutoff": 8} if engine == "quantum" else {})))
    # 8.5e10 atom-kick-sites, within MAX_WORK, and 5e9 atom-kicks with SE, but a
    # worker holds one block's SE rows: at most 3,855 atoms (65,536 sites on the
    # shortest, 17-site ladder) x 5,000 kicks
    raw = dict(engine="quantum", abscissa="hbar", lo=6.0, hi=6.05, step=0.1, kick_ratio=3.7,
               atoms=10**6, kicks=5000, cutoff=8, se_probability=0.01, realizations=1)
    assert build_spec(raw).atoms == 10**6
    # blocks of 1,008 atoms on L = 65, which the whole cloud's 2e8 atom-kicks once rejected
    assert build_spec(dict(raw, atoms=5 * 10**6, kicks=40, cutoff=32)).atoms == 5 * 10**6
    edge = dict(raw, atoms=10**4, kicks=25_940)  # 3,855 x 25,940 = 99,998,700 rows
    assert build_spec(edge).kicks == 25_940
    with pytest.raises(ConfigError, match=r"one block's SE rows, min\(atoms, 3855\) \* kicks = "
                                          r"1e\+08, exceed MAX_SE_SCHEDULE = 1e\+08"):
        build_spec(dict(edge, kicks=25_941))
    # a cloud smaller than one block counts its own atoms
    assert build_spec(dict(raw, atoms=100, kicks=10**6)).kicks == 10**6
    with pytest.raises(ConfigError, match="MAX_SE_SCHEDULE"):
        build_spec(dict(raw, atoms=100, kicks=10**6 + 1))
    # without SE no schedule is drawn
    assert build_spec(dict(edge, kicks=25_941, se_probability=0.0)).kicks == 25_941


def test_main_rejects_unbounded_kicks_before_any_output(capsys, caplog):
    # once a numpy MemoryError (72.8 TiB) in the first cell, exit 1 by the interpreter
    args = ["scan", "--engine", "quantum", "--abscissa", "hbar", "--lo", "6.0", "--hi", "6.1",
            "--step", "0.1", "--kick-ratio", "3.7", "--cutoff", "8", "--realizations", "1",
            "--atoms", "1", "--kicks", "10000000000000", "--out", "-"]
    assert main(args) == 1
    assert caplog.records[-1].getMessage().startswith("configuration error: 3.4e+14 atom-kicks")
    assert capsys.readouterr().out == ""


def test_main_reports_memory_errors_as_runtime_errors(tmp_path, monkeypatch, caplog, capsys):
    message = ("Unable to allocate 72.8 TiB for an array with shape (10000000000000,) "
               "and data type float64")

    def exhaust(spec, workers=1):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "run_scan", exhaust)
    assert main(_scan_args(tmp_path)) == 2
    assert caplog.records[-1].getMessage() == f"runtime error: {message}"
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_main_help_and_version(capsys):
    assert main(["--version"]) == 0
    assert "aokr" in capsys.readouterr().out
    assert main(["--help"]) == 0
    assert "scan" in capsys.readouterr().out


def test_main_portrait_stdout(capsys):
    code = main(
        [
            "portrait", "--epsilon", "0.02", "--kick-ratio", "3.7",
            "--grid", "3x2", "--iters", "4", "--out", "-",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "phi,rho"
    assert len(lines) == 2 + 3 * 2 * 5
    meta = json.loads(lines[0].removeprefix("# meta: "))
    assert meta["grid"] == [3, 2] and meta["iters"] == 4


def test_main_portrait_caps_its_points_before_any_work(monkeypatch, caplog, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the portrait started")

    monkeypatch.setattr(cli, "phase_portrait", refuse)
    base = ["portrait", "--epsilon", "0.02", "--kick-ratio", "3.7", "--out", "-"]
    # 1000 x 100 starts over 99 iterations are 1e7 points; one more iteration is over
    for grid, iters in (("100000x100000", "100"), ("1000x100", "100"), ("1000x1000", "10")):
        assert main([*base, "--grid", grid, "--iters", iters]) == 1
        message = caplog.records[-1].getMessage()
        assert message.startswith(f"configuration error: grid {grid} over {iters} iterations")
        assert message.endswith(f"more than {cli.MAX_PORTRAIT_POINTS} points")
    assert capsys.readouterr().out == ""
    with pytest.raises(AssertionError, match="the portrait started"):
        main([*base, "--grid", "1000x100", "--iters", "99"])


def test_main_predict_resonant_identity(capsys):
    code = main(["predict", "--kick-ratio", "3.7", "--hbar", repr(TWO_PI), "--level", "2.0"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "hbar,level,d_classical,d_quantum"
    d_quantum = float(lines[1].split(",")[3])
    assert d_quantum == pytest.approx(3.7**2 / 3.0, abs=1e-12)


# exact stdout of `aokr predict`: the README example and two cells off resonance
_PREDICT_BYTES = [
    (("3.7", repr(TWO_PI), "2.0"),
     "6.283185307179586,2.0,4.435249545232573,4.5633333333333335"),
    (("3.63", "6.0", "0"), "6.0,0.0,2.641057205712794,1.278971188934726"),
    (("3.63", "5.3", "1"), "5.3,1.0,3.537459578841702,2.5932012169899354"),
]


@pytest.mark.parametrize("flags, row", _PREDICT_BYTES)
def test_main_predict_bytes_are_pinned(capsys, flags, row):
    ratio, hbar, level = flags
    assert main(["predict", "--kick-ratio", ratio, "--hbar", hbar, "--level", level]) == 0
    text = capsys.readouterr().out
    assert text == f"hbar,level,d_classical,d_quantum\n{row}\n"
    # the row is the two rates at kappa = ratio * hbar, and its text parses
    # back to the exact floats (repr round trip)
    got = [float(part) for part in row.split(",")]
    assert got[:2] == [float(hbar), float(level)]
    kappa = float(ratio) * float(hbar)
    for value, regime in zip(got[2:], ("classical", "quantum")):
        assert value == diffusion_rate_with_noise(kappa, float(hbar), float(level), regime)
        if float(level) == 0.0:
            assert value == diffusion_rate(kappa, float(hbar), regime)
    assert ",".join(repr(x) for x in got) == row


def test_main_predict_fails_before_printing(capsys):
    assert main(["predict", "--kick-ratio", "3.7", "--hbar", "1e300"]) == 1
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--kick-ratio", "-2", "--hbar", "6.0"], "kick_ratio"),
        (["--kick-ratio", "nan", "--hbar", "6.0"], "kick_ratio"),
        (["--kick-ratio", "inf", "--hbar", "6.0"], "kick_ratio"),
        (["--kick-ratio", "3.7", "--hbar", "nan"], "hbar"),
        (["--kick-ratio", "3.7", "--hbar", "inf"], "hbar"),
        (["--kick-ratio", "3.7", "--hbar", "0"], "hbar"),
        (["--kick-ratio", "3.7", "--hbar", "-6.0"], "hbar"),
        (["--kick-ratio", "3.7", "--hbar", "6.0", "--level", "2.5"], "level"),
        (["--kick-ratio", "3.7", "--hbar", "6.0", "--level", "nan"], "level"),
        (["--kick-ratio", "1e7", "--hbar", "6.0", "--level", "2.0"], "kick_ratio"),
        (["--kick-ratio", "1e7", "--hbar", "6.0"], "kick_ratio"),
    ],
)
def test_main_predict_rejects_bad_input_before_any_work(monkeypatch, caplog, capsys,
                                                        flags, field):
    monkeypatch.setattr(cli, "diffusion_rate_with_noise", _refuse_to_scan)
    assert main(["predict", *flags]) == 1
    assert caplog.records[-1].getMessage().startswith(f"configuration error: {field}")
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "mode, ratio",
    [("quasilinear", 2e154), ("resonant", 2e154), ("resonant-max-noise", math.sqrt(3.0) * 1e154)],
)
def test_main_extract_k_does_not_overflow(capsys, mode, ratio):
    assert main(["extract-k", "--energy", "1e308", "--kicks", "1", "--mode", mode]) == 0
    got = float(capsys.readouterr().out)
    assert got == pytest.approx(ratio, rel=1e-15)


def test_main_extract_k(capsys):
    code = main(["extract-k", "--energy", "94.832", "--kicks", "20",
                 "--mode", "resonant-max-noise"])
    assert code == 0
    got = float(capsys.readouterr().out.strip())
    assert got == kick_strength_from_energy(94.832, 20, "resonant-max-noise")
    assert got == pytest.approx(math.sqrt(3 * 94.832 / 20), rel=1e-12)
    # the README example, byte for byte
    assert main(["extract-k", "--energy", "94.8", "--kicks", "20",
                 "--mode", "resonant-max-noise"]) == 0
    assert capsys.readouterr().out == "3.7709415269929605\n"
