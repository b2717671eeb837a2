"""Scan configuration, curve serialization, determinism, and exit codes."""

import hashlib
import io
import json
import math
from dataclasses import fields

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
from aokr.epsmap import EpsParams, eps_energy
from aokr.noise import NoiseConfig
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
    with pytest.raises(ConfigError, match="atoms"):
        build_spec(dict(MINIMAL, engine="quantum", atoms=0))
    with pytest.raises(ConfigError, match="realizations must be >= 1"):
        build_spec(dict(MINIMAL, engine="quantum", realizations=0))
    with pytest.raises(ConfigError, match="seed"):
        build_spec(dict(MINIMAL, seed=-1))
    with pytest.raises(ConfigError, match="se_probability"):
        build_spec(dict(MINIMAL, engine="quantum", se_probability=1.5))
    with pytest.raises(ConfigError, match="resonance_order"):
        build_spec(dict(MINIMAL, resonance_order=0))
    with pytest.raises(ConfigError, match="beta_mode"):
        build_spec(dict(MINIMAL, engine="quantum", beta_mode="warm"))
    with pytest.raises(ConfigError, match="sigma_p"):
        build_spec(dict(MINIMAL, engine="quantum", sigma_p=-2.0))
    with pytest.raises(ConfigError, match="kick_ratio must be finite"):
        build_spec(dict(MINIMAL, kick_ratio=float("nan")))
    with pytest.raises(ConfigError, match="hi must be finite"):
        build_spec(dict(MINIMAL, hi=float("inf")))
    with pytest.raises(ConfigError, match="levels must be finite"):
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
    assert build_spec(dict(at_limit, engine="quantum", kick_ratio=1e6)).kick_ratio == 1e6


# what each engine models: the ensemble and noise keys that it does not read.
# The map explains amplitude noise only and has no detection window or SE;
# theory is a closed-form rate of kick_ratio, hbar and the level.
_ENSEMBLE_KEYS = ("noise", "kicks", "atoms", "realizations", "sigma_p", "beta_mode",
                  "beta_fixed", "kick_spread", "p_max", "cutoff", "se_probability")
_NOT_READ = {
    "quantum": (),
    "eps-classical": ("noise", "p_max", "se_probability"),
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
            cutoff=32,
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


# sha256 of the CSV and the JSON sidecar of three tiny seeded scans, one per
# engine (numpy 2.4.6, x86-64).  Any change to a byte of the output, the
# version in its meta line included, changes them.
_GOLDEN_SCANS = {
    "quantum": (
        dict(engine="quantum", abscissa="hbar", lo=6.2, hi=6.3, step=0.05, kick_ratio=2.0,
             noise="period", levels=[0.0, 0.1], se_probability=0.05, kick_spread=0.05,
             kicks=4, atoms=24, realizations=2, cutoff=48, seed=3),
        "0b89712a6d87b262565c4e1eb5832d56acb1e00a790bc9485e647ce052dd2e82",
        "b6e659348be1e2e72766ad7332fc7b74acddae82aee0653126c448f064a44e7b",
    ),
    "eps-classical": (
        dict(engine="eps-classical", abscissa="epsilon", lo=-0.05, hi=0.05, step=0.05,
             kick_ratio=2.0, levels=[0.0, 2.0], kicks=5, atoms=100, beta_mode="uniform",
             realizations=3, seed=3),
        "470e06ca4aff27a4d11fb5eaa5648fddcc56a9fc2263c12b06d8c3736204b26a",
        "09cb9d2c71f3fcf7c879ce57b2cc489d053fb01f5f238a2721569684539e91fc",
    ),
    "theory": (
        dict(engine="theory", abscissa="hbar", lo=5.0, hi=5.2, step=0.1, kick_ratio=2.0,
             levels=[0.0, 2.0]),
        "a9350acea5be321f2e3e7af71d8280925aa0d9d20f215397047bf695a653eae9",
        "57f3451e33a9b2e24adecc8dd59c75dd02cf7fcbd426d44dfb9bf673614a0c36",
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
    # 9e10 atom-kicks, within MAX_WORK, but ~65 B per atom: 6.5 GB before the first kick
    raw = dict(engine="eps-classical", abscissa="epsilon", lo=-0.05, hi=0.05, step=0.05,
               kick_ratio=3.7, atoms=10**8, kicks=100, realizations=3)
    with pytest.raises(ConfigError, match="atoms = 100000000 exceeds MAX_ATOMS = 1e"):
        build_spec(raw)
    assert build_spec(dict(raw, atoms=cli.MAX_ATOMS)).atoms == cli.MAX_ATOMS
    for engine in ("eps-classical", "quantum"):
        with pytest.raises(ConfigError, match="MAX_ATOMS"):
            build_spec(dict(raw, engine=engine, atoms=cli.MAX_ATOMS + 1, kicks=1, cutoff=8))
    # 8.5e10 atom-kick-sites, within MAX_WORK, but an SE schedule of 9 B per
    # atom and kick: 45 GB
    raw = dict(engine="quantum", abscissa="hbar", lo=6.0, hi=6.05, step=0.1, kick_ratio=3.7,
               atoms=10**6, kicks=5000, cutoff=8, se_probability=0.01, realizations=1)
    with pytest.raises(ConfigError, match=r"atoms \* kicks = 5e\+09 with SE exceeds MAX_SE"):
        build_spec(raw)
    edge = dict(raw, atoms=10**4, kicks=10**4)
    assert build_spec(edge).kicks == 10**4
    with pytest.raises(ConfigError, match="MAX_SE_SCHEDULE"):
        build_spec(dict(edge, kicks=10**4 + 1))
    # without SE the schedule is a view of one element
    assert build_spec(dict(raw, se_probability=0.0)).atoms == 10**6


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
    (("3.63", "5.3", "1"), "5.3,1.0,3.537459578841702,2.5932012169899363"),
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
