import csv
import importlib.util
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from topospec import cli, dynamics, sweep
from topospec.errors import ConfigError
from topospec.sweep import SweepConfig

# keys a config file may not set: the readout mode and shots come only from
# run.mode / run.shots or --mode / --shots, so the sweep and qpe cannot disagree
BAD_SWEEP_KEYS = ("sweep.not_a_knob = 3\n", "sweep.mode = hadamard\n", "sweep.mode = bogus\n")


def write_fast_config(path: Path, extra: str = "") -> Path:
    cfg = path / "run.cfg"
    cfg.write_text(
        "run.seed = 0\n"
        "sweep.t_total = 70.0\n"
        "sweep.n_fps = 40\n"
        "sweep.m_samples = 128\n"
        "sweep.lyap_t_total = 120.0\n" + extra
    )
    return cfg


def test_config_unknown_key_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    for text in BAD_SWEEP_KEYS + ("sweep.shots = 10\n",):
        bad.write_text(text)
        with pytest.raises(ConfigError, match="unknown key"):
            cli.load_config(str(bad))
    with pytest.raises(ConfigError, match="unknown mode"):
        SweepConfig(mode="bogus")


def test_config_unknown_section_rejected(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wat.k = 3\n")
    with pytest.raises(ConfigError):
        cli.load_config(str(bad))


def test_config_parsing_and_digest(tmp_path):
    cfg_path = tmp_path / "a.cfg"
    cfg_path.write_text(
        "run.seed = 3\nsweep.use_ring = false\nsweep.x0 = (2.0, 1.0, 0.5)\n# comment\n"
    )
    cfg = cli.load_config(str(cfg_path))
    assert cfg.seed == 3
    assert cfg.sweep.use_ring is False
    assert cfg.sweep.x0 == (2.0, 1.0, 0.5)
    assert cfg.digest() == cli.load_config(str(cfg_path)).digest()


def test_cli_exit_code_2_on_bad_config(tmp_path):
    bad = tmp_path / "bad.cfg"
    for text in ("sweep.nope = 1\n",) + BAD_SWEEP_KEYS:
        bad.write_text(text)
        rc = cli.main(["--config", str(bad), "validate-fivepoint"])
        assert rc == 2, text


# each bad value used to surface per rho as a failed_stage, a traceback or a
# silent "ok"; all are now rejected at load
BAD_SWEEP_VALUES = {
    "r": "1.5",
    "m": "1",
    "tau": "0",
    "observable": "w",
    "triangle_mode": "bogus",
    "eps_quantile": "2",
    "m_samples": "4",
    "k": "abc",
    "x0": "(1, 1)",
    "dt_corr": "-1",
    "alpha_scale": "-1",
    "knn_k": "0",
}


@pytest.mark.parametrize("key", sorted(BAD_SWEEP_VALUES))
def test_cli_exit_code_2_on_bad_sweep_value(tmp_path, capsys, monkeypatch, key):
    def reached(*args, **kwargs):
        raise AssertionError("dynamics.integrate reached")

    monkeypatch.setattr(dynamics, "integrate", reached)
    cfg = write_fast_config(tmp_path, extra=f"sweep.{key} = {BAD_SWEEP_VALUES[key]}\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "36:38:1"]) == 2
    assert f"config error: sweep.{key} = " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, cfg_text",
    [
        (["sweep", "--grid", "36:42:0"], ""),
        (["sweep", "--grid", "36:42"], ""),
        (["sweep", "--grid", "36,abc"], ""),
        (["sweep", "--grid", "42:36:1"], ""),
        (["validate-fivepoint"], "run.seed = abc\n"),
        (["validate-fivepoint"], "run.seed = -1\n"),
        (["validate-fivepoint"], "run.shots = 1.5\n"),
    ],
    ids=[
        "zero-step", "two-parts", "not-a-number", "hi-below-lo",
        "seed-text", "seed-negative", "shots-fraction",
    ],
)
def test_cli_exit_code_2_on_bad_grid_or_run_count(tmp_path, capsys, argv, cfg_text):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(cfg_text)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out)] + argv) == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid", ["--grid=-2:-1:1", "--grid=0,38", "--grid=38,-1", "--grid=0:2:1"],
    ids=["all-negative", "zero-listed", "negative-listed", "range-from-zero"],
)
def test_sweep_grid_follows_the_rho_rule(tmp_path, capsys, monkeypatch, grid):
    def reached(*args, **kwargs):
        raise AssertionError("dynamics.integrate reached")

    monkeypatch.setattr(dynamics, "integrate", reached)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "sweep", grid]) == 2
    assert capsys.readouterr().err.startswith("config error: --grid ")
    assert not out.exists()


BAD_OPTIONS = [
    ["bound-check", "--points", "0"],
    ["bound-check", "--points", "13"],
    ["bound-check", "--clouds", "-3"],
    ["bound-check", "--clouds", "0"],
    ["compile-report", "--phase-bits", "0"],
    ["compile-report", "--rho", "0"],
    ["lorenz", "--rho", "-5"],
    ["qpe", "--rho", "nan"],
    ["validate-fivepoint", "--eta", "-1"],
    ["validate-fivepoint", "--eta", "inf"],
]


@pytest.mark.parametrize("argv", BAD_OPTIONS, ids=lambda a: f"{a[0]}{a[1]}={a[2]}")
def test_cli_exit_code_2_on_bad_subcommand_option(tmp_path, capsys, monkeypatch, argv):
    def reached(*args, **kwargs):
        raise AssertionError("dynamics.integrate reached")

    monkeypatch.setattr(dynamics, "integrate", reached)
    out = tmp_path / "out"
    assert cli.main(["--out", str(out)] + argv) == 2
    assert capsys.readouterr().err.startswith(f"config error: {argv[1]} = {argv[2]}")
    assert not out.exists()


def test_validate_fivepoint_passes(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "fivepoint_report.json").read_text())
    assert [r["beta1_hat"] for r in report["results"]] == [1, 1, 0]
    out = capsys.readouterr().out
    assert out.count("PASS") == 3


def test_validate_fivepoint_eta_zero_fails(tmp_path):
    # zero tolerance cannot absorb the finite Fourier resolution
    rc = cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint", "--eta", "0"])
    assert rc == 1


@pytest.mark.parametrize("source", ["flag", "config"])
def test_validate_fivepoint_rejects_hadamard_mode(tmp_path, capsys, source):
    # the check reads the fixture exactly; a hadamard mode is refused, not ignored
    out = tmp_path / "out"
    if source == "flag":
        argv = ["--mode", "hadamard", "--shots", "200", "--out", str(out), "validate-fivepoint"]
    else:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("run.mode = hadamard\n")
        argv = ["--config", str(cfg), "--out", str(out), "validate-fivepoint"]
    assert cli.main(argv) == 2
    assert "run.mode = hadamard is not supported" in capsys.readouterr().err
    assert not out.exists()


def test_validate_fivepoint_outputs_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--out", str(out1), "validate-fivepoint"]) == 0
    assert cli.main(["--out", str(out2), "validate-fivepoint"]) == 0
    for name in ("fivepoint_report.json", "fivepoint_spectrum_eps0.8.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_fivepoint_jitter_stability(tmp_path):
    # perturbing the fixture by 1e-3 leaves every check passing
    from topospec import fixtures

    rng = np.random.default_rng(0)
    orig = fixtures.FIVE_POINT_CLOUD.copy()
    try:
        fixtures.FIVE_POINT_CLOUD += rng.uniform(-1e-3, 1e-3, size=orig.shape)
        cli.FIVE_POINT_CLOUD = fixtures.FIVE_POINT_CLOUD
        rc = cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint"])
        assert rc == 0
    finally:
        fixtures.FIVE_POINT_CLOUD = orig
        cli.FIVE_POINT_CLOUD = orig


def test_sweep_empty_grid_warns(tmp_path, capsys):
    rc = cli.main(["--out", str(tmp_path / "out"), "sweep", "--grid", ""])
    assert rc == 0
    assert "empty grid" in capsys.readouterr().out
    assert (tmp_path / "out" / "sweep_records.csv").exists()


def test_sweep_writes_and_resumes(tmp_path, capsys):
    cfg = write_fast_config(tmp_path)
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "38,39"])
    assert rc == 0
    first = (out / "sweep_records.csv").read_bytes()
    capsys.readouterr()
    rc = cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "38,39"])
    assert rc == 0
    assert "skipping" in capsys.readouterr().out
    assert (out / "sweep_records.csv").read_bytes() == first
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["grid"] == [38.0, 39.0]
    # one telemetry entry per rho: stage seconds, layer sizes, no error
    assert [entry["rho"] for entry in manifest["stages"]] == [38.0, 39.0]
    for entry in manifest["stages"]:
        assert set(entry) == {"rho", "seconds", "sizes", "error"} and entry["error"] is None
        assert set(entry["seconds"]) == {
            "dynamics", "embedding", "persistence", "selection", "graph", "lyapunov", "spectro"
        }
        assert set(entry["sizes"]) == {"cloud_points", "fps_points", "vertices", "edges", "triangles"}
    # a sub-grid is a different run: alpha and the correlations span the grid
    rc = cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "39"])
    assert rc == 0
    assert "skipping" not in capsys.readouterr().out
    assert json.loads((out / "manifest.json").read_text())["grid"] == [39.0]
    rc = cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "39"])
    assert rc == 0
    assert "skipping" in capsys.readouterr().out


def test_rho_sweep_full_splits_the_sweep_records(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "rho_sweep_full.py"
    spec = importlib.util.spec_from_file_location("rho_sweep_full", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = write_fast_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), "sweep", "--grid", "38,39"]) == 0
    script.split_panels(out)

    def rows(name):
        with open(out / name, newline="") as fh:
            return list(csv.reader(fh))

    records = rows("sweep_records.csv")
    header, body = records[0], records[1:]
    col = {c: [r[header.index(c)] for r in body] for c in header}
    assert len(script.PANELS) == 6
    for fname, name in script.PANELS.items():
        assert rows(f"{fname}.csv") == [["rho", name]] + [list(p) for p in zip(col["rho"], col[name])]
    overlay = rows("overlay_gap_vs_persistence.csv")
    assert overlay[0] == ["rho", "ell_max_h1", "delta1_susy_sim"]
    assert overlay[1:] == [list(p) for p in zip(*(col[c] for c in overlay[0]))]  # 38 and 39 lie in 36..42


def test_sweep_resume_requires_the_same_version(tmp_path):
    from topospec import __version__
    from topospec.serialize import write_csv

    out = tmp_path / "out"
    write_csv(out / "sweep_records.csv", ("rho", "h_spec"), [(38.0, 1.0), (39.0, 1.0)])
    manifest = {"digest": "abc", "version": __version__, "grid": [38.0, 39.0]}
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert cli._run_is_complete(out, "abc", [38.0, 39.0])
    (out / "manifest.json").write_text(json.dumps({**manifest, "version": "0.0.1"}))
    assert not cli._run_is_complete(out, "abc", [38.0, 39.0])


def test_sweep_resume_ignores_the_stage_telemetry(tmp_path):
    from topospec import __version__
    from topospec.serialize import write_csv

    out = tmp_path / "out"
    write_csv(out / "sweep_records.csv", ("rho", "h_spec"), [(38.0, 1.0), (39.0, 1.0)])
    manifest = {"digest": "abc", "version": __version__, "grid": [38.0, 39.0]}
    entry = {"rho": 38.0, "seconds": {"dynamics": 0.25}, "sizes": {"cloud_points": 332}, "error": None}
    for stages in ([entry, {**entry, "rho": 39.0}], [], None):
        (out / "manifest.json").write_text(json.dumps({**manifest, "stages": stages}))
        assert cli._run_is_complete(out, "abc", [38.0, 39.0])


def test_sweep_rejects_uneven_grid(tmp_path, capsys):
    out = tmp_path / "out"
    rc = cli.main(["--out", str(out), "sweep", "--grid", "36,37,39"])
    assert rc == 2
    assert "[36.0, 37.0, 39.0] is not evenly spaced" in capsys.readouterr().err
    assert not (out / "sweep_records.csv").exists()


def test_bound_check_cli(tmp_path, capsys):
    rc = cli.main(
        ["--out", str(tmp_path / "out"), "--seed", "1", "bound-check", "--clouds", "15", "--points", "7"]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "bound_summary.json").read_text())
    assert summary["violations"] == 0
    assert summary["pairs_checked"] > 0


def test_bound_check_rejects_large_clouds(tmp_path):
    rc = cli.main(["--out", str(tmp_path), "bound-check", "--points", "20"])
    assert rc == 2


def test_bound_check_single_point_vacuous(tmp_path):
    # a one-point cloud has no H1 pairs: the check passes vacuously
    rc = cli.main(
        ["--out", str(tmp_path / "out"), "bound-check", "--clouds", "1", "--points", "1"]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "out" / "bound_summary.json").read_text())
    assert summary["pairs_checked"] == 0 and summary["violations"] == 0


def test_stage_commands_produce_artifacts(tmp_path):
    cfg = write_fast_config(tmp_path)
    out = tmp_path / "out"
    base = ["--config", str(cfg), "--out", str(out)]
    assert cli.main(base + ["lorenz", "--rho", "28"]) == 0
    assert (out / "lorenz_rho28.0.csv").exists()
    assert cli.main(base + ["embed", "--rho", "28"]) == 0
    assert (out / "cloud_rho28.0.csv").exists()
    assert cli.main(base + ["ph", "--rho", "28"]) == 0
    assert (out / "diagram_rho28.0.csv").exists()
    assert cli.main(base + ["select", "--rho", "28"]) == 0
    reps = json.loads((out / "representatives_rho28.0.json").read_text())
    assert len(reps["indices"]) == 7
    assert cli.main(base + ["graph", "--rho", "28"]) == 0
    assert (out / "graph_rho28.0.json").exists()
    assert cli.main(base + ["susy", "--rho", "28"]) == 0
    eq = json.loads((out / "susy_equivalence_rho28.0.json").read_text())
    assert eq["passed"]
    assert cli.main(base + ["qpe", "--rho", "28"]) == 0
    est = json.loads((out / "qpe_estimate_rho28.0.json").read_text())
    assert est["beta1_hat"] >= 1


def test_lorenz_writes_nothing_when_the_lyapunov_run_diverges(tmp_path, capsys):
    # lyap_dt 0.2 passes SweepConfig, but RK4 at rho 40 blows up in the first block
    cfg = tmp_path / "run.cfg"
    cfg.write_text("sweep.t_total = 70.0\nsweep.lyap_dt = 0.2\n")
    out = tmp_path / "out"
    assert cli.main(["--config", str(cfg), "--out", str(out), "lorenz", "--rho", "40"]) == 1
    assert "integration diverged" in capsys.readouterr().err
    assert not list(out.glob("lorenz_rho*.csv")) and not list(out.glob("lyapunov_rho*.json"))


def test_json_artifacts_open_with_their_stamps():
    doc = cli._stamped("abc", rho=40.0, lambda_max=0.5)
    assert list(doc.items()) == [
        ("digest", "abc"), ("version", cli.__version__), ("rho", 40.0), ("lambda_max", 0.5)
    ]


def test_qpe_hadamard_mode_small_instance(tmp_path):
    # circuit-simulated readout end to end on a reduced instance: fewer
    # representatives keep the edge register small enough for quick dense runs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "sweep.t_total = 70.0\n"
        "sweep.n_fps = 40\n"
        "sweep.k = 5\n"
        "sweep.m_samples = 24\n"
        "sweep.dt_corr = 0.3\n"
        "sweep.lyap_t_total = 120.0\n"
    )
    out = tmp_path / "out"
    rc = cli.main(
        ["--config", str(cfg), "--out", str(out), "--mode", "hadamard", "qpe", "--rho", "28"]
    )
    assert rc == 0
    est = json.loads((out / "qpe_estimate_rho28.0.json").read_text())
    assert est["mode"] == "hadamard"
    assert est["probe"] == "w_state"
    assert est["beta1_hat"] >= 1


def test_compile_report_cli(tmp_path, capsys):
    cfg = write_fast_config(tmp_path)
    rc = cli.main(
        ["--config", str(cfg), "--out", str(tmp_path / "out"), "compile-report", "--phase-bits", "6"]
    )
    assert rc == 0
    rep = json.loads((tmp_path / "out" / "compile_report.json").read_text())
    assert rep["ratio"] >= 50
    assert rep["baseline_two_qubit_count"] > rep["two_qubit_count"]


def test_grid_parsing():
    assert cli._float_grid("36:42:1") == [36.0, 37.0, 38.0, 39.0, 40.0, 41.0, 42.0]
    assert cli._float_grid("1.5,2.5") == [1.5, 2.5]
    assert cli._float_grid("20:46:1") == [float(r) for r in range(20, 47)]
    assert cli._float_grid("0.1:0.3:0.1") == [0.1, 0.1 + 0.1, 0.1 + 2 * 0.1]


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("36:42:4", [36.0, 40.0]),
        ("36:42:0.7", [36 + i * 0.7 for i in range(9)]),
        ("36:36:1", [36.0]),
        ("36:36.5:1", [36.0]),
    ],
)
def test_grid_range_stops_at_its_upper_end(spec, expected):
    # a step that does not divide hi - lo stops at the last point not past hi
    grid = cli._float_grid(spec)
    assert grid == expected
    assert max(grid) <= float(spec.split(":")[1])


@pytest.mark.parametrize(
    "spec", ["36:42:0", "36:42:-1", "36:42", "36:42:1:2", "36,abc", "36::1", "42:36:1", "nan:42:1", "36,inf"]
)
def test_grid_parsing_rejects_malformed(spec):
    with pytest.raises(ConfigError):
        cli._float_grid(spec)


def test_run_counts_accept_integral_values(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.seed = 3.0\nrun.shots = 7\n")
    loaded = cli.load_config(str(cfg))
    assert (loaded.seed, loaded.sweep.shots) == (3, 7)


def test_probe_section_parsed_and_rejected(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("probe.kind = dicke_weighted\nprobe.alpha_bias = 0.5\n")
    cfg = cli.load_config(str(good))
    assert cfg.probe_spec.kind == "dicke_weighted"
    assert cfg.probe_spec.alpha_bias == 0.5
    bad = tmp_path / "bad.cfg"
    # w_state was an alias of uniform_edge: the same 1/sqrt(E) amplitudes
    for text in ("kind = nonsense", "kind = w_state", "alpha_bias = abc", "alpha_bias = -1", "dephase_samples = 1.5"):
        bad.write_text(f"probe.{text}\n")
        with pytest.raises(ConfigError, match=f"^probe.{text.split()[0]} = "):
            cli.load_config(str(bad))


def test_probe_eta_is_an_unknown_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("probe.eta = 0.5\n")
    with pytest.raises(ConfigError, match="unknown key probe.eta"):
        cli.load_config(str(bad))
    assert cli.main(["--config", str(bad), "--out", str(tmp_path / "out"), "graph"]) == 2


def test_qpe_dicke_probe_path(tmp_path):
    cfg = write_fast_config(tmp_path, extra="probe.kind = dicke_weighted\nprobe.alpha_bias = 0.3\n")
    out = tmp_path / "out"
    rc = cli.main(["--config", str(cfg), "--out", str(out), "qpe", "--rho", "28"])
    assert rc == 0
    est = json.loads((out / "qpe_estimate_rho28.0.json").read_text())
    assert est["probe"] == "dicke_weighted"
    assert (out / "qpe_probe_rho28.0.csv").exists()


def test_sweep_hardware_import_slot(tmp_path):
    cfg = write_fast_config(tmp_path)
    out = tmp_path / "out"
    hw = tmp_path / "hw.csv"
    hw.write_text("rho,gap\n38,0.5\n39,0.9\n40,0.7\n")
    rc = cli.main(
        ["--config", str(cfg), "--out", str(out), "sweep", "--grid", "38,39,40",
         "--hardware-csv", str(hw)]
    )
    assert rc == 0
    report = json.loads((out / "sweep_correlations.json").read_text())
    assert report["hardware"]["n_joined"] == 3
    assert "pearson_h1_hw" in report["hardware"]


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token} in the file")


def test_sweep_hardware_csv_writes_null_for_a_constant_column(tmp_path, monkeypatch):
    # the gap repeats across rho (0.6766... on graphs of one shape), so a joined
    # simulator column can be constant while the device column varies
    gap = float.fromhex("0x1.5a6b01ec33d40p-1")
    records = [
        sweep.SweepRecord(rho=rho, ell_max_h1=ell, delta1_susy_sim=gap)
        for rho, ell in ((38.0, 0.36), (41.0, 0.33), (42.0, 0.31))
    ]
    monkeypatch.setattr(cli, "run_sweep", lambda grid, cfg: (records, sweep.correlation_report(records)))
    hw = tmp_path / "hw.csv"
    hw.write_text("rho,gap\n38,0.5\n41,0.9\n42,0.7\n")
    out = tmp_path / "out"
    rc = cli.main(["--out", str(out), "sweep", "--grid", "38,41,42", "--hardware-csv", str(hw)])
    assert rc == 0
    report = json.loads((out / "sweep_correlations.json").read_text(), parse_constant=_reject_constant)
    hardware = report["hardware"]
    assert hardware["n_joined"] == 3
    assert hardware["pearson_sim_hw"] is None
    assert -1.0 <= hardware["pearson_h1_hw"] <= 1.0
    assert hardware["mae_sim_hw"] > 0


def test_artifacts_carry_version(tmp_path):
    rc = cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint"])
    assert rc == 0
    report = json.loads((tmp_path / "out" / "fivepoint_report.json").read_text())
    import topospec

    assert report["version"] == topospec.__version__
    assert report["digest"]


def test_pyproject_reads_the_package_version():
    from setuptools.config.pyprojecttoml import read_configuration

    import topospec

    path = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged beta
        declared = read_configuration(path, expand=False)["project"]
        resolved = read_configuration(path)["project"]
    # the one version number lives in the package
    assert "version" not in declared and "version" in declared["dynamic"]
    assert resolved["version"] == topospec.__version__
