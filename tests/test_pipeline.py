"""The shared staged pipeline: a golden oracle of every stage command's
artifacts, and the runner's stopping, seeding and error behaviour."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from topospec import cli, dynamics, selection
from topospec.errors import SelectionInfeasibleError
from topospec.sweep import SweepConfig, _pipeline_stage, _resolve_tau, run_sweep
from test_cli import write_fast_config

ROOT = Path(__file__).resolve().parent.parent

# identity stamps that change with the config text or the package version,
# and the sweep manifest's per-stage telemetry, whose timings change per run
STAMPS = ("digest", "version", "config_digest", "stages")


def artifact_digests(out: Path) -> dict[str, str]:
    """sha-256 of every file under out; JSON documents lose their stamps."""
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = {k: v for k, v in json.loads(data).items() if k not in STAMPS}
            data = json.dumps(obj, sort_keys=True).encode()
        digests[path.name] = hashlib.sha256(data).hexdigest()
    return digests


def stage_commands(cfg: Path, out: Path, rho: str) -> None:
    base = ["--config", str(cfg), "--out", str(out)]
    for command in ("embed", "ph", "select", "graph", "susy", "qpe", "compile-report"):
        assert cli.main(base + [command, "--rho", rho]) == 0, command


# oracle: the outputs of the stage commands as they were before they shared one
# runner; the runner must reproduce them byte for byte
GOLDEN_ARTIFACTS = {
    "28": {
        "b1_rho28.0.csv": "9edd6a39ed70438f64e33e436ccc37e093013bade8681bc238ee6b9ffaa6e81f",
        "b2_rho28.0.csv": "f80f4340c3f1d106950de117540ba9112a4a0775bfc68f630762214d90c30d20",
        "cloud_rho28.0.csv": "470845d0873ff29a1f5908dec87f7bda70182578eafe6f40702fb2bfed0ce465",
        "compile_report.json": "a79671187f0de6517f6fac82fa730c33ac87252c081c43a2ae70f5d31f5bc90a",
        "diagram_rho28.0.csv": "f79d03cfc01db236d5ad21e26e719c7793b66a5f5af32578920c003f3046283e",
        "graph_rho28.0.json": "0b49137f099532b584cb1d6ad7217fe9c3c9de0f0cdb05d9ec423524962e4a85",
        "qpe_correlator_rho28.0.csv": "fc6ecb7f281aaba8591dd1c75a134e6e68332353375877aa29a67b13679a944a",
        "qpe_estimate_rho28.0.json": "799027b56cc4f6457b7b8dca9a38a5bdde5ac86c56e6a58f050f81f35d4589d4",
        "qpe_probe_rho28.0.csv": "881e93e52e8ba9596278a70ceee340f57534bc2b0a274de38ceca90ba9c27340",
        "qpe_spectrum_rho28.0.csv": "1538129869580bc28938ed891d3a8b2bfdcc145bd09e68f71e31b7481c9b7db1",
        "representatives_rho28.0.json": "1a6cb57fb1899b8088703f7ed40bf0be9f8a35f2b2654e4318c06a7ba089fa70",
        "susy_equivalence_rho28.0.json": "249254c148a421fb2dd93d17f4d9e2cf4b72edcb98a9845203daa14d2182b0ad",
        "susy_rho28.0.jsonl": "6556e5d4e7292758cd138cd5045fcc83546220a85712a1faf1d3e11e4bbe4d15",
    },
    "40": {
        "b1_rho40.0.csv": "04a611148688317da90db69e7d466c59b85745031923bcd6e833cf6ee6043db6",
        "b2_rho40.0.csv": "38f7edf6f4cbb0353eb815aedd0a74eac75923c1c40b8ca34914bc8d0d56f278",
        "cloud_rho40.0.csv": "bdfc08fe7142c90b9a67027bca3c1e5f9a59e86bcc4dcc937cccb923dc233ad9",
        "compile_report.json": "83cdb5c678a1756364b463b915a2cf973da94c50af8bfe88db6b0987ccef4d02",
        "diagram_rho40.0.csv": "90dbc08e3271164e1f1255e703aa2746a4b1a963c510c15b982960e11eff6324",
        "graph_rho40.0.json": "dd26e9d665e875baac9ae2248e2c6b53f8971ef91d21f51ee336c38ac0215279",
        "qpe_correlator_rho40.0.csv": "817a7b1d123ae2055c6bb012c2826237bb8154e04f695b7d98c350e3a73056a8",
        "qpe_estimate_rho40.0.json": "7d1f01bb18288b260ee20dc70d3763a8fc710b2bb1bed02c733f18bdb815d06a",
        "qpe_probe_rho40.0.csv": "cdf1a2276a0ac90647addd41f2a1cc1e7a9ad0e2a699c8181b9703f4be0fee91",
        "qpe_spectrum_rho40.0.csv": "0c2032144a0f453d916b5906246cbdbf8fdbaeb9c51595745fa0238a1cc0b4bb",
        "representatives_rho40.0.json": "b628f701c0627afd3b45d6d4f4da87ca84e1272d076df5afad6c53a1ebd2b540",
        "susy_equivalence_rho40.0.json": "249254c148a421fb2dd93d17f4d9e2cf4b72edcb98a9845203daa14d2182b0ad",
        "susy_rho40.0.jsonl": "c738d1af4cd71d729b78500082354044e698a450ef348526b3e056a901166b3f",
    },
}
# (ell_max, sha-256 of l1.tobytes(), lambda_max) of the full chain
GOLDEN_STAGE = {
    28.0: (0.3174254484601656, "25276d69d23ae32b9a6276ad750c7f8f65ec4dece553905ccd51d4cee5745985", 0.9013844711543813),
    40.0: (0.2735949319424352, "e5eda04e058d3716091e2b26579b31a63c1ba75a51c6d02d8c7d72c4b08e39fd", 1.1681134805775635),
}


@pytest.mark.parametrize("rho", ["28", "40"])
def test_stage_command_artifacts_golden(tmp_path, rho):
    out = tmp_path / "out"
    stage_commands(write_fast_config(tmp_path), out, rho)
    assert artifact_digests(out) == GOLDEN_ARTIFACTS[rho]


@pytest.mark.parametrize("rho", [28.0, 40.0])
def test_pipeline_stage_golden(tmp_path, rho):
    sw = cli.load_config(str(write_fast_config(tmp_path))).sweep
    stage = _pipeline_stage(rho, sw, _resolve_tau([rho], sw))
    assert stage.failed_stage is None
    got = (stage.ell_max, hashlib.sha256(stage.l1.tobytes()).hexdigest(), stage.lambda_max)
    assert got == GOLDEN_STAGE[rho]


FAST = SweepConfig(t_total=70.0, n_fps=40, m_samples=128, lyap_t_total=120.0)


def test_runner_stops_after_the_requested_stage():
    cloud = _pipeline_stage(28.0, FAST, 15, until="cloud")
    assert cloud.cloud is not None and cloud.diagram is None
    ph = _pipeline_stage(28.0, FAST, 15, until="persistence")
    assert ph.cloud is None and ph.diagram is not None and ph.reps is None
    sel = _pipeline_stage(28.0, FAST, 15, until="selection")
    assert sel.diagram is None and sel.reps is not None and sel.graph is None
    graph = _pipeline_stage(28.0, FAST, 15, until="graph")
    assert graph.l1 is not None and graph.lambda_max is None
    # a sweep keeps every full result, so they hold no cloud-sized state
    full = _pipeline_stage(28.0, FAST, 15)
    assert (full.cloud, full.diagram, full.reps) == (None, None, None)
    assert full.lambda_max is not None
    assert np.array_equal(full.l1, graph.l1) and full.ell_max == ph.ell_max
    with pytest.raises(ValueError, match="unknown pipeline stage"):
        _pipeline_stage(28.0, FAST, 15, until="spectro")


def test_stage_commands_never_compute_lyapunov(tmp_path, monkeypatch):
    def reached(*args, **kwargs):
        raise AssertionError("lyapunov_max reached")

    monkeypatch.setattr(dynamics, "lyapunov_max", reached)
    base = ["--config", str(write_fast_config(tmp_path)), "--out", str(tmp_path / "out")]
    for command in ("graph", "susy", "qpe", "compile-report"):
        assert cli.main(base + [command, "--rho", "28"]) == 0, command


def test_ph_and_select_use_the_sweep_seed(tmp_path):
    # run.seed and sweep.seed differ; every stage follows sweep.seed
    cfg_path = write_fast_config(tmp_path, extra="sweep.seed = 3\n")
    out = tmp_path / "out"
    base = ["--config", str(cfg_path), "--out", str(out)]
    assert cli.main(base + ["ph", "--rho", "28"]) == 0
    assert cli.main(base + ["select", "--rho", "28"]) == 0
    sw = cli.load_config(str(cfg_path)).sweep
    assert sw.seed == 3
    tau = _resolve_tau([28.0], sw)
    for seed in (3, 0):
        stage = _pipeline_stage(28.0, replace(sw, seed=seed), tau, until="persistence")
        stage.diagram.to_csv(tmp_path / f"diagram_seed{seed}.csv")
    diagram = (out / "diagram_rho28.0.csv").read_bytes()
    assert diagram == (tmp_path / "diagram_seed3.csv").read_bytes()
    assert diagram != (tmp_path / "diagram_seed0.csv").read_bytes()  # the seed matters here
    reps = json.loads((out / "representatives_rho28.0.json").read_text())
    assert reps["indices"] == list(_pipeline_stage(28.0, sw, tau, until="selection").reps.indices)
    assert reps["config"]["seed"] == 3


def test_programming_errors_in_a_stage_propagate(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("deliberate bug")

    monkeypatch.setattr(selection, "select_representatives", broken)
    with pytest.raises(TypeError, match="deliberate bug"):
        run_sweep([38.0], FAST)
    cfg = write_fast_config(tmp_path)
    with pytest.raises(TypeError, match="deliberate bug"):
        cli.main(["--config", str(cfg), "--out", str(tmp_path / "out"), "graph", "--rho", "38"])


def test_expected_stage_errors_are_recorded_with_their_message(tmp_path, monkeypatch, capsys):
    def infeasible(*args, **kwargs):
        raise SelectionInfeasibleError("no candidate satisfies 2 < nu < 7")

    monkeypatch.setattr(selection, "select_representatives", infeasible)
    records, _ = run_sweep([38.0], FAST)
    assert records[0].failed_stage == "selection"
    assert records[0].error == "SelectionInfeasibleError: no candidate satisfies 2 < nu < 7"
    # the failed row keeps the diagnostics computed before selection
    ell_max = _pipeline_stage(38.0, FAST, _resolve_tau([38.0], FAST), until="persistence").ell_max
    assert ell_max is not None and records[0].ell_max_h1 == ell_max
    cfg = write_fast_config(tmp_path)
    base = ["--config", str(cfg), "--out", str(tmp_path / "out")]
    assert cli.main(base + ["graph", "--rho", "38"]) == 1
    assert cli.main(base + ["sweep", "--grid", "38"]) == 1
    out = capsys.readouterr().out
    expect = "pipeline failed at selection: SelectionInfeasibleError: no candidate satisfies 2 < nu < 7"
    assert out.count(expect) == 2
    # the manifest's telemetry entry holds the error and stops at its stage
    (entry,) = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert entry["error"] == "SelectionInfeasibleError: no candidate satisfies 2 < nu < 7"
    assert set(entry["seconds"]) == {"dynamics", "embedding", "persistence", "selection"}
    assert set(entry["sizes"]) == {"cloud_points", "fps_points"}


def test_find_fivepoint_script_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "find_fivepoint.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "verifies: True" in proc.stdout
