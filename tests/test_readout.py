"""The shared spectroscopy stage: a golden oracle of the readout artifacts of
`validate-fivepoint`, `qpe` in both modes and probes, and a hadamard sweep,
plus the one alpha calibration and the one edge readout they share."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from topospec import cli, persistence, spectro
from topospec.hodge import laplacian_k
from topospec.probe import uniform_edge_state
from topospec.susy import PauliHamiltonian, onehot_hamiltonian
from topospec.sweep import _pipeline_stage, _resolve_tau, run_sweep
from topospec.topograph import graph_from_edges
from test_cli import write_fast_config
from test_pipeline import FAST, ROOT, artifact_digests

HADAMARD = "sweep.m_samples = 48\n"
DICKE = "probe.kind = dicke_weighted\n"

# (command line, extra config lines) of each pinned run; all at run.seed = 0
RUNS = {
    "fivepoint": (["validate-fivepoint"], ""),
    "hadamard_shots0": (["--mode", "hadamard", "qpe", "--rho", "28"], HADAMARD),
    "hadamard_shots200": (["--mode", "hadamard", "--shots", "200", "qpe", "--rho", "28"], HADAMARD),
    "dicke_exact": (["qpe", "--rho", "28"], DICKE),
    "dicke_dephased": (["qpe", "--rho", "28"], DICKE + "probe.dephase_samples = 3\n"),
    "dicke_hadamard": (["--mode", "hadamard", "qpe", "--rho", "28"], DICKE + HADAMARD),
    "sweep_hadamard": (["--mode", "hadamard", "sweep", "--grid", "36:38:1"], HADAMARD),
}

# oracle: the artifacts as they were when the sweep, qpe and validate-fivepoint
# each had their own readout and alpha calibration
GOLDEN = {
    "fivepoint": {
        "fivepoint_correlator_eps0.8.csv": "07ec3495134eacf3319d78c36eeac4a528167c98161a9fe6ad38974a34aeeafa",
        "fivepoint_correlator_eps0.9.csv": "484fbcf8f477308a8949b1664ad162f36e5cb2a105538e227385ad92bb55a8b7",
        "fivepoint_correlator_eps1.0.csv": "fb363047c4d034008e58cbf75a60b79e5d8cf161302267b7e8ad64f2a1579b7d",
        "fivepoint_report.json": "d211dc8c161fd597b84557052c4f6161fc600abb4712111c1a67e24f31dea357",
        "fivepoint_spectrum_eps0.8.csv": "27b0fd4fe8b1e9cfb6ef0801af32bf3583190eb39c0332a5a42a032f25e20bcd",
        "fivepoint_spectrum_eps0.9.csv": "bb02f244de13c8da32819daaabbb989ab255b5f85bb4c8c5e03675e6034fca1f",
        "fivepoint_spectrum_eps1.0.csv": "2590e3c760bbdd263f090e7f233430988018d578a2276cb6302cbefadfee72d6",
    },
    "hadamard_shots0": {
        "qpe_correlator_rho28.0.csv": "453f24dc35f3ce2971b3f5680960d6615f5e4ac95dc7d2ec6da7c2b4d28bad88",
        "qpe_estimate_rho28.0.json": "2b6aedf2f6025553aa5f7102b736d3f248d4a3dedfb84cbc5bd1c2beca1f484c",
        "qpe_probe_rho28.0.csv": "7a1efc1218bb9a4fd5abf2a56b2a8f1ec3dd13e79491ab92ffd6d8c925d4582f",
        "qpe_spectrum_rho28.0.csv": "5ff0c8bd405f6a1eb8da41e3c8622aea856b48b98d74fac838d3a17da9b84d07",
    },
    "hadamard_shots200": {
        "qpe_correlator_rho28.0.csv": "16312f597f1cc18fdd09f01d7f63cb1282cbffaf453e83cd01c419702f390bf7",
        "qpe_estimate_rho28.0.json": "ac19c9753f9cc3d8020cbac2c43c752bb5c6b3d36ab8d98902636cd16539a5d0",
        "qpe_probe_rho28.0.csv": "7a1efc1218bb9a4fd5abf2a56b2a8f1ec3dd13e79491ab92ffd6d8c925d4582f",
        "qpe_spectrum_rho28.0.csv": "b9b1a36a8f429bf1d20ca0c88af50306ec9984667371f4918ea547d35f0a65bc",
    },
    "dicke_exact": {
        "qpe_correlator_rho28.0.csv": "913a421b2e916fe2c707a8e29dce35e32943aaf5d74aa66a9f7271f95ee9fb6f",
        "qpe_estimate_rho28.0.json": "929e49fc62ed3c38e734514bf13f845a2f752a633ea9c8755e133888b1020d50",
        "qpe_probe_rho28.0.csv": "a211661064fb776ccd11cdb67896ad7e16ea266ef140ac93e4ab7ef002a61db9",
        "qpe_spectrum_rho28.0.csv": "d5eba3a4c5b4e0a737871b05774b755cbab334e882db355ac6d079b32d284ecb",
    },
    # re-pinned when the dephased readout began averaging the draws' weights
    # instead of their series: max |dC| 2.3e-15, same beta1_hat and gap_hat
    "dicke_dephased": {
        "qpe_correlator_rho28.0.csv": "5e9baa8da97682b77d7fceaf4a5c30acd002682e386f153e817613bc896f3ae8",
        "qpe_estimate_rho28.0.json": "52f095d91b9c8f884fe30a8e6f1fdffa47364a5edff33544683afe943f55edfc",
        "qpe_probe_rho28.0.csv": "a211661064fb776ccd11cdb67896ad7e16ea266ef140ac93e4ab7ef002a61db9",
        "qpe_spectrum_rho28.0.csv": "c32510c1514f6ae98cc0a84ca2087a04c474a94baeec07a810c2491208216b90",
    },
    "dicke_hadamard": {
        "qpe_correlator_rho28.0.csv": "b7f80f3a0a4f8cb9a624edf2b3316bce34a035092478e48b94b501238cec0a5e",
        "qpe_estimate_rho28.0.json": "9dedb85ab631cee9e3675b77df469bcd445cba2bf43a9038cd3e4bac7d6930fb",
        "qpe_probe_rho28.0.csv": "a211661064fb776ccd11cdb67896ad7e16ea266ef140ac93e4ab7ef002a61db9",
        "qpe_spectrum_rho28.0.csv": "16c5a7b8e7bc839c5b08250fdc5cfc00b9309b2684a7e04d42381363ff42affc",
    },
    "sweep_hadamard": {
        "manifest.json": "3794419db91a37370f103b9531f59cc1a06ecdc4318687c2fd66615dedd3e461",
        "sweep_correlations.json": "81111c6615a620acb381a8bde598b7af039e8aa9e940de046f83fcbedbeeb12f",
        "sweep_records.csv": "acd535542341a915491974e3b4ac906d2f4d8c1ef7f3ea830d8f280f5407b7d8",
        "sweep_smoothed.csv": "76232e873106f65a7df66b2588467a4dbf2476d4b4e6c03fc99d56b602f4e01a",
    },
}


def run_cli(tmp_path: Path, argv: list[str], extra: str = "") -> Path:
    tmp_path.mkdir(exist_ok=True)
    out = tmp_path / "out"
    cfg = write_fast_config(tmp_path, extra=extra)
    assert cli.main(["--config", str(cfg), "--out", str(out)] + argv) == 0
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_readout_artifacts_golden(tmp_path, name):
    argv, extra = RUNS[name]
    assert artifact_digests(run_cli(tmp_path, argv, extra)) == GOLDEN[name]


def random_l1(rng, n=6):
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    edges = edges or [(0, 1)]
    g = graph_from_edges(n, edges)
    return laplacian_k(g.B1, g.B2 if len(g.triangles) else None)


def test_calibrated_alpha_reproduces_the_per_command_rules():
    # the rules the sweep and qpe used before sharing one calibration: qpe took
    # max(eig, Gershgorin) without the sweep's floor of 1; every L1 has
    # lambda_max >= 2 (its diagonal is 2 on every edge) and the Gershgorin bound
    # is at least the spectral norm, so the shared rule gives the same alpha
    rng = np.random.default_rng(7)
    dt = 0.25
    for _ in range(20):
        l1 = random_l1(rng)
        eig = float(np.abs(np.linalg.eigvalsh(l1)).max())
        gersh = onehot_hamiltonian(l1).gershgorin_bound()
        assert eig >= 2.0 and gersh >= eig
        exact = max(1e-12, eig * dt / (0.8 * math.pi))
        assert spectro.calibrated_alpha([l1], dt, "exact") == exact
        assert spectro.calibrated_alpha([l1], dt, "hadamard") == max(exact, gersh * dt / (0.8 * math.pi))
    assert spectro.calibrated_alpha([], dt) == spectro.minimal_alpha(1.0, dt, spectro.ALIAS_BAND)


def test_edge_readout_modes():
    l1 = random_l1(np.random.default_rng(3), n=4)
    n_edges = l1.shape[0]
    alpha = spectro.calibrated_alpha([l1], 0.25, "hadamard")
    exact, psi_e, label_e = spectro.edge_readout(l1, 0.25, 16, alpha)
    ref = spectro.correlator_exact(l1, np.eye(n_edges), 0.25, 16, alpha)
    assert np.array_equal(exact.values, ref.values)
    assert label_e == "uniform_edge_dephased"
    had, psi_h, label_h = spectro.edge_readout(l1, 0.25, 16, alpha, "hadamard")
    assert label_h == "w_state" and had.shots == 0
    # the W state is the uniform edge state written on the one-hot register
    one_hot = [1 << q for q in range(n_edges)]
    assert np.allclose(psi_h[one_hot], psi_e) and np.allclose(psi_e, uniform_edge_state(n_edges))
    # hadamard mode reads the coherent probe, exact mode its dephased ensemble
    coherent = spectro.correlator_exact(l1, psi_e, 0.25, 16, alpha)
    assert np.abs(had.values - coherent.values).max() < 2e-3  # Trotter error
    with pytest.raises(ValueError, match="unknown readout mode"):
        spectro.edge_readout(l1, 0.25, 16, alpha, "bogus")


def test_exact_edge_readout_decomposes_each_l1_once(monkeypatch):
    # the edge-basis weights and the spectrum come from one eigh
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    rng = np.random.default_rng(5)
    l1s = [random_l1(rng, n) for n in (4, 5, 6)]
    for l1 in l1s:
        spectro.edge_readout(l1, 0.25, 16, spectro.calibrated_alpha([l1], 0.25))
    assert calls == [l1.shape for l1 in l1s]


def test_sweep_qpe_and_fivepoint_share_the_edge_readout(tmp_path, monkeypatch):
    calls = []
    readout = spectro.edge_readout

    def spy(l1, dt, m, alpha, mode="exact", shots=0, seed=0):
        calls.append((l1.shape[0], mode, shots, seed))
        return readout(l1, dt, m, alpha, mode, shots, seed)

    monkeypatch.setattr(spectro, "edge_readout", spy)
    run_cli(tmp_path / "five", ["validate-fivepoint"])
    assert [c[1] for c in calls] == ["exact"] * 3
    run_cli(tmp_path / "qpe", ["--mode", "hadamard", "--shots", "7", "qpe", "--rho", "28"], HADAMARD)
    assert calls[-1][1:] == ("hadamard", 7, 0)
    run_sweep([38.0], FAST)
    assert len(calls) == 5 and calls[-1][1:] == ("exact", 0, 0)


def test_dicke_qpe_reads_the_pipeline_diagram_only(tmp_path, monkeypatch):
    # the pipeline's FPS diagram is the one persistence computation; the
    # Dicke weights need none of their own
    calls = []
    reduce = persistence.compute_persistence

    def counted(filt):
        calls.append(len(filt.simplices))
        return reduce(filt)

    monkeypatch.setattr(persistence, "compute_persistence", counted)
    run_cli(tmp_path, ["qpe", "--rho", "28"], DICKE)
    assert len(calls) == 1


def test_hadamard_dicke_qpe_never_builds_the_dense_hamiltonian(tmp_path, monkeypatch):
    def dense(self):
        raise AssertionError("the circuit readout built the dense Hamiltonian")

    monkeypatch.setattr(PauliHamiltonian, "dense", dense)
    out = run_cli(tmp_path, ["--mode", "hadamard", "qpe", "--rho", "28"], DICKE + HADAMARD)
    assert artifact_digests(out) == GOLDEN["dicke_hadamard"]


def test_qpe_draws_its_readout_with_the_sweep_seed(tmp_path):
    # run.seed and sweep.seed differ; the shots follow sweep.seed, as in the sweep
    extra = HADAMARD + "sweep.seed = 3\n"
    out = run_cli(tmp_path, ["--mode", "hadamard", "--shots", "200", "qpe", "--rho", "28"], extra)
    sw = cli.load_config(str(tmp_path / "run.cfg"), {"mode": "hadamard", "shots": 200}).sweep
    assert (sw.seed, sw.mode, sw.shots) == (3, "hadamard", 200)
    l1 = _pipeline_stage(28.0, sw, _resolve_tau([28.0], sw), until="graph").l1
    alpha = spectro.calibrated_alpha([l1], sw.dt_corr, "hadamard")
    for seed in (3, 0):
        series = spectro.edge_readout(l1, sw.dt_corr, sw.m_samples, alpha, "hadamard", 200, seed)[0]
        series.to_csv(tmp_path / f"seed{seed}.csv")
    got = (out / "qpe_correlator_rho28.0.csv").read_bytes()
    assert got == (tmp_path / "seed3.csv").read_bytes()
    assert got != (tmp_path / "seed0.csv").read_bytes()  # the seed matters here


def test_run_mode_and_shots_reach_the_sweep(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("run.mode = hadamard\nrun.shots = 5\n")
    cfg = cli.load_config(str(path))
    assert (cfg.sweep.mode, cfg.sweep.shots) == ("hadamard", 5)
    cfg = cli.load_config(str(path), {"mode": "exact", "shots": 0})
    assert (cfg.sweep.mode, cfg.sweep.shots) == ("exact", 0)


def _src_env() -> dict:
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}


def test_cli_import_defers_scipy_signal_and_stats():
    code = "import sys, topospec.cli, topospec.sweep; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# runs the CLI with every scipy import raising, so a command that needs scipy
# at run time fails instead of paying the import there
NO_SCIPY_CLI = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError("scipy import attempted: " + name)

sys.meta_path.insert(0, NoScipy())
from topospec.cli import main
raise SystemExit(main(sys.argv[1:]))
"""


# five points, so the Savitzky-Golay smoothing runs; paths are relative to the
# test's working directory, where the fast config and the hardware CSV are written
FAST_SWEEP = ["sweep", "--config", "run.cfg", "--grid", "36:40:1"]


@pytest.mark.parametrize(
    "command",
    [
        ["graph", "--rho", "40"],
        ["bound-check", "--clouds", "2", "--points", "6"],
        FAST_SWEEP,
        FAST_SWEEP + ["--hardware-csv", "hw.csv"],
    ],
    ids=["graph", "bound-check", "sweep", "sweep-hardware-csv"],
)
def test_stage_commands_run_without_scipy(command, tmp_path):
    write_fast_config(tmp_path)
    (tmp_path / "hw.csv").write_text("rho,gap\n36,0.5\n37,0.9\n38,0.7\n39,0.6\n40,1.1\n")
    argv = [sys.executable, "-c", NO_SCIPY_CLI, "--out", str(tmp_path / "out"), *command]
    proc = subprocess.run(argv, cwd=tmp_path, env=_src_env(), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if "--hardware-csv" in command:
        report = json.loads((tmp_path / "out" / "sweep_correlations.json").read_text())
        assert set(report["hardware"]) == {"n_joined", "pearson_h1_hw", "pearson_sim_hw", "mae_sim_hw"}
