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
from hypothesis import given, settings
from hypothesis import strategies as st

from topospec import cli, persistence, spectro
from topospec.hodge import laplacian_k
from topospec.probe import dicke_state, dicke_weights, uniform_edge_state, w_state_vector
from topospec.susy import PauliHamiltonian, onehot_hamiltonian, susy_hamiltonian
from topospec.sweep import _pipeline_stage, run_sweep
from helpers import correlator_hadamard_unfused, graph_from_edges
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
# (the fivepoint entries re-pinned when validate-fivepoint dropped its own
# alpha floor of 1 for the calibrated alpha, 0.497)
GOLDEN = {
    "fivepoint": {
        "fivepoint_correlator_eps0.8.csv": "5916c0ac2bce000757c8c520d03eea1302dd3511126c8566eab87819e273f893",
        "fivepoint_correlator_eps0.9.csv": "ca57ed144920e15255fdecfb7efe5930109f6c83107fabe273dd3ed036b7c76b",
        "fivepoint_correlator_eps1.0.csv": "f24dfe95d62effc76f21c9d6b8616bc3183088fdf3d5d61e621b2c93da0dfa2f",
        "fivepoint_report.json": "1f8e0cceb6f297f89588a405c911bb713e92a24088140d88161169cf82108cad",
        "fivepoint_spectrum_eps0.8.csv": "3f499c60171f43a59d966c8f83fb73c38a01205c6ee93fc334b4229c66da033b",
        "fivepoint_spectrum_eps0.9.csv": "edc0039b8c2d30c6fddad9ff28b874f79443a867e31b5604471d8fc26f562562",
        "fivepoint_spectrum_eps1.0.csv": "8eec8bd4420e0dcfd61aa915cbf7ab3eec63e3e6ae1feb011dd4c0a652e39cc3",
    },
    # re-pinned when the Hadamard step began running as fused blocks: max |dC|
    # 4.2e-14 against the gate-by-gate loop (test below); re-pinned again when
    # the W probe became the exact one-hot uniform edge state in place of its
    # simulated preparation circuit: max |dC| 5.6e-16, the probe CSV loses the
    # ~1e-17 amplitudes outside the one-excitation sector, and only the last
    # digit of gap_hat moves
    "hadamard_shots0": {
        "qpe_correlator_rho28.0.csv": "acd228b59eedc5831ec3c0460ad2a272db75836727915d7b3af9af2b7678349e",
        "qpe_estimate_rho28.0.json": "afc9364e45f766bd3803a3e0b417045967e71ce06fb5aac1ec1b405c3444f0fe",
        "qpe_probe_rho28.0.csv": "b76bcef7d9dbcc26d27900bfa567df7e157e09743a0c718907a431086cc32c51",
        "qpe_spectrum_rho28.0.csv": "f04378feeb272e676d859cd08d3205b1411a0b17d7fb5ce116a5cecb00c284b9",
    },
    # re-pinned for the exact W probe: only the probe CSV changed, the draws
    # and so the correlator are byte-identical
    "hadamard_shots200": {
        "qpe_correlator_rho28.0.csv": "16312f597f1cc18fdd09f01d7f63cb1282cbffaf453e83cd01c419702f390bf7",
        "qpe_estimate_rho28.0.json": "ac19c9753f9cc3d8020cbac2c43c752bb5c6b3d36ab8d98902636cd16539a5d0",
        "qpe_probe_rho28.0.csv": "b76bcef7d9dbcc26d27900bfa567df7e157e09743a0c718907a431086cc32c51",
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
    # re-pinned for the fused step: max |dC| 6.7e-13
    "dicke_hadamard": {
        "qpe_correlator_rho28.0.csv": "b1452c2a9ba0f3923294179580aa8570e751fc09415e2964f48c999dc76a7356",
        "qpe_estimate_rho28.0.json": "5aa06e38440e9833bfd903d562e6e15de84e5f35938003caaca0faca1ac05def",
        "qpe_probe_rho28.0.csv": "a211661064fb776ccd11cdb67896ad7e16ea266ef140ac93e4ab7ef002a61db9",
        "qpe_spectrum_rho28.0.csv": "3cde7b4c3bd75e5cdd6eda6947bc06f6a9cde65658ff5dab9c70ae4bd88347bb",
    },
    # re-pinned for the fused step: max |dC| 5.3e-14 over the three rho, which
    # moves only the last digits of h_spec (and its smoothed column); the
    # records re-pinned again when the config lost alpha_scale, cloud_stride
    # and triangle_mode, which moved only their config_digest column; and
    # again for the exact W probe: max |dC| 1.5e-15, which moves only the
    # last digits of h_spec (and its smoothed column)
    "sweep_hadamard": {
        "manifest.json": "3794419db91a37370f103b9531f59cc1a06ecdc4318687c2fd66615dedd3e461",
        "sweep_correlations.json": "81111c6615a620acb381a8bde598b7af039e8aa9e940de046f83fcbedbeeb12f",
        "sweep_records.csv": "a8cf452864ae7b81e737850c34c6f6cdde7b61216957c88feb72908b31985f5c",
        "sweep_smoothed.csv": "9d02f5259cfc404313a8a1a7a3c150e5c456020039dcd9c864114d9b62d04566",
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


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 10_000), kind=st.sampled_from(["w_state", "dicke"]), shots=st.sampled_from([0, 0, 50]))
def test_fused_hadamard_readout_is_the_unfused_loop(seed, kind, shots):
    # the oracle is the gate-by-gate loop the fused step replaced: at shots 0
    # the series agree to rounding, and with shots the binomial draws are the
    # same wherever the drawn part of C is not zero; at p = 1/2 numpy's
    # binomial switches to drawing n - B(n, 1 - p), so a part that is zero in
    # exact arithmetic may draw differently on either side of its rounding
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 6))
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.6] or [(0, 1)]
    g = graph_from_edges(n, edges)
    dt, m = 0.25, 24
    if kind == "w_state":
        ham = onehot_hamiltonian(laplacian_k(g.B1, g.B2 if len(g.triangles) else None))
        psi = w_state_vector(len(edges))
    else:  # the SUSY register, whose predicate MCX gates are wider than a fused block
        ham = susy_hamiltonian(g)
        psi = dicke_state(n, dicke_weights(g, 0.5, 0.25)).astype(complex)
    alpha = spectro._placed_alpha(ham.gershgorin_bound(), dt)
    fused = spectro.correlator_hadamard(ham, psi, dt, m, shots=shots, alpha=alpha, seed=seed)
    ref = correlator_hadamard_unfused(ham, psi, dt, m, shots=shots, alpha=alpha, seed=seed)
    if shots:
        exact = correlator_hadamard_unfused(ham, psi, dt, m, alpha=alpha).values
        for part in (np.real, np.imag):
            settled = np.abs(part(exact)) > 1e-12
            assert settled.sum() >= m // 2
            assert np.array_equal(part(fused.values)[settled], part(ref.values)[settled])
    else:
        assert np.abs(fused.values - ref.values).max() <= 1e-12


def _correlator_csv(out: Path) -> np.ndarray:
    rows = np.loadtxt(out / "qpe_correlator_rho28.0.csv", delimiter=",", skiprows=1)
    return rows[:, 1] + 1j * rows[:, 2]


@pytest.mark.parametrize("name", ["hadamard_shots0", "hadamard_shots200", "dicke_hadamard"])
def test_pinned_hadamard_qpe_runs_read_what_the_unfused_loop_reads(tmp_path, monkeypatch, name):
    argv, extra = RUNS[name]
    fused = run_cli(tmp_path / "fused", argv, extra)
    with monkeypatch.context() as mp:
        mp.setattr(spectro, "correlator_hadamard", lambda *a, sizes=None, **kw: correlator_hadamard_unfused(*a, **kw))
        unfused = run_cli(tmp_path / "unfused", argv, extra)
    name_csv = "qpe_correlator_rho28.0.csv"
    if "--shots" in argv:
        assert (fused / name_csv).read_bytes() == (unfused / name_csv).read_bytes()
    else:
        assert np.abs(_correlator_csv(fused) - _correlator_csv(unfused)).max() <= 1e-12


def test_hadamard_qpe_probe_is_exactly_in_the_one_excitation_sector(tmp_path):
    # the probe CSV holds the 2^E system amplitudes; only the E one-hot rows
    # 1 << q are nonzero, each the uniform edge amplitude 1/sqrt(E)
    argv, extra = RUNS["hadamard_shots0"]
    rows = np.loadtxt(run_cli(tmp_path, argv, extra) / "qpe_probe_rho28.0.csv", delimiter=",", skiprows=1)
    n_edges = int(math.log2(len(rows)))
    assert len(rows) == 1 << n_edges and n_edges == 9
    nonzero = rows[rows[:, 1:].any(axis=1)]
    assert nonzero[:, 0].tolist() == [1 << q for q in range(n_edges)]
    assert np.array_equal(nonzero[:, 1], uniform_edge_state(n_edges)) and not nonzero[:, 2].any()


def test_hadamard_sweep_records_its_circuit_sizes():
    from test_sweep import TINY_HADAMARD

    rec = run_sweep([38.0], TINY_HADAMARD)[0][0]
    assert rec.failed_stage is None
    sizes = rec.sizes
    assert sizes["qubits"] == sizes["edges"] + 2
    assert sizes["trotter_substeps"] >= 1
    assert 0 < sizes["fused_step_gates"] < sizes["step_gates"]


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

    def spy(l1, dt, m, alpha, mode="exact", shots=0, seed=0, sizes=None):
        calls.append((l1.shape[0], mode, shots, seed))
        return readout(l1, dt, m, alpha, mode, shots, seed, sizes)

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
    l1 = _pipeline_stage(28.0, sw, until="graph").l1
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
