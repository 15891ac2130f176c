"""Acceptance suite: every criterion runs at its stated tolerance inside its
runtime budget and prints one pass/fail line."""

import itertools
import math
import time

import numpy as np
import pytest
import scipy.linalg

from topospec import cli, dynamics, persistence, spectro, topograph
from topospec.hodge import (
    laplacian_at,
    laplacian_k,
    spectrum,
    verify_gap_persistence_bound,
)
from topospec.probe import w_state_vector
from topospec.qcompile import baseline_qpe_cost, controlled_evolution, simulate, Circuit, Gate
from topospec.susy import onehot_hamiltonian, verify_block_equivalence
from topospec.sweep import SweepConfig, run_sweep
from helpers import circuit_unitary, graph_from_edges, hodge_projectors


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.name}: {status} ({elapsed:.1f} s / budget {self.seconds} s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


def test_01_five_point_validation(tmp_path):
    with Budget("1 five-point validation", 10):
        rc = cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint"])
        assert rc == 0
        import json

        report = json.loads((tmp_path / "out" / "fivepoint_report.json").read_text())
        betas = [r["beta1_hat"] for r in report["results"]]
        assert betas == [1, 1, 0]
        r08 = report["results"][0]
        assert r08["gap_classical"] == pytest.approx(2.0)
        # alpha stays 1 here (max |eig| = 5 fits the Nyquist band at dt = 0.25),
        # so one Fourier bin in energy units is 2 pi / (M dt)
        one_bin = 2 * math.pi / (256 * 0.25)
        assert abs(r08["gap_hat"] - 2.0) <= one_bin


def _random_connected_graph(rng, n):
    while True:
        pairs = list(itertools.combinations(range(n), 2))
        mask = rng.random(len(pairs)) < 0.5
        edges = [p for p, m in zip(pairs, mask) if m]
        if len(edges) < n - 1:
            continue
        g = graph_from_edges(n, edges, pure=True)
        if np.linalg.matrix_rank(g.B1.astype(float)) == n - 1:
            return g


def test_02_susy_hodge_block_equivalence():
    with Budget("2 SUSY-Hodge equivalence", 120):
        rng = np.random.default_rng(2024)
        for _ in range(100):
            n = int(rng.integers(3, 7))
            g = _random_connected_graph(rng, n)
            rep = verify_block_equivalence(g, k_max=n, tol=1e-9)
            assert rep.passed, (g.edges, rep.max_deviation)


def test_03_hodge_algebra():
    with Budget("3 Hodge algebra", 120):
        rng = np.random.default_rng(3)
        # projector algebra on random connected graphs
        for _ in range(20):
            g = _random_connected_graph(rng, int(rng.integers(4, 8)))
            tris = topograph.enumerate_triangles(g.edges)
            B1, B2 = topograph.incidence_matrices(g.n_vertices, g.edges, tris)
            P_grad, P_harm, P_curl = hodge_projectors(B1, B2 if tris else None)
            n_e = len(g.edges)
            for P in (P_grad, P_harm, P_curl):
                assert np.abs(P @ P - P).max() <= 1e-10
                assert np.abs(P - P.T).max() <= 1e-10
            assert np.abs(P_grad @ P_curl).max() <= 1e-10
            assert np.abs(P_grad @ P_harm).max() <= 1e-10
            assert np.abs(P_harm @ P_curl).max() <= 1e-10
            total = P_grad + P_harm + P_curl
            assert np.abs(total - np.eye(n_e)).max() <= 1e-10
        # kernel dimensions match persistence at matched radii
        for _ in range(50):
            n = int(rng.integers(5, 13))
            pts = rng.uniform(0, 1, size=(n, 3))
            diam = float(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).max())
            filt = persistence.rips_filtration(pts, eps_max=diam * 1.001)
            diag = persistence.compute_persistence(filt)
            radii = filt.critical_radii()
            for eps in radii[:: max(1, len(radii) // 5)]:
                for p in (0, 1):
                    L, simp = laplacian_at(filt, eps, p)
                    if not simp:
                        continue
                    assert spectrum(L).beta_k == diag.betti(p, eps)


def test_04_gap_persistence_bound():
    with Budget("4 gap-persistence bound", 300):
        rng = np.random.default_rng(4)
        pairs = 0
        for _ in range(200):
            pts = rng.uniform(0, 1, size=(8, 3))
            for rep in verify_gap_persistence_bound([pts], p=1):
                assert rep.holds and rep.slack >= -1e-9, rep
                pairs += 1
        assert pairs > 100


def test_05_lyapunov_onset():
    with Budget("5 Lyapunov onset", 180):
        rhos = [23.0, 24.0, 25.0, 26.0, 27.0]
        signs = []
        for rho in rhos:
            p = dynamics.LorenzParams(rho=rho)
            c = dynamics.fixed_points(p)[1]
            r = dynamics.lyapunov_max(p, (c[0] + 0.1, c[1], c[2]), 0.005, 300.0, 20)
            signs.append(r.lambda_max > 0)
        flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
        assert len(flips) == 1
        lo, hi = rhos[flips[0]], rhos[flips[0] + 1]
        assert 24.7 - 1.0 <= lo and hi <= 24.7 + 1.0


def test_06_sweep_copeaking():
    with Budget("6 sweep co-peaking", 900):
        cfg = SweepConfig()  # default seed and parameters
        grid = [36.0, 37.0, 38.0, 39.0, 40.0, 41.0, 42.0]
        records, report = run_sweep(grid, cfg)
        assert all(r.failed_stage is None for r in records)
        ell = np.array([r.ell_max_h1 for r in records])
        gap = np.array([r.delta1_susy_sim for r in records])
        assert np.argmax(ell) == np.argmax(gap)
        assert report["pearson_r"] > 0.5


def test_07_trotter_order_scaling():
    with Budget("7 Trotter order scaling", 120):
        from topospec.susy import PauliHamiltonian, PauliTerm

        rng = np.random.default_rng(7)
        t_values = np.array([0.4, 0.2, 0.1, 0.05])

        def random_ham():
            terms = []
            for _ in range(4):
                letters = "".join(rng.choice(list("IXZzo"), size=3))
                if set(letters) == {"I"}:
                    letters = "X" + letters[1:]
                terms.append(PauliTerm(float(rng.normal()), letters))
            return PauliHamiltonian(terms=tuple(terms), n=3)

        def fit(ham, order):
            errs = []
            hd = ham.dense()
            for t in t_values:
                circ = controlled_evolution(ham, t, order=order, steps=1, optimize=False)
                U = _anc1_block(circ, hd.shape[0])
                errs.append(np.abs(U - scipy.linalg.expm(-1j * hd * t)).max())
            return np.polyfit(np.log(t_values), np.log(errs), 1)[0]

        for _ in range(3):
            ham = random_ham()
            assert 1.8 <= fit(ham, 1) <= 2.2
            assert 2.8 <= fit(ham, 2) <= 3.2


def _anc1_block(circ, dim):
    U = circuit_unitary(circ)
    n = circ.n_qubits
    anc, work = 1 << (n - 1), 1 << (n - 2)
    idx = [
        i | anc
        for i in range(1 << n)
        if not (i & anc) and not (i & work) and (i & ~(anc | work)) < dim
    ]
    return U[np.ix_(idx, idx)]


def _pipeline_graph(rho=40.0):
    cfg = SweepConfig()
    from topospec.sweep import _pipeline_stage

    stage = _pipeline_stage(rho, cfg)
    assert stage.graph is not None
    return stage


def test_08_compiler_correctness_and_cost():
    with Budget("8 compiler correctness and cost", 300):
        # state fidelity against the dense controlled exponential, n <= 5
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 5))
        M = (A + A.T) / 2
        ham = onehot_hamiltonian(M)
        t = 0.5
        circ = controlled_evolution(ham, t, order=2, steps=400)
        psi = np.zeros(1 << ham.n, dtype=complex)
        psi[[1 << q for q in range(5)]] = 1 / math.sqrt(5)
        dim = 1 << circ.n_qubits
        state = np.zeros(dim, dtype=complex)
        state[: len(psi)] = psi
        anc_flip = Circuit(circ.n_qubits, (Gate("X", circ.n_qubits - 1),))
        state = simulate(anc_flip, state)
        out = simulate(circ, state)
        exact = scipy.linalg.expm(-1j * ham.dense() * t) @ psi
        expect = np.zeros(dim, dtype=complex)
        expect[: len(psi)] = exact
        expect = simulate(anc_flip, expect)
        assert abs(np.vdot(expect, out)) ** 2 >= 1 - 1e-8

        # cost ratio on the 7-edge hardware-shaped Lorenz instance
        stage = _pipeline_graph(40.0)
        coords = stage.graph.coords
        angles = persistence.circular_coordinates(coords)
        mst, _ = topograph.build_edges(coords, angles, use_ring=False, eps_quantile=1e-9)
        order = np.argsort(angles, kind="stable")
        closure = None
        for k in range(len(order)):
            a, b = int(order[k]), int(order[(k + 1) % len(order)])
            e = (min(a, b), max(a, b))
            if e not in set(mst):
                closure = e
                break
        edges = tuple(sorted(set(mst) | {closure}))
        assert len(edges) == 7  # unicyclic: seven system qubits on the edge register
        g7 = graph_from_edges(7, edges, pure=True)
        l1 = laplacian_k(g7.B1, None)
        stats = baseline_qpe_cost(onehot_hamiltonian(l1), phase_bits=6)
        assert stats.ratio >= 50
        # the full pipeline instance clears the same bar
        full_l1 = stage.l1
        stats_full = baseline_qpe_cost(onehot_hamiltonian(full_l1), phase_bits=6)
        assert stats_full.ratio >= 50


def test_09_spectral_estimator_recovery():
    with Budget("9 spectral estimator recovery", 60):
        # noiseless Prony two-line recovery to 1e-9
        dt, m = 0.2, 64
        t = dt * np.arange(m)
        vals = 0.6 * np.exp(-1j * 0.8 * t) + 0.4 * np.exp(-1j * 2.3 * t)
        ser = spectro.CorrelatorSeries(dt=dt, values=vals)
        freqs, _ = spectro.prony_esprit(ser, ranks=(2, 3, 4))
        assert len(freqs) == 2
        assert abs(freqs[0] - 0.8) < 1e-9 and abs(freqs[1] - 2.3) < 1e-9

        # refined FFT peak error below 0.05 bins for off-grid lines
        dt, m = 0.25, 256
        dw = 2 * math.pi / (m * dt)
        for frac in (0.15, 0.3, 0.45):
            target = (11 + frac) * dw
            t = dt * np.arange(m)
            ser = spectro.CorrelatorSeries(dt=dt, values=np.exp(-1j * target * t))
            om, pw = spectro.periodogram(ser)
            peaks = spectro.refine_peaks(om, pw, dt)
            w0, _ = min(peaks.lines, key=lambda la: abs(la[0] - target))
            assert abs(w0 - target) < 0.05 * dw

        # alpha sweep leaves beta1 invariant and gap/alpha constant
        C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        l1 = laplacian_k(C4.B1, None)
        ratios = []
        for alpha in (1.0, 1.6, 2.5):
            ser = spectro.correlator_exact(l1, np.eye(4), 0.25, 256, alpha=alpha)
            est = spectro.estimate(ser, ensemble_dim=4)
            assert est.beta1_hat == 1
            ratios.append(est.gap_hat)  # energy units: gap_hat = alpha * omega
        assert max(ratios) - min(ratios) <= 2.5 * 2 * math.pi / (256 * 0.25)


def test_10_shot_noise_model():
    with Budget("10 shot-noise model", 120):
        h = np.array([[0.0, 0.5], [0.5, 0.8]])
        ham = onehot_hamiltonian(h)
        dt, m = 0.3, 9
        psi = w_state_vector(2)
        shots = 4096
        exact = spectro.correlator_exact(h, np.ones(2) / math.sqrt(2), dt, m).values[-1]
        reps = []
        for rep in range(100):
            ser = spectro.correlator_hadamard(
                ham, psi, dt, m, shots=shots, order=2, steps=16, seed=rep
            )
            reps.append(ser.values[-1])
        reps = np.array(reps)
        se_emp = math.sqrt(np.mean(np.abs(reps - reps.mean()) ** 2))
        se_model = math.sqrt((1 - abs(exact) ** 2) / shots)
        assert se_model / 2 <= se_emp <= 2 * se_model
