import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from topospec.errors import AliasingConfigError
from topospec.hodge import laplacian_at, laplacian_k, spectrum
from topospec.persistence import rips_filtration
from topospec.probe import dephased_probes, w_state_vector
from topospec.qcompile import Circuit, Gate, controlled_evolution, simulate
from topospec import spectro
from topospec.spectro import (
    CorrelatorSeries,
    correlator_exact,
    correlator_hadamard,
    estimate,
    hann_window,
    minimal_alpha,
    periodogram,
    prony_esprit,
    refine_peaks,
    zero_mode_test,
)
from topospec.susy import onehot_hamiltonian
from helpers import bootstrap_gap_ci_oracle, graph_from_edges, refine_peaks_oracle

C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
L1_C4 = laplacian_k(C4.B1, None)


def synthetic_series(freqs, amps, dt=0.25, m=256, noise=0.0, seed=0):
    t = dt * np.arange(m)
    vals = sum(a * np.exp(-1j * f * t) for f, a in zip(freqs, amps))
    if noise:
        rng = np.random.default_rng(seed)
        vals = vals + noise * (rng.normal(size=m) + 1j * rng.normal(size=m)) / math.sqrt(2)
    return CorrelatorSeries(dt=dt, values=vals)


# ---------------------------------------------------------------------------
# correlators
# ---------------------------------------------------------------------------


# reference implementations: the exact readout as it was computed before one
# eigendecomposition served every probe ensemble (a second eigh for the
# edge-basis weights, and a dephased average of per-draw series)
def reference_ensemble_weights(hmat, basis_states):
    _, evecs = np.linalg.eigh(hmat)
    overlaps = np.abs(evecs.conj().T @ basis_states) ** 2
    return overlaps.mean(axis=1)


def reference_correlator(hmat, probe, t_grid, alpha=1.0, ensemble_weights=None):
    hmat = np.asarray(hmat, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    evals, evecs = np.linalg.eigh(hmat)
    if ensemble_weights is not None:
        a = np.asarray(ensemble_weights, dtype=float)
    else:
        a = np.abs(evecs.conj().T @ np.asarray(probe, dtype=complex)) ** 2
    return (a[None, :] * np.exp(-1j * np.outer(t_grid, evals / alpha))).sum(axis=1)


def reference_dephase_average(hmat, probe, t_grid, samples, seed=0):
    rng = np.random.default_rng(seed)
    evals, evecs = np.linalg.eigh(hmat)
    acc = np.zeros(len(t_grid), dtype=complex)
    dim = len(probe)
    for _ in range(samples):
        phases = np.exp(-1j * rng.uniform(0, 2 * math.pi, size=dim))
        psi = probe * phases
        psi = psi / np.linalg.norm(psi)
        amps = np.abs(evecs.conj().T @ psi) ** 2
        acc += (amps[None, :] * np.exp(-1j * np.outer(t_grid, evals))).sum(axis=1)
    return acc / samples


# the dephased series averages draw weights instead of draw series; 1e-12 is
# fixed ahead of the change from a few float64 roundings of O(1) terms
DEPHASED_ATOL = 1e-12


@given(
    n=st.integers(1, 7),
    seed=st.integers(0, 10_000),
    samples=st.integers(1, 6),
    dt=st.sampled_from([0.1, 0.25, 0.3]),
)
@settings(max_examples=60, deadline=None)
def test_exact_correlator_matches_the_reference_readouts(n, seed, samples, dt):
    rng = np.random.default_rng(seed)
    a = rng.integers(-3, 4, size=(n, n)).astype(float)
    h = a + a.T
    m = 32
    tg = dt * np.arange(m)
    alpha = minimal_alpha(max(float(np.abs(np.linalg.eigvalsh(h)).max()), 1.0), dt, 0.8)
    edge = correlator_exact(h, np.eye(n), dt, m, alpha)
    assert np.array_equal(
        edge.values,
        reference_correlator(h, None, tg, alpha, reference_ensemble_weights(h, np.eye(n))),
    )
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    pure = correlator_exact(h, psi, dt, m, alpha)
    assert np.array_equal(pure.values, reference_correlator(h, psi, tg, alpha))
    dephased = correlator_exact(h, dephased_probes(psi, samples, seed), dt, m, alpha)
    ref = reference_dephase_average(h, psi, tg / alpha, samples, seed=seed)
    assert np.abs(dephased.values - ref).max() <= DEPHASED_ATOL


def test_exact_correlator_trivial_cases():
    tg = 0.3 * np.arange(32)
    ser = correlator_exact(np.zeros((3, 3)), np.array([1.0, 0, 0]), 0.3, 32)
    assert np.allclose(ser.values, 1.0)
    evals, evecs = np.linalg.eigh(L1_C4)
    probe = evecs[:, 3]
    ser = correlator_exact(L1_C4, probe, 0.3, 32, alpha=2.0)
    assert np.allclose(ser.values, np.exp(-1j * evals[3] / 2.0 * tg), atol=1e-12)
    assert np.allclose(np.abs(ser.values), 1.0, atol=1e-12)


def test_exact_correlator_matches_projection_weights():
    tg = 0.25 * np.arange(64)
    ser = correlator_exact(L1_C4, np.eye(4), 0.25, 64)
    evals, evecs = np.linalg.eigh(L1_C4)
    weights = (evecs**2).mean(axis=1)
    expect = (weights * np.exp(-1j * np.outer(tg, evals))).sum(axis=1)
    assert np.abs(ser.values - expect).max() < 1e-12
    # nearly periodic revivals: |C| returns close to 1 at t = pi (period of
    # the {0,2,4} spectrum)
    idx = np.argmin(np.abs(tg - np.pi))
    assert abs(ser.values[idx]) > 0.95


def test_exact_correlator_nyquist_guard():
    with pytest.raises(AliasingConfigError) as exc:
        correlator_exact(L1_C4, np.ones(4) / 2, 1.0, 16, alpha=1.0)
    assert f"{minimal_alpha(np.abs(np.linalg.eigvalsh(L1_C4)).max(), 1.0):.6g}"[:4] in str(exc.value)


def test_hadamard_h0_exact():
    ham = onehot_hamiltonian(np.zeros((2, 2)))
    psi = w_state_vector(2)
    ser = correlator_hadamard(ham, psi, 0.4, 6, shots=0)
    assert np.allclose(ser.values, 1.0, atol=1e-12)


def test_hadamard_matches_exact_within_trotter():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    M = (A + A.T) / 2
    ham = onehot_hamiltonian(M)
    psi = w_state_vector(3)
    alpha = 2.0
    exact = correlator_exact(M, np.ones(3) / math.sqrt(3), 0.3, 12, alpha=alpha)
    approx = correlator_hadamard(ham, psi, 0.3, 12, shots=0, order=2, steps=24, alpha=alpha)
    assert np.abs(exact.values - approx.values).max() < 5e-4


def _per_sample_reference(ham, psi, t_grid, n_sub, alpha):
    """The X/Y-basis Hadamard test run as one circuit per sample: sample k
    compiles controlled_evolution(t_k) with k * n_sub Trotter steps and
    reads Re C and Im C off the ancilla's P(0)."""
    n_total = ham.n + 2
    anc = n_total - 1
    base = np.zeros(1 << n_total, dtype=complex)
    base[: 1 << ham.n] = psi
    out = [1.0]
    for k, t in enumerate(t_grid[1:], start=1):
        evo = controlled_evolution(ham, t, order=2, steps=k * n_sub, alpha=alpha)
        parts = []
        for tail in ((Gate("H", anc),), (Gate("SDG", anc), Gate("H", anc))):
            circ = Circuit(n_total, (Gate("H", anc),) + evo.gates + tail)
            p0 = float((np.abs(simulate(circ, base)[: 1 << (n_total - 1)]) ** 2).sum())
            parts.append(2 * p0 - 1)
        out.append(parts[0] + 1j * parts[1])
    return np.array(out)


def test_hadamard_stepped_series_matches_per_sample_circuits():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    M = (A + A.T) / 2
    ham = onehot_hamiltonian(M)
    tg = 0.3 * np.arange(12)
    psi = w_state_vector(3)
    alpha, n_sub = 2.0, 2
    ser = correlator_hadamard(ham, psi, 0.3, 12, shots=0, order=2, steps=n_sub, alpha=alpha)
    ref = _per_sample_reference(ham, psi, tg, n_sub, alpha)
    assert np.abs(ser.values - ref).max() < 1e-10
    exact = correlator_exact(M, np.ones(3) / math.sqrt(3), 0.3, 12, alpha=alpha)
    assert np.abs(exact.values - ser.values).max() < 5e-4


# the ids keep the names these cases had when the grid was passed as an array
@pytest.mark.parametrize(
    "dt, m",
    [
        pytest.param(0.3, 1, id="t_grid3"),  # a single sample
        pytest.param(0.3, 0, id="t_grid4"),  # empty
    ],
)
def test_hadamard_rejects_grids_other_than_k_dt(dt, m):
    ham = onehot_hamiltonian(np.array([[0.0, 0.5], [0.5, 0.8]]))
    with pytest.raises(ValueError, match="Hadamard readout needs"):
        correlator_hadamard(ham, w_state_vector(2), dt, m)


def test_hadamard_rejects_a_nonpositive_step():
    ham = onehot_hamiltonian(np.array([[0.0, 0.5], [0.5, 0.8]]))
    for dt in (0.0, -0.3):
        with pytest.raises(ValueError, match="Hadamard readout needs"):
            correlator_hadamard(ham, w_state_vector(2), dt, 8)


def test_hadamard_raises_when_the_work_qubit_is_left_set(monkeypatch):
    real = spectro.controlled_evolution

    def leaky(ham, t, **kwargs):
        circ = real(ham, t, **kwargs)
        return Circuit(circ.n_qubits, circ.gates + (Gate("X", ham.n),))

    monkeypatch.setattr(spectro, "controlled_evolution", leaky)
    ham = onehot_hamiltonian(np.array([[0.0, 0.5], [0.5, 0.8]]))
    with pytest.raises(RuntimeError, match="work qubit"):
        correlator_hadamard(ham, w_state_vector(2), 0.3, 4)


def test_shot_noise_matches_model():
    # empirical SE within 2x of sqrt((1 - |C|^2) / shots) over 100 repeats
    # t near the beat minimum keeps |C| moderate, where the complex-estimate
    # variance (2 - |C|^2)/M sits within 2x of the quoted (1 - |C|^2)/M
    h = np.array([[0.0, 0.5], [0.5, 0.8]])
    ham = onehot_hamiltonian(h)
    dt, m = 0.3, 9  # last point sits near the beat minimum
    psi = w_state_vector(2)
    shots = 4096
    exact = correlator_exact(h, np.ones(2) / math.sqrt(2), dt, m, alpha=1.0).values[-1]
    reps = []
    for rep in range(100):
        ser = correlator_hadamard(
            ham, psi, dt, m, shots=shots, order=2, steps=16, alpha=1.0, seed=rep
        )
        reps.append(ser.values[-1])
    reps = np.array(reps)
    se_emp = math.sqrt(np.mean(np.abs(reps - reps.mean()) ** 2))
    se_model = math.sqrt((1 - abs(exact) ** 2) / shots)
    assert se_model / 2 <= se_emp <= 2 * se_model


# ---------------------------------------------------------------------------
# periodogram + refinement
# ---------------------------------------------------------------------------


def test_periodogram_dc_lobe():
    ser = synthetic_series([0.0], [1.0])
    om, pw = periodogram(ser)
    assert pw.argmax() == 0
    # Hann sidelobes fall off fast away from the main lobe
    assert pw[8:-8].max() < 1e-4 * pw[0]


def test_periodogram_on_grid_peak():
    ser = synthetic_series([6 * 2 * math.pi / (256 * 0.25)], [1.0])
    om, pw = periodogram(ser)
    assert pw.argmax() == 6


def test_two_lines_resolved():
    dw = 2 * math.pi / (256 * 0.25)
    ser = synthetic_series([5 * dw, 8 * dw], [1.0, 0.8])
    om, pw = periodogram(ser)
    peaks = refine_peaks(om, pw, ser.dt)
    got = sorted(w for w, _ in peaks.lines)
    assert len(got) == 2
    assert abs(got[0] - 5 * dw) < 0.1 * dw
    assert abs(got[1] - 8 * dw) < 0.1 * dw


def test_parseval_within_one_percent():
    rng = np.random.default_rng(2)
    vals = rng.normal(size=128) + 1j * rng.normal(size=128)
    ser = CorrelatorSeries(dt=0.2, values=vals)
    om, pw = periodogram(ser)
    w = hann_window(128)
    time_energy = (np.abs(w * vals) ** 2).sum()
    freq_energy = pw.sum() / 128
    assert abs(freq_energy - time_energy) / time_energy < 0.01


def test_refine_symmetric_neighbors_zero_shift():
    # on-grid line: A- == A+ by symmetry, delta = 0
    dw = 2 * math.pi / (256 * 0.25)
    ser = synthetic_series([10 * dw], [1.0])
    om, pw = periodogram(ser)
    peaks = refine_peaks(om, pw, ser.dt)
    w0, _ = min(peaks.lines, key=lambda la: abs(la[0] - 10 * dw))
    assert abs(w0 - 10 * dw) < 1e-9


def test_refine_off_grid_sub_bin():
    dw = 2 * math.pi / (256 * 0.25)
    target = (10 + 0.3) * dw
    ser = synthetic_series([target], [1.0])
    om, pw = periodogram(ser)
    peaks = refine_peaks(om, pw, ser.dt)
    w0, _ = min(peaks.lines, key=lambda la: abs(la[0] - target))
    assert abs(w0 - target) < 0.05 * dw


def test_refine_sub_bin_sweep():
    dw = 2 * math.pi / (256 * 0.25)
    for frac in (0.1, 0.25, 0.4, 0.45):
        target = (12 + frac) * dw
        ser = synthetic_series([target], [1.0])
        om, pw = periodogram(ser)
        peaks = refine_peaks(om, pw, ser.dt)
        w0, _ = min(peaks.lines, key=lambda la: abs(la[0] - target))
        assert abs(w0 - target) < 0.05 * dw, frac


def test_flat_spectrum_fallback_noted():
    ser = CorrelatorSeries(dt=0.25, values=np.zeros(64, dtype=complex))
    om, pw = periodogram(ser)
    peaks = refine_peaks(om, pw, ser.dt)
    assert peaks.flat_spectrum


def test_estimator_consistency_snr():
    # |w_hat - w| <= 3 * beta_win * dw / snr in >= 95% of trials (Hann: 0.5)
    dw = 2 * math.pi / (256 * 0.25)
    rng = np.random.default_rng(3)
    ok = 0
    trials = 200
    for k in range(trials):
        target = (9 + rng.uniform(-0.45, 0.45)) * dw
        noise = 0.5  # moderate SNR so noise, not interpolation bias, dominates
        ser = synthetic_series([target], [1.0], noise=noise, seed=k)
        om, pw = periodogram(ser)
        peaks = refine_peaks(om, pw, ser.dt)
        if not peaks.lines:
            continue
        w0, a0 = min(peaks.lines, key=lambda la: abs(la[0] - target))
        band = (om > 0.5 * math.pi / ser.dt) & (om < 0.8 * math.pi / ser.dt)
        sigma = math.sqrt(pw[band].mean())  # rms noise amplitude in the spectrum
        snr = a0 / max(sigma, 1e-12)
        if abs(w0 - target) <= 3 * 0.5 * dw / snr:
            ok += 1
    assert ok / trials >= 0.95


# ---------------------------------------------------------------------------
# prony
# ---------------------------------------------------------------------------


def test_prony_two_lines_exact():
    ser = synthetic_series([0.8, 2.3], [0.6, 0.4], dt=0.2, m=64)
    freqs, info = prony_esprit(ser, ranks=(2, 3, 4))
    assert len(freqs) == 2
    assert abs(freqs[0] - 0.8) < 1e-9
    assert abs(freqs[1] - 2.3) < 1e-9


def test_prony_constant_signal():
    ser = CorrelatorSeries(dt=0.2, values=np.ones(64, dtype=complex))
    freqs, info = prony_esprit(ser, ranks=(1, 2))
    assert len(freqs) == 1
    assert abs(freqs[0]) < 1e-9


def test_prony_overrank_discards_spurious():
    ser = synthetic_series([1.1], [1.0], dt=0.2, m=64)
    freqs, info = prony_esprit(ser, ranks=(1, 2, 3, 6))
    assert len(freqs) == 1
    assert abs(freqs[0] - 1.1) < 1e-9


@given(m=st.integers(2, 300), seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_hankel_matches_scipy(m, seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=m) + 1j * rng.normal(size=m)
    rows = m // 2
    ours, theirs = spectro._hankel(c, rows), scipy.linalg.hankel(c[:rows], c[rows - 1 :])
    assert np.array_equal(ours, theirs)
    assert ours.flags.c_contiguous and ours.dtype == theirs.dtype


# ---------------------------------------------------------------------------
# zero-mode test and aggregation
# ---------------------------------------------------------------------------


def test_zero_mode_gradient_probe_false():
    # probe in the gradient space of C4 has no kernel weight
    evals, evecs = np.linalg.eigh(L1_C4)
    probe = evecs[:, 2]
    ser = correlator_exact(L1_C4, probe, 0.25, 256)
    om, pw = periodogram(ser)
    ratio, is_zero = zero_mode_test(om, pw, 2 * ser.delta_omega, ser.dt)
    assert not is_zero


def test_zero_mode_harmonic_probe_true():
    evals, evecs = np.linalg.eigh(L1_C4)
    probe = evecs[:, 0]
    ser = correlator_exact(L1_C4, probe, 0.25, 256)
    om, pw = periodogram(ser)
    ratio, is_zero = zero_mode_test(om, pw, 2 * ser.delta_omega, ser.dt)
    assert is_zero
    assert ratio > 1e3


def test_zero_mode_fivepoint_contractible_is_false():
    # at radius 1.0 the five-point complex has no kernel: low-frequency power
    # falls to sideband levels
    from topospec.fixtures import FIVE_POINT_CLOUD

    l1, edges = laplacian_at(rips_filtration(FIVE_POINT_CLOUD, eps_max=1.0), 1.0, 1)
    assert spectrum(l1).beta_k == 0
    alpha = float(np.abs(np.linalg.eigvalsh(l1)).max()) * 0.25 / (0.8 * math.pi)
    ser = correlator_exact(l1, np.eye(len(edges)), 0.25, 256, alpha=max(1.0, alpha))
    om, pw = periodogram(ser)
    ratio, is_zero = zero_mode_test(om, pw, 2 * ser.delta_omega, ser.dt)
    assert not is_zero


def test_estimate_c4_beta_and_gap():
    ser = correlator_exact(L1_C4, np.eye(4), 0.25, 256)
    est = estimate(ser, ensemble_dim=4)
    assert est.beta1_hat == 1
    assert abs(est.gap_hat - 2.0) <= ser.delta_omega
    assert spectrum(L1_C4).beta_k == est.beta1_hat


def test_estimate_beta1_matches_kernel_on_fivepoint():
    from topospec.fixtures import FIVE_POINT_CLOUD, FIVE_POINT_RADII

    for eps in FIVE_POINT_RADII:
        l1, edges = laplacian_at(rips_filtration(FIVE_POINT_CLOUD, eps_max=eps), eps, 1)
        alpha = max(1.0, float(np.abs(np.linalg.eigvalsh(l1)).max()) * 0.25 / (0.8 * math.pi))
        ser = correlator_exact(l1, np.eye(len(edges)), 0.25, 256, alpha=alpha)
        est = estimate(ser, ensemble_dim=len(edges))
        assert est.beta1_hat == spectrum(l1).beta_k


def test_estimate_counts_multiplicity_two():
    # two disjoint 4-cycles: kernel dimension 2, one merged zero line whose
    # strength fraction resolves the multiplicity
    edges8 = [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (5, 6), (6, 7), (4, 7)]
    g = graph_from_edges(8, edges8, pure=True)
    l1 = laplacian_k(g.B1, None)
    assert spectrum(l1).beta_k == 2
    ser = correlator_exact(l1, np.eye(8), 0.25, 256)
    est = estimate(ser, ensemble_dim=8)
    assert est.beta1_hat == 2


def test_estimate_alpha_sweep_invariance():
    gaps, betas = [], []
    for alpha in (1.0, 1.7, 2.9):
        ser = correlator_exact(L1_C4, np.eye(4), 0.25, 256, alpha=alpha)
        est = estimate(ser, ensemble_dim=4)
        gaps.append(est.gap_hat)
        betas.append(est.beta1_hat)
    assert betas == [1, 1, 1]
    # rescaled energies agree within the (alpha-scaled) resolution
    for alpha, g in zip((1.0, 1.7, 2.9), gaps):
        assert abs(g - 2.0) <= alpha * 2 * math.pi / (256 * 0.25)


def test_estimate_gap_absent_is_valid():
    # kernel-only probe: all power at omega = 0
    ser = CorrelatorSeries(dt=0.25, values=np.ones(128, dtype=complex))
    est = estimate(ser, ensemble_dim=1)
    assert est.gap_hat is None
    assert est.beta1_hat >= 1


def test_estimate_median_rank_order_invariance():
    ser = correlator_exact(L1_C4, np.eye(4), 0.25, 256)
    a, _ = prony_esprit(ser, ranks=(2, 3, 4, 5))
    b, _ = prony_esprit(ser, ranks=(5, 4, 3, 2))
    assert len(a) and a == pytest.approx(b, abs=1e-12)


def test_bootstrap_ci_contains_gap():
    ser = correlator_exact(L1_C4, np.eye(4), 0.25, 256)
    est = estimate(ser, ensemble_dim=4, bootstrap=True)
    assert est.gap_ci is not None
    lo, hi = est.gap_ci
    assert lo <= est.gap_hat * 1.05 and hi >= est.gap_hat * 0.95


def _peaky_series(seed: int, m: int) -> CorrelatorSeries:
    """A few lines in noise, or a flat series when seed % 5 == 0."""
    rng = np.random.default_rng(seed)
    if seed % 5 == 0:
        return CorrelatorSeries(dt=0.25, values=np.ones(m))
    freqs = rng.uniform(0, 10, int(rng.integers(1, 4)))
    return synthetic_series(freqs, rng.uniform(0.2, 1.0, len(freqs)), m=m, noise=float(rng.uniform(0, 0.5)), seed=seed)


@given(seed=st.integers(0, 10_000), m=st.integers(8, 300))
@settings(max_examples=60, deadline=None)
def test_refine_peaks_is_the_bin_by_bin_scan(seed, m):
    om, pw = periodogram(_peaky_series(seed, m))
    if seed % 3 == 0:  # zero bins beside peaks take the raw-amplitude parabola
        pw[np.random.default_rng(seed).integers(0, m, m // 4)] = 0.0
    elif seed % 3 == 1:  # a plateau at the top: the peak is its right end
        top = int(pw[1 : m // 3].argmax()) + 1
        pw[top + 1] = pw[top]
    assert refine_peaks(om, pw, 0.25) == refine_peaks_oracle(om, pw, 0.25)


@given(seed=st.integers(0, 10_000), m=st.integers(12, 300))
@settings(max_examples=30, deadline=None)
def test_bootstrap_ci_is_the_per_resample_loop(seed, m):
    series = _peaky_series(seed, m)
    guard = spectro.GUARD_BINS * series.delta_omega
    assert spectro._bootstrap_gap_ci(series, guard) == bootstrap_gap_ci_oracle(series, guard)


def test_correlator_magnitude_invariant():
    # exact mode: |C| <= 1; sampled mode: |C| <= 1 + 3 sigma with sigma the
    # per-point shot scale 1/sqrt(shots)
    rng = np.random.default_rng(9)
    A = rng.normal(size=(3, 3))
    M = (A + A.T) / 2
    exact = correlator_exact(M, np.ones(3) / math.sqrt(3), 0.2, 16, alpha=2.0)
    assert np.abs(exact.values).max() <= 1.0 + 1e-12
    ham = onehot_hamiltonian(M)
    psi = w_state_vector(3)
    shots = 512
    sampled = correlator_hadamard(ham, psi, 0.2, 16, shots=shots, steps=8, alpha=2.0, seed=3)
    assert np.abs(sampled.values).max() <= 1.0 + 3.0 / math.sqrt(shots) + 1e-12


def test_series_csv(tmp_path):
    ser = synthetic_series([1.0], [1.0], m=32)
    ser.to_csv(tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 33
