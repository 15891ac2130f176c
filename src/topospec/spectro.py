"""Correlator time series (exact and circuit-simulated Hadamard test), the
edge-register and probe-state readouts with their one alpha placement, and
spectral estimation: Hann periodograms with quadratic refinement,
Prony/matrix-pencil cross-checks, a zero-mode guard, and aggregated gap
estimates with bootstrap uncertainty."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import orderstats
from .errors import AliasingConfigError, ResourceLimitError
from .probe import dephased_probes, diagonal_ensemble_weights, uniform_edge_state, w_state_vector
from .hodge import spectra, spectrum
from .qcompile import MAX_BATCH_AMPLITUDES, MAX_QUBITS, controlled_evolution, fuse, simulate
from .serialize import write_csv
from .susy import PauliHamiltonian, onehot_hamiltonian

READOUT_MODES = ("exact", "hadamard")
ALIAS_BAND = 0.8  # calibrated eigenfrequencies stay below this fraction of Nyquist

# the estimator's fixed settings
PEAK_BAND = (0.0, 0.8)  # peak search band, as fractions of Nyquist
PEAK_K_SIGMA = 3.0  # peak threshold: median + 1.4826 k_sigma MAD
GUARD_BINS = 2.0  # zero-mode band half-width in frequency bins; gap lines lie above it
ZERO_THRESHOLD = 10.0  # zero-mode band-power ratio, calibrated on the five-point fixture
PRONY_RANKS = (2, 3, 4, 5)
PRONY_SVD_TOL = 1e-10  # singular values below this fraction of the largest are dropped
BOOTSTRAP_RESAMPLES = 200
BOOTSTRAP_BLOCK = 4  # Hann main-lobe width in grid samples
BOOTSTRAP_SEED = 1234


@dataclass(frozen=True)
class CorrelatorSeries:
    dt: float
    values: np.ndarray  # complex C(t_k), k = 0..M-1
    shots: int = 0  # 0 = exact expectations
    alpha_scale: float = 1.0  # phase-to-energy scaling

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", vals)

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def t_grid(self) -> np.ndarray:
        return self.dt * np.arange(self.m)

    @property
    def delta_omega(self) -> float:
        return 2 * math.pi / (self.m * self.dt)

    def to_csv(self, path) -> None:
        rows = [
            (t, v.real, v.imag) for t, v in zip(self.t_grid, self.values)
        ]
        write_csv(path, ("t", "re", "im"), rows)


@dataclass(frozen=True)
class SpectralLine:
    omega: float  # rescaled frequency units
    amplitude: float
    method: str  # fft | prony | consensus


@dataclass(frozen=True)
class SpectralEstimate:
    lines: tuple[SpectralLine, ...]  # sorted by omega, energy units (alpha applied)
    beta1_hat: int
    gap_hat: float | None  # energy units; None when no line clears the guard
    entropy: float
    zero_mode_ratio: float
    gap_ci: tuple[float, float] | None = None
    notes: tuple[str, ...] = ()


def hann_window(m: int) -> np.ndarray:
    return 0.5 * (1 - np.cos(2 * math.pi * np.arange(m) / (m - 1)))


def minimal_alpha(bound: float, dt: float, band: float = 1.0) -> float:
    """Smallest rescaling keeping eigenfrequencies up to bound below band*Nyquist."""
    return float(bound) * dt / (band * math.pi)


def _placed_alpha(bound: float, dt: float) -> float:
    """The one alpha placement: the norm bound, floored at 1, at ALIAS_BAND of Nyquist."""
    return max(minimal_alpha(max(bound, 1.0), dt, ALIAS_BAND), 1e-12)


def calibrated_alpha(l1s, dt: float, mode: str = "exact") -> float:
    """One phase-to-energy scale for a set of edge Laplacians, placed from
    the largest norm bound the readout guards aliasing with: the spectral
    norm in exact mode, the looser Gershgorin bound of the one-hot
    Hamiltonian in hadamard mode."""
    if mode == "hadamard":
        bounds = [onehot_hamiltonian(l1).gershgorin_bound() for l1 in l1s]
    else:
        bounds = [float(np.abs(spec.eigenvalues).max()) for spec in spectra(l1s)]
    return _placed_alpha(max(bounds, default=1.0), dt)


def edge_readout(
    l1: np.ndarray,
    dt: float,
    m: int,
    alpha: float,
    mode: str = "exact",
    shots: int = 0,
    seed: int = 0,
    sizes: dict[str, int] | None = None,
) -> tuple[CorrelatorSeries, np.ndarray, str]:
    """The edge-register correlator of an edge Laplacian on the grid
    t_k = k dt (k = 0..m-1), with the probe vector and its label.

    exact: the dephased uniform edge probe, i.e. the diagonal ensemble of the
    edge basis, read from the dense spectrum. hadamard: the W state (the same
    one-excitation amplitudes 1/sqrt(E)) under the one-hot Hamiltonian,
    read by the simulated Hadamard test with ``shots`` and ``seed``, which
    writes its circuit sizes into ``sizes`` when given (exact mode adds none).
    """
    n_edges = l1.shape[0]
    if mode == "hadamard":
        ham = onehot_hamiltonian(l1)
        psi = w_state_vector(n_edges)
        series = correlator_hadamard(ham, psi, dt, m, shots=shots, alpha=alpha, seed=seed, sizes=sizes)
        return series, psi, "w_state"
    if mode != "exact":
        raise ValueError(f"unknown readout mode {mode!r}; expected one of {READOUT_MODES}")
    series = correlator_exact(l1, np.eye(n_edges), dt, m, alpha)
    return series, uniform_edge_state(n_edges), "uniform_edge_dephased"


def state_readout(
    ham: PauliHamiltonian,
    psi: np.ndarray,
    dt: float,
    m: int,
    mode: str = "exact",
    shots: int = 0,
    seed: int = 0,
    dephase_samples: int = 0,
) -> CorrelatorSeries:
    """The correlator of a probe state under a Pauli Hamiltonian on the grid
    t_k = k dt (k = 0..m-1). exact: alpha from the spectral norm, C(t) from
    the dense spectrum over ``dephase_samples`` random-phase draws of the
    probe when positive. hadamard: alpha from the Gershgorin bound, C(t) from
    the simulated Hadamard test with ``shots`` and ``seed``."""
    if mode == "hadamard":
        alpha = _placed_alpha(ham.gershgorin_bound(), dt)
        return correlator_hadamard(ham, psi, dt, m, shots=shots, alpha=alpha, seed=seed)
    if mode != "exact":
        raise ValueError(f"unknown readout mode {mode!r}; expected one of {READOUT_MODES}")
    hmat = ham.dense()
    alpha = _placed_alpha(float(np.abs(spectrum(hmat).eigenvalues).max()), dt)
    probes = dephased_probes(psi, dephase_samples, seed) if dephase_samples > 0 else psi
    return correlator_exact(hmat, probes, dt, m, alpha)


def correlator_exact(
    hmat: np.ndarray, probes: np.ndarray, dt: float, m: int, alpha: float = 1.0
) -> CorrelatorSeries:
    """C(t_k) = sum_j a_j exp(-i lambda_j t_k / alpha), t_k = k dt
    (k = 0..m-1), from one dense eigendecomposition.

    a_j = mean_k |<E_j|probe_k>|^2 over the columns of ``probes``: the
    identity for the edge-basis ensemble, one vector for a pure probe, or
    the random-phase draws of ``probe.dephased_probes``. Violating the
    Nyquist condition raises with the minimal admissible alpha.
    """
    evals, evecs = np.linalg.eigh(np.asarray(hmat, dtype=float))
    bound = float(np.abs(evals).max())
    if bound / alpha * dt >= math.pi:
        raise AliasingConfigError(f"Nyquist violation: need alpha >= {minimal_alpha(bound, dt):.6g}")
    probes = np.asarray(probes)
    a = diagonal_ensemble_weights(evecs, probes.reshape(len(probes), -1))
    t_grid = dt * np.arange(m)
    vals = (a[None, :] * np.exp(-1j * np.outer(t_grid, evals / alpha))).sum(axis=1)
    return CorrelatorSeries(dt=dt, values=vals, shots=0, alpha_scale=alpha)


def correlator_hadamard(
    ham: PauliHamiltonian,
    psi_system: np.ndarray,
    dt: float,
    m: int,
    shots: int = 0,
    order: int = 2,
    steps: int | None = None,
    alpha: float = 1.0,
    seed: int = 0,
    sizes: dict[str, int] | None = None,
) -> CorrelatorSeries:
    """One-ancilla Hadamard-test readout of C(t) = <psi| exp(-i H t/alpha) |psi>.

    The grid is t_k = k dt (k = 0..m-1, m >= 2, dt > 0). One controlled
    Trotter sub-step of length dt/n is compiled and fused into blocks of at
    most ``qcompile.FUSE_WIDTH`` qubits, with n = ``steps`` (default: one per
    radian of the rescaled norm bound, ceil(bound dt)). The controlled step
    keeps the register inside the probe's sector: either ancilla value, the
    work qubit at |0>, and every system basis state of an excitation count
    the probe touches. The sub-step is simulated once on each of those 2D
    basis inputs, batched within ``qcompile.MAX_BATCH_AMPLITUDES``; an input
    that leaves more than 1e-9 of amplitude outside the sector is a compiler
    fault and raises. Its 2D x 2D sector matrix to the n-th power is the step
    S of length dt, and (|0>|psi> + |1>|psi>)/sqrt(2) is advanced by m-1
    products with S, so sample k carries k * n sub-steps, never fewer than
    ceil(bound t_k). At every sample the ancilla coherence gives
    C = 2 <branch0|branch1>: Re C is the X-basis and Im C the
    S-dagger/Y-basis readout. shots=0 returns exact expectations, otherwise
    binomial samples of p0 = (1 + Re C)/2 and (1 + Im C)/2, drawn in that
    order per sample.

    When given, ``sizes`` receives the register's ``qubits``, the compiled
    sub-step's ``step_gates``, the fused sub-step's ``fused_step_gates`` and
    the sub-step count ``trotter_substeps``.
    """
    if m < 2 or not dt > 0:
        raise ValueError(f"the Hadamard readout needs m >= 2 samples and dt > 0, got m = {m}, dt = {dt}")
    n_total = ham.n + 2
    if n_total > MAX_QUBITS:
        raise ResourceLimitError(f"{n_total} qubits exceed the simulation budget")
    bound = ham.gershgorin_bound()
    if bound / alpha * dt >= math.pi:
        raise AliasingConfigError(f"Nyquist violation: need alpha >= {minimal_alpha(bound, dt):.6g}")
    n_sub = steps or max(1, math.ceil(bound / alpha * dt))
    psi = np.asarray(psi_system, dtype=complex)
    sysdim = 1 << ham.n
    counts = np.bitwise_count(np.arange(sysdim))
    touched = np.zeros(ham.n + 1, dtype=bool)
    touched[counts[psi != 0]] = True
    sector = np.flatnonzero(touched[counts])
    d = len(sector)
    if 4 * d * d > MAX_BATCH_AMPLITUDES:
        raise ResourceLimitError(f"a sector of {d} basis states exceeds the sector-matrix budget")
    compiled = controlled_evolution(ham, dt / n_sub, order=order, steps=1, alpha=alpha)
    sub = fuse(compiled)
    if sizes is not None:
        sizes.update(
            qubits=n_total,
            step_gates=len(compiled.gates),
            fused_step_gates=len(sub.gates),
            trotter_substeps=n_sub,
        )
    rng = np.random.default_rng(seed) if shots > 0 else None  # building one imports numpy.random
    # register index = ancilla * 2 sysdim + work * sysdim + system; sector
    # input j is ancilla j // d, work qubit 0, system state sector[j % d]
    inside = np.concatenate([sector, 2 * sysdim + sector])
    s_sub = np.empty((2 * d, 2 * d), dtype=complex)
    leak = work_leak = 0.0
    batch = max(1, MAX_BATCH_AMPLITUDES >> n_total)
    for lo in range(0, 2 * d, batch):
        cols = inside[lo : lo + batch]
        out = np.zeros((len(cols), 1 << n_total), dtype=complex)
        out[np.arange(len(cols)), cols] = 1.0
        out = simulate(sub, out)
        s_sub[:, lo : lo + len(cols)] = out[:, inside].T
        out[:, inside] = 0.0  # what is left has left the sector
        leak = max(leak, float(np.linalg.norm(out, axis=1).max()))
        work = out.reshape(len(cols), 2, 2, sysdim)[:, :, 1]
        work_leak = max(work_leak, float(np.linalg.norm(work, axis=(1, 2)).max()))
    if leak > 1e-9:
        where = "the work qubit left |0>" if work_leak > 1e-9 else "amplitude left the probe's excitation sector"
        raise RuntimeError(f"{where} (amplitude norm {leak:.3g}) in one controlled Trotter sub-step")
    step = np.linalg.matrix_power(s_sub, n_sub)
    state = np.concatenate([psi[sector], psi[sector]]) / math.sqrt(2)
    vals = np.zeros(m, dtype=complex)
    c = 1.0 + 0.0j  # t = 0 is exact
    for k in range(m):
        if k:
            state = step @ state
            c = 2 * np.vdot(state[:d], state[d:])
        ps = [min(max((1 + part) / 2, 0.0), 1.0) for part in (c.real, c.imag)]
        if shots > 0:
            ps = [rng.binomial(shots, p) / shots for p in ps]
        vals[k] = (2 * ps[0] - 1) + 1j * (2 * ps[1] - 1)
    return CorrelatorSeries(dt=dt, values=vals, shots=shots, alpha_scale=alpha)


# ---------------------------------------------------------------------------
# periodogram and peak refinement
# ---------------------------------------------------------------------------


def periodogram(series: CorrelatorSeries) -> tuple[np.ndarray, np.ndarray]:
    """Hann-tapered power on the canonical grid omega_l = 2 pi l / (M dt)."""
    return _periodogram(series.values, series.dt)


def _periodogram(values: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """``periodogram`` of every row of values (time on the last axis), one
    ifft over the rows."""
    m = values.shape[-1]
    if m < 8:
        raise ValueError("need at least 8 samples")
    spec = np.fft.ifft(hann_window(m) * values, axis=-1) * m  # sum_m w C exp(+i omega t)
    omegas = 2 * math.pi * np.arange(m) / (m * dt)
    return omegas, np.abs(spec) ** 2


@dataclass(frozen=True)
class RefinedPeaks:
    lines: tuple[tuple[float, float], ...]  # (omega_hat, amp_hat), rescaled units, sorted
    threshold: float
    flat_spectrum: bool = False


def refine_peaks(omegas: np.ndarray, power: np.ndarray, dt: float) -> RefinedPeaks:
    """Local maxima above the median + 1.4826 PEAK_K_SIGMA MAD threshold inside
    PEAK_BAND, refined by three-point quadratic interpolation on amplitude.

    A flat spectrum (zero MAD) falls back to mean + 3 std, noted in the
    result.
    """
    (lines,), thr, flat = _refine_rows(omegas, power[None], dt)
    return RefinedPeaks(lines=tuple(lines), threshold=float(thr[0]), flat_spectrum=bool(flat[0]))


def _refine_rows(
    omegas: np.ndarray, power: np.ndarray, dt: float
) -> tuple[list[list[tuple[float, float]]], np.ndarray, np.ndarray]:
    """``refine_peaks`` on every row of power at once: the sorted lines of
    each row, and the rows' thresholds and flat flags. The thresholds and the
    peak mask are computed over all rows together; only the peaks found are
    refined, one at a time."""
    amp = np.sqrt(power)
    nyq = math.pi / dt
    lo, hi = PEAK_BAND[0] * nyq, PEAK_BAND[1] * nyq
    in_band = (omegas >= lo) & (omegas <= hi)
    band = amp[:, in_band]
    med = orderstats.median(band, axis=1)
    mad = orderstats.median(np.abs(band - med[:, None]), axis=1)
    flat = mad == 0.0
    thr = np.where(flat, band.mean(axis=1) + 3 * band.std(axis=1), med + 1.4826 * PEAK_K_SIGMA * mad)

    mid = amp[:, 1:-1]
    peak = in_band[1:-1] & ~((mid < thr[:, None]) | (mid < amp[:, :-2]) | (mid <= amp[:, 2:]))
    lines: list[list[tuple[float, float]]] = [[] for _ in amp]
    dw = omegas[1] - omegas[0]
    for r, i in zip(*np.nonzero(peak)):
        a0, am, ap = amp[r, i + 1], amp[r, i], amp[r, i + 2]
        # three-point parabola on log magnitude: the raw-amplitude variant
        # biases off-grid Hann peaks by up to ~0.05 bins, log stays ~3x lower
        if am > 0 and ap > 0:
            lm, l0, lp = math.log(am), math.log(a0), math.log(ap)
        else:
            lm, l0, lp = am, a0, ap
        denom = lm - 2 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
        amp_denom = am - 2 * a0 + ap
        a_hat = a0 - (am - ap) ** 2 / (8 * amp_denom) if amp_denom != 0 else a0
        lines[r].append((float(omegas[i + 1] + delta * dw), float(a_hat)))
    for row in lines:
        row.sort()
    return lines, thr, flat


# ---------------------------------------------------------------------------
# Prony / matrix pencil
# ---------------------------------------------------------------------------


def prony_min_samples(ranks: tuple[int, ...] = PRONY_RANKS) -> int:
    """Correlator samples the pencil needs for the rank sweep."""
    return 2 * max(ranks) + 2


def _hankel(c: np.ndarray, rows: int) -> np.ndarray:
    """The rows x (len(c) - rows + 1) Hankel matrix Y[i, j] = c[i + j], copied
    to C order as scipy.linalg.hankel returns it, so the SVD and the pencil
    products see that layout and round the same way."""
    return np.lib.stride_tricks.sliding_window_view(c, len(c) - rows + 1).copy()


def prony_esprit(
    series: CorrelatorSeries, ranks: tuple[int, ...] = PRONY_RANKS
) -> tuple[np.ndarray, dict]:
    """Shift-invariance (matrix pencil) frequencies, stabilized across ranks.

    Hankel matrices (H0, H1) are built from the series; per candidate rank the
    truncated-SVD pencil gives roots z_j and energies -arg(z_j)/dt. Roots kept
    are those present (within 1e-6 of Nyquist) at every rank; over-specified ranks
    shed their spurious roots in this intersection.
    """
    c = series.values
    m = len(c)
    if m < prony_min_samples(ranks):
        raise ValueError("series too short for the requested rank sweep")
    rows = m // 2
    Y = _hankel(c, rows)
    H0, H1 = Y[:, :-1], Y[:, 1:]
    U, s, Vh = np.linalg.svd(H0, full_matrices=False)
    eff_rank = int((s > PRONY_SVD_TOL * s[0]).sum()) if s[0] > 0 else 0
    per_rank: list[np.ndarray] = []
    for r in ranks:
        r = min(r, eff_rank)
        if r == 0:
            per_rank.append(np.array([]))
            continue
        A = U[:, :r].conj().T @ H1 @ Vh[:r].conj().T @ np.diag(1.0 / s[:r])
        zs = np.linalg.eigvals(A)
        zs = zs[(np.abs(zs) > 0.5) & (np.abs(zs) < 1.5)]
        freqs = np.mod(-np.angle(zs), 2 * math.pi) / series.dt
        # fold tiny wrap-around values back to zero
        freqs = np.where(freqs > 1.99 * math.pi / series.dt, 0.0, freqs)
        per_rank.append(np.sort(freqs))
    tol = 1e-6 * math.pi / series.dt
    stable: list[float] = []
    if per_rank and len(per_rank[0]):
        for f in per_rank[0]:
            if all(len(fr) and np.abs(fr - f).min() < tol for fr in per_rank[1:]):
                group = [f] + [float(fr[np.abs(fr - f).argmin()]) for fr in per_rank[1:]]
                stable.append(float(np.mean(group)))
    merged: list[float] = []
    for f in sorted(stable):
        if not merged or f - merged[-1] > tol:
            merged.append(f)
    info = {"effective_rank": eff_rank, "per_rank_counts": [len(p) for p in per_rank]}
    if not merged:
        info["diagnostic"] = "no root stable across the rank sweep"
    return np.array(merged), info


# ---------------------------------------------------------------------------
# zero-mode test and aggregation
# ---------------------------------------------------------------------------


def zero_mode_test(
    omegas: np.ndarray, power: np.ndarray, omega_z: float, dt: float
) -> tuple[float, bool]:
    """Band-power ratio R = P(|omega| <= omega_z) / (half the power in the
    adjacent sideband); a zero mode is declared when R exceeds ZERO_THRESHOLD."""
    nyq = math.pi / dt
    signed = np.where(omegas > nyq, omegas - 2 * nyq, omegas)
    p0 = float(power[np.abs(signed) <= omega_z].sum())
    sb_mask = (np.abs(signed) > omega_z) & (np.abs(signed) <= 2 * omega_z)
    p_sb = 0.5 * float(power[sb_mask].sum())
    ratio = p0 / p_sb if p_sb > 0 else math.inf
    return ratio, ratio > ZERO_THRESHOLD


def _bootstrap_gap_ci(series: CorrelatorSeries, guard: float) -> tuple[float, float] | None:
    """Percentile interval for the FFT gap from a circular block bootstrap:
    the block starts of each resample are drawn in turn, then every resample's
    periodogram and peaks are found together."""
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    m = series.m
    block = max(2, min(BOOTSTRAP_BLOCK, m // 2))
    n_blocks = math.ceil(m / block)
    starts = np.array([rng.integers(0, m, size=n_blocks) for _ in range(BOOTSTRAP_RESAMPLES)])
    idx = (starts[:, :, None] + np.arange(block)).reshape(BOOTSTRAP_RESAMPLES, -1)[:, :m] % m
    om, pw = _periodogram(series.values[idx], series.dt)
    gaps = []
    for lines in _refine_rows(om, pw, series.dt)[0]:
        cand = [w for w, _ in lines if w > guard]
        if cand:
            gaps.append(min(cand))
    if len(gaps) < max(10, BOOTSTRAP_RESAMPLES // 10):
        return None
    lo, hi = orderstats.percentile(gaps, [2.5, 97.5])
    return float(lo), float(hi)


def estimate(
    series: CorrelatorSeries, ensemble_dim: int | None = None, bootstrap: bool = False
) -> SpectralEstimate:
    """Full spectral readout: periodogram + refinement + Prony cross-check,
    zero-mode counting (a multiplicity when ensemble_dim is given), median gap
    aggregation, and alpha rescaling to energy units.

    A missing nonzero line above the guard is a gap-absent result, not an
    error.
    """
    omegas, power = periodogram(series)
    dw = series.delta_omega
    guard = GUARD_BINS * dw
    peaks = refine_peaks(omegas, power, series.dt)
    fft_lines = peaks.lines
    notes: list[str] = []
    if peaks.flat_spectrum:
        notes.append("flat spectrum: threshold fell back to mean + 3 std")

    prony_freqs, prony_info = prony_esprit(series)
    if "diagnostic" in prony_info:
        notes.append(f"prony: {prony_info['diagnostic']}")

    ratio, is_zero = zero_mode_test(omegas, power, guard, series.dt)
    amp_dc = math.sqrt(power[0])
    amp_lines = [a for w, a in fft_lines if w > guard]
    if is_zero and ensemble_dim:
        p0 = amp_dc / (amp_dc + sum(amp_lines)) if (amp_dc + sum(amp_lines)) > 0 else 0.0
        beta1 = max(1, round(p0 * ensemble_dim))
    elif is_zero:
        beta1 = 1
    else:
        beta1 = 0

    gap_candidates = []
    fft_gap = min((w for w, _ in fft_lines if w > guard), default=None)
    if fft_gap is not None:
        gap_candidates.append(fft_gap)
    prony_gap = min((f for f in prony_freqs if f > guard), default=None)
    if prony_gap is not None:
        gap_candidates.append(prony_gap)
    gap = float(orderstats.median(gap_candidates)) if gap_candidates else None

    alpha = series.alpha_scale
    all_lines: list[SpectralLine] = []
    if is_zero:
        all_lines.append(SpectralLine(0.0, amp_dc, "fft"))
    for w0, a in fft_lines:
        if w0 > guard:
            tag = "consensus" if any(abs(w0 - f) < dw for f in prony_freqs) else "fft"
            all_lines.append(SpectralLine(w0 * alpha, a, tag))
    strengths = np.array([l.amplitude for l in all_lines])
    if strengths.sum() > 0:
        p = strengths / strengths.sum()
        entropy = float(-(p[p > 0] * np.log(p[p > 0])).sum())
    else:
        entropy = 0.0

    ci = None
    if bootstrap and gap is not None:
        raw = _bootstrap_gap_ci(series, guard)
        if raw is not None:
            ci = (raw[0] * alpha, raw[1] * alpha)

    return SpectralEstimate(
        lines=tuple(sorted(all_lines, key=lambda l: l.omega)),
        beta1_hat=beta1,
        gap_hat=gap * alpha if gap is not None else None,
        entropy=entropy,
        zero_mode_ratio=ratio,
        gap_ci=ci,
        notes=tuple(notes),
    )
