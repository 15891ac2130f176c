import math
import multiprocessing

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings
from hypothesis import strategies as st
from scipy.signal import savgol_filter
from scipy.stats import pearsonr, rankdata, spearmanr

from topospec import dynamics, spectro, sweep
from topospec.errors import AliasingConfigError, ConfigError, IntegrationDivergedError, UndefinedEntropyError
from topospec.qcompile import Circuit, Gate
from topospec.spectro import CorrelatorSeries
from topospec.sweep import (
    SweepConfig,
    SweepRecord,
    correlation_report,
    curvature,
    fidelity,
    run_sweep,
    smoothed_columns,
    spectral_entropy,
)


def test_entropy_single_line_is_minimal():
    dt, m = 0.25, 128
    t = dt * np.arange(m)
    baseline = None
    for k in (5, 9, 20):
        ser = CorrelatorSeries(dt=dt, values=np.exp(-1j * k * 2 * math.pi / (m * dt) * t))
        h = spectral_entropy(ser)
        if baseline is None:
            baseline = h
        assert h == pytest.approx(baseline, abs=1e-6)  # Hann-lobe constant
    rng = np.random.default_rng(0)
    flat = CorrelatorSeries(dt=dt, values=np.exp(2j * math.pi * rng.random(m)))
    assert spectral_entropy(flat) > baseline
    assert spectral_entropy(flat) > 0.8 * math.log(m)


def test_entropy_zero_power_errors():
    ser = CorrelatorSeries(dt=0.25, values=np.zeros(64, dtype=complex))
    with pytest.raises(UndefinedEntropyError):
        spectral_entropy(ser)


def test_curvature_linear_and_quadratic():
    rho = np.arange(20.0, 30.0)
    assert np.allclose(curvature(3.0 * rho + 1.0, 1.0)[1:-1], 0.0, atol=1e-12)
    assert np.allclose(curvature(rho**2, 1.0)[1:-1], 2.0, atol=1e-9)
    assert np.isnan(curvature(rho, 1.0)[0]) and np.isnan(curvature(rho, 1.0)[-1])


def test_curvature_kink_spike():
    rho = np.arange(-3.0, 3.5, 0.5)
    e0 = np.abs(rho)
    curv = curvature(e0, 0.5)
    k = int(np.where(rho == 0.0)[0][0])
    assert curv[k] == pytest.approx(2 / 0.5)
    mask = np.ones(len(rho), bool)
    mask[[0, k, len(rho) - 1]] = False
    assert np.allclose(curv[mask], 0.0, atol=1e-12)


def test_fidelity_basics():
    v = np.array([1.0, 0.0, 0.0])
    w = np.array([0.0, 1.0, 0.0])
    assert fidelity(v, v) == pytest.approx(1.0)
    assert fidelity(v, w) == pytest.approx(0.0)
    assert fidelity(v, -v) == pytest.approx(1.0)  # global phase removed


def test_fidelity_kernel_subspaces():
    # rotate the second basis vector out of the shared plane: the largest
    # principal angle is theta, so the subspace fidelity is cos(theta)
    a = np.eye(4)[:, :2]
    theta = 0.3
    b = np.stack(
        [a[:, 0], math.cos(theta) * a[:, 1] + math.sin(theta) * np.eye(4)[:, 2]], axis=1
    )
    assert fidelity(a, b) == pytest.approx(math.cos(theta))


def test_correlation_report_degenerate_constant():
    recs = [
        SweepRecord(rho=r, ell_max_h1=1.0, delta1_susy_sim=float(r)) for r in (1.0, 2.0, 3.0)
    ]
    rep = correlation_report(recs)
    assert rep["pearson_r"] is None
    assert "constant" in rep.get("note", "")


def test_correlation_report_simple():
    recs = [
        SweepRecord(rho=r, ell_max_h1=float(r), delta1_susy_sim=2.0 * r + 0.1)
        for r in (1.0, 2.0, 3.0, 4.0)
    ]
    rep = correlation_report(recs, n_perm=200)
    assert rep["pearson_r"] == pytest.approx(1.0, abs=1e-9)
    assert rep["spearman_rho"] == pytest.approx(1.0, abs=1e-9)


def oracle_correlation_report(records: list[SweepRecord], seed: int = 0, n_perm: int = 2000) -> dict:
    """The per-call scipy form of ``correlation_report``: one ``pearsonr`` and
    one ``spearmanr`` call per permutation and one ``pearsonr`` per bootstrap
    resample. The batched report must equal it bit for bit."""
    pairs = [
        (r.ell_max_h1, r.delta1_susy_sim)
        for r in records
        if r.ell_max_h1 is not None and r.delta1_susy_sim is not None
    ]
    out: dict = {"n_pairs": len(pairs)}
    if len(pairs) < 3:
        out["pearson_r"] = None
        out["spearman_rho"] = None
        return out
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        out["pearson_r"] = None
        out["spearman_rho"] = None
        out["note"] = "constant diagnostic; correlation undefined"
        return out
    r = float(pearsonr(x, y).statistic)
    rho_s = float(spearmanr(x, y).statistic)
    rng = np.random.default_rng(seed)
    perm_r = np.empty(n_perm)
    perm_s = np.empty(n_perm)
    for i in range(n_perm):
        yp = rng.permutation(y)
        perm_r[i] = pearsonr(x, yp).statistic
        perm_s[i] = spearmanr(x, yp).statistic
    out["pearson_r"] = r
    out["spearman_rho"] = rho_s
    out["pearson_p_perm"] = float((np.abs(perm_r) >= abs(r)).mean())
    out["spearman_p_perm"] = float((np.abs(perm_s) >= abs(rho_s)).mean())
    boots = []
    for _ in range(1000):
        idx = rng.integers(0, len(x), len(x))
        if np.ptp(x[idx]) == 0 or np.ptp(y[idx]) == 0:
            continue
        boots.append(pearsonr(x[idx], y[idx]).statistic)
    if boots:
        lo, hi = np.percentile(boots, [2.5, 97.5])
        out["pearson_ci"] = [float(lo), float(hi)]
    return out


def oracle_rounds(x: np.ndarray, y: np.ndarray, seed: int, n_perm: int):
    """The oracle's per-round statistics, drawn from ``seed`` as it draws them."""
    rng = np.random.default_rng(seed)
    perm_r = np.empty(n_perm)
    perm_s = np.empty(n_perm)
    for i in range(n_perm):
        yp = rng.permutation(y)
        perm_r[i] = pearsonr(x, yp).statistic
        perm_s[i] = spearmanr(x, yp).statistic
    boots = []
    for _ in range(1000):
        idx = rng.integers(0, len(x), len(x))
        if np.ptp(x[idx]) == 0 or np.ptp(y[idx]) == 0:
            continue
        boots.append(pearsonr(x[idx], y[idx]).statistic)
    return perm_r, perm_s, np.array(boots)


def _hexed(value):
    """Floats as ``float.hex``, so a comparison sees every bit."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [_hexed(v) for v in value]
    return value


def _report_items(report: dict) -> list:
    return [(k, type(v).__name__, _hexed(v)) for k, v in report.items()]


@st.composite
def _column(draw, n: int) -> list[float]:
    kind = draw(st.sampled_from(("free", "tied", "near_constant", "constant")))
    if kind == "free":
        finite = st.floats(-10.0, 10.0, allow_nan=False, allow_subnormal=False)
        return draw(st.lists(finite, min_size=n, max_size=n))
    if kind == "tied":  # the gap repeats on graphs of the same shape
        return draw(st.lists(st.sampled_from((0.6766, 1.0, 1.9999, 2.0)), min_size=n, max_size=n))
    base = draw(st.floats(0.1, 100.0))
    if kind == "near_constant":
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return [base + k * base * 1e-13 for k in steps]
    return [base] * n


@st.composite
def _records(draw) -> list[SweepRecord]:
    n = draw(st.integers(3, 12))
    ell, gap = draw(_column(n)), draw(_column(n))
    # a diagnostic missing on a row drops that pair, down to fewer than 3
    present = draw(st.lists(st.sampled_from(("both", "both", "both", "ell", "gap")), min_size=n, max_size=n))
    return [
        SweepRecord(
            rho=float(i),
            ell_max_h1=ell[i] if p != "gap" else None,
            delta1_susy_sim=gap[i] if p != "ell" else None,
        )
        for i, p in enumerate(present)
    ]


# each oracle call makes at least 1000 scipy calls, so a failing example is
# reported as found rather than shrunk for minutes
NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=40, deadline=None, phases=NO_SHRINK)
@given(_records(), st.integers(0, 2**32 - 1), st.integers(1, 40))
def test_correlation_report_equals_the_per_call_oracle(records, seed, n_perm):
    got = correlation_report(records, seed=seed, n_perm=n_perm)
    assert _report_items(got) == _report_items(oracle_correlation_report(records, seed=seed, n_perm=n_perm))


# the (ell_max_h1, delta1_susy_sim) pairs of the default sweep at run.seed 0;
# the gap 0.6766... repeats three times
DEFAULT_SWEEP_PAIRS = [
    ("0x1.358e783fa9e88p-2", "0x1.b6a558b911638p-1"),
    ("0x1.3a8fa32b14ecep-2", "0x1.6c0b55ac08333p-1"),
    ("0x1.74f4486bbb954p-2", "0x1.5a6b01ec33d40p-1"),
    ("0x1.842d904abc502p-2", "0x1.36a86ae0a3b8ap+0"),
    ("0x1.4d29f80821024p-2", "0x1.64a53356f52bcp-1"),
    ("0x1.2351cf874fd50p-2", "0x1.5a6b01ec33d40p-1"),
    ("0x1.4ff1d32e76328p-2", "0x1.5a6b01ec33d40p-1"),
]


def test_correlation_report_of_the_default_sweep_equals_the_oracle():
    records = [
        SweepRecord(rho=36.0 + i, ell_max_h1=float.fromhex(e), delta1_susy_sim=float.fromhex(g))
        for i, (e, g) in enumerate(DEFAULT_SWEEP_PAIRS)
    ]
    got = correlation_report(records)
    assert _report_items(got) == _report_items(oracle_correlation_report(records))
    assert (got["pearson_p_perm"], got["spearman_p_perm"]) == (0.191, 0.7645)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=25, deadline=None, phases=NO_SHRINK)
@given(st.integers(3, 12).flatmap(lambda n: st.tuples(_column(n), _column(n))), st.integers(0, 2**32 - 1))
def test_resampled_rounds_are_bytewise_the_oracle_rounds(columns, seed):
    x, y = (np.array(c) for c in columns)
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        return  # the report stops before any round
    n_perm = 50
    got = sweep._resampled_rounds(x, y, np.random.default_rng(seed), n_perm)
    for a, b in zip(got, oracle_rounds(x, y, seed, n_perm)):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def _series(draw, n: int) -> np.ndarray:
    """n values over wide magnitudes, with ties or nearly constant."""
    kind = draw(st.sampled_from(("free", "rounded", "tied", "near_constant")))
    scale = 10.0 ** draw(st.integers(-6, 6))
    if kind == "near_constant":
        base = draw(st.floats(0.1, 100.0))
        steps = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return np.array([base + k * base * 1e-13 for k in steps]) * scale
    if kind == "tied":
        return np.array(draw(st.lists(st.sampled_from((0.6766, 1.0, 1.9999, 2.0)), min_size=n, max_size=n))) * scale
    vals = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))) * scale
    return np.round(vals, 1) if kind == "rounded" else vals


def _rows(draw, n: int, count: int) -> np.ndarray:
    return np.stack([draw(_series(n)) for _ in range(count)])


# the helpers stand in for scipy on the sweep path; scipy stays their oracle
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(3, 40), st.sampled_from(("single", "rows", "both_rows")))
def test_pearson_rows_is_bitwise_scipy_pearsonr(data, n, shape):
    count = data.draw(st.integers(1, 6))
    if shape == "single":
        x, ys = data.draw(_series(n)), data.draw(_series(n))
    else:  # a permutation batch (x shared) or a bootstrap batch (x per row)
        x = data.draw(_series(n)) if shape == "rows" else _rows(data.draw, n, count)
        ys = _rows(data.draw, n, count)
    assume(np.ptp(x, axis=-1).all() and np.ptp(ys, axis=-1).all())  # constant columns never reach it
    got = sweep._pearson_rows(x, ys)
    if shape == "single":
        assert float(got).hex() == float(pearsonr(x, ys).statistic).hex()
    else:
        want = pearsonr(np.broadcast_to(x, ys.shape), ys, axis=-1).statistic
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.data(), st.integers(1, 40), st.integers(0, 5))
def test_average_ranks_are_bitwise_scipy_rankdata(data, n, count):
    a = data.draw(_series(n)) if count == 0 else _rows(data.draw, n, count)
    got, want = sweep._average_ranks(a), rankdata(a, axis=-1)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.integers(5, 40).flatmap(_series))
@example(np.array([0.3, 0.8, 0.1, 0.9, 0.4]))  # exactly one window: one interior value
def test_savgol5_is_bitwise_scipy_savgol_filter(v):
    got, want = sweep._savgol5(v), savgol_filter(v, 5, 2)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_perm", [0, -1])
def test_correlation_report_rejects_no_permutations(n_perm):
    recs = [SweepRecord(rho=r, ell_max_h1=r, delta1_susy_sim=r * r) for r in (1.0, 2.0, 3.0, 5.0)]
    with pytest.raises(ValueError, match="n_perm"):
        correlation_report(recs, n_perm=n_perm)


@pytest.fixture(scope="module")
def short_sweep():
    cfg = SweepConfig(t_total=90.0, n_fps=48, m_samples=128, lyap_t_total=120.0)
    return cfg, run_sweep([37.0, 38.0, 39.0], cfg)


def test_sweep_records_complete(short_sweep):
    cfg, (records, report) = short_sweep
    assert [r.rho for r in records] == [37.0, 38.0, 39.0]
    for r in records:
        assert r.failed_stage is None
        assert r.ell_max_h1 is not None and r.ell_max_h1 >= 0
        assert r.gamma is not None and r.gamma >= 0  # eq of nonnegative gap
        assert r.beta1_hat is not None and r.beta1_hat >= 1
        assert r.h_spec is not None and r.h_spec > 0
        assert r.lambda_max is not None and r.lambda_max > 0  # chaotic band
        assert r.config_digest == cfg.digest()
    # interior point carries curvature; edges are absent markers
    assert records[0].f_curvature is None
    assert records[1].f_curvature is not None
    # fidelity needs matching edge-register dimensions at adjacent grid
    # points; otherwise the record carries the explicit absent marker
    for r in records[:-1]:
        assert r.fidelity_to_next is None or 0.0 <= r.fidelity_to_next <= 1.0
    assert records[-1].fidelity_to_next is None


def test_sweep_determinism(short_sweep):
    cfg, (records, report) = short_sweep
    records2, report2 = run_sweep([37.0, 38.0, 39.0], cfg)
    assert records == records2
    assert report == report2


# circuit-simulated correlators through the same pipeline, kept tiny: few
# samples and a small representative set bound the register size
TINY_HADAMARD = SweepConfig(
    t_total=70.0,
    n_fps=40,
    k=5,
    m_samples=16,
    dt_corr=0.3,
    lyap_t_total=120.0,
    mode="hadamard",
)


def test_sweep_hadamard_mode_smoke():
    records, _ = run_sweep([38.0], TINY_HADAMARD)
    rec = records[0]
    assert rec.failed_stage is None
    assert rec.beta1_hat is not None and rec.beta1_hat >= 1


def test_sweep_records_expected_spectro_errors(monkeypatch):
    def aliased(*args, **kwargs):
        raise AliasingConfigError("Nyquist violation")

    monkeypatch.setattr(spectro, "correlator_hadamard", aliased)
    records, _ = run_sweep([38.0], TINY_HADAMARD)
    assert records[0].failed_stage == "spectro"
    # the row keeps the diagnostics computed before the readout
    assert None not in (records[0].ell_max_h1, records[0].lambda_max, records[0].gamma)


def test_sweep_propagates_programming_errors_in_spectro(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("deliberate bug")

    # raised inside correlator_hadamard, at its first controlled step
    monkeypatch.setattr(spectro, "simulate", broken)
    with pytest.raises(TypeError, match="deliberate bug"):
        run_sweep([38.0], TINY_HADAMARD)


def test_sweep_propagates_a_failed_work_qubit_check(monkeypatch):
    real = spectro.controlled_evolution

    def leaky(ham, t, **kwargs):
        circ = real(ham, t, **kwargs)
        return Circuit(circ.n_qubits, circ.gates + (Gate("X", ham.n),))

    monkeypatch.setattr(spectro, "controlled_evolution", leaky)
    with pytest.raises(RuntimeError, match="work qubit"):
        run_sweep([38.0], TINY_HADAMARD)


def test_sweep_rejects_uneven_grid():
    with pytest.raises(ConfigError, match=r"\[36.0, 37.0, 39.0\]"):
        run_sweep([36.0, 37.0, 39.0], SweepConfig())


FAST = SweepConfig(t_total=70.0, n_fps=40, m_samples=128, lyap_t_total=120.0)
GRID = [37.0, 38.0, 39.0, 40.0]


def _cpus(mp, n: int) -> None:
    """Let run_sweep see n available CPUs, whatever this machine has."""
    mp.setattr(sweep.os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_pool(*args, **kwargs):
    raise AssertionError("run_sweep started a worker pool")


def _diverging_at_38(mp) -> None:
    real = dynamics.lyapunov_max

    def lyapunov_max(params, *args):
        if params.rho == 38.0:
            raise IntegrationDivergedError(7)
        return real(params, *args)

    mp.setattr(dynamics, "lyapunov_max", lyapunov_max)


def _swept(monkeypatch, cpus: int):
    """run_sweep(GRID, FAST) with ``cpus`` available CPUs and rho 38 failing
    at its Lyapunov stage: the records, the L1s handed to the alpha
    calibration and the rhos whose pipeline ran in this process."""
    l1s, here = [], []
    calibrate, stage = spectro.calibrated_alpha, sweep._pipeline_stage

    def calibrated_alpha(mats, *args):
        l1s.extend(mats)
        return calibrate(mats, *args)

    def pipeline_stage(rho, cfg, tau):
        here.append(rho)  # a forked worker appends to its own copy
        return stage(rho, cfg, tau)

    with monkeypatch.context() as mp:
        _cpus(mp, cpus)
        _diverging_at_38(mp)
        mp.setattr(spectro, "calibrated_alpha", calibrated_alpha)
        mp.setattr(sweep, "_pipeline_stage", pipeline_stage)
        if cpus == 1:
            mp.setattr(multiprocessing, "get_context", _no_pool)
        records, report = run_sweep(GRID, FAST)
    return records, report, l1s, here


def _record_bits(rec: SweepRecord) -> list:
    return [_hexed(v) for v in rec.as_row()] + [rec.error]


def test_pooled_sweep_is_bitwise_the_serial_loop(monkeypatch):
    pooled, pooled_report, pooled_l1s, pooled_here = _swept(monkeypatch, 4)
    serial, serial_report, serial_l1s, serial_here = _swept(monkeypatch, 1)
    assert multiprocessing.active_children() == []
    assert pooled_here == [] and serial_here == GRID
    assert [_record_bits(r) for r in pooled] == [_record_bits(r) for r in serial]
    assert _report_items(pooled_report) == _report_items(serial_report)
    assert [m.tobytes() for m in pooled_l1s] == [m.tobytes() for m in serial_l1s]
    # the oracle: the plain loop over the grid in this process
    with monkeypatch.context() as mp:
        _diverging_at_38(mp)
        tau = sweep._resolve_tau(GRID, FAST)
        loop = [sweep._pipeline_stage(rho, FAST, tau) for rho in GRID]
    assert [m.tobytes() for m in pooled_l1s] == [st.l1.tobytes() for st in loop]
    assert [(r.rho, _hexed(r.ell_max_h1), _hexed(r.lambda_max), r.failed_stage, r.error) for r in pooled] == [
        (st.rho, _hexed(st.ell_max), _hexed(st.lambda_max), st.failed_stage, st.error) for st in loop
    ]
    failed = pooled[1]
    assert failed.failed_stage == "lyapunov" and failed.lambda_max is None
    assert failed.error == "IntegrationDivergedError: integration diverged (non-finite state) at step 7"
    # each record carries its own telemetry, from whichever process ran it;
    # the failed row has its L1, so it is read out too
    for rec in pooled:
        assert list(rec.sizes) == ["cloud_points", "fps_points", "vertices", "edges", "triangles"]
        assert list(rec.seconds) == [
            "dynamics", "embedding", "persistence", "selection", "graph", "lyapunov", "spectro"
        ]
        assert all(t >= 0 for t in rec.seconds.values())


def test_sweep_worker_errors_propagate_and_no_worker_outlives_the_call(monkeypatch):
    _cpus(monkeypatch, 4)

    def broken(rho, cfg, tau):
        raise RuntimeError(f"deliberate bug at rho {rho}")

    monkeypatch.setattr(sweep, "_pipeline_stage", broken)
    # a programming error is not recorded as a failed stage
    with pytest.raises(RuntimeError, match=r"^deliberate bug at rho (37|38|39|40)\.0$"):
        run_sweep(GRID, FAST)
    assert multiprocessing.active_children() == []
    # a bad grid is rejected before any worker starts
    monkeypatch.setattr(multiprocessing, "get_context", _no_pool)
    with pytest.raises(ConfigError, match="not evenly spaced"):
        run_sweep([36.0, 37.0, 39.0], FAST)
    assert multiprocessing.active_children() == []


# one case per rule not covered by the CLI's bad-value cases
@pytest.mark.parametrize(
    "key, kwargs",
    [
        ("dt", {"dt": 0.0}),
        ("t_trans", {"t_trans": -1.0}),
        ("t_total", {"t_total": 20.0}),
        ("x0", {"x0": (1.0, math.nan, 1.0)}),
        ("cloud_stride", {"cloud_stride": 0}),
        ("n_fps", {"n_fps": 1}),
        ("k", {"k": 1}),  # floor(1 * 0.6) = 0 topological representatives
        ("alpha_sel", {"alpha_sel": 1.0}),
        ("bins", {"bins": 3}),
        ("lambdas", {"lambdas": (1.0, -1.0, 0.5, 2.0)}),
        ("lambdas", {"lambdas": (1.0, 1.0, 0.5)}),
        ("seed", {"seed": -1}),
        ("use_ring", {"use_ring": 1}),
        ("k", {"k": True}),
        ("tau", {"tau": 2.0}),
        ("lyap_dt", {"lyap_dt": -0.005}),
        ("lyap_renorm", {"lyap_renorm": 0}),
        ("lyap_t_total", {"lyap_t_total": 5.0}),
        ("shots", {"shots": -1}),
    ],
)
def test_sweep_config_rejects_bad_values(key, kwargs):
    with pytest.raises(ConfigError, match=rf"^sweep\.{key} = "):
        SweepConfig(**kwargs)


def test_sweep_config_reads_tuples_as_floats():
    cfg = SweepConfig(x0=(1, 2, 3), lambdas=(1, 1, 0.5, 2), tau=None, alpha_scale=None)
    assert cfg.x0 == (1.0, 2.0, 3.0) and all(type(v) is float for v in cfg.x0 + cfg.lambdas)
    assert cfg.digest() == SweepConfig(x0=(1.0, 2.0, 3.0), tau=None).digest()


def test_sweep_empty_grid():
    records, report = run_sweep([], SweepConfig())
    assert records == []
    assert report["pearson_r"] is None


def test_smoothed_columns_shape(short_sweep):
    _, (records, _) = short_sweep
    cols = smoothed_columns(records)
    assert set(cols) == {
        "h_spec_smooth",
        "ell_max_h1_smooth",
        "gamma_smooth",
        "delta1_susy_sim_smooth",
        "lambda_max_smooth",
    }
    for v in cols.values():
        assert len(v) == 3


@pytest.mark.parametrize("lyap_dt", [0.15, 0.2])
def test_sweep_records_a_diverging_lyapunov_run(lyap_dt):
    # both steps pass SweepConfig, but RK4 at rho 40 blows up in the first block
    cfg = SweepConfig(t_total=90.0, n_fps=48, m_samples=128, lyap_dt=lyap_dt)
    records, _ = run_sweep([40.0], cfg)
    rec = records[0]
    assert rec.failed_stage == "lyapunov"
    assert rec.error == "IntegrationDivergedError: integration diverged (non-finite state) at step 20"
    assert rec.lambda_max is None
    # the diagnostics computed before the failure stay on the row
    assert rec.ell_max_h1 is not None and rec.ell_max_h1 > 0
