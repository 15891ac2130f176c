import math

import numpy as np
import pytest

from topospec import spectro
from topospec.errors import AliasingConfigError, ConfigError, UndefinedEntropyError
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
