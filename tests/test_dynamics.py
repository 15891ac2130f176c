import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from topospec import dynamics
from topospec.dynamics import LorenzParams, integrate, lorenz_rhs, lyapunov_max
from topospec.errors import IntegrationDivergedError


def test_params_validation():
    with pytest.raises(ValueError):
        LorenzParams(sigma=-1.0)
    with pytest.raises(ValueError):
        LorenzParams(rho=0.0)


def test_fixed_point_is_constant():
    # C+ = (sqrt(72), sqrt(72), 27) at the canonical parameters
    p = LorenzParams()
    c_plus = (math.sqrt(72.0), math.sqrt(72.0), 27.0)
    assert np.allclose(lorenz_rhs(c_plus, p), 0.0, atol=1e-12)
    traj = integrate(p, c_plus, dt=0.01, t_trans=0.0, t_total=5.0)
    assert np.allclose(traj.states, np.array(c_plus), atol=1e-9)


def test_subcritical_rho_contracts_to_origin():
    # for rho < 1 the origin is the unique attracting fixed point
    p = LorenzParams(rho=0.5)
    traj = integrate(p, (3.0, -2.0, 5.0), dt=0.01, t_trans=0.0, t_total=50.0)
    assert np.linalg.norm(traj.states[-1]) < np.linalg.norm(traj.states[0])
    assert np.linalg.norm(traj.states[-1]) < 1e-3


def test_bounded_attractor_against_independent_integrator():
    # brute-force bound check with scipy's integrator at dt/10
    p = LorenzParams()
    traj = integrate(p, (1.0, 1.0, 1.0), dt=0.01, t_trans=0.0, t_total=100.0)
    assert np.abs(traj.states[:, 2]).max() < 60.0
    sol = solve_ivp(
        lambda t, s: lorenz_rhs(tuple(s), p),
        (0.0, 100.0),
        [1.0, 1.0, 1.0],
        max_step=0.001,
        rtol=1e-9,
        atol=1e-12,
    )
    assert np.abs(sol.y[2]).max() < 60.0


def test_rk4_order():
    # halving dt changes each sampled state by less than C*dt^4 for fitted C
    p = LorenzParams()
    x0 = (1.0, 1.0, 1.0)
    dts = [0.02, 0.01, 0.005, 0.0025]
    diffs = []
    for dt in dts:
        a = integrate(p, x0, dt=dt, t_trans=0.0, t_total=1.0)
        b = integrate(p, x0, dt=dt / 2, t_trans=0.0, t_total=1.0).states[1::2]  # every second step
        diffs.append(np.abs(a.states - b).max())
    c_fit = diffs[0] / dts[0] ** 4
    for dt, d in zip(dts[1:], diffs[1:]):
        assert d < 1.05 * c_fit * dt**4
    # and the decay is genuinely ~4th order, not better-by-accident
    slope = np.polyfit(np.log(dts), np.log(diffs), 1)[0]
    assert slope > 3.8


def test_integrate_deterministic():
    p = LorenzParams()
    a = integrate(p, (1.0, 1.0, 1.0), dt=0.01, t_trans=1.0, t_total=10.0)
    b = integrate(p, (1.0, 1.0, 1.0), dt=0.01, t_trans=1.0, t_total=10.0)
    assert np.array_equal(a.states, b.states)


def test_integrate_sampling_window():
    p = LorenzParams()
    tr = integrate(p, (1.0, 1.0, 1.0), dt=0.01, t_trans=2.0, t_total=4.0)
    assert len(tr.states) == 200
    assert tr.t0 == pytest.approx(2.01)


def test_divergence_reports_step_index():
    # huge dt blows up RK4 on the Lorenz field
    p = LorenzParams(rho=28.0)
    with pytest.raises(IntegrationDivergedError) as exc:
        integrate(p, (1e3, 1e3, 1e3), dt=1.0, t_trans=0.0, t_total=50.0)
    assert exc.value.step >= 1


def test_trajectory_csv_roundtrip(tmp_path):
    p = LorenzParams()
    tr = integrate(p, (1.0, 1.0, 1.0), dt=0.01, t_trans=0.0, t_total=1.0)
    path = tmp_path / "traj.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,y,z"
    data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert np.allclose(data[:, 1:], tr.states, rtol=0, atol=0)


def test_lyapunov_sign_periodic_vs_chaotic():
    # rho=20: stable spiral, negative exponent; rho=28: chaos, positive
    neg = lyapunov_max(LorenzParams(rho=20.0), (1.0, 1.0, 1.0), 0.005, 200.0, 20)
    assert neg.lambda_max < 0
    pos = lyapunov_max(LorenzParams(rho=28.0), (1.0, 1.0, 1.0), 0.005, 200.0, 20)
    assert pos.lambda_max > 0
    assert pos.lambda_max == pytest.approx(0.905, abs=0.15)


def test_lyapunov_renorm_invariance():
    vals = []
    for renorm in (10, 50, 200):
        r = lyapunov_max(LorenzParams(rho=28.0), (1.0, 1.0, 1.0), 0.005, 400.0, renorm)
        vals.append(r.lambda_max)
    ref = vals[1]
    for v in vals:
        assert abs(v - ref) / abs(ref) < 0.05


def test_lyapunov_needs_enough_renormalizations():
    with pytest.raises(ValueError):
        lyapunov_max(LorenzParams(), (1.0, 1.0, 1.0), 0.01, 5.0, 50)


def test_lyapunov_onset_bracket():
    # seeding near C+ makes the sign change track the subcritical Hopf at ~24.74
    rhos = [23.0, 24.0, 25.0, 26.0, 27.0]
    signs = []
    for rho in rhos:
        p = LorenzParams(rho=rho)
        c = dynamics.fixed_points(p)[1]
        x0 = (c[0] + 0.1, c[1], c[2])
        r = lyapunov_max(p, x0, 0.005, 300.0, 20)
        signs.append(r.lambda_max > 0)
    flips = [i for i in range(len(signs) - 1) if signs[i] != signs[i + 1]]
    assert len(flips) == 1
    lo, hi = rhos[flips[0]], rhos[flips[0] + 1]
    assert lo >= 24.7 - 1.0 and hi <= 24.7 + 1.0
