import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from topospec import dynamics
from topospec.dynamics import LorenzParams, State, integrate, lyapunov_max
from topospec.errors import DegeneratePerturbationError, IntegrationDivergedError

# ---------------------------------------------------------------------------
# oracle: the step-function RK4 form the inlined kernels must match bit for bit
# ---------------------------------------------------------------------------


def lorenz_rhs(s: State, p: LorenzParams) -> State:
    x, y, z = s
    return (p.sigma * (y - x), x * (p.rho - z) - y, x * y - p.beta * z)


def _rk4_step(s: State, dt: float, p: LorenzParams) -> State:
    x, y, z = s
    k1 = lorenz_rhs((x, y, z), p)
    k2 = lorenz_rhs((x + 0.5 * dt * k1[0], y + 0.5 * dt * k1[1], z + 0.5 * dt * k1[2]), p)
    k3 = lorenz_rhs((x + 0.5 * dt * k2[0], y + 0.5 * dt * k2[1], z + 0.5 * dt * k2[2]), p)
    k4 = lorenz_rhs((x + dt * k3[0], y + dt * k3[1], z + dt * k3[2]), p)
    return (
        x + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0,
        y + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0,
        z + dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0,
    )


def _rk4_step_aug(s: State, v: State, dt: float, p: LorenzParams) -> tuple[State, State]:
    """One RK4 step of the flow jointly with the variational equation dv = J(x) v dt."""

    def jv(state: State, vec: State) -> State:
        x, y, z = state
        vx, vy, vz = vec
        return (
            p.sigma * (vy - vx),
            (p.rho - z) * vx - vy - x * vz,
            y * vx + x * vy - p.beta * vz,
        )

    k1 = lorenz_rhs(s, p)
    l1 = jv(s, v)
    s2 = (s[0] + 0.5 * dt * k1[0], s[1] + 0.5 * dt * k1[1], s[2] + 0.5 * dt * k1[2])
    v2 = (v[0] + 0.5 * dt * l1[0], v[1] + 0.5 * dt * l1[1], v[2] + 0.5 * dt * l1[2])
    k2 = lorenz_rhs(s2, p)
    l2 = jv(s2, v2)
    s3 = (s[0] + 0.5 * dt * k2[0], s[1] + 0.5 * dt * k2[1], s[2] + 0.5 * dt * k2[2])
    v3 = (v[0] + 0.5 * dt * l2[0], v[1] + 0.5 * dt * l2[1], v[2] + 0.5 * dt * l2[2])
    k3 = lorenz_rhs(s3, p)
    l3 = jv(s3, v3)
    s4 = (s[0] + dt * k3[0], s[1] + dt * k3[1], s[2] + dt * k3[2])
    v4 = (v[0] + dt * l3[0], v[1] + dt * l3[1], v[2] + dt * l3[2])
    k4 = lorenz_rhs(s4, p)
    l4 = jv(s4, v4)
    s_new = (
        s[0] + dt * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0]) / 6.0,
        s[1] + dt * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1]) / 6.0,
        s[2] + dt * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2]) / 6.0,
    )
    v_new = (
        v[0] + dt * (l1[0] + 2 * l2[0] + 2 * l3[0] + l4[0]) / 6.0,
        v[1] + dt * (l1[1] + 2 * l2[1] + 2 * l3[1] + l4[1]) / 6.0,
        v[2] + dt * (l1[2] + 2 * l2[2] + 2 * l3[2] + l4[2]) / 6.0,
    )
    return s_new, v_new


def oracle_integrate(p: LorenzParams, x0: State, dt: float, t_trans: float, t_total: float):
    """The step-function integrate loop: the sampled states, or the
    IntegrationDivergedError it raised at the first non-finite step."""
    n_trans = round(t_trans / dt)
    n_total = round(t_total / dt)
    s = (float(x0[0]), float(x0[1]), float(x0[2]))
    out = []
    for step in range(1, n_total + 1):
        s = _rk4_step(s, dt, p)
        if not (math.isfinite(s[0]) and math.isfinite(s[1]) and math.isfinite(s[2])):
            return IntegrationDivergedError(step)
        if step > n_trans:
            out.append(s)
    return np.array(out)


def oracle_lyapunov(p, x0, dt, t_total, renorm_every, t_warm, block_ends):
    """The step-function Benettin loop, without a divergence check: a
    diverging run returns NaN or raises OverflowError in the rescaling.
    Appends (steps so far, state, tangent before rescaling) to block_ends
    at every renormalisation."""
    n_renorm = dynamics.renorm_count(dt, t_total, renorm_every)
    s = (float(x0[0]), float(x0[1]), float(x0[2]))
    v: State = (1.0, 0.0, 0.0)
    steps = 0

    def renorm(vec: State) -> tuple[State, float]:
        block_ends.append((steps, s, vec))
        nrm = math.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2)
        if nrm == 0.0:
            raise DegeneratePerturbationError("tangent vector collapsed to zero norm")
        return (vec[0] / nrm, vec[1] / nrm, vec[2] / nrm), nrm

    n_warm_blocks = round(t_warm / dt) // renorm_every
    for _ in range(n_warm_blocks):
        for _ in range(renorm_every):
            s, v = _rk4_step_aug(s, v, dt, p)
        steps += renorm_every
        v, _ = renorm(v)

    log_sum = 0.0
    for _ in range(n_renorm):
        for _ in range(renorm_every):
            s, v = _rk4_step_aug(s, v, dt, p)
        steps += renorm_every
        v, nrm = renorm(v)
        log_sum += math.log(nrm)
    return log_sum / (n_renorm * renorm_every * dt)


def first_divergent_block(block_ends) -> int | None:
    """Steps at the first renormalisation whose state or tangent is
    non-finite or whose squared tangent norm leaves the float range."""
    for steps, s, v in block_ends:
        if not all(math.isfinite(c) for c in s + v):
            return steps
        try:
            if math.isinf(v[0] ** 2 + v[1] ** 2 + v[2] ** 2):
                return steps
        except OverflowError:
            return steps
    return None


def outcome(fn, *args, **kwargs):
    """A call's result, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # compared by type below
        return exc


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
    assert exc.value.step == oracle_integrate(p, (1e3, 1e3, 1e3), 1.0, 0.0, 50.0).step


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


# ---------------------------------------------------------------------------
# the inlined kernels against the step-function oracle
# ---------------------------------------------------------------------------

lorenz_params = st.builds(
    LorenzParams,
    sigma=st.floats(0.5, 30.0),
    rho=st.floats(0.5, 100.0),
    beta=st.floats(0.1, 10.0),
)
coords = st.tuples(*[st.floats(-60.0, 60.0)] * 3)
steps_dt = st.floats(1e-3, 0.3)


@given(p=lorenz_params, x0=coords, dt=steps_dt, n_trans=st.integers(0, 50), n_keep=st.integers(2, 250))
@settings(max_examples=150, deadline=None)
def test_integrate_matches_the_oracle_bitwise(p, x0, dt, n_trans, n_keep):
    t_trans, t_total = n_trans * dt, (n_trans + n_keep + 0.25) * dt
    want = oracle_integrate(p, x0, dt, t_trans, t_total)
    got = outcome(integrate, p, x0, dt, t_trans, t_total)
    if isinstance(want, IntegrationDivergedError):
        assert isinstance(got, IntegrationDivergedError)
        assert got.step == want.step
    else:
        assert not isinstance(got, Exception)
        assert got.states.tobytes() == want.tobytes()


# explicit cases: finite; NaN in the oracle (the sweep's lyap_dt 0.15 and 0.2 at
# rho 40); OverflowError in the oracle
@example(
    p=LorenzParams(19.7, 79.0, 1.0), x0=(-47.0, -1.0, 5.0), dt=0.01, renorm_every=4, extra=0, warm_steps=40
)
@example(p=LorenzParams(rho=40.0), x0=(1.0, 1.0, 1.0), dt=0.15, renorm_every=20, extra=0, warm_steps=0)
@example(p=LorenzParams(rho=40.0), x0=(1.0, 1.0, 1.0), dt=0.2, renorm_every=20, extra=0, warm_steps=250)
@example(
    p=LorenzParams(7.7, 79.8, 4.2), x0=(-28.0, -4.0, 20.0), dt=0.1, renorm_every=1, extra=0, warm_steps=10
)
@given(
    p=lorenz_params,
    x0=coords,
    dt=steps_dt,
    renorm_every=st.integers(1, 8),
    extra=st.integers(0, 10),
    warm_steps=st.integers(0, 200),
)
@settings(max_examples=150, deadline=None)
def test_lyapunov_matches_the_oracle_bitwise(p, x0, dt, renorm_every, extra, warm_steps):
    t_total = (100.5 + extra) * renorm_every * dt  # just over MIN_RENORMS blocks
    t_warm = warm_steps * dt
    ends: list = []
    want = outcome(oracle_lyapunov, p, x0, dt, t_total, renorm_every, t_warm, ends)
    got = outcome(lyapunov_max, p, x0, dt, t_total, renorm_every, t_warm=t_warm)
    diverged = first_divergent_block(ends)
    event(f"oracle: {'NaN' if isinstance(want, float) and math.isnan(want) else type(want).__name__}")
    if diverged is not None:
        # the oracle's NaN or OverflowError (or a zero norm after an
        # overflowed sum) is a divergence error at the first bad block
        assert isinstance(want, (float, OverflowError, DegeneratePerturbationError))
        assert not isinstance(want, float) or math.isnan(want)
        assert isinstance(got, IntegrationDivergedError)
        assert got.step == diverged
    elif isinstance(want, Exception):
        assert type(got) is type(want)
    else:
        assert not math.isnan(want)
        assert got.lambda_max.hex() == want.hex()


# lambda_max of the default sweep (lyap_dt 0.005, lyap_t_total 400, renorm 20,
# x0 (1, 1, 1)) over rho 36..42, as the step-function oracle computes it
DEFAULT_GRID_LAMBDA = {
    36.0: "0x1.1243f1670c7a3p+0",
    37.0: "0x1.13551819074dap+0",
    38.0: "0x1.1d8681100156ap+0",
    39.0: "0x1.1ff9198b8d946p+0",
    40.0: "0x1.22a20e5b6f8dfp+0",
    41.0: "0x1.2aa2e035af625p+0",
    42.0: "0x1.2f06e4bbbb0edp+0",
}


def test_lyapunov_default_grid_is_bit_exact():
    from topospec.sweep import SweepConfig

    cfg = SweepConfig()
    got = {
        rho: lyapunov_max(LorenzParams(rho=rho), cfg.x0, cfg.lyap_dt, cfg.lyap_t_total, cfg.lyap_renorm).lambda_max.hex()
        for rho in DEFAULT_GRID_LAMBDA
    }
    assert got == DEFAULT_GRID_LAMBDA


@pytest.mark.parametrize(
    "block_end",
    [
        (math.nan, 1.0, 1.0, 1.0, 0.0, 0.0),  # state non-finite
        (1.0, 1.0, 1.0, math.nan, 0.0, 0.0),  # tangent NaN beside a finite state
        (1.0, 1.0, 1.0, math.inf, 0.0, 0.0),  # tangent infinite
        (1.0, 1.0, 1.0, 1e200, 0.0, 0.0),  # a square past the float range
        (1.0, 1.0, 1.0, 1e154, 1e154, 1e154),  # finite squares, infinite sum
    ],
)
def test_lyapunov_divergence_rule_at_a_block_end(monkeypatch, block_end):
    # the kernel hands back this state and tangent after the first block
    monkeypatch.setattr(dynamics, "_rk4_aug_block", lambda *args: block_end)
    with pytest.raises(IntegrationDivergedError) as exc:
        lyapunov_max(LorenzParams(), (1.0, 1.0, 1.0), 0.01, 10.0, 5, t_warm=0.5)
    assert exc.value.step == 5


def test_onset_scan_grid_does_not_drift(tmp_path, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "onset_scan.py"
    spec = importlib.util.spec_from_file_location("onset_scan", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "scan.csv"
    script.main(["--lo", "23", "--hi", "23.2", "--step", "0.1", "--out", str(out)])
    rows = [line.split(",") for line in out.read_text().splitlines()]
    assert rows[0] == ["rho", "lambda_max"]
    # summing the step would give 23.200000000000003 for the last point
    assert [float(r[0]) for r in rows[1:]] == [23.0, 23.1, 23.2]
