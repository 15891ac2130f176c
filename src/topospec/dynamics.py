"""Lorenz flow integration and maximum Lyapunov exponent.

The integrator is classical fixed-step fourth-order Runge-Kutta over plain
Python floats, which keeps it fast, deterministic, and bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegeneratePerturbationError, IntegrationDivergedError
from .serialize import write_csv

State = tuple[float, float, float]
MIN_RENORMS = 100  # renormalizations lyapunov_max needs for a stable time average


@dataclass(frozen=True)
class LorenzParams:
    """sigma: Prandtl number, rho: Rayleigh number, beta: geometric factor."""

    sigma: float = 10.0
    rho: float = 28.0
    beta: float = 8.0 / 3.0

    def __post_init__(self):
        if not (self.sigma > 0 and self.rho > 0 and self.beta > 0):
            raise ValueError("all Lorenz parameters must be strictly positive")


@dataclass(frozen=True)
class Trajectory:
    dt: float
    states: np.ndarray  # (N, 3)
    t0: float

    def __post_init__(self):
        if len(self.states) < 2:
            raise ValueError("trajectory needs at least 2 samples")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite values")

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.states))

    def observable(self, which: str = "x") -> np.ndarray:
        return self.states[:, "xyz".index(which)]

    def to_csv(self, path: str | Path) -> None:
        rows = [(t, s[0], s[1], s[2]) for t, s in zip(self.times, self.states)]
        write_csv(path, ("t", "x", "y", "z"), rows)


@dataclass(frozen=True)
class LyapunovResult:
    lambda_max: float
    renorm_interval: float
    total_time: float

    def __post_init__(self):
        if not (self.total_time > 0 and self.renorm_interval > 0):
            raise ValueError("total_time and renorm_interval must be positive")


def lorenz_rhs(s: State, p: LorenzParams) -> State:
    x, y, z = s
    return (p.sigma * (y - x), x * (p.rho - z) - y, x * y - p.beta * z)


def fixed_points(p: LorenzParams) -> list[State]:
    """Equilibria of the flow: origin, and C+/- when rho > 1."""
    pts: list[State] = [(0.0, 0.0, 0.0)]
    if p.rho > 1.0:
        r = math.sqrt(p.beta * (p.rho - 1.0))
        pts += [(r, r, p.rho - 1.0), (-r, -r, p.rho - 1.0)]
    return pts


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


def integrate(params: LorenzParams, x0: State, dt: float, t_trans: float, t_total: float) -> Trajectory:
    """Integrate and return the state after every step in (t_trans, t_total].

    Needs dt > 0 and t_total > t_trans >= 0 (SweepConfig checks them).
    """
    n_trans = round(t_trans / dt)
    n_total = round(t_total / dt)
    s = (float(x0[0]), float(x0[1]), float(x0[2]))
    out = []
    for step in range(1, n_total + 1):
        s = _rk4_step(s, dt, params)
        if not (math.isfinite(s[0]) and math.isfinite(s[1]) and math.isfinite(s[2])):
            raise IntegrationDivergedError(step)
        if step > n_trans:
            out.append(s)
    return Trajectory(dt=dt, states=np.array(out), t0=(n_trans + 1) * dt)


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


def renorm_count(dt: float, t_total: float, renorm_every: int) -> int:
    """Renormalizations lyapunov_max accumulates over t_total."""
    return round(t_total / dt) // renorm_every


def lyapunov_max(
    params: LorenzParams,
    x0: State,
    dt: float,
    t_total: float,
    renorm_every: int = 50,
    *,
    t_warm: float = 50.0,
) -> LyapunovResult:
    """Benettin estimate of the maximum Lyapunov exponent.

    The tangent vector is evolved with the analytic Jacobian and rescaled to
    unit norm every renorm_every steps; the exponent is the time-average of
    the accumulated log stretch factors. A warmup phase (t_warm) aligns the
    tangent with the expanding direction before accumulation starts.
    """
    n_renorm = renorm_count(dt, t_total, renorm_every)
    if n_renorm < MIN_RENORMS:
        raise ValueError(f"t_total too short: only {n_renorm} renormalizations, need >= {MIN_RENORMS}")
    s = (float(x0[0]), float(x0[1]), float(x0[2]))
    v: State = (1.0, 0.0, 0.0)

    def renorm(vec: State) -> tuple[State, float]:
        nrm = math.sqrt(vec[0] ** 2 + vec[1] ** 2 + vec[2] ** 2)
        if nrm == 0.0:
            raise DegeneratePerturbationError("tangent vector collapsed to zero norm")
        return (vec[0] / nrm, vec[1] / nrm, vec[2] / nrm), nrm

    n_warm_blocks = round(t_warm / dt) // renorm_every
    for _ in range(n_warm_blocks):
        for _ in range(renorm_every):
            s, v = _rk4_step_aug(s, v, dt, params)
        v, _ = renorm(v)

    log_sum = 0.0
    for _ in range(n_renorm):
        for _ in range(renorm_every):
            s, v = _rk4_step_aug(s, v, dt, params)
        v, nrm = renorm(v)
        log_sum += math.log(nrm)
    t_acc = n_renorm * renorm_every * dt
    return LyapunovResult(
        lambda_max=log_sum / t_acc,
        renorm_interval=renorm_every * dt,
        total_time=t_acc,
    )
