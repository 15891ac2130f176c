"""Lorenz flow integration and maximum Lyapunov exponent.

The integrator is classical fixed-step fourth-order Runge-Kutta, and each
step is written out as local float arithmetic, not as calls that build and
return tuples. One trajectory is three scalars, so numpy's per-operation overhead
outweighs the arithmetic: a numpy batch over the 7 rho of the default grid
(R = 7 rows) was 3.7x slower. The operations keep the order and association
of the stage formulas k1..k4, so every trajectory and exponent is
bit-reproducible and equal to the step-function form the tests keep as their
oracle. The Benettin renormalisation keeps ``math.sqrt`` and ``math.log`` on
Python floats, because numpy's vectorised ``log`` may round differently from
the C library's and move the exponent in its last bits.
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


def fixed_points(p: LorenzParams) -> list[State]:
    """Equilibria of the flow: origin, and C+/- when rho > 1."""
    pts: list[State] = [(0.0, 0.0, 0.0)]
    if p.rho > 1.0:
        r = math.sqrt(p.beta * (p.rho - 1.0))
        pts += [(r, r, p.rho - 1.0), (-r, -r, p.rho - 1.0)]
    return pts


def integrate(params: LorenzParams, x0: State, dt: float, t_trans: float, t_total: float) -> Trajectory:
    """Integrate and return the state after every step in (t_trans, t_total].

    Needs dt > 0 and t_total > t_trans >= 0 (SweepConfig checks them).
    Raises IntegrationDivergedError at the first step with a non-finite state.
    """
    n_trans = round(t_trans / dt)
    n_total = round(t_total / dt)
    sigma, rho, beta = params.sigma, params.rho, params.beta
    h = 0.5 * dt
    isfinite = math.isfinite
    x, y, z = float(x0[0]), float(x0[1]), float(x0[2])
    out = []
    for step in range(1, n_total + 1):
        a1 = sigma * (y - x)
        b1 = x * (rho - z) - y
        c1 = x * y - beta * z
        x2 = x + h * a1
        y2 = y + h * b1
        z2 = z + h * c1
        a2 = sigma * (y2 - x2)
        b2 = x2 * (rho - z2) - y2
        c2 = x2 * y2 - beta * z2
        x3 = x + h * a2
        y3 = y + h * b2
        z3 = z + h * c2
        a3 = sigma * (y3 - x3)
        b3 = x3 * (rho - z3) - y3
        c3 = x3 * y3 - beta * z3
        x4 = x + dt * a3
        y4 = y + dt * b3
        z4 = z + dt * c3
        a4 = sigma * (y4 - x4)
        b4 = x4 * (rho - z4) - y4
        c4 = x4 * y4 - beta * z4
        x = x + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        y = y + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        z = z + dt * (c1 + 2.0 * c2 + 2.0 * c3 + c4) / 6.0
        if not (isfinite(x) and isfinite(y) and isfinite(z)):
            raise IntegrationDivergedError(step)
        if step > n_trans:
            out.append((x, y, z))
    return Trajectory(dt=dt, states=np.array(out), t0=(n_trans + 1) * dt)


def _rk4_aug_block(x, y, z, vx, vy, vz, n, dt, sigma, rho, beta):
    """n RK4 steps of the flow jointly with the variational equation
    dv = J(x) v dt; returns the state and the tangent after them."""
    h = 0.5 * dt
    for _ in range(n):
        a1 = sigma * (y - x)
        b1 = x * (rho - z) - y
        c1 = x * y - beta * z
        p1 = sigma * (vy - vx)
        q1 = (rho - z) * vx - vy - x * vz
        r1 = y * vx + x * vy - beta * vz
        x2 = x + h * a1
        y2 = y + h * b1
        z2 = z + h * c1
        vx2 = vx + h * p1
        vy2 = vy + h * q1
        vz2 = vz + h * r1
        a2 = sigma * (y2 - x2)
        b2 = x2 * (rho - z2) - y2
        c2 = x2 * y2 - beta * z2
        p2 = sigma * (vy2 - vx2)
        q2 = (rho - z2) * vx2 - vy2 - x2 * vz2
        r2 = y2 * vx2 + x2 * vy2 - beta * vz2
        x3 = x + h * a2
        y3 = y + h * b2
        z3 = z + h * c2
        vx3 = vx + h * p2
        vy3 = vy + h * q2
        vz3 = vz + h * r2
        a3 = sigma * (y3 - x3)
        b3 = x3 * (rho - z3) - y3
        c3 = x3 * y3 - beta * z3
        p3 = sigma * (vy3 - vx3)
        q3 = (rho - z3) * vx3 - vy3 - x3 * vz3
        r3 = y3 * vx3 + x3 * vy3 - beta * vz3
        x4 = x + dt * a3
        y4 = y + dt * b3
        z4 = z + dt * c3
        vx4 = vx + dt * p3
        vy4 = vy + dt * q3
        vz4 = vz + dt * r3
        a4 = sigma * (y4 - x4)
        b4 = x4 * (rho - z4) - y4
        c4 = x4 * y4 - beta * z4
        p4 = sigma * (vy4 - vx4)
        q4 = (rho - z4) * vx4 - vy4 - x4 * vz4
        r4 = y4 * vx4 + x4 * vy4 - beta * vz4
        x = x + dt * (a1 + 2.0 * a2 + 2.0 * a3 + a4) / 6.0
        y = y + dt * (b1 + 2.0 * b2 + 2.0 * b3 + b4) / 6.0
        z = z + dt * (c1 + 2.0 * c2 + 2.0 * c3 + c4) / 6.0
        vx = vx + dt * (p1 + 2.0 * p2 + 2.0 * p3 + p4) / 6.0
        vy = vy + dt * (q1 + 2.0 * q2 + 2.0 * q3 + q4) / 6.0
        vz = vz + dt * (r1 + 2.0 * r2 + 2.0 * r3 + r4) / 6.0
    return x, y, z, vx, vy, vz


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

    At each renormalisation, a non-finite state or tangent, or a tangent norm
    that overflows, raises IntegrationDivergedError with the steps taken so
    far, warmup included.
    """
    n_renorm = renorm_count(dt, t_total, renorm_every)
    if n_renorm < MIN_RENORMS:
        raise ValueError(f"t_total too short: only {n_renorm} renormalizations, need >= {MIN_RENORMS}")
    sigma, rho, beta = params.sigma, params.rho, params.beta
    x, y, z = float(x0[0]), float(x0[1]), float(x0[2])
    vx, vy, vz = 1.0, 0.0, 0.0
    n_warm_blocks = round(t_warm / dt) // renorm_every
    log_sum = 0.0
    for block in range(1, n_warm_blocks + n_renorm + 1):
        x, y, z, vx, vy, vz = _rk4_aug_block(x, y, z, vx, vy, vz, renorm_every, dt, sigma, rho, beta)
        step = block * renorm_every
        if not all(map(math.isfinite, (x, y, z, vx, vy, vz))):
            raise IntegrationDivergedError(step)
        try:
            nrm = math.sqrt(vx ** 2 + vy ** 2 + vz ** 2)
        except OverflowError:  # a square past the float range
            raise IntegrationDivergedError(step) from None
        if nrm == math.inf:  # the sum of the squares past it
            raise IntegrationDivergedError(step)
        if nrm == 0.0:
            raise DegeneratePerturbationError("tangent vector collapsed to zero norm")
        vx, vy, vz = vx / nrm, vy / nrm, vz / nrm
        if block > n_warm_blocks:
            log_sum += math.log(nrm)
    t_acc = n_renorm * renorm_every * dt
    return LyapunovResult(
        lambda_max=log_sum / t_acc,
        renorm_interval=renorm_every * dt,
        total_time=t_acc,
    )
