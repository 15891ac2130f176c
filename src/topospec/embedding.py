"""Delay-coordinate embedding and the mutual-information delay heuristic."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InsufficientDataError, ZeroVarianceError
from .serialize import write_csv

MI_BINS = 32  # equal-width bins for the auto-mutual-information histogram
MI_FLAT_REL = 0.02  # MI moves below this fraction of the curve range are flat
MI_FLOOR = 0.05  # lag-1 mutual information below which a series has no usable dependence
PAIRWISE_LANES = 8  # numpy's pairwise sum: partial sums it keeps in a block
PAIRWISE_BLOCK = 128  # numpy's pairwise sum: longest run summed without splitting
BLOCK_ROWS = 128  # rows of an N x N pass held at once: about 1 MB at N = 998


def sq_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of a and the rows of b.

    Built one coordinate at a time, so no (len(a), len(b), m) array is ever
    formed; the column squares are added in the order of numpy's pairwise
    sum, so the result is bit for bit ``((a[:, None] - b[None]) ** 2).sum(-1)``
    for every m.
    """
    return _column_sum(a, b, range(a.shape[1]))


def _column_sum(a: np.ndarray, b: np.ndarray, cols: range) -> np.ndarray:
    """Sum over k in cols of the squared outer differences of column k, in
    numpy's pairwise order: fewer than 8 columns in sequence; up to 128 in 8
    running sums combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), the rest in
    sequence; more split in two, the first part a multiple of 8."""
    n = len(cols)
    if n > PAIRWISE_BLOCK:
        half = n // 2 - n // 2 % PAIRWISE_LANES
        out = _column_sum(a, b, cols[:half])
        out += _column_sum(a, b, cols[half:])
        return out
    if n == 0:
        return np.zeros((len(a), len(b)))
    lanes = PAIRWISE_LANES if n >= PAIRWISE_LANES else 1
    body = n - n % lanes
    sums = [_sq_column(a, b, k) for k in cols[:lanes]]
    sq = None  # one scratch matrix, reused for every later column
    for i in range(lanes, body):
        sq = _sq_column(a, b, cols[i], sq)
        sums[i % lanes] += sq
    while len(sums) > 1:  # neighbours pairwise, as the docstring writes it
        for left, right in zip(sums[::2], sums[1::2]):
            left += right
        sums = sums[::2]
    out = sums[0]
    for k in cols[body:]:
        sq = _sq_column(a, b, k, sq)
        out += sq
    return out


def _sq_column(a: np.ndarray, b: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """(a[i, k] - b[j, k])**2 over every (i, j), into out when given."""
    diff = np.subtract.outer(a[:, k], b[:, k], out=out)
    return np.multiply(diff, diff, out=diff)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class PointCloud:
    """N x m matrix of embedded points; the metric is Euclidean throughout.

    The squared pairwise distances d2 are computed on first use and shared by
    every consumer of the same cloud: the one N x N float64 matrix a cloud
    caches (8 MB at N = 998). Passes over it read blocks of ``row_blocks``,
    taking their square roots one block at a time; no stage allocates an
    N x N x m array.
    """

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError("points must be a 2-D array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points contain non-finite entries")
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @staticmethod
    def of(cloud: PointCloud | np.ndarray) -> PointCloud:
        """The cloud itself, so its geometry is shared, or a new cloud over an array."""
        return cloud if isinstance(cloud, PointCloud) else PointCloud(cloud)

    def row_blocks(self) -> list[slice]:
        """Consecutive slices of at most BLOCK_ROWS rows, covering the cloud in order."""
        return [slice(i, min(i + BLOCK_ROWS, self.n)) for i in range(0, self.n, BLOCK_ROWS)]

    @cached_property
    def d2(self) -> np.ndarray:
        """Squared pairwise distances, computed once per cloud (read-only).

        Filled one row block at a time; every entry is its own column sum, so
        the matrix is bit for bit ``sq_distances(points, points)``, and exactly
        symmetric. A cloud of one block is one allocation.
        """
        pts = self.points
        if self.n <= BLOCK_ROWS:
            return _read_only(sq_distances(pts, pts))
        d2 = np.empty((self.n, self.n))
        for rows in self.row_blocks():
            d2[rows] = sq_distances(pts[rows], pts)
        return _read_only(d2)

    def distances(self, rows=slice(None)) -> np.ndarray:
        """Euclidean distances from the points of ``rows`` (any row index of
        d2: a slice, a list or one row) to every point, computed afresh from
        d2, not cached."""
        return np.sqrt(self.d2[rows])

    def diameter(self) -> float:
        # sqrt is monotone and correctly rounded: this is the largest distance
        return float(np.sqrt(self.d2.max()))

    def to_csv(self, path) -> None:
        write_csv(path, tuple(f"c{i}" for i in range(self.dim)), self.points)


@dataclass(frozen=True)
class TauChoice:
    tau: int
    method: str  # mi_min | mi_floor | acf_1e | max_lag
    warned: bool = False


def delay_embed(series: np.ndarray, tau: int, m: int) -> PointCloud:
    """Row k is [s(k), s(k+tau), ..., s(k+(m-1)tau)], each column rescaled to
    unit variance; a constant column raises ZeroVarianceError rather than
    dividing by zero. tau >= 1 and m >= 2 (SweepConfig checks both).
    """
    s = np.asarray(series, dtype=float)
    span = (m - 1) * tau
    if len(s) <= span:
        raise InsufficientDataError(f"series length {len(s)} too short; need > {span} for m={m}, tau={tau}")
    n = len(s) - span
    pts = np.stack([s[j * tau : j * tau + n] for j in range(m)], axis=1)
    sd = pts.std(axis=0)
    if np.any(sd == 0):
        raise ZeroVarianceError("constant coordinate under unit-variance normalization")
    return PointCloud(points=pts / sd)


def mutual_information(s: np.ndarray, lag: int) -> float:
    """Histogram estimate of I(s_t; s_{t+lag}) in nats, bias-corrected."""
    a, b = s[:-lag], s[lag:]
    lo, hi = float(s.min()), float(s.max())
    joint, _, _ = np.histogram2d(a, b, bins=MI_BINS, range=[[lo, hi], [lo, hi]])
    n = joint.sum()
    pj = joint / n
    pa = pj.sum(axis=1)
    pb = pj.sum(axis=0)
    nz = pj > 0
    mi = float((pj[nz] * np.log(pj[nz] / np.outer(pa, pb)[nz])).sum())
    # Miller-Madow: positive bias of the plug-in estimate is ~(K-1)/(2n) per entropy
    bias = (np.count_nonzero(pj) - np.count_nonzero(pa) - np.count_nonzero(pb) + 1) / (2 * n)
    return mi - bias


def autocorrelation(s: np.ndarray, lag: int) -> float:
    a = s - s.mean()
    denom = float((a * a).sum())
    if denom == 0:
        return 1.0
    return float((a[:-lag] * a[lag:]).sum() / denom)


def _first_mi_valley(mi: np.ndarray) -> int | None:
    """Center lag (1-based) of the first significant valley of the MI curve.

    Moves smaller than MI_FLAT_REL times the curve range count as flat, so a
    plateau (e.g. a pure sinusoid's quarter-period basin) resolves to its
    center instead of a bin-noise argmin, and monotone curves yield None.
    """
    delta = MI_FLAT_REL * float(mi.max() - mi.min())
    if delta == 0.0:
        return None
    descended = False
    valley_start = None
    level = mi[0]
    for k in range(1, len(mi)):
        step = mi[k] - level
        if step < -delta:
            descended = True
            valley_start = k
            level = mi[k]
        elif step > delta:
            if descended and valley_start is not None:
                return (valley_start + k - 1) // 2 + 1  # center, 1-based lags
            level = mi[k]
        elif mi[k] < level:
            level = mi[k]  # drift downward inside flat stretches
    return None


def choose_tau(series: np.ndarray, max_lag: int) -> TauChoice:
    """Delay from the first minimum of the auto-mutual information.

    A flat-bottomed first valley resolves to its center lag. Falls back to
    the 1/e decorrelation lag when the MI curve has no interior minimum; if
    the autocorrelation never drops below 1/e, returns max_lag with a warning
    flag. A series whose lag-1 MI is already below MI_FLOOR carries no usable
    dependence and gets tau=1 directly.
    """
    s = np.asarray(series, dtype=float)
    if max_lag >= len(s) / 4:
        raise ValueError("max_lag must be < length/4")
    mi = np.array([mutual_information(s, lag) for lag in range(1, max_lag + 1)])
    if mi[0] <= MI_FLOOR:
        return TauChoice(tau=1, method="mi_floor")
    valley = _first_mi_valley(mi)
    if valley is not None:
        return TauChoice(tau=valley, method="mi_min")
    for lag in range(1, max_lag + 1):
        if autocorrelation(s, lag) < 1.0 / np.e:
            return TauChoice(tau=lag, method="acf_1e")
    return TauChoice(tau=max_lag, method="max_lag", warned=True)
