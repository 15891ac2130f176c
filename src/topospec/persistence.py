"""Vietoris-Rips filtrations and persistent homology in degrees 0 and 1.

Coefficients are the two-element field. Columns of the boundary matrix are
stored as Python integers (bitmasks over row indices), so the reduction is a
sequence of XORs; the clearing optimization skips columns whose simplex was
already paired as a pivot one dimension up.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .embedding import PointCloud
from .errors import DegenerateGeometryError
from .serialize import write_csv


@dataclass(frozen=True)
class Filtration:
    """Simplices as (vertex tuple, appearance radius), sorted by
    (radius, dimension, lexicographic vertices); that order is total, so the
    pairing computed from it is deterministic."""

    simplices: tuple[tuple[tuple[int, ...], float], ...]

    def __post_init__(self):
        radius = {}
        for verts, r in self.simplices:
            radius[verts] = r
            for face in itertools.combinations(verts, len(verts) - 1):
                if len(face) < 1:
                    continue
                if face not in radius:
                    raise ValueError(f"face {face} of {verts} missing or out of order")
                if radius[face] > r + 1e-12:
                    raise ValueError(f"face {face} appears after simplex {verts}")

    def critical_radii(self) -> np.ndarray:
        return np.unique([r for _, r in self.simplices])


@dataclass(frozen=True)
class PersistenceDiagram:
    """(dim, birth, death) triples; death is math.inf for essential classes."""

    pairs: tuple[tuple[int, float, float], ...]

    def __post_init__(self):
        for d, b, dth in self.pairs:
            if dth < b:
                raise ValueError(f"death {dth} before birth {b} in dim {d}")

    def in_dim(self, dim: int, finite_only: bool = False):
        out = [(b, d) for (k, b, d) in self.pairs if k == dim]
        if finite_only:
            out = [(b, d) for b, d in out if math.isfinite(d)]
        return out

    def betti(self, dim: int, eps: float) -> int:
        """Rank of H_dim at radius eps: pairs born by eps and not yet dead."""
        return sum(1 for b, d in self.in_dim(dim) if b <= eps < d)

    def to_csv(self, path) -> None:
        rows = [(d, b, "inf" if math.isinf(dd) else dd) for (d, b, dd) in self.pairs]
        write_csv(path, ("dim", "birth", "death"), rows)


def rips_filtration(cloud: PointCloud | np.ndarray, eps_max: float | None = None) -> Filtration:
    """Vertices at radius 0, edges at their length, triangles at their longest
    edge (the 2-skeleton, all that degree-1 persistence needs), up to eps_max.

    The default eps_max is just past the diameter, so the full complex is
    built; the 1e-12 floor keeps a single-point cloud valid.
    """
    cloud = PointCloud.of(cloud)
    if eps_max is None:
        eps_max = max(cloud.diameter() * 1.0001, 1e-12)
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    n = cloud.n
    dist = cloud.distances()
    simplices: list[tuple[tuple[int, ...], float]] = [((i,), 0.0) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if dist[i, j] <= eps_max:
            simplices.append(((i, j), float(dist[i, j])))
    for i, j, k in itertools.combinations(range(n), 3):
        r = float(max(dist[i, j], dist[i, k], dist[j, k]))
        if r <= eps_max:
            simplices.append(((i, j, k), r))
    simplices.sort(key=lambda sr: (sr[1], len(sr[0]), sr[0]))
    return Filtration(simplices=tuple(simplices))


def compute_persistence(filt: Filtration) -> PersistenceDiagram:
    """Standard column reduction over GF(2) with clearing.

    Dimensions are processed top-down; when a dim-k column pairs with a dim-(k-1)
    pivot, the pivot's own column is cleared (it is necessarily a cycle).
    """
    simplices = filt.simplices
    index = {verts: i for i, (verts, _) in enumerate(simplices)}
    radius = [r for _, r in simplices]
    dim_of = [len(v) - 1 for v, _ in simplices]

    boundary: list[int] = []
    for verts, _ in simplices:
        col = 0
        if len(verts) > 1:
            for drop in range(len(verts)):
                face = verts[:drop] + verts[drop + 1 :]
                col ^= 1 << index[face]
        boundary.append(col)

    low_to_col: dict[int, int] = {}
    pair_of: dict[int, int] = {}
    cleared: set[int] = set()
    for dim in (2, 1):
        for j in range(len(simplices)):
            if dim_of[j] != dim or j in cleared:
                continue
            col = boundary[j]
            while col:
                low = col.bit_length() - 1
                other = low_to_col.get(low)
                if other is None:
                    break
                col ^= boundary[other]
            boundary[j] = col
            if col:
                low = col.bit_length() - 1
                low_to_col[low] = j
                pair_of[low] = j
                cleared.add(low)

    pairs: list[tuple[int, float, float]] = []
    paired_as_death = set(pair_of.values())
    for i in range(len(simplices)):
        if i in pair_of:
            j = pair_of[i]
            pairs.append((dim_of[i], radius[i], radius[j]))
        elif i not in paired_as_death and dim_of[i] < 2:
            pairs.append((dim_of[i], radius[i], math.inf))
    pairs.sort()
    return PersistenceDiagram(pairs=tuple(pairs))


def max_h1_persistence(diag: PersistenceDiagram) -> float:
    """Largest finite (death - birth) in degree 1; 0 when no finite degree-1
    pair exists."""
    finite = diag.in_dim(1, finite_only=True)
    return float(max((d - b for b, d in finite), default=0.0))


def circular_coordinates(cloud: PointCloud | np.ndarray, fit_rows: np.ndarray | None = None) -> np.ndarray:
    """Angle per point from the top-2 principal components (atan2 of the
    projections), in [0, 2pi). The plane is fit on ``fit_rows`` when given
    (selection's loop candidates, so the angle winds around that loop), or on
    all rows when those are fewer than 3 or collinear."""
    pts = cloud.points if isinstance(cloud, PointCloud) else np.asarray(cloud, dtype=float)
    if len(pts) < 3:
        raise ValueError("need at least 3 points")
    fits = [pts] if fit_rows is None else [pts[fit_rows], pts]
    for sub in fits:
        if len(sub) < 3:
            continue
        center = sub.mean(axis=0)
        _, svals, vecs = np.linalg.svd(sub - center, full_matrices=False)
        if len(svals) < 2 or svals[1] < 1e-12 * max(svals[0], 1e-300):
            continue
        proj = (pts - center) @ vecs[:2].T
        return np.mod(np.arctan2(proj[:, 1], proj[:, 0]), 2 * np.pi)
    raise DegenerateGeometryError("cloud is collinear; no planar projection")
