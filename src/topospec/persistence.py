"""Vietoris-Rips filtrations and persistent homology in degrees 0 and 1.

Coefficients are the two-element field. Columns of the boundary matrix are
Python integers (bitmasks over the simplices one dimension down), so the
reduction is a sequence of XORs; the clearing optimization skips columns whose
simplex was already paired as a pivot one dimension up.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .embedding import PointCloud
from .errors import DegenerateGeometryError
from .serialize import write_csv


@dataclass(frozen=True)
class Filtration:
    """A simplicial complex of any dimension as one table per dimension, so
    the complex at any radius is a prefix of each: ``cells[d]`` holds the
    sorted vertex tuples of the d-simplices and ``radii[d]`` their appearance
    radii, both in (radius, lexicographic vertices) order; that order is
    total, so the pairing computed from it is deterministic. A plain complex
    (a graph, a clique complex) is a filtration whose radii are all 0.

    ``faces[d][j][i]`` is the row in ``cells[d - 1]`` of face i of
    ``cells[d][j]``, the face with vertex i dropped: the package's one face
    rule, which ``hodge.FiltrationLaplacians`` signs by (-1)^i."""

    cells: tuple[tuple[tuple[int, ...], ...], ...]
    radii: tuple[tuple[float, ...], ...]
    faces: tuple[tuple[tuple[int, ...], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for d, radii in enumerate(self.radii):
            if any(b < a for a, b in zip(radii, radii[1:])):
                raise ValueError(f"{d}-simplices are not in radius order")
        faces = [((),) * len(self.cells[0])]
        for d in range(1, len(self.cells)):
            row = {verts: k for k, verts in enumerate(self.cells[d - 1])}
            # combinations drops the last vertex first, so reversed its faces are faces 0..d
            table = [tuple(map(row.get, itertools.combinations(v, d)))[::-1] for v in self.cells[d]]
            for verts, r, idx in zip(self.cells[d], self.radii[d], table):
                if None in idx:
                    raise ValueError(f"a face of {verts} is missing")
                if max(self.radii[d - 1][k] for k in idx) > r + 1e-12:
                    raise ValueError(f"a face of {verts} appears after it")
            faces.append(tuple(table))
        object.__setattr__(self, "faces", tuple(faces))

    @property
    def simplices(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Every simplex as (vertices, radius) in the global (radius,
        dimension, vertices) order."""
        every = (sr for cells, radii in zip(self.cells, self.radii) for sr in zip(cells, radii))
        return tuple(sorted(every, key=lambda sr: (sr[1], len(sr[0]), sr[0])))

    def critical_radii(self) -> np.ndarray:
        return np.unique(sum(self.radii, ()))

    def complex_at(self, eps: float) -> dict[int, list[tuple[int, ...]]]:
        """Simplices of each dimension present at radius eps (a prefix of
        each table), in lexicographic order."""
        return {
            d: sorted(cells[: bisect.bisect_right(radii, eps)])
            for d, (cells, radii) in enumerate(zip(self.cells, self.radii))
        }


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
    built; the 1e-12 floor keeps a single-point cloud valid. The readers of
    complexes and Laplacians above the enclosing radius (the gap-persistence
    bound, validate-fivepoint, scripts/find_fivepoint.py) use this default; a
    reader of pairs alone takes ``rips_diagram``.
    """
    cloud = PointCloud.of(cloud)
    if eps_max is None:
        eps_max = max(cloud.diameter() * 1.0001, 1e-12)
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    dist = cloud.distances()
    cells, radii = [], []
    for d in range(3):
        verts = np.array(list(itertools.combinations(range(cloud.n), d + 1)), dtype=np.intp).reshape(-1, d + 1)
        r = dist[verts[:, :, None], verts[:, None, :]].max(axis=(1, 2))  # longest edge; 0 for a vertex
        # a stable sort keeps lexicographic order within a radius; cells past eps_max are its tail
        order = np.argsort(r, kind="stable")[: np.count_nonzero(r <= eps_max)]
        cells.append(tuple(map(tuple, verts[order].tolist())))
        radii.append(tuple(r[order].tolist()))
    return Filtration(cells=tuple(cells), radii=tuple(radii))


def rips_diagram(cloud: PointCloud | np.ndarray, sizes: dict[str, int] | None = None) -> PersistenceDiagram:
    """The diagram of the full Rips filtration, reduced only up to the
    enclosing radius r = min_i max_j d(i, j).

    From r on the complex is a cone on the vertex that attains it: one
    component and no 1-cycles, so every edge longer than r is born and killed
    at its own length (Bauer, "Ripser", 2021). Those edges are added as
    zero-length degree-1 pairs instead of being reduced, and the pairs equal
    the full complex's. The 1e-12 floor is the full rule's. When given,
    ``sizes["simplices"]`` receives the cut complex's simplex count.
    """
    cloud = PointCloud.of(cloud)
    dist = cloud.distances()
    eps_max = max(float(dist.max(axis=1).min()), 1e-12)
    filt = rips_filtration(cloud, eps_max=eps_max)
    if sizes is not None:
        sizes["simplices"] = sum(map(len, filt.cells))
    pairs = compute_persistence(filt).pairs
    longer = tuple((1, ell, ell) for ell in dist[np.triu_indices(cloud.n, 1)].tolist() if ell > eps_max)
    return PersistenceDiagram(pairs=tuple(sorted(pairs + longer)))


def _reduce(columns: list[int], cleared: set[int]) -> dict[int, int]:
    """Reduce bitmask columns left to right, in place, skipping the cleared
    ones; maps the pivot (highest set bit) of each nonzero column to it."""
    low_to_col: dict[int, int] = {}
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        while col:
            other = low_to_col.get(col.bit_length() - 1)
            if other is None:
                break
            col ^= columns[other]
        columns[j] = col
        if col:
            low_to_col[col.bit_length() - 1] = j
    return low_to_col


def compute_persistence(filt: Filtration) -> PersistenceDiagram:
    """Standard column reduction over GF(2) with clearing.

    Dimensions are processed top-down; when a dim-k column pairs with a dim-(k-1)
    pivot, the pivot's own column is cleared (it is necessarily a cycle).
    """
    pairs: list[tuple[int, float, float]] = []
    paired: set[int] = set()  # simplices of dim paired as births by dim + 1; vertices have no pivots
    for dim in (2, 1, 0):
        pivots = _reduce([sum(1 << k for k in face) for face in filt.faces[dim]], paired)
        pairs += [(dim - 1, filt.radii[dim - 1][low], filt.radii[dim][j]) for low, j in pivots.items()]
        if dim < 2:  # neither paired as a birth nor a death: an essential class
            dead = paired | set(pivots.values())
            pairs += [(dim, r, math.inf) for j, r in enumerate(filt.radii[dim]) if j not in dead]
        paired = set(pivots)
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
