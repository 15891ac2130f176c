"""Vietoris-Rips filtrations and persistent homology in degrees 0 and 1.

A filtration is one numpy table per dimension. Coefficients are the
two-element field. Degree 0 comes from union-find over the edges in table
order; degree 1 from the reduction of the edge coboundaries, youngest edge
first, over bitmasks of the triangle rows, with clearing and apparent pairs
(Bauer, "Ripser", J. Appl. Comput. Topol. 2021). By the duality of de Silva,
Morozov and Vejdemo-Johansson ("Dualities in persistent (co)homology", 2011)
its pairs are those of the boundary reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import orderstats
from .embedding import PointCloud
from .errors import DegenerateGeometryError
from .serialize import write_csv


@dataclass(frozen=True, eq=False)
class Filtration:
    """A simplicial complex of any dimension as one table per dimension, so
    the complex at any radius is a prefix of each: ``cells[d]`` is an
    (n_d, d + 1) intp array of the sorted vertices of the d-simplices and
    ``radii[d]`` a float array of their appearance radii, both in (radius,
    lexicographic vertices) order; that order is total, so the pairing
    computed from it is deterministic. Any nested sequences are accepted and
    converted. A plain complex (a graph, a clique complex) is a filtration
    whose radii are all 0.

    ``faces[d][j, i]`` is the row in ``cells[d - 1]`` of face i of
    ``cells[d][j]``, the face with vertex i dropped: the package's one face
    rule, which ``hodge.FiltrationLaplacians`` signs by (-1)^i. A table out
    of radius order, a missing face or a face that appears after its simplex
    raises ``ValueError``."""

    cells: tuple[np.ndarray, ...]
    radii: tuple[np.ndarray, ...]
    faces: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        cells = tuple(np.asarray(c, dtype=np.intp).reshape(-1, d + 1) for d, c in enumerate(self.cells))
        radii = tuple(np.asarray(r, dtype=float) for r in self.radii)
        for d, r in enumerate(radii):
            if (r[1:] < r[:-1]).any():
                raise ValueError(f"{d}-simplices are not in radius order")
        n = 1 + max((int(c.max(initial=-1)) for c in cells), default=-1)
        if n ** max(len(cells) - 1, 0) >= 2**63:
            raise ValueError("too many vertices to code the faces in 64 bits")
        faces = [np.zeros((len(cells[0]), 0), dtype=np.intp)]
        for d in range(1, len(cells)):
            # a (d-1)-simplex's row is found by its code, its vertices as base-n digits
            weights = n ** np.arange(d - 1, -1, -1, dtype=np.intp)
            codes = cells[d - 1] @ weights
            order = np.argsort(codes, kind="stable")
            # a -1 past the end of the sorted codes matches no face
            keys, rows = np.append(codes[order], -1), np.append(order, -1)
            table = np.empty_like(cells[d])
            found = np.ones(len(table), dtype=bool)
            for i in range(d + 1):
                want = np.delete(cells[d], i, axis=1) @ weights
                at = np.searchsorted(keys[:-1], want)
                found &= keys[at] == want
                table[:, i] = rows[at]
            late = np.zeros_like(found)
            late[found] = radii[d - 1][table[found]].max(axis=1) > radii[d][found] + 1e-12
            bad = np.flatnonzero(~found | late)
            if len(bad):
                verts = tuple(cells[d][bad[0]].tolist())
                raise ValueError(f"a face of {verts} " + ("appears after it" if found[bad[0]] else "is missing"))
            faces.append(table)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "faces", tuple(faces))

    @property
    def simplices(self) -> tuple[tuple[tuple[int, ...], float], ...]:
        """Every simplex as (vertices, radius) in the global (radius,
        dimension, vertices) order."""
        every = (
            sr for cells, radii in zip(self.cells, self.radii) for sr in zip(map(tuple, cells.tolist()), radii.tolist())
        )
        return tuple(sorted(every, key=lambda sr: (sr[1], len(sr[0]), sr[0])))

    def critical_radii(self) -> np.ndarray:
        return orderstats.unique(np.concatenate(self.radii))


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


def upper_adjacency(n_vertices: int, edges) -> np.ndarray:
    """The strict upper-triangular boolean adjacency of a graph: True at each
    edge (i, j) with i < j; any other pair is ignored."""
    near = np.zeros((n_vertices, n_vertices), dtype=bool)
    near[tuple(np.asarray(edges, dtype=np.intp).reshape(-1, 2).T)] = True
    return np.triu(near, 1)


def cliques(near: np.ndarray, k: int) -> list[np.ndarray]:
    """The vertex tables of the 1..k-cliques of the graph with strict
    upper-triangular adjacency ``near``: table s - 1 holds the s-cliques as
    ascending intp rows in lexicographic order. Each (s-1)-clique is extended
    by the vertices after it adjacent to all its members, the AND of their
    rows of ``near`` taken one member at a time."""
    if k < 1:
        raise ValueError(f"clique size {k} is below 1")
    cols = [np.arange(len(near), dtype=np.intp)]  # the current table, one array per member
    tables = [cols[0][:, None]]
    for _ in range(k - 1):
        common = near[cols[0]]
        for member in cols[1:]:
            common &= near[member]
        rows, v = np.nonzero(common)
        cols = [c[rows] for c in cols] + [v]
        tables.append(np.stack(cols, axis=1))
    return tables


def component_merges(edges: np.ndarray, n_vertices: int) -> list[tuple[int, int]]:
    """Union-find over an (m, 2) table of vertex rows in row order: each row
    that joins two components, with the younger (larger) of their roots,
    which becomes a child of the elder (the elder rule). Every root is its
    component's smallest row; the rows not returned close cycles."""
    root = list(range(n_vertices))
    merges = []
    for e, (u, v) in enumerate(np.asarray(edges).tolist()):
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            young = max(u, v)
            root[young] = min(u, v)
            merges.append((e, young))
    return merges


def rips_filtration(cloud: PointCloud | np.ndarray, eps_max: float | None = None) -> Filtration:
    """Vertices at radius 0, edges at their length, triangles at their longest
    edge (the 2-skeleton, all that degree-1 persistence needs), up to eps_max.

    The default eps_max is just past the diameter, so the full complex is
    built; the 1e-12 floor keeps a single-point cloud valid. The readers of
    complexes and Laplacians above the enclosing radius (the gap-persistence
    bound, validate-fivepoint, scripts/find_fivepoint.py) use this default; a
    reader of pairs alone takes ``rips_diagram``.

    The edges i < j within eps_max and the triangles i < j < k among them
    come out of ``cliques`` in lexicographic order; a stable sort by radius
    then keeps lexicographic order within a radius.
    """
    cloud = PointCloud.of(cloud)
    if eps_max is None:
        eps_max = max(cloud.diameter() * 1.0001, 1e-12)
    if eps_max <= 0:
        raise ValueError("eps_max must be positive")
    dist = cloud.distances()
    _, edges, tris = cliques(np.triu(dist <= eps_max, 1), 3)
    (i, j), (a, b, c) = edges.T, tris.T
    tables = (
        (np.arange(cloud.n), np.zeros(cloud.n)),
        (edges, dist[i, j]),
        (tris, np.maximum(np.maximum(dist[a, b], dist[a, c]), dist[b, c])),
    )
    cells, radii = [], []
    for verts, r in tables:
        order = np.argsort(r, kind="stable")
        cells.append(verts[order])
        radii.append(r[order])
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
    # sqrt is monotone and correctly rounded: the root of d2's min-max is the distances' one
    eps_max = max(float(np.sqrt(cloud.d2.max(axis=1).min())), 1e-12)
    filt = rips_filtration(cloud, eps_max=eps_max)
    if sizes is not None:
        sizes["simplices"] = sum(map(len, filt.cells))
    pairs = compute_persistence(filt).pairs
    ell = np.sqrt(cloud.d2[np.triu_indices(cloud.n, 1)])
    longer = tuple((1, x, x) for x in ell[ell > eps_max].tolist())
    return PersistenceDiagram(pairs=tuple(sorted(pairs + longer)))


def compute_persistence(filt: Filtration) -> PersistenceDiagram:
    """The degree-0 and degree-1 pairs of a filtration, zero-length ones
    included, and its essential classes in those degrees; dimensions above 2
    are ignored.

    Degree 0: ``component_merges`` over the edges in table order. An edge
    that joins two components kills the younger root, the one with the later
    vertex row (the elder rule); every root is its component's oldest vertex.

    Degree 1: the coboundary column of each edge lists its triangles; its
    pivot is the oldest. Columns are reduced youngest edge first, and the
    edges that killed a component are skipped (clearing: their columns
    reduce to zero). An edge whose oldest triangle has that edge as its
    youngest face is an apparent pair: no younger column can hold that
    triangle, so the pair is read off the tables, and the edge's column is
    built only when a later column meets its pivot. An edge left unpaired is
    an essential class.
    """
    radii = [r.tolist() for r in filt.radii[:3]]
    # each edge as the rows of its two vertices
    edges = filt.faces[1] if len(filt.cells) > 1 else np.zeros((0, 2), dtype=np.intp)
    merges = dict(component_merges(edges, len(radii[0])))  # edge row -> the younger root it kills
    pairs = [(0, radii[0][young], radii[1][e]) for e, young in merges.items()]
    dead = set(merges.values())
    pairs += [(0, r, math.inf) for v, r in enumerate(radii[0]) if v not in dead]
    open_edges = [e for e in range(len(edges)) if e not in merges]  # edges that joined no two components

    paired: dict[int, int] = {}  # triangle row -> the edge row whose column has it as pivot
    if len(filt.cells) > 2 and len(filt.cells[2]):
        tri_faces = filt.faces[2]
        n_tri = len(tri_faces)
        # coboundaries in CSR form: edge e's triangles, oldest first, are cob[start[e]:start[e + 1]]
        flat = tri_faces.ravel()
        cob = np.argsort(flat, kind="stable") // 3
        start = np.concatenate(([0], np.cumsum(np.bincount(flat, minlength=len(edges)))))
        oldest = cob[np.minimum(start[:-1], len(cob) - 1)]
        apparent = (start[1:] > start[:-1]) & (tri_faces.max(axis=1)[oldest] == np.arange(len(edges)))
        start = start.tolist()
        paired = dict(zip(oldest[apparent].tolist(), np.flatnonzero(apparent).tolist()))
        # triangle t is bit n_tri - 1 - t of a column, so the pivot is the highest bit
        bits = (n_tri - 1 - cob).tolist()
        columns: dict[int, int] = {}

        def column(e: int) -> int:
            if e not in columns:
                columns[e] = sum(1 << b for b in bits[start[e] : start[e + 1]])
            return columns[e]

        is_apparent = apparent.tolist()
        for e in reversed(open_edges):
            if is_apparent[e]:
                continue
            col = column(e)
            while col:
                t = n_tri - col.bit_length()
                other = paired.get(t)
                if other is None:
                    paired[t] = e
                    columns[e] = col
                    break
                col ^= column(other)
        pairs += [(1, radii[1][e], radii[2][t]) for t, e in paired.items()]
    born = set(paired.values())
    pairs += [(1, radii[1][e], math.inf) for e in open_edges if e not in born]
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
