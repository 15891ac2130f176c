"""Connected topology-expressive graphs and their oriented incidence matrices.

The edge set is the union of a minimum spanning tree, which connects every
vertex, an epsilon-neighborhood layer, and optional ring edges from
angle-sorted order. Orientation is by increasing vertex index and incidence
entries are exact integers.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .embedding import PointCloud
from .hodge import FiltrationLaplacians, cliques
from .persistence import Filtration
from .serialize import write_csv

Edge = tuple[int, int]


@dataclass(frozen=True)
class TopoGraph:
    coords: np.ndarray  # k x m
    edges: tuple[Edge, ...]  # ordered pairs i < j, sorted
    provenance: tuple[str, ...]  # one of mst | eps | ring, per edge
    triangles: tuple[tuple[int, int, int], ...]
    B1: np.ndarray = field(repr=False)  # |V| x |E|, entries in {0, +-1}
    B2: np.ndarray = field(repr=False)  # |E| x |T|

    @property
    def n_vertices(self) -> int:
        return len(self.coords)

    def adjacency(self) -> dict[int, set[int]]:
        adj: dict[int, set[int]] = {i: set() for i in range(self.n_vertices)}
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n_vertices, dtype=int)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def ring_edges(self) -> tuple[Edge, ...]:
        return tuple(e for e, p in zip(self.edges, self.provenance) if p == "ring")

    def to_json(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        obj = {
            "coords": self.coords.tolist(),
            "edges": [list(e) for e in self.edges],
            "provenance": list(self.provenance),
            "triangles": [list(t) for t in self.triangles],
        }
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")

    def incidence_to_csv(self, b1_path, b2_path) -> None:
        write_csv(b1_path, tuple(f"e{k}" for k in range(len(self.edges))), self.B1)
        write_csv(b2_path, tuple(f"t{k}" for k in range(len(self.triangles))), self.B2)


def _find(parent: list[int], a: int) -> int:
    """Root of a in the union-find forest parent, halving the path on the way."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def _mst_edges(dist: np.ndarray) -> list[Edge]:
    """Kruskal with deterministic tie-break by (length, i, j): each pair in
    turn, kept when it merges two trees."""
    n = len(dist)
    parent = list(range(n))
    out: list[Edge] = []
    for _, a, b in sorted((float(dist[i, j]), i, j) for i, j in itertools.combinations(range(n), 2)):
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
            out.append((a, b))
    return out


def build_edges(
    coords: np.ndarray,
    angles: np.ndarray | None = None,
    use_ring: bool = True,
    eps_quantile: float = 0.3,
    ring_vertices: np.ndarray | None = None,
) -> tuple[tuple[Edge, ...], tuple[str, ...]]:
    """Union of MST (Kruskal over every pair spans all vertices), epsilon-graph
    and optional ring closure.

    The ring connects ring_vertices (default: all vertices) in angle-sorted
    order with wrap-around. Duplicate edges keep the provenance of the first
    layer that produced them (mst, eps, ring in that priority).
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    dist = PointCloud(coords).distances()

    layers: list[tuple[str, list[Edge]]] = []
    layers.append(("mst", _mst_edges(dist)))

    pair_d = dist[np.triu_indices(n, k=1)]
    eps = float(np.quantile(pair_d, eps_quantile))
    layers.append(
        ("eps", [(i, j) for i, j in itertools.combinations(range(n), 2) if dist[i, j] < eps])
    )

    if use_ring and angles is not None:
        ring_idx = np.arange(n) if ring_vertices is None else np.asarray(ring_vertices, dtype=int)
        if len(ring_idx) >= 3:
            order = ring_idx[np.argsort(angles[ring_idx], kind="stable")]
            ring: list[Edge] = []
            for k in range(len(order)):
                a, b = int(order[k]), int(order[(k + 1) % len(order)])
                if a != b:
                    ring.append((min(a, b), max(a, b)))
            layers.append(("ring", ring))

    edge_prov: dict[Edge, str] = {}
    for name, edges in layers:
        for e in edges:
            edge_prov.setdefault(e, name)

    ordered = sorted(edge_prov)
    return tuple(ordered), tuple(edge_prov[e] for e in ordered)


def enumerate_triangles(edges: tuple[Edge, ...]) -> tuple[tuple[int, int, int], ...]:
    """The graph's 3-cliques: every vertex triple whose three edges are
    present, so the graph's complex is its clique complex."""
    n = 1 + max((v for e in edges for v in e), default=-1)
    return tuple(cliques(n, edges, 3))


def incidence_matrices(
    n_vertices: int,
    edges: tuple[Edge, ...],
    triangles: tuple[tuple[int, int, int], ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Oriented integer incidence matrices B1 (|V| x |E|) and B2 (|E| x |T|):
    the boundaries of the graph's complex, a zero-radius Filtration, with
    orientation by increasing vertex index. A triangle whose edge is absent,
    or an edge whose vertex is not below n_vertices, raises ValueError naming
    that simplex. B1 @ B2 = 0 is verified before returning."""
    for i, j in edges:
        if not i < j:
            raise ValueError(f"edge {(i, j)} not in i<j order")
    cells = (np.arange(n_vertices), edges, triangles)
    filt = Filtration(cells=cells, radii=tuple(np.zeros(len(c)) for c in cells))
    # entries are exactly 0 or +-1, so the integer cast is exact
    B1, B2 = (B.astype(int) for B in FiltrationLaplacians(filt).boundaries[1:3])
    if triangles and np.any(B1 @ B2 != 0):
        raise AssertionError("orientation bug: B1 @ B2 != 0")
    return B1, B2


def build_graph(
    coords: np.ndarray,
    angles: np.ndarray | None = None,
    use_ring: bool = True,
    eps_quantile: float = 0.3,
    ring_vertices: np.ndarray | None = None,
) -> TopoGraph:
    edges, prov = build_edges(coords, angles, use_ring, eps_quantile, ring_vertices)
    tris = enumerate_triangles(edges)
    B1, B2 = incidence_matrices(len(coords), edges, tris)
    return TopoGraph(
        coords=np.asarray(coords, dtype=float),
        edges=edges,
        provenance=prov,
        triangles=tris,
        B1=B1,
        B2=B2,
    )
