"""Connected topology-expressive graphs and their oriented incidence matrices.

The edge set is the union of a minimum spanning tree, which connects every
vertex, an epsilon-neighborhood layer, and optional ring edges from
angle-sorted order. Orientation is by increasing vertex index and incidence
entries are exact integers.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import orderstats
from .hodge import FiltrationLaplacians
from .persistence import Filtration, cliques, component_merges, rips_filtration, upper_adjacency
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

    def cliques(self, k: int) -> list[np.ndarray]:
        """The vertex tables of the graph's 1..k-cliques (``persistence.cliques``)."""
        return cliques(upper_adjacency(self.n_vertices, self.edges), k)

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


def build_edges(
    coords: np.ndarray,
    angles: np.ndarray | None = None,
    use_ring: bool = True,
    eps_quantile: float = 0.3,
    ring_vertices: np.ndarray | None = None,
) -> tuple[tuple[Edge, ...], tuple[str, ...]]:
    """Union of MST (which spans all vertices), epsilon-graph and optional
    ring closure.

    Every pair is an edge of the full Rips filtration of the coordinates, in
    (length, i, j) order: the MST is the pairs that ``component_merges``
    finds joining two components, and the epsilon layer the pairs shorter
    than the eps_quantile of their lengths. The ring connects ring_vertices
    (default: all vertices) in angle-sorted order with wrap-around. Duplicate
    edges keep the provenance of the first layer that produced them (mst,
    eps, ring in that priority).
    """
    coords = np.asarray(coords, dtype=float)
    n = len(coords)
    if n < 3:
        raise ValueError("need at least 3 vertices")
    filt = rips_filtration(coords)
    pairs, lengths = filt.cells[1], filt.radii[1]
    every = list(map(tuple, pairs.tolist()))

    layers: list[tuple[str, list[Edge]]] = []
    layers.append(("mst", [every[e] for e, _ in component_merges(pairs, n)]))
    eps = float(orderstats.quantile(lengths, eps_quantile))
    layers.append(("eps", [every[e] for e in np.flatnonzero(lengths < eps).tolist()]))

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
    return tuple(map(tuple, cliques(upper_adjacency(n, edges), 3)[2].tolist()))


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
