"""Representative-point selection balancing density, loop topology, and
geometric diversity.

A greedy topological stage maximizes a composite gain (angular-histogram
entropy, geodesic spread, density entropy, collision penalty); a global stage
then adds density-weighted farthest points.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .embedding import PointCloud
from .errors import DegenerateBandwidthError, SelectionInfeasibleError
from .persistence import PersistenceDiagram, circular_coordinates

if TYPE_CHECKING:
    from .sweep import SweepConfig


@dataclass(frozen=True)
class RepresentativeSet:
    indices: tuple[int, ...]
    provenance: tuple[str, ...]  # topo | global, per index
    weights: np.ndarray = field(repr=False)  # density weights of the full cloud
    angles: np.ndarray = field(repr=False)
    config: SweepConfig = field(repr=False)
    no_loop: bool = False

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("representative indices must be distinct")

    def coords(self, cloud: PointCloud) -> np.ndarray:
        return cloud.points[list(self.indices)]

    def to_json(self, path: str | Path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        obj = {
            "indices": list(self.indices),
            "provenance": list(self.provenance),
            "angles": [float(self.angles[i]) for i in self.indices],
            "no_loop": self.no_loop,
            "config": {
                "k": self.config.k,
                "r": self.config.r,
                "alpha": self.config.alpha_sel,
                "knn_k": self.config.knn_k,
                "bins": self.config.bins,
                "lambdas": list(self.config.lambdas),
                "seed": self.config.seed,
            },
        }
        Path(path).write_text(json.dumps(obj, indent=2) + "\n")


def density_weights(cloud: PointCloud | np.ndarray, alpha: float) -> np.ndarray:
    """Gaussian-kernel density with bandwidth at the 10th percentile of
    pairwise distances; weights are rho^(alpha-1), normalized to sum 1."""
    cloud = PointCloud.of(cloud)
    n, m = cloud.points.shape
    if n < 2:
        raise ValueError("need at least 2 points")
    d2 = cloud.d2
    h = float(np.quantile(np.sqrt(d2[np.triu_indices(n, k=1)]), 0.10))
    if h == 0.0:
        raise DegenerateBandwidthError("10th-percentile bandwidth is zero")
    rho = np.exp(-d2 / (2 * h * h)).sum(axis=1) / (n * h**m)
    w = rho ** (alpha - 1.0)
    return w / w.sum()


def candidate_set(
    cloud: PointCloud | np.ndarray, diag: PersistenceDiagram
) -> tuple[np.ndarray, bool]:
    """Indices whose neighbor count at the loop mid-scale is moderate.

    Returns (indices, no_loop). With no finite H1 pair the whole index set is
    returned flagged; an empty candidate set raises with a hint to relax the
    thresholds.
    """
    cloud = PointCloud.of(cloud)
    n = cloud.n
    finite = diag.in_dim(1, finite_only=True)
    if not finite:
        return np.arange(n), True
    b, d = max(finite, key=lambda bd: bd[1] - bd[0])
    r_mid = 0.5 * (b + d)
    nu = (cloud.distances() < r_mid).sum(axis=1) - 1  # exclude self
    n_min = int(0.02 * n)
    n_max = max(n_min + 5, int(0.10 * n))
    keep = np.where((nu > n_min) & (nu < n_max))[0]
    if len(keep) == 0:
        raise SelectionInfeasibleError(
            f"no candidate satisfies {n_min} < nu < {n_max}; relax the thresholds"
        )
    return keep, False


def renyi_entropy(p: np.ndarray, alpha: float) -> float:
    """Renyi entropy of order alpha of a (sub)distribution, in nats."""
    p = np.asarray(p, dtype=float)
    total = p.sum()
    if total <= 0:
        return 0.0
    p = p[p > 0] / total
    if abs(alpha - 1.0) < 1e-9:
        return float(-(p * np.log(p)).sum())
    return float(np.log((p**alpha).sum()) / (1.0 - alpha))


def knn_graph(cloud: PointCloud | np.ndarray, knn_k: int) -> csr_matrix:
    """Symmetrized k-nearest-neighbor graph with Euclidean edge lengths.

    Geodesics are shortest paths on it; unreachable vertices are at +inf
    (cross-component distances are infinite by convention).
    """
    cloud = PointCloud.of(cloud)
    n, dist = cloud.n, cloud.distances()
    k = min(knn_k + 1, n)
    nn = np.argsort(dist, axis=1, kind="stable")[:, 1:k]
    rows = np.repeat(np.arange(n), nn.shape[1])
    cols = nn.ravel()
    g = csr_matrix((dist[rows, cols], (rows, cols)), shape=(n, n))
    return g.maximum(g.T)


def select_topological(
    cloud: PointCloud | np.ndarray,
    candidates: np.ndarray,
    weights: np.ndarray,
    angles: np.ndarray,
    cfg: SweepConfig,
) -> list[int]:
    """Greedy selection of floor(k*r) points maximizing the composite gain.

    Gain of candidate j given the current set S:
      lam_theta * (Renyi entropy gain of the angular histogram)
      + lam_D * min geodesic distance to S on the KNN graph
      + lam_d * Renyi entropy of the density weights of S + {j}
      - lam_c * (count of selected angles within dtheta_min of theta_j)
    Ties break toward the lowest index.
    """
    cand = sorted(int(i) for i in candidates)
    if not cand:
        raise SelectionInfeasibleError("empty candidate set")
    lam_theta, lam_D, lam_d, lam_c = cfg.lambdas
    k_topo = cfg.k_topo
    dtheta_min = 2 * np.pi / (1.35 * k_topo)
    bin_edges = np.linspace(0, 2 * np.pi, cfg.bins + 1)

    start = max(cand, key=lambda i: (weights[i], -i))
    selected = [start]

    hist = np.zeros(cfg.bins)
    hist[min(np.searchsorted(bin_edges, angles[start], side="right") - 1, cfg.bins - 1)] += 1

    graph = knn_graph(cloud, cfg.knn_k)
    min_geo = dijkstra(graph, directed=False, indices=start)

    while len(selected) < k_topo:
        base_h = renyi_entropy(hist, cfg.alpha_sel)
        best_j, best_gain = None, -np.inf
        chosen = set(selected)
        for j in cand:
            if j in chosen:
                continue
            gain = 0.0
            if lam_theta:
                b = min(np.searchsorted(bin_edges, angles[j], side="right") - 1, cfg.bins - 1)
                hist[b] += 1
                gain += lam_theta * (renyi_entropy(hist, cfg.alpha_sel) - base_h)
                hist[b] -= 1
            if lam_D:
                gain += lam_D * min_geo[j]
            if lam_d:
                gain += lam_d * renyi_entropy(weights[selected + [j]], cfg.alpha_sel)
            if lam_c:
                dth = np.abs(angles[np.array(selected)] - angles[j])
                dth = np.minimum(dth, 2 * np.pi - dth)
                gain -= lam_c * float((dth < dtheta_min).sum())
            if gain > best_gain:
                best_gain, best_j = gain, j
        selected.append(best_j)
        b = min(np.searchsorted(bin_edges, angles[best_j], side="right") - 1, cfg.bins - 1)
        hist[b] += 1
        min_geo = np.minimum(min_geo, dijkstra(graph, directed=False, indices=best_j))
    return selected


def select_global(
    cloud: PointCloud | np.ndarray,
    weights: np.ndarray,
    already: list[int],
    k_global: int,
) -> list[int]:
    """Iteratively add argmax of w_j * (1 + d_min(x_j)) with d_min recomputed
    against the growing selected set; ties break toward the lowest index."""
    selected = list(already)
    out: list[int] = []
    if k_global == 0:
        return out
    cloud = PointCloud.of(cloud)
    n, dist = cloud.n, cloud.distances()
    d_min = dist[:, selected].min(axis=1) if selected else np.full(n, np.inf)
    for _ in range(k_global):
        score = weights * (1.0 + d_min)
        score[selected + out] = -np.inf
        j = int(score.argmax())  # argmax returns the first (lowest) index on ties
        out.append(j)
        d_min = np.minimum(d_min, dist[:, j])
    return out


def select_representatives(
    cloud: PointCloud | np.ndarray,
    diag: PersistenceDiagram,
    cfg: SweepConfig,
) -> RepresentativeSet:
    """Full two-stage selection: topological candidates then global coverage,
    with the selection settings of cfg."""
    cloud = PointCloud.of(cloud)
    weights = density_weights(cloud, cfg.alpha_sel)
    cand, no_loop = candidate_set(cloud, diag)
    angles = circular_coordinates(cloud.points, cand)
    topo = select_topological(cloud, cand, weights, angles, cfg)
    glob = select_global(cloud, weights, topo, cfg.k - cfg.k_topo)
    indices = tuple(topo + glob)
    prov = tuple(["topo"] * len(topo) + ["global"] * len(glob))
    return RepresentativeSet(
        indices=indices,
        provenance=prov,
        weights=weights,
        angles=angles,
        config=cfg,
        no_loop=no_loop,
    )
