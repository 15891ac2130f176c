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

from . import orderstats
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
    pairwise distances; weights are rho^(alpha-1), normalized to sum 1.

    Beside the cloud's d2 the bandwidth holds the N(N-1)/2 distances of the
    upper triangle, and the kernel row sums one row block: the block is
    negated and exponentiated in place (-(d2/c) is -d2/c exactly)."""
    cloud = PointCloud.of(cloud)
    n, m = cloud.points.shape
    if n < 2:
        raise ValueError("need at least 2 points")
    h = _bandwidth(cloud.d2)
    if h == 0.0:
        raise DegenerateBandwidthError("10th-percentile bandwidth is zero")
    rho = np.empty(n)
    for rows in cloud.row_blocks():
        kernel = cloud.d2[rows] / (2 * h * h)
        np.negative(kernel, out=kernel)
        np.exp(kernel, out=kernel)
        rho[rows] = kernel.sum(axis=1)
    w = (rho / (n * h**m)) ** (alpha - 1.0)
    return w / w.sum()


def _bandwidth(d2: np.ndarray) -> float:
    """10th percentile of the distances i < j, from one copy of them that the
    quantile may reorder, since a quantile depends only on the values."""
    upper = np.concatenate([d2[i, i + 1 :] for i in range(len(d2))])
    return float(orderstats.quantile(np.sqrt(upper, out=upper), 0.10, overwrite_input=True))


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
    nu = np.concatenate([(cloud.distances(rows) < r_mid).sum(axis=1) for rows in cloud.row_blocks()])
    nu -= 1  # exclude self
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


def _nearest(dist: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the k smallest entries of each row of dist, ordered
    by (distance, index): the first k columns of a stable argsort, ties at the
    k-th distance included, without sorting whole rows. Each row stands
    alone, so dist may be any block of rows."""
    kth = np.partition(dist, k - 1, axis=1)[:, k - 1]
    rows, cols = np.nonzero(dist <= kth[:, None])  # row-major, so cols ascend within a row
    order = np.lexsort((dist[rows, cols], rows))
    starts = np.searchsorted(rows, np.arange(len(dist)))
    return cols[order][starts[:, None] + np.arange(k)]


def knn_graph(cloud: PointCloud | np.ndarray, knn_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized k-nearest-neighbor graph with Euclidean edge lengths, as one
    padded (n, d) table: row i holds i's neighbors and their edge lengths,
    padded with i itself at +inf.

    Each point links to the next knn_k of its row in (distance, index) order
    after the first (normally itself), and each link is kept in both
    directions. Zero-length links are dropped, so a point that coincides with
    one of its nearest neighbors gets no edge to it: in
    ``[[0, 0], [0, 0], [1, 0], [2, 0], [3, 0]]`` at knn_k = 1, point 1's only
    link is to point 0, and point 1 is isolated.
    """
    cloud = PointCloud.of(cloud)
    n, k = cloud.n, min(knn_k + 1, cloud.n)
    nn = np.concatenate([_nearest(cloud.distances(rows), k) for rows in cloud.row_blocks()])[:, 1:]
    src = np.repeat(np.arange(n), nn.shape[1])
    a = np.concatenate([src, nn.ravel()])
    b = np.concatenate([nn.ravel(), src])
    keep = cloud.d2[a, b] > 0
    edges = orderstats.unique(a[keep] * n + b[keep])  # sorted by (a, b), each edge once per direction
    a, b = edges // n, edges % n
    degree = np.bincount(a, minlength=n)
    nbr = np.repeat(np.arange(n)[:, None], max(int(degree.max(initial=0)), 1), axis=1)
    w = np.full(nbr.shape, np.inf)
    slot = np.arange(len(a)) - (np.cumsum(degree) - degree)[a]
    nbr[a, slot] = b
    w[a, slot] = np.sqrt(cloud.d2[a, b])
    return nbr, w


def geodesics(graph: tuple[np.ndarray, np.ndarray], d: np.ndarray) -> np.ndarray:
    """Shortest-path lengths on a ``knn_graph`` table from the vertices where
    d is 0, relaxing d (+inf, or a bound already known) to its fixed point.

    Unreachable vertices stay at +inf (cross-component distances are
    infinite by convention). Each relaxation extends a path sum by one edge,
    as Dijkstra does, so the lengths equal Dijkstra's bit for bit; starting
    from the minimum over earlier sources with a new source set to 0 gives the
    minimum over all of them.
    """
    nbr, w = graph
    while True:
        nxt = np.minimum(d, (d[nbr] + w).min(axis=1))
        if np.array_equal(nxt, d):
            return nxt
        d = nxt


def _gains(
    cand: np.ndarray,
    cand_bins: np.ndarray,
    selected: list[int],
    hist: np.ndarray,
    min_geo: np.ndarray,
    weights: np.ndarray,
    angles: np.ndarray,
    cfg: SweepConfig,
) -> np.ndarray:
    """Composite gain of every candidate given the selected set (see
    ``select_topological``), its terms added in the order written there."""
    lam_theta, lam_D, lam_d, lam_c = cfg.lambdas
    gain = np.zeros(len(cand))
    if lam_theta:
        # the angular term depends on the candidate's bin only
        base_h = renyi_entropy(hist, cfg.alpha_sel)
        bin_h = np.empty(cfg.bins)
        for b in range(cfg.bins):
            with_b = hist.copy()
            with_b[b] += 1
            bin_h[b] = renyi_entropy(with_b, cfg.alpha_sel)
        gain += lam_theta * (bin_h[cand_bins] - base_h)
    if lam_D:
        gain += lam_D * min_geo[cand]
    if lam_d:
        # renyi_entropy(weights[selected + [j]]) as row j of one matrix
        p = np.empty((len(cand), len(selected) + 1))
        p[:, :-1] = weights[selected]
        p[:, -1] = weights[cand]
        dens = np.log(((p / p.sum(axis=1, keepdims=True)) ** cfg.alpha_sel).sum(axis=1)) / (1.0 - cfg.alpha_sel)
        for r in np.flatnonzero((p <= 0).any(axis=1)):  # renyi_entropy drops such weights
            dens[r] = renyi_entropy(p[r], cfg.alpha_sel)
        gain += lam_d * dens
    if lam_c:
        dth = np.abs(angles[selected] - angles[cand][:, None])
        dth = np.minimum(dth, 2 * np.pi - dth)
        gain -= lam_c * (dth < 2 * np.pi / (1.35 * cfg.k_topo)).sum(axis=1)
    return gain


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
    The first pick is the heaviest candidate. Ties break toward the lowest
    index.
    """
    cloud = PointCloud.of(cloud)
    cand = orderstats.unique(np.asarray(candidates, dtype=np.intp))
    if len(cand) < cfg.k_topo:
        raise SelectionInfeasibleError(f"{len(cand)} candidates for {cfg.k_topo} topological picks")
    bin_edges = np.linspace(0, 2 * np.pi, cfg.bins + 1)
    cand_bins = np.minimum(np.searchsorted(bin_edges, angles[cand], side="right") - 1, cfg.bins - 1)
    graph = knn_graph(cloud, cfg.knn_k)

    free = np.ones(len(cand), dtype=bool)
    hist = np.zeros(cfg.bins)
    min_geo = np.full(cloud.n, np.inf)
    selected: list[int] = []
    pick = int(np.argmax(weights[cand]))  # argmax returns the first (lowest) index on ties
    while True:
        j = int(cand[pick])
        selected.append(j)
        free[pick] = False
        hist[cand_bins[pick]] += 1
        if len(selected) == cfg.k_topo:
            return selected
        min_geo[j] = 0.0
        min_geo = geodesics(graph, min_geo)
        gain = _gains(cand, cand_bins, selected, hist, min_geo, weights, angles, cfg)
        gain[~free] = -np.inf
        pick = int(np.argmax(gain))


def select_global(
    cloud: PointCloud | np.ndarray,
    weights: np.ndarray,
    already: list[int],
    k_global: int,
) -> list[int]:
    """Iteratively add argmax of w_j * (1 + d_min(x_j)) with d_min recomputed
    against the growing selected set; ties break toward the lowest index.

    The distances to a selected point are its row of d2, which is its column,
    since d2 is exactly symmetric."""
    selected = list(already)
    out: list[int] = []
    if k_global == 0:
        return out
    cloud = PointCloud.of(cloud)
    d_min = cloud.distances(selected).min(axis=0) if selected else np.full(cloud.n, np.inf)
    for _ in range(k_global):
        score = weights * (1.0 + d_min)
        score[selected + out] = -np.inf
        j = int(score.argmax())  # argmax returns the first (lowest) index on ties
        out.append(j)
        d_min = np.minimum(d_min, cloud.distances(j))
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
