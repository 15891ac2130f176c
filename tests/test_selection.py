import numpy as np
import pytest

from topospec.errors import DegenerateBandwidthError, SelectionInfeasibleError
from topospec.persistence import (
    PersistenceDiagram,
    circular_coordinates,
    compute_persistence,
    rips_filtration,
)
from topospec.selection import (
    candidate_set,
    density_weights,
    renyi_entropy,
    select_global,
    select_representatives,
    select_topological,
)
from topospec.sweep import SweepConfig


def ring_cloud(n=200, radius=1.0, seed=0, noise=0.02):
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0, 2 * np.pi, n)
    pts = radius * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return pts + rng.normal(scale=noise, size=pts.shape)


def test_density_weights_symmetric_clusters():
    rng = np.random.default_rng(1)
    a = rng.normal(scale=0.1, size=(50, 2)) + np.array([5.0, 0.0])
    b = rng.normal(scale=0.1, size=(50, 2)) - np.array([5.0, 0.0])
    # mirror the clusters exactly so the symmetry is exact
    pts = np.vstack([a, -a])
    w = density_weights(pts, alpha=2.0)
    assert w[:50].sum() == pytest.approx(w[50:].sum(), rel=1e-9)


def test_density_alpha_one_limit_uniform():
    # exponent alpha-1 = 0 flattens the weights regardless of density
    pts = np.vstack([np.zeros((30, 2)) + np.random.default_rng(0).normal(scale=0.01, size=(30, 2)),
                     np.random.default_rng(1).uniform(-3, 3, size=(10, 2))])
    cfg_alpha = 1.0 + 1e-12
    w = density_weights(pts, alpha=cfg_alpha)
    assert np.allclose(w, 1.0 / len(pts), atol=1e-6)


def test_density_blob_dominates():
    rng = np.random.default_rng(2)
    blob = rng.normal(scale=0.05, size=(90, 2))
    spread = rng.uniform(-5, 5, size=(10, 2))
    pts = np.vstack([blob, spread])
    # direct KDE oracle
    d2 = ((pts[:, None] - pts[None]) ** 2).sum(-1)
    h = np.quantile(np.sqrt(d2[np.triu_indices(100, 1)]), 0.10)
    rho = np.exp(-d2 / (2 * h * h)).sum(1) / (100 * h**2)
    w_oracle = rho ** (2.0 - 1.0)
    w_oracle /= w_oracle.sum()
    w = density_weights(pts, alpha=2.0)
    assert np.allclose(w, w_oracle, atol=1e-12)
    assert w[:90].sum() > 0.9


def test_density_identical_points_raise():
    with pytest.raises(DegenerateBandwidthError):
        density_weights(np.zeros((10, 2)), alpha=2.0)


def test_candidate_no_loop_returns_all():
    pts = np.random.default_rng(0).uniform(0, 1, size=(40, 2))
    empty = PersistenceDiagram(pairs=())
    idx, no_loop = candidate_set(pts, empty)
    assert no_loop and len(idx) == 40


def test_candidate_saturation_errors():
    # everything within r_mid of everything: nu_i = N-1 >= N_max
    pts = np.random.default_rng(1).normal(scale=0.01, size=(80, 2))
    diag = PersistenceDiagram(pairs=((1, 0.5, 3.0),))
    with pytest.raises(SelectionInfeasibleError):
        candidate_set(pts, diag)


def annulus_cloud(n=200, hole=0.25, outer=1.0, seed=0):
    # fat loop with a small hole: the VR death radius stays a local scale,
    # which is the regime the mid-scale neighbor filter presumes
    rng = np.random.default_rng(seed)
    r = np.sqrt(rng.uniform(hole**2, outer**2, n))
    th = rng.uniform(0, 2 * np.pi, n)
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=1)


def test_candidate_excludes_far_outliers():
    ann = annulus_cloud(200)
    outliers = np.array([[60.0, 0.0], [0.0, 60.0], [-60.0, 0.0], [0.0, -60.0], [45.0, 45.0]])
    pts = np.vstack([ann, outliers])
    from topospec.sweep import _farthest_point_indices

    fps = ann[_farthest_point_indices(ann, 64, 0)]
    diag = compute_persistence(rips_filtration(fps, eps_max=2.2))
    idx, no_loop = candidate_set(pts, diag)
    assert not no_loop
    assert len(idx) > 0
    assert all(i < 200 for i in idx)
    # direct neighbor counting: every outlier has nu <= 4 = N_min
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    best = max(diag.in_dim(1, True), key=lambda bd: bd[1] - bd[0])
    r_mid = 0.5 * (best[0] + best[1])
    nu = (d < r_mid).sum(1) - 1
    assert all(nu[i] <= int(0.02 * len(pts)) for i in range(200, 205))


def test_renyi_entropy_limits():
    p = np.array([0.25, 0.25, 0.25, 0.25])
    assert renyi_entropy(p, 2.0) == pytest.approx(np.log(4))
    assert renyi_entropy(p, 1.0) == pytest.approx(np.log(4))
    assert renyi_entropy(np.array([1.0, 0.0]), 2.0) == pytest.approx(0.0)


def test_topo_reduces_to_geodesic_fps():
    pts = ring_cloud(80, seed=3)
    cfg = SweepConfig(k=6, r=0.9, lambdas=(0.0, 1.0, 0.0, 0.0))
    weights = np.full(80, 1.0 / 80)
    angles = circular_coordinates(pts)
    cand = np.arange(80)
    got = select_topological(pts, cand, weights, angles, cfg)

    # direct farthest-point implementation in the geodesic metric
    from scipy.sparse.csgraph import dijkstra

    from topospec.selection import knn_graph

    graph = knn_graph(pts, cfg.knn_k)
    start = got[0]
    fps = [start]
    d_min = dijkstra(graph, directed=False, indices=[start])[0]
    while len(fps) < cfg.k_topo:
        best = int(np.nanargmax(np.where(np.isin(np.arange(80), fps), -np.inf, d_min)))
        fps.append(best)
        d_min = np.minimum(d_min, dijkstra(graph, directed=False, indices=[best])[0])
    assert got == fps


def test_topo_ring_angle_separation():
    pts = ring_cloud(150, seed=4)
    cfg = SweepConfig(k=6, r=0.7, lambdas=(1.0, 1.0, 0.5, 2.0))  # k_topo = 4
    weights = density_weights(pts, cfg.alpha_sel)
    angles = circular_coordinates(pts)
    got = select_topological(pts, np.arange(150), weights, angles, cfg)
    k_topo = cfg.k_topo
    assert len(got) == k_topo == 4
    sel_angles = angles[got]
    dtheta_min = 2 * np.pi / (1.35 * k_topo)
    for i in range(k_topo):
        for j in range(i + 1, k_topo):
            d = abs(sel_angles[i] - sel_angles[j])
            d = min(d, 2 * np.pi - d)
            assert d >= dtheta_min * 0.999


def test_topo_k1_returns_max_weight():
    pts = ring_cloud(60, seed=5)
    cfg = SweepConfig(k=2, r=0.5)  # k_topo = 1
    weights = density_weights(pts, 2.0)
    angles = circular_coordinates(pts)
    got = select_topological(pts, np.arange(60), weights, angles, cfg)
    assert got == [int(np.argmax(weights))]


def test_global_zero_count():
    pts = ring_cloud(30, seed=6)
    assert select_global(pts, np.full(30, 1 / 30), [0], 0) == []


def test_global_uniform_weights_is_fps_like():
    pts = ring_cloud(50, seed=7)
    w = np.full(50, 1 / 50)
    got = select_global(pts, w, [0], 3)
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    expect = []
    sel = [0]
    d_min = d[:, 0].copy()
    for _ in range(3):
        score = w * (1 + d_min)
        score[sel + expect] = -np.inf
        j = int(score.argmax())
        expect.append(j)
        d_min = np.minimum(d_min, d[:, j])
    assert got == expect


def test_global_two_clusters_alternate():
    rng = np.random.default_rng(8)
    a = rng.normal(scale=0.1, size=(25, 2)) + [4, 0]
    b = rng.normal(scale=0.1, size=(25, 2)) - [4, 0]
    pts = np.vstack([a, b])
    w = density_weights(pts, 2.0)
    first = select_global(pts, w, [], 1)
    second = select_global(pts, w, first, 1)
    in_a = lambda i: i < 25
    assert in_a(first[0]) != in_a(second[0])


def test_full_selection_size_and_determinism(lorenz_cloud):
    from topospec.sweep import _farthest_point_indices

    pts = lorenz_cloud.points
    fps = pts[_farthest_point_indices(pts, 64, 0)]
    diam = float(np.sqrt(((fps[:, None] - fps[None]) ** 2).sum(-1)).max())
    diag = compute_persistence(rips_filtration(fps, eps_max=diam))
    cfg = SweepConfig(k=7)
    a = select_representatives(lorenz_cloud, diag, cfg)
    b = select_representatives(lorenz_cloud, diag, cfg)
    assert a.indices == b.indices
    assert len(a.indices) == 7
    assert len(set(a.indices)) == 7
    assert a.provenance.count("topo") == cfg.k_topo


def test_monotone_coverage_bound(lorenz_cloud):
    # the global stage never collapses the spread below half the topo-only value
    from topospec.sweep import _farthest_point_indices

    pts = lorenz_cloud.points
    fps = pts[_farthest_point_indices(pts, 64, 0)]
    diam = float(np.sqrt(((fps[:, None] - fps[None]) ** 2).sum(-1)).max())
    diag = compute_persistence(rips_filtration(fps, eps_max=diam))
    cfg = SweepConfig(k=7)
    reps = select_representatives(lorenz_cloud, diag, cfg)

    def min_pairwise(idx):
        sub = pts[list(idx)]
        d = np.sqrt(((sub[:, None] - sub[None]) ** 2).sum(-1))
        return d[np.triu_indices(len(sub), 1)].min()

    topo_only = reps.indices[: cfg.k_topo]
    assert min_pairwise(reps.indices) >= min_pairwise(topo_only) / 2 - 1e-12


def test_representative_json(tmp_path, lorenz_cloud):
    from topospec.sweep import _farthest_point_indices

    pts = lorenz_cloud.points
    fps = pts[_farthest_point_indices(pts, 64, 0)]
    diam = float(np.sqrt(((fps[:, None] - fps[None]) ** 2).sum(-1)).max())
    diag = compute_persistence(rips_filtration(fps, eps_max=diam))
    reps = select_representatives(lorenz_cloud, diag, SweepConfig(k=7))
    reps.to_json(tmp_path / "reps.json")
    import json

    obj = json.loads((tmp_path / "reps.json").read_text())
    assert len(obj["indices"]) == 7
    assert obj["config"]["k"] == 7
