import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from topospec import embedding, selection
from topospec.embedding import PointCloud
from topospec.errors import DegenerateBandwidthError, SelectionInfeasibleError
from topospec.persistence import (
    PersistenceDiagram,
    circular_coordinates,
    compute_persistence,
    rips_filtration,
)
from topospec.selection import (
    _nearest,
    candidate_set,
    density_weights,
    geodesics,
    knn_graph,
    renyi_entropy,
    select_global,
    select_representatives,
    select_topological,
)
from topospec.sweep import SweepConfig
from helpers import (
    candidate_set_oracle,
    density_weights_oracle,
    knn_graph_oracle,
    select_global_oracle,
    sq_distances_broadcast,
)


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
    graph = ref_knn_graph(pts, cfg.knn_k)
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
    cfg = SweepConfig(k=3, r=0.5)  # k_topo = 1
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


def test_topo_needs_as_many_candidates_as_picks():
    pts = ring_cloud(40, seed=9)
    cfg = SweepConfig(k=7)  # k_topo = 4
    with pytest.raises(SelectionInfeasibleError, match="3 candidates for 4"):
        select_topological(pts, np.array([5, 1, 9]), np.full(40, 1 / 40), circular_coordinates(pts), cfg)


# Reference implementations: the kNN graph, the Dijkstra pass and the greedy
# loop of the selection stage as they were built on scipy.sparse and a
# per-candidate loop. The numpy table, the relaxation and the gain arrays
# must reproduce them bit for bit.


def ref_knn_graph(pts, knn_k):
    cloud = PointCloud.of(pts)
    n, dist = cloud.n, cloud.distances()
    k = min(knn_k + 1, n)
    nn = np.argsort(dist, axis=1, kind="stable")[:, 1:k]
    rows = np.repeat(np.arange(n), nn.shape[1])
    cols = nn.ravel()
    g = csr_matrix((dist[rows, cols], (rows, cols)), shape=(n, n))
    return g.maximum(g.T)


def ref_select_topological(pts, candidates, weights, angles, cfg, gains=None):
    """The per-candidate loop; with ``gains`` a list, each round's gain array
    over the sorted candidates (-inf where already chosen) is appended."""
    cand = sorted(int(i) for i in candidates)
    lam_theta, lam_D, lam_d, lam_c = cfg.lambdas
    k_topo = cfg.k_topo
    dtheta_min = 2 * np.pi / (1.35 * k_topo)
    bin_edges = np.linspace(0, 2 * np.pi, cfg.bins + 1)

    start = max(cand, key=lambda i: (weights[i], -i))
    selected = [start]

    hist = np.zeros(cfg.bins)
    hist[min(np.searchsorted(bin_edges, angles[start], side="right") - 1, cfg.bins - 1)] += 1

    graph = ref_knn_graph(pts, cfg.knn_k)
    min_geo = dijkstra(graph, directed=False, indices=start)

    while len(selected) < k_topo:
        base_h = renyi_entropy(hist, cfg.alpha_sel)
        best_j, best_gain = None, -np.inf
        chosen = set(selected)
        round_gains = np.full(len(cand), -np.inf)
        for pos, j in enumerate(cand):
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
            round_gains[pos] = gain
            if gain > best_gain:
                best_gain, best_j = gain, j
        if gains is not None:
            gains.append(round_gains)
        selected.append(best_j)
        b = min(np.searchsorted(bin_edges, angles[best_j], side="right") - 1, cfg.bins - 1)
        hist[b] += 1
        min_geo = np.minimum(min_geo, dijkstra(graph, directed=False, indices=best_j))
    return selected


CLOUD_KINDS = ("uniform", "grid", "duplicates")


def _oracle_cloud(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 40))
    if kind == "grid":  # integer coordinates: tied distances and repeated points
        return rng.integers(0, 4, size=(n, 2)).astype(float)
    pts = rng.uniform(0, 1, size=(n, 3))
    if kind == "duplicates":  # exact copies of some points, shuffled in
        pts = np.vstack([pts, pts[rng.integers(0, n, n // 3 + 1)]])[rng.permutation(n + n // 3 + 1)]
    return pts


def _greedy_inputs(kind: str, seed: int, zero_weights: bool = False):
    """A cloud, candidates, weights with ties, angles and a selection config."""
    rng = np.random.default_rng(seed + 1)
    pts = _oracle_cloud(kind, seed)
    n = len(pts)
    k = int(rng.integers(2, min(n, 20) + 1))
    k_topo = int(rng.integers(1, k))  # in [1, k - 1]
    k = max(k, 3)  # a config's least k; the greedy stage reads only k_topo
    cfg = SweepConfig(
        k=k,
        r=(k_topo + 0.5) / k,
        alpha_sel=float(rng.choice([1.5, 2.0, 3.7])),
        knn_k=int(rng.integers(1, 7)),
        bins=int(rng.integers(4, 20)),
        lambdas=tuple(float(x) for x in rng.choice([0.0, 0.5, 1.0, 2.0], 4)),
    )
    cand = rng.choice(n, size=int(rng.integers(min(cfg.k_topo, n), n + 1)), replace=False)
    weights = rng.integers(0 if zero_weights else 1, 4, n).astype(float)
    weights[cand[0]] = max(weights[cand[0]], 1.0)
    weights /= weights.sum()
    angles = rng.uniform(0, 2 * np.pi, n)
    return pts, cand, weights, angles, cfg


def _edges(graph) -> list:
    """Sorted (i, j, length) of a neighbour table, or of the sparse reference
    (whose explicit zeros would show as length 0)."""
    if isinstance(graph, csr_matrix):
        coo = graph.tocoo()
        return sorted(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))
    nbr, w = graph
    rows, slots = np.nonzero(np.isfinite(w))
    return sorted(zip(rows.tolist(), nbr[rows, slots].tolist(), w[rows, slots].tolist()))


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_neighbour_order_is_the_stable_argsort(kind, seed):
    dist = PointCloud(_oracle_cloud(kind, seed)).distances()
    n = len(dist)
    for k in sorted({1, 2, min(4, n), min(11, n), n}):
        assert np.array_equal(_nearest(dist, k), np.argsort(dist, axis=1, kind="stable")[:, :k])


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@given(seed=st.integers(0, 10_000), knn_k=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_knn_table_is_the_sparse_reference_graph(kind, seed, knn_k):
    pts = _oracle_cloud(kind, seed)
    nbr, w = knn_graph(pts, knn_k)
    assert _edges((nbr, w)) == _edges(ref_knn_graph(pts, knn_k))
    pad = np.isinf(w)
    assert np.array_equal(nbr[pad], np.nonzero(pad)[0])


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@given(seed=st.integers(0, 10_000), knn_k=st.integers(1, 8))
@settings(max_examples=40, deadline=None)
def test_geodesics_are_the_dijkstra_lengths(kind, seed, knn_k):
    pts = _oracle_cloud(kind, seed)
    n = len(pts)
    graph, ref = knn_graph(pts, knn_k), ref_knn_graph(pts, knn_k)
    # one source at a time, then warm-started over a sequence of sources
    min_geo, ref_min = np.full(n, np.inf), np.full(n, np.inf)
    for s in np.random.default_rng(seed).permutation(n)[:6]:
        d = np.full(n, np.inf)
        d[s] = 0.0
        expect = dijkstra(ref, directed=False, indices=s)
        assert np.array_equal(geodesics(graph, d), expect)
        min_geo[s] = 0.0
        min_geo = geodesics(graph, min_geo)
        ref_min = np.minimum(ref_min, expect)
        assert np.array_equal(min_geo, ref_min)


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@given(seed=st.integers(0, 10_000), zero_weights=st.booleans())
@settings(max_examples=40, deadline=None)
def test_greedy_gain_arrays_match_the_loop(kind, seed, zero_weights):
    pts, cand, weights, angles, cfg = _greedy_inputs(kind, seed, zero_weights)
    got = []

    def recording(*args):
        gain = real_gains(*args)
        got.append(gain.copy())
        return gain

    real_gains = selection._gains
    with pytest.MonkeyPatch.context() as m:
        m.setattr(selection, "_gains", recording)
        picks = select_topological(pts, cand, weights, angles, cfg)
    expect = []
    ref_select_topological(pts, cand, weights, angles, cfg, gains=expect)
    assert len(got) == len(expect) == cfg.k_topo - 1
    order = np.sort(cand)
    for r, (g, e) in enumerate(zip(got, expect)):
        g[np.isin(order, picks[: r + 1])] = -np.inf
        assert np.array_equal(g, e)


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@given(seed=st.integers(0, 10_000), zero_weights=st.booleans())
@settings(max_examples=40, deadline=None)
def test_greedy_picks_match_the_loop(kind, seed, zero_weights):
    pts, cand, weights, angles, cfg = _greedy_inputs(kind, seed, zero_weights)
    assert select_topological(pts, cand, weights, angles, cfg) == ref_select_topological(
        pts, cand, weights, angles, cfg
    )


@pytest.mark.parametrize("kind", ("uniform", "duplicates"))
@given(seed=st.integers(0, 10_000), alpha=st.sampled_from([1.5, 2.0]))
@settings(max_examples=30, deadline=None)
def test_density_weights_match_the_reference(kind, seed, alpha):
    cloud = PointCloud(_oracle_cloud(kind, seed))
    upper = np.triu_indices(cloud.n, k=1)
    # the bandwidth from the rows' upper parts is the one from the triangle's indices
    assert selection._bandwidth(cloud.d2) == np.quantile(np.sqrt(cloud.d2[upper]), 0.10)
    try:
        expect = density_weights_oracle(cloud, alpha)
    except DegenerateBandwidthError:
        # enough copies put the 10th-percentile distance at zero: both refuse
        with pytest.raises(DegenerateBandwidthError):
            density_weights(cloud, alpha)
        return
    assert np.array_equal(density_weights(cloud, alpha), expect)


def test_duplicate_point_is_isolated_in_the_knn_graph():
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    nbr, w = knn_graph(pts, 1)
    assert np.isinf(w[1]).all()
    assert _edges((nbr, w)) == _edges(ref_knn_graph(pts, 1))
    d = np.full(5, np.inf)
    d[0] = 0.0
    got = geodesics((nbr, w), d)
    assert np.array_equal(got, [0.0, np.inf, 1.0, 2.0, 3.0])
    assert np.array_equal(got, dijkstra(ref_knn_graph(pts, 1), directed=False, indices=0))


def test_default_clouds_keep_their_topological_picks():
    from topospec.sweep import _pipeline_stage

    cfg = SweepConfig()
    for rho in (36.0, 40.0):
        cloud = _pipeline_stage(rho, cfg, until="cloud").cloud
        diag = _pipeline_stage(rho, cfg, until="persistence").diagram
        weights = density_weights(cloud, cfg.alpha_sel)
        cand, _ = candidate_set(cloud, diag)
        angles = circular_coordinates(cloud.points, cand)
        got = select_topological(cloud, cand, weights, angles, cfg)
        assert got == ref_select_topological(cloud, cand, weights, angles, cfg)


def _block_cloud(seed: int, n: int) -> np.ndarray:
    """n points, on a small grid (tied distances) or uniform, with copies of
    some of them shuffled in (zero-length links, ties at the k-th distance)."""
    rng = np.random.default_rng(seed)
    pts = rng.integers(0, 3, size=(n, 2)).astype(float) if seed % 2 else rng.uniform(0, 1, size=(n, 3))
    pts = np.vstack([pts, pts[rng.integers(0, n, int(rng.integers(0, n // 2 + 2)))]])
    return pts[rng.permutation(len(pts))]


@pytest.mark.parametrize("block", (1, 2, 3))
@given(seed=st.integers(0, 10_000), n=st.integers(2, 8), knn_k=st.integers(1, 5), alpha=st.sampled_from([1.5, 2.0]))
@settings(max_examples=40, deadline=None)
def test_row_block_passes_match_the_full_matrix_oracles(block, seed, n, knn_k, alpha):
    pts = _block_cloud(seed, n)
    rng = np.random.default_rng(seed + 1)
    upper = np.sqrt(sq_distances_broadcast(pts, pts)[np.triu_indices(len(pts), 1)])
    r = float(rng.choice(upper))  # the loop's mid-scale on a distance: ties at the cut
    diag = PersistenceDiagram(pairs=((1, 0.0, 2 * r),))
    weights = rng.uniform(0.5, 1.5, len(pts))
    already = [int(i) for i in rng.choice(len(pts), int(rng.integers(0, 3)), replace=False)]
    k_global = int(rng.integers(0, len(pts) - len(already) + 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "BLOCK_ROWS", block)
        cloud = PointCloud(pts)
        try:
            expect = density_weights_oracle(cloud, alpha)
        except DegenerateBandwidthError:
            with pytest.raises(DegenerateBandwidthError):
                density_weights(cloud, alpha)
        else:
            assert np.array_equal(density_weights(cloud, alpha).view(np.uint64), expect.view(np.uint64))
        try:
            expect = candidate_set_oracle(cloud, diag)
        except SelectionInfeasibleError:
            with pytest.raises(SelectionInfeasibleError):
                candidate_set(cloud, diag)
        else:
            got = candidate_set(cloud, diag)
            assert np.array_equal(got[0], expect[0]) and got[1] == expect[1]
        nbr, w = knn_graph(cloud, knn_k)
        ref_nbr, ref_w = knn_graph_oracle(cloud, knn_k)
        assert np.array_equal(nbr, ref_nbr) and np.array_equal(w.view(np.uint64), ref_w.view(np.uint64))
        assert select_global(cloud, weights, already, k_global) == select_global_oracle(
            cloud, weights, already, k_global
        )
