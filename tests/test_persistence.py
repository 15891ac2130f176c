import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topospec import cli, hodge, persistence
from topospec.embedding import PointCloud
from topospec.errors import DegenerateGeometryError
from topospec.fixtures import FIVE_POINT_BETTI1, FIVE_POINT_CLOUD, FIVE_POINT_RADII
from topospec.persistence import (
    Filtration,
    circular_coordinates,
    cliques,
    compute_persistence,
    max_h1_persistence,
    rips_diagram,
    rips_filtration,
    upper_adjacency,
)
from topospec.sweep import SweepConfig, _pipeline_stage
from helpers import cliques_oracle, complex_at, face_tables_oracle, persistence_oracle, reference_complex_at


def brute_betti(points: np.ndarray, eps: float, dim: int) -> int:
    """Independent oracle: Betti number at one radius from boundary ranks."""
    n = len(points)
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    edges = [e for e in itertools.combinations(range(n), 2) if d[e] <= eps]
    eset = set(edges)
    tris = [
        t
        for t in itertools.combinations(range(n), 3)
        if all(tuple(sorted(p)) in eset for p in itertools.combinations(t, 2))
    ]
    B1 = np.zeros((n, len(edges)))
    for k, (i, j) in enumerate(edges):
        B1[i, k], B1[j, k] = -1, 1
    eidx = {e: k for k, e in enumerate(edges)}
    B2 = np.zeros((len(edges), len(tris)))
    for k, (a, b, c) in enumerate(tris):
        B2[eidx[(a, b)], k] = 1
        B2[eidx[(a, c)], k] = -1
        B2[eidx[(b, c)], k] = 1
    r1 = np.linalg.matrix_rank(B1) if edges else 0
    r2 = np.linalg.matrix_rank(B2) if tris else 0
    if dim == 0:
        return n - r1
    return len(edges) - r1 - r2


def reference_persistence(simplices) -> tuple[tuple[int, float, float], ...]:
    """Pairs from the global-order reducer: one GF(2) bitmask column per
    simplex over all global indices, dimensions 2 then 1, with clearing."""
    index = {verts: i for i, (verts, _) in enumerate(simplices)}
    radius = [r for _, r in simplices]
    dim_of = [len(v) - 1 for v, _ in simplices]
    boundary = []
    for verts, _ in simplices:
        col = 0
        if len(verts) > 1:
            for drop in range(len(verts)):
                col ^= 1 << index[verts[:drop] + verts[drop + 1 :]]
        boundary.append(col)
    low_to_col, pair_of, cleared = {}, {}, set()
    for dim in (2, 1):
        for j in range(len(simplices)):
            if dim_of[j] != dim or j in cleared:
                continue
            col = boundary[j]
            while col:
                other = low_to_col.get(col.bit_length() - 1)
                if other is None:
                    break
                col ^= boundary[other]
            boundary[j] = col
            if col:
                low = col.bit_length() - 1
                low_to_col[low] = pair_of[low] = j
                cleared.add(low)
    pairs = []
    paired_as_death = set(pair_of.values())
    for i in range(len(simplices)):
        if i in pair_of:
            pairs.append((dim_of[i], radius[i], radius[pair_of[i]]))
        elif i not in paired_as_death and dim_of[i] < 2:
            pairs.append((dim_of[i], radius[i], math.inf))
    return tuple(sorted(pairs))


def reference_simplices(points: np.ndarray, eps_max: float):
    """The Rips 2-skeleton as one list sorted by (radius, dimension, vertices)."""
    n = len(points)
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    simplices = [((i,), 0.0) for i in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if dist[i, j] <= eps_max:
            simplices.append(((i, j), float(dist[i, j])))
    for i, j, k in itertools.combinations(range(n), 3):
        r = float(max(dist[i, j], dist[i, k], dist[j, k]))
        if r <= eps_max:
            simplices.append(((i, j, k), r))
    return tuple(sorted(simplices, key=lambda sr: (sr[1], len(sr[0]), sr[0])))


def _cloud(kind: str, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 10))
    if kind == "grid":  # integer coordinates: tied radii and repeated points
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    return rng.uniform(0, 1, size=(n, 3))


@pytest.mark.parametrize("kind", ["uniform", "grid"])
@given(seed=st.integers(0, 10_000), cut=st.sampled_from([None, 0.4, 0.7]))
@settings(max_examples=40, deadline=None)
def test_persistence_and_complexes_match_the_global_order_reference(kind, seed, cut):
    pts = _cloud(kind, seed)
    diam = PointCloud(pts).diameter()
    eps_max = max(diam * 1.0001, 1e-12) if cut is None or diam == 0 else cut * diam
    filt = rips_filtration(pts, eps_max=eps_max)
    assert filt.simplices == reference_simplices(pts, eps_max)
    assert compute_persistence(filt).pairs == reference_persistence(filt.simplices)
    for eps in filt.critical_radii():
        assert complex_at(filt, eps) == reference_complex_at(filt.simplices, eps)


@pytest.mark.parametrize("kind", ["uniform", "grid"])
@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_enclosing_radius_cut_keeps_the_full_diagram(kind, seed):
    pts = _cloud(kind, seed)
    full = rips_filtration(pts)
    pairs = compute_persistence(full).pairs
    assert rips_diagram(pts).pairs == pairs == reference_persistence(full.simplices)


def test_enclosing_radius_cut_on_a_line():
    # the cut is 1, so the edge (0, 2) is left out and comes back as a zero-length pair
    pts = np.array([[0.0], [1.0], [2.0]])
    pairs = ((0, 0.0, 1.0), (0, 0.0, 1.0), (0, 0.0, math.inf), (1, 2.0, 2.0))
    assert rips_diagram(pts).pairs == compute_persistence(rips_filtration(pts)).pairs == pairs


def test_enclosing_radius_cut_on_coincident_points():
    pts = np.ones((4, 2))
    full = rips_filtration(pts)
    assert rips_diagram(pts).pairs == compute_persistence(full).pairs == reference_persistence(full.simplices)


def _spy_rips(monkeypatch) -> list:
    """Record (cloud, eps_max, filtration) for every rips_filtration call made
    through the persistence module or hodge's binding of it."""
    calls = []
    real = persistence.rips_filtration

    def spy(cloud, eps_max=None):
        filt = real(cloud, eps_max)
        calls.append((PointCloud.of(cloud), eps_max, filt))
        return filt

    for module in (persistence, hodge):
        monkeypatch.setattr(module, "rips_filtration", spy)
    return calls


@pytest.fixture(scope="module")
def rho40_persistence():
    """The default-config persistence stage at rho 40 and its Rips calls."""
    cfg = SweepConfig()
    with pytest.MonkeyPatch.context() as mp:
        calls = _spy_rips(mp)
        stage = _pipeline_stage(40.0, cfg, until="persistence")
    return stage, calls


def test_pipeline_diagram_is_the_full_diagram_at_rho_40(rho40_persistence):
    stage, [(fps, _, _)] = rho40_persistence
    assert stage.failed_stage is None
    assert stage.diagram.pairs == compute_persistence(rips_filtration(fps)).pairs


def test_pipeline_cuts_at_the_enclosing_radius(rho40_persistence):
    stage, calls = rho40_persistence
    assert len(calls) == 1
    fps, eps_max, filt = calls[0]
    dist = fps.distances()
    assert eps_max == dist.max(axis=1).min() < fps.diameter()
    assert len(filt.cells[1]) < fps.n * (fps.n - 1) // 2
    # the run's sizes count the cut complex, every simplex of the global order
    assert stage.sizes["simplices"] == len(filt.simplices)


def test_bound_check_and_fivepoint_read_the_full_complex(monkeypatch, tmp_path):
    calls = _spy_rips(monkeypatch)
    hodge.verify_gap_persistence_bound([np.random.default_rng(0).uniform(0, 1, size=(8, 3))])
    assert cli.main(["--out", str(tmp_path / "out"), "validate-fivepoint"]) == 0
    assert [eps_max for _, eps_max, _ in calls] == [None, None]
    for cloud, _, filt in calls:  # every edge and triangle, whatever the enclosing radius
        assert tuple(map(len, filt.cells)) == (cloud.n, math.comb(cloud.n, 2), math.comb(cloud.n, 3))


def _filtration(simplices) -> Filtration:
    """A Filtration from (vertices, radius) pairs, one table per dimension."""
    tables = [sorted((r, v) for v, r in simplices if len(v) == d + 1) for d in range(3)]
    return Filtration(
        cells=tuple(tuple(v for _, v in t) for t in tables),
        radii=tuple(tuple(r for r, _ in t) for t in tables),
    )


@pytest.mark.parametrize(
    "edge_12, message",
    [(None, "a face of (0, 1, 2) is missing"), (2.0, "a face of (0, 1, 2) appears after it")],
    ids=["missing-edge", "edge-after-triangle"],
)
def test_filtration_rejects_a_bad_face(edge_12, message):
    simplices = [((0,), 0.0), ((1,), 0.0), ((2,), 0.0), ((0, 1), 1.0), ((0, 2), 1.0), ((0, 1, 2), 1.0)]
    _filtration(simplices + [((1, 2), 1.0)])
    if edge_12 is not None:
        simplices.append(((1, 2), edge_12))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _filtration(simplices)


def test_filtration_rejects_a_table_out_of_radius_order():
    with pytest.raises(ValueError, match="^1-simplices are not in radius order$"):
        Filtration(cells=(((0,), (1,), (2,)), ((0, 1), (0, 2)), ()), radii=((0.0,) * 3, (2.0, 1.0), ()))


def test_filtration_rejects_vertex_codes_past_64_bits():
    big = 3_100_000_000  # with a triangle table, an edge code v0 * n + v1 could pass 2**63
    with pytest.raises(ValueError, match="64 bits"):
        Filtration(cells=(((0,), (big,)), ((0, big),), ()), radii=((0.0, 0.0), (1.0,), ()))


def _weighted_rips(pts: np.ndarray, weights: np.ndarray, eps_max: float, top: int) -> Filtration:
    """Every simplex of up to top + 1 vertices, at the largest of its edge
    lengths and its vertices' weights, up to eps_max, each table in (radius,
    vertices) order: a filtration whose vertices appear at nonzero radii,
    built simplex by simplex."""
    dist = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(-1))
    tables = []
    for d in range(top + 1):
        table = []
        for v in itertools.combinations(range(len(pts)), d + 1):
            r = max([float(weights[i]) for i in v] + [float(dist[a, b]) for a, b in itertools.combinations(v, 2)])
            if r <= eps_max:
                table.append((r, v))
        tables.append(sorted(table))
    return Filtration(cells=[[v for _, v in t] for t in tables], radii=[[r for r, _ in t] for t in tables])


@st.composite
def filtrations(draw):
    """(cloud or None, filtration): Rips filtrations of lattice clouds (tied
    radii, repeated points) and of clouds with duplicated points, and weighted
    lattice filtrations of 1 to 3 dimensions whose vertices appear at radii 0,
    0.5 and 1; each on the full complex or cut at the enclosing radius."""
    kind = draw(st.sampled_from(["lattice", "duplicates", "weighted"]))
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = int(rng.integers(1, 13))
    if kind == "duplicates":
        pts = rng.normal(size=(n, 2))[rng.integers(0, n, size=n)]
    else:
        pts = rng.integers(0, 3, size=(n, 2)).astype(float)
    eps_max = None
    if draw(st.booleans()):
        eps_max = max(float(PointCloud(pts).distances().max(axis=1).min()), 1e-12)
    if kind != "weighted":
        return pts, rips_filtration(pts, eps_max=eps_max)
    top = draw(st.integers(1, 3))
    return None, _weighted_rips(pts, rng.integers(0, 3, size=n) / 2, math.inf if eps_max is None else eps_max, top)


@given(case=filtrations())
@settings(max_examples=150, deadline=None)
def test_cohomology_pairs_are_the_homology_pairs(case):
    pts, filt = case
    assert compute_persistence(filt).pairs == persistence_oracle(filt)
    if pts is not None:
        assert rips_diagram(pts).pairs == persistence_oracle(rips_filtration(pts))


@given(case=filtrations())
@settings(max_examples=60, deadline=None)
def test_face_tables_are_the_dict_tables(case):
    _, filt = case
    oracle = face_tables_oracle([list(map(tuple, c.tolist())) for c in filt.cells])
    assert [f.tolist() for f in filt.faces] == [list(map(list, table)) for table in oracle]


@st.composite
def edge_sets(draw):
    """(n_vertices, edges): a random subset of the pairs i < j of 0-10 vertices."""
    n = draw(st.integers(0, 10))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


@given(graph=edge_sets(), k=st.integers(1, 4))
@example(graph=(0, []), k=4)
@example(graph=(10, []), k=4)
@example(graph=(10, list(itertools.combinations(range(10), 2))), k=4)
@settings(max_examples=150, deadline=None)
def test_cliques_are_the_itertools_oracle(graph, k):
    n, edges = graph
    tables = cliques(upper_adjacency(n, edges), k)
    assert len(tables) == k
    for size, table in enumerate(tables, start=1):
        assert table.dtype == np.intp and table.shape[1] == size
        assert list(map(tuple, table.tolist())) == cliques_oracle(n, edges, size)


def test_upper_adjacency_ignores_pairs_out_of_order():
    assert upper_adjacency(3, [(1, 0), (2, 2), (1, 2)]).tolist() == [
        [False, False, False],
        [False, False, True],
        [False, False, False],
    ]
    with pytest.raises(ValueError, match="clique size 0"):
        cliques(upper_adjacency(3, []), 0)


def test_vertices_and_edges_leave_every_cycle_edge_essential():
    # two components: a 4-cycle with both chords, and an edge
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.1], [0.0, 1.2], [5.0, 0.0], [5.0, 0.7]])
    full = _weighted_rips(pts, np.zeros(6), 1.6, 2)
    graph = Filtration(cells=full.cells[:2], radii=full.radii[:2])
    lengths = dict(zip(map(tuple, graph.cells[1].tolist()), graph.radii[1].tolist()))
    forest = [(0, 1), (1, 2), (2, 3), (4, 5)]  # (0, 3) at 1.2 is the first to close a cycle
    pairs = compute_persistence(graph).pairs
    assert [p for p in pairs if p[0] == 0] == [p for p in compute_persistence(full).pairs if p[0] == 0]
    assert [p for p in pairs if p[0] == 1] == sorted((1, r, math.inf) for e, r in lengths.items() if e not in forest)
    assert pairs == persistence_oracle(graph)


def test_tetrahedra_leave_the_pairs_of_the_2_skeleton():
    pts = np.random.default_rng(5).uniform(0, 1, size=(7, 3))
    clique = _weighted_rips(pts, np.zeros(7), math.inf, 3)
    assert len(clique.cells[3]) == math.comb(7, 4)
    skeleton = Filtration(cells=clique.cells[:3], radii=clique.radii[:3])
    assert compute_persistence(clique).pairs == compute_persistence(skeleton).pairs == persistence_oracle(skeleton)


def test_two_points():
    filt = rips_filtration(np.array([[0.0, 0.0], [1.0, 0.0]]), eps_max=2.0)
    assert [s for s in filt.simplices] == [((0,), 0.0), ((1,), 0.0), ((0, 1), 1.0)]


def test_unit_square_filtration(unit_square):
    filt = rips_filtration(unit_square, eps_max=1.5)
    edges = [(v, r) for v, r in filt.simplices if len(v) == 2]
    tris = [(v, r) for v, r in filt.simplices if len(v) == 3]
    sides = [e for e in edges if abs(e[1] - 1.0) < 1e-12]
    diags = [e for e in edges if abs(e[1] - math.sqrt(2)) < 1e-12]
    assert len(sides) == 4 and len(diags) == 2
    assert len(tris) == 4
    assert all(abs(r - math.sqrt(2)) < 1e-12 for _, r in tris)


def test_five_point_counts():
    pts = FIVE_POINT_CLOUD
    filt = rips_filtration(pts, eps_max=2.0)
    cx = complex_at(filt, 0.8)
    assert (len(cx[0]), len(cx[1]), len(cx[2])) == (5, 4, 0)
    diag = compute_persistence(filt)
    assert diag.betti(0, 0.8) == 2  # square component + isolated apex
    for eps, b1 in zip(FIVE_POINT_RADII, FIVE_POINT_BETTI1):
        assert diag.betti(1, eps) == b1


def test_equilateral_triangle_zero_persistence():
    s = 1.0
    pts = np.array([[0, 0], [s, 0], [s / 2, s * math.sqrt(3) / 2]])
    diag = compute_persistence(rips_filtration(pts, eps_max=2.0))
    pairs = diag.in_dim(1)
    assert len(pairs) == 1
    b, d = pairs[0]
    assert b == pytest.approx(s) and d == pytest.approx(s)
    assert diag.betti(1, s) == 0
    assert diag.betti(1, 1.5) == 0


def test_unit_square_pair(unit_square):
    diag = compute_persistence(rips_filtration(unit_square, eps_max=2.0))
    finite = [(b, d) for b, d in diag.in_dim(1, finite_only=True) if d > b]
    assert len(finite) == 1
    b, d = finite[0]
    assert b == pytest.approx(1.0)
    assert d == pytest.approx(math.sqrt(2))
    assert max_h1_persistence(diag) == pytest.approx(math.sqrt(2) - 1.0)


def test_h0_infinite_bars_count_components(unit_square):
    # below the side length everything is disconnected: 4 components
    diag = compute_persistence(rips_filtration(unit_square, eps_max=0.5))
    inf_bars = [1 for b, d in diag.in_dim(0) if math.isinf(d)]
    assert len(inf_bars) == 4


def test_max_persistence_trivial_cases():
    from topospec.persistence import PersistenceDiagram

    assert max_h1_persistence(PersistenceDiagram(pairs=())) == 0.0
    diag = PersistenceDiagram(pairs=((1, 2.0, 5.0),))
    assert max_h1_persistence(diag) == 3.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_reduction_matches_brute_force(seed):
    # all complexes on <= 6 points: diagram Betti curve == rank computation
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    pts = rng.uniform(0, 1, size=(n, 2))
    diam = float(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).max())
    filt = rips_filtration(pts, eps_max=diam * 1.001)
    diag = compute_persistence(filt)
    for eps in filt.critical_radii():
        for dim in (0, 1):
            assert diag.betti(dim, eps) == brute_betti(pts, eps, dim), (eps, dim)


def test_stability_under_jitter():
    rng = np.random.default_rng(42)
    pts = rng.uniform(0, 1, size=(10, 2))
    diam = float(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).max())
    delta = 0.009 * diam
    jit = pts + rng.uniform(-delta / math.sqrt(2), delta / math.sqrt(2), size=pts.shape)
    d0 = compute_persistence(rips_filtration(pts, eps_max=3 * diam))
    d1 = compute_persistence(rips_filtration(jit, eps_max=3 * diam))
    for dim in (0, 1):
        a = sorted(d0.in_dim(dim, finite_only=True))
        b = sorted(d1.in_dim(dim, finite_only=True))
        assert len(a) == len(b)
        for (b0, dd0), (b1, dd1) in zip(a, b):
            assert abs(b0 - b1) <= 2 * delta + 1e-12
            assert abs(dd0 - dd1) <= 2 * delta + 1e-12


def test_default_radius_builds_the_full_complex():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 1, size=(7, 2))
    full = rips_filtration(pts, eps_max=3.0)
    assert rips_filtration(pts).simplices == full.simplices
    assert len(full.simplices) == 7 + 21 + 35
    assert rips_filtration(np.zeros((1, 3))).simplices == (((0,), 0.0),)


def test_filtration_order_is_deterministic():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 1, size=(8, 3))
    f1 = rips_filtration(pts, eps_max=2.0)
    f2 = rips_filtration(pts.copy(), eps_max=2.0)
    assert f1.simplices == f2.simplices


def test_circular_coordinates_on_circle():
    theta = np.linspace(0, 2 * math.pi, 40, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    ang = circular_coordinates(pts)
    # monotonically ordered around the circle up to rotation/reflection
    diffs = np.diff(np.unwrap(ang))
    assert np.all(diffs > 0) or np.all(diffs < 0)


def test_circular_coordinates_translation_invariant():
    rng = np.random.default_rng(2)
    pts = rng.normal(size=(30, 3))
    ang0 = circular_coordinates(pts)
    ang1 = circular_coordinates(pts + np.array([5.0, -3.0, 2.0]))
    assert np.allclose(ang0, ang1, atol=1e-9)


def test_circular_coordinates_collinear_raises():
    pts = np.stack([np.arange(10.0), 2 * np.arange(10.0)], axis=1)
    with pytest.raises(DegenerateGeometryError):
        circular_coordinates(pts)


def test_circular_coordinates_lorenz_wing_coverage(lorenz_cloud):
    # one-wing segment still wraps all 8 angular bins
    pts = lorenz_cloud.points
    wing = pts[pts[:, 0] > 0]
    ang = circular_coordinates(wing)
    hist, _ = np.histogram(ang, bins=8, range=(0, 2 * math.pi))
    assert np.all(hist > 0)


def test_diagram_csv(tmp_path, unit_square):
    diag = compute_persistence(rips_filtration(unit_square, eps_max=2.0))
    diag.to_csv(tmp_path / "diag.csv")
    text = (tmp_path / "diag.csv").read_text()
    assert text.splitlines()[0] == "dim,birth,death"
    assert "inf" in text
