import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topospec.fixtures import FIVE_POINT_CLOUD
from topospec.persistence import circular_coordinates
from topospec.topograph import (
    build_edges,
    build_graph,
    enumerate_triangles,
    incidence_matrices,
)
from helpers import graph_from_edges, mst_eps_edges_oracle


def test_eps_layer_closes_short_triangle():
    # tight triangle plus one far point: the 0.5-quantile scale exceeds all
    # three short sides, so the eps layer closes the triangle the MST left open
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.8], [8.0, 0.0]])
    edges, prov = build_edges(coords, angles=None, use_ring=False, eps_quantile=0.5)
    tri_edges = {(0, 1), (0, 2), (1, 2)}
    assert tri_edges <= set(edges)
    assert set(prov) <= {"mst", "eps"}


# 3-11 points in 1-3 dimensions: floats, or a small integer grid, whose
# lengths tie and whose points repeat
POINT_SETS = st.integers(1, 3).flatmap(
    lambda dim: st.one_of(
        st.lists(st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * dim), min_size=3, max_size=11),
        st.lists(st.tuples(*[st.integers(0, 2).map(float)] * dim), min_size=3, max_size=11),
    )
)
QUANTILES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@given(pts=POINT_SETS, q=QUANTILES)
@example(pts=[(0.0, 0.0)] * 4, q=0.0)
@example(pts=[(0.0, 0.0)] * 4, q=1.0)
@example(pts=[(0.0,), (1.0,), (1.0,), (2.0,), (0.0,)], q=1.0)
@settings(max_examples=150, deadline=None)
def test_build_edges_is_the_kruskal_oracle(pts, q):
    coords = np.array(pts)
    assert build_edges(coords, None, use_ring=False, eps_quantile=q) == mst_eps_edges_oracle(coords, q)


def test_collinear_points_stay_connected():
    coords = np.stack([np.arange(5.0), np.zeros(5)], axis=1)
    edges, _ = build_edges(coords, angles=None, use_ring=False, eps_quantile=0.3)
    g = graph_from_edges(5, edges, pure=True)
    assert len(g.edges) - g.n_vertices + 1 >= 0  # cycle rank
    # connectivity: union-find via the incidence rank
    assert np.linalg.matrix_rank(g.B1.astype(float)) == 4


def test_ring_closure_adds_cycle():
    theta = np.linspace(0, 2 * np.pi, 8, endpoint=False)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    angles = circular_coordinates(coords)
    edges, prov = build_edges(coords, angles, use_ring=True, eps_quantile=0.05)
    n_edges = len(edges)
    assert n_edges - 8 + 1 >= 1  # connected with at least one independent cycle


def test_no_duplicate_edges_and_provenance_priority():
    theta = np.linspace(0, 2 * np.pi, 6, endpoint=False)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    angles = circular_coordinates(coords)
    edges, prov = build_edges(coords, angles, use_ring=True, eps_quantile=0.9)
    assert len(edges) == len(set(edges))
    # ring edges between adjacent circle points are already mst/eps edges
    assert "ring" not in prov or len([p for p in prov if p == "ring"]) < 6


def test_enumerate_triangles_modes():
    square = ((0, 1), (1, 2), (2, 3), (0, 3))
    assert enumerate_triangles(square) == ()
    k4 = tuple((i, j) for i in range(4) for j in range(i + 1, 4))
    assert len(enumerate_triangles(k4)) == 4


def test_five_point_cloud_single_triangle_at_09():
    pts = FIVE_POINT_CLOUD
    d = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1))
    edges = tuple(
        (i, j) for i in range(5) for j in range(i + 1, 5) if d[i, j] <= 0.9
    )
    tris = enumerate_triangles(edges)
    assert len(edges) == 6
    assert len(tris) == 1


def test_incidence_single_edge():
    B1, B2 = incidence_matrices(2, ((0, 1),), ())
    assert B1.tolist() == [[-1], [1]]
    assert B2.shape == (1, 0)


def test_incidence_triangle_signs():
    edges = ((0, 1), (0, 2), (1, 2))
    B1, B2 = incidence_matrices(3, edges, ((0, 1, 2),))
    assert B2[:, 0].tolist() == [1, -1, 1]
    assert np.all(B1 @ B2 == 0)


def test_malformed_complexes_are_rejected_naming_the_simplex():
    # a triangle whose edge (1, 2) is absent
    with pytest.raises(ValueError, match=r"a face of \(0, 1, 2\) is missing"):
        incidence_matrices(3, ((0, 1), (0, 2)), ((0, 1, 2),))
    # an edge whose vertex 3 is not below n_vertices
    with pytest.raises(ValueError, match=r"a face of \(0, 3\) is missing"):
        incidence_matrices(3, ((0, 1), (0, 3)), ())


def test_incidence_column_counts():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    assert np.all(np.abs(g.B1).sum(axis=0) == 2)
    if g.B2.size:
        assert np.all(np.abs(g.B2).sum(axis=0) == 3)


@given(seed=st.integers(0, 5000))
@settings(max_examples=30, deadline=None)
def test_random_clouds_connected_oriented(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 12))
    coords = rng.uniform(0, 1, size=(n, 3))
    angles = circular_coordinates(coords)
    g = build_graph(coords, angles, use_ring=bool(seed % 2), eps_quantile=0.3)
    # connectivity: rank of B1 is n-1 exactly for one component
    assert np.linalg.matrix_rank(g.B1.astype(float)) == n - 1
    # dd = 0 exactly in integer arithmetic
    assert g.B2.size == 0 or np.all(g.B1 @ g.B2 == 0)
    # Euler consistency on the 1-skeleton: the cycle rank |E| - |V| + 1
    assert g.n_vertices == n
    assert len(g.edges) - n + 1 >= 0
    # the MST alone spans every vertex, also under tied distances (a lattice)
    # and duplicate points: quantile 0 keeps no eps pair, and there is no ring
    lattice = rng.integers(0, 3, size=(n, 2)).astype(float)
    duplicated = np.concatenate([coords[: n - 2], coords[:2]])
    for pts in (lattice, duplicated):
        g = build_graph(pts, None, use_ring=False, eps_quantile=0.0)
        assert set(g.provenance) == {"mst"} and len(g.edges) == n - 1
        assert np.linalg.matrix_rank(g.B1.astype(float)) == n - 1


def test_lorenz_representatives_have_a_cycle(lorenz_cloud):
    from topospec import persistence, selection
    from topospec.sweep import SweepConfig, _farthest_point_indices

    pts = lorenz_cloud.points
    fps = pts[_farthest_point_indices(pts, 64, 0)]
    diam = float(np.sqrt(((fps[:, None] - fps[None]) ** 2).sum(-1)).max())
    diag = persistence.compute_persistence(
        persistence.rips_filtration(fps, eps_max=diam)
    )
    reps = selection.select_representatives(lorenz_cloud, diag, SweepConfig(k=7))
    coords = reps.coords(lorenz_cloud)
    angles = circular_coordinates(coords)
    g = build_graph(coords, angles, use_ring=True)
    assert len(g.edges) - g.n_vertices + 1 >= 1  # cycle rank


def test_graph_json_and_csv_export(tmp_path):
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    g.to_json(tmp_path / "g.json")
    g.incidence_to_csv(tmp_path / "b1.csv", tmp_path / "b2.csv")
    import json

    obj = json.loads((tmp_path / "g.json").read_text())
    assert obj["edges"] == [[0, 1], [0, 3], [1, 2], [2, 3]]
    assert (tmp_path / "b1.csv").read_text().splitlines()[0] == "e0,e1,e2,e3"
