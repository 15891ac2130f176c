import json
import math
import multiprocessing
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topospec import cli, hodge
from topospec.hodge import (
    FiltrationLaplacians,
    empirical_lipschitz,
    laplacian_at,
    laplacian_k,
    spectra,
    spectrum,
    verify_gap_persistence_bound,
)
from topospec.persistence import Filtration, compute_persistence, rips_filtration
from topospec.susy import clique_laplacian
from topospec.topograph import incidence_matrices
from helpers import (
    boundary_oracle,
    cliques_oracle,
    complex_at,
    complex_laplacian_oracle,
    graph_from_edges,
    hodge_projectors,
    spectrum_oracle,
)
from test_pipeline import artifact_digests
from test_sweep import _cpus, _no_pool

C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
K3 = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])


def test_c4_edge_laplacian_spectrum():
    L1 = laplacian_k(C4.B1, None)
    ev = np.linalg.eigvalsh(L1)
    assert np.allclose(ev, [0.0, 2.0, 2.0, 4.0], atol=1e-12)


def test_filled_triangle_spectrum():
    L1 = laplacian_k(K3.B1, K3.B2)
    ev = np.linalg.eigvalsh(L1)
    assert np.allclose(ev, [3.0, 3.0, 3.0], atol=1e-12)
    assert spectrum(L1).beta_k == 0


def test_pure_graph_kernel_is_cycle_space():
    L1 = laplacian_k(C4.B1, None)
    s = spectrum(L1)
    assert s.beta_k == 1
    assert s.gap == pytest.approx(2.0)
    # kernel vector is the alternating-sign cycle flow
    evals, evecs = np.linalg.eigh(L1)
    kernel = evecs[:, 0]
    assert np.allclose(np.abs(kernel), 0.5, atol=1e-9)


def test_spectrum_zero_matrix():
    s = spectrum(np.zeros((5, 5)))
    assert s.beta_k == 5
    assert s.gap is None


def test_spectrum_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))


@st.composite
def symmetric_lists(draw):
    """Symmetric integer-entry matrices of mixed and repeated sizes, 0x0
    included; small entries make kernels and repeated eigenvalues common."""
    mats = []
    for n in draw(st.lists(st.integers(0, 6), min_size=1, max_size=10)):
        a = np.array(draw(st.lists(st.integers(-2, 2), min_size=n * n, max_size=n * n)), dtype=float)
        a = a.reshape(n, n)
        mats.append(a + a.T)
    return mats


@given(mats=symmetric_lists(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_spectra_is_bitwise_the_per_matrix_spectrum(mats, data):
    for got, L in zip(spectra(mats), mats, strict=True):
        want = spectrum_oracle(L)
        assert got.eigenvalues.tobytes() == want.eigenvalues.tobytes()
        assert (got.tau0, got.beta_k, got.gap) == (want.tau0, want.beta_k, want.gap)
        assert spectrum(L).eigenvalues.tobytes() == want.eigenvalues.tobytes()
    # one asymmetric member fails the whole call, with the per-matrix message
    square = [i for i, L in enumerate(mats) if len(L) >= 2]
    if square:
        bad = [L.copy() for L in mats]
        bad[data.draw(st.sampled_from(square))][0, 1] += 1.0
        with pytest.raises(ValueError, match="^input matrix is not symmetric$"):
            spectra(bad)


def test_laplacian_shape_mismatch():
    with pytest.raises(ValueError):
        laplacian_k(C4.B1, np.zeros((7, 2)))


def test_projectors_c4():
    P_grad, P_harm, P_curl = hodge_projectors(C4.B1, None)
    assert np.allclose(P_curl, 0.0)
    assert round(np.trace(P_grad)) == 3
    assert round(np.trace(P_harm)) == 1
    # cycle flow 0->1->2->3->0 expressed in the sorted-edge orientation
    # ((0,1),(0,3),(1,2),(2,3)): the (0,3) edge is traversed against orientation
    harm_vec = np.array([1.0, -1.0, 1.0, 1.0]) / 2
    assert np.allclose(P_harm @ harm_vec, harm_vec, atol=1e-10)


def test_projector_algebra_identity():
    for g in (C4, K3, graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2)])):
        B2 = g.B2 if g.B2.size else None
        P_grad, P_harm, P_curl = hodge_projectors(g.B1, B2)
        n_e = len(g.edges)
        for P in (P_grad, P_harm, P_curl):
            assert np.abs(P @ P - P).max() < 1e-10
            assert np.abs(P - P.T).max() < 1e-10
        assert np.abs(P_grad @ P_curl).max() < 1e-10
        assert np.abs(P_grad @ P_harm).max() < 1e-10
        assert np.abs(P_harm @ P_curl).max() < 1e-10
        assert np.trace(P_grad) + np.trace(P_harm) + np.trace(P_curl) == pytest.approx(n_e)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_psd_and_kernel_matches_persistence(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, 9))
    pts = rng.uniform(0, 1, size=(n, 2))
    diam = float(np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(-1)).max())
    filt = rips_filtration(pts, eps_max=diam * 1.001)
    diag = compute_persistence(filt)
    for eps in filt.critical_radii()[:: max(1, len(filt.critical_radii()) // 6)]:
        for p in (0, 1):
            L, simp = laplacian_at(filt, eps, p)
            if not simp:
                continue
            ev = np.linalg.eigvalsh(L)
            assert ev.min() > -1e-10
            assert spectrum(L).beta_k == diag.betti(p, eps)


def test_eigenvalue_monotonicity_under_up_addition():
    # adding an edge or triangle never decreases any eigenvalue index-wise
    L_before = laplacian_k(C4.B1, None)
    sq_filled = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    L_after_full = laplacian_k(sq_filled.B1, sq_filled.B2)
    ev_b = np.linalg.eigvalsh(L_before)
    ev_a = np.linalg.eigvalsh(L_after_full)[: len(ev_b)]
    # compare on the shared edge subspace: embed old L in the new edge basis
    old_idx = [sq_filled.edges.index(e) for e in C4.edges]
    L_emb = np.zeros_like(L_after_full)
    L_emb[np.ix_(old_idx, old_idx)] = L_before
    ev_emb = np.linalg.eigvalsh(L_emb)
    ev_new = np.linalg.eigvalsh(L_after_full)
    assert np.all(ev_emb <= ev_new + 1e-10)


def test_unit_square_beta1_just_above_one(unit_square):
    filt = rips_filtration(unit_square, eps_max=2.0)
    L, _ = laplacian_at(filt, 1.05, 1)
    assert spectrum(L).beta_k == 1


@given(
    pts=st.lists(
        st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 2), min_size=3, max_size=7
    ),
    pick=st.integers(0, 10**6),
)
@settings(max_examples=60, deadline=None)
def test_filtration_clique_and_incidence_laplacians_agree(pts, pick):
    # the Rips complex at a critical radius is the clique complex of its edges,
    # so all three routes to L1 see the same edge and triangle bases
    cloud = np.array(pts)
    filt = rips_filtration(cloud, eps_max=3.0)  # above the diameter, 2 sqrt(2)
    radii = filt.critical_radii()
    eps = float(radii[pick % len(radii)])
    g = graph_from_edges(len(cloud), complex_at(filt, eps)[1])
    L, simp = laplacian_at(filt, eps, 1)
    assert simp == list(g.edges)
    assert np.array_equal(L, clique_laplacian(g, 1))
    assert np.array_equal(L, laplacian_k(g.B1, g.B2))


# ---------------------------------------------------------------------------
# Laplacians sliced from one boundary pair, against rebuilds from simplex lists
# ---------------------------------------------------------------------------


def oracle_laplacian_at(filt, eps, p):
    """Dense L_p rebuilt from the sorted simplex lists of the complex at eps."""
    cx = complex_at(filt, eps)
    return complex_laplacian_oracle(cx, p), cx[p]


def oracle_padded_norm_diff(La, basis_a, Lb, basis_b) -> float:
    """Spectral norm of Lb - La, embedding La's chain space into the larger
    one of Lb (basis_a is a subset of basis_b) with zero blocks."""
    if not basis_b:
        return 0.0
    idx = {s: i for i, s in enumerate(basis_b)}
    ia = [idx[s] for s in basis_a]
    diff = np.array(Lb, dtype=float)
    diff[np.ix_(ia, ia)] -= La
    return float(np.linalg.norm(diff, ord=2))


def oracle_empirical_lipschitz(filt, b, d, p) -> float:
    radii = [r for r in filt.critical_radii() if b - 1e-12 <= r <= d + 1e-12]
    laps = [oracle_laplacian_at(filt, r, p) for r in radii]
    best = 0.0
    for r0, r1, (L0, s0), (L1, s1) in zip(radii, radii[1:], laps, laps[1:]):
        if r1 - r0 <= 1e-15:
            continue
        best = max(best, oracle_padded_norm_diff(L0, s0, L1, s1) / (r1 - r0))
    return best


def oracle_d_p_max(filt, eps, p) -> tuple[int, int]:
    """(max cofacet count over (p-1)-simplices, faces per p-simplex), with
    each face of each p-simplex counted."""
    cx = complex_at(filt, eps)
    simp_p = cx[p]
    faces = (p + 1) if simp_p else 0
    counts = Counter(s[:i] + s[i + 1 :] for i in range(p + 1) for s in simp_p)
    cofacets = max((counts[s] for s in cx[p - 1]), default=0) if p >= 1 else 0
    return cofacets, faces


# random clouds, and integer-lattice clouds whose tied radii and duplicate
# points put many simplices at one radius (duplicates give zero-length edges)
CLOUDS = st.one_of(
    st.lists(st.tuples(*[st.floats(-1.0, 1.0, allow_nan=False)] * 3), min_size=1, max_size=8),
    st.lists(st.tuples(*[st.integers(0, 2).map(float)] * 2), min_size=1, max_size=8),
)


@given(pts=CLOUDS)
@settings(max_examples=80, deadline=None)
def test_sliced_laplacians_are_bitwise_the_rebuilt_ones(pts):
    filt = rips_filtration(np.array(pts))
    laps = FiltrationLaplacians(filt)
    radii = filt.critical_radii()
    # at every critical radius, between consecutive ones, and below the smallest
    probes = [*radii, *((radii[:-1] + radii[1:]) / 2), radii[0] - 1.0]
    for eps in probes:
        for p in (0, 1):
            L, basis = laplacian_at(filt, eps, p)
            L_o, basis_o = oracle_laplacian_at(filt, eps, p)
            assert (L.dtype, L.shape, L.tobytes()) == (L_o.dtype, L_o.shape, L_o.tobytes())
            assert basis == basis_o
            assert laps.d_p_max(eps, p) == oracle_d_p_max(filt, eps, p)
    for p in (0, 1):
        b, d = float(radii[0]), float(radii[-1])
        assert empirical_lipschitz(laps, b, d, p) == oracle_empirical_lipschitz(filt, b, d, p)
        for b, d in compute_persistence(filt).in_dim(1, finite_only=True):
            assert empirical_lipschitz(laps, b, d, p) == oracle_empirical_lipschitz(filt, b, d, p)


# ---------------------------------------------------------------------------
# every complex's boundaries come from its face table, against the dict oracle
# ---------------------------------------------------------------------------


def _same_bits(a, b) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def _zero_radius(cells) -> Filtration:
    return Filtration(cells=tuple(map(tuple, cells)), radii=tuple((0.0,) * len(c) for c in cells))


def assert_boundaries_are_the_oracle(filt) -> None:
    laps = FiltrationLaplacians(filt)
    cells = [list(map(tuple, c.tolist())) for c in filt.cells]
    for d in range(1, len(cells)):
        assert _same_bits(laps.boundaries[d], boundary_oracle(cells[d], cells[d - 1])), f"B_{d}"


@st.composite
def graphs(draw):
    """(n_vertices, edges): a random subset of the vertex pairs, i < j, sorted."""
    n = draw(st.integers(1, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, tuple(e for e, k in zip(pairs, keep) if k)


PATH4 = (4, ((0, 1), (1, 2), (2, 3)))  # no triangles
PAW = (4, ((0, 1), (0, 2), (1, 2), (2, 3)))  # one triangle, no tetrahedra
K4 = (4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))  # one tetrahedron


@given(pts=CLOUDS)
@settings(max_examples=80, deadline=None)
def test_rips_boundaries_are_the_oracle(pts):
    # lattice clouds put many simplices at one radius, so ties order the tables
    assert_boundaries_are_the_oracle(rips_filtration(np.array(pts)))


@given(graph=graphs(), fill=st.booleans())
@example(graph=PATH4, fill=True)
@example(graph=PAW, fill=False)
@settings(max_examples=60, deadline=None)
def test_graph_complex_boundaries_and_incidence_are_the_oracle(graph, fill):
    n, edges = graph
    tris = tuple(cliques_oracle(n, edges, 3)) if fill else ()
    verts = tuple((v,) for v in range(n))
    assert_boundaries_are_the_oracle(_zero_radius((verts, edges, tris)))
    B1, B2 = incidence_matrices(n, edges, tris)
    assert _same_bits(B1, boundary_oracle(edges, verts).astype(int))
    assert _same_bits(B2, boundary_oracle(tris, edges).astype(int))


@given(graph=graphs())
@example(graph=PATH4)
@example(graph=PAW)
@example(graph=K4)
@settings(max_examples=60, deadline=None)
def test_clique_complex_boundaries_and_laplacians_are_the_oracle(graph):
    n, edges = graph
    cx = {d: cliques_oracle(n, edges, d + 1) for d in range(4)}
    assert_boundaries_are_the_oracle(_zero_radius(cx.values()))
    g = graph_from_edges(n, edges)
    for k in range(3):
        assert _same_bits(clique_laplacian(g, k), complex_laplacian_oracle(cx, k))


# ---------------------------------------------------------------------------
# gap-persistence bound
# ---------------------------------------------------------------------------


def test_bound_zero_persistence_k3():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3) / 2]])
    reports = verify_gap_persistence_bound([pts], p=1)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.birth == pytest.approx(rep.death)
    assert rep.d_p_max_cofacets == 2
    assert rep.lipschitz == 0.0
    assert rep.lhs == pytest.approx(2 * 2)
    assert rep.rhs == pytest.approx(3.0)
    assert rep.holds


def test_bound_unit_square(unit_square):
    reports = verify_gap_persistence_bound([unit_square], p=1)
    positive = [r for r in reports if r.death > r.birth]
    assert len(positive) == 1
    rep = positive[0]
    assert rep.rhs == pytest.approx(2.0)  # C4 gap at birth
    assert rep.holds and rep.slack >= 0


def test_bound_random_clouds_hold():
    rng = np.random.default_rng(11)
    pairs = 0
    for _ in range(40):
        pts = rng.uniform(0, 1, size=(8, 3))
        for rep in verify_gap_persistence_bound([pts], p=1):
            assert rep.holds, rep
            pairs += 1
    assert pairs > 20


@given(clouds=st.lists(CLOUDS, min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_bound_reports_are_the_pairs_of_every_cloud(clouds):
    # one report per finite H1 pair (the tracer's hodge.bound_pairs is the
    # length of the list), tagged with its cloud's position, and each cloud
    # checked alone gives the same reports
    reports = verify_gap_persistence_bound(clouds, p=1)
    pairs = [
        (c, b, d)
        for c, pts in enumerate(clouds)
        for b, d in compute_persistence(rips_filtration(np.array(pts))).in_dim(1, finite_only=True)
    ]
    assert [(r.cloud, r.birth, r.death) for r in reports] == pairs
    alone = [replace(r, cloud=c) for c, pts in enumerate(clouds) for r in verify_gap_persistence_bound([pts], p=1)]
    assert reports == alone


# oracle: `bound-check --clouds 20 --points 10` (seed 0) as it was when
# topograph, susy and hodge each wrote their own boundary and Laplacian code
GOLDEN_BOUND_CHECK = {
    "bound_check.csv": "ef1101d7e83579b7508110f47c07e849675e79ec86ac16c7e536575d1bd422d7",
    "bound_summary.json": "ed1609f63f1d46b6d6abe56176b104039fd086c42dc3572d6d617db5a63a13ff",
}


def test_bound_check_artifacts_golden(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["--out", str(out), "bound-check", "--clouds", "20", "--points", "10"]) == 0
    assert artifact_digests(out) == GOLDEN_BOUND_CHECK


def _bound_check(monkeypatch, out, cpus: int) -> None:
    """``bound-check --clouds 20 --points 10`` with ``cpus`` available CPUs;
    with one, starting a pool fails the run."""
    with monkeypatch.context() as mp:
        _cpus(mp, cpus)
        if cpus == 1:
            mp.setattr(multiprocessing, "get_context", _no_pool)
        assert cli.main(["--out", str(out), "bound-check", "--clouds", "20", "--points", "10"]) == 0


def test_pooled_bound_check_is_the_serial_run(monkeypatch, tmp_path):
    for cpus in (4, 1):
        out = tmp_path / f"cpus{cpus}"
        _bound_check(monkeypatch, out, cpus)
        assert multiprocessing.active_children() == []
        assert artifact_digests(out) == GOLDEN_BOUND_CHECK
        # the stage telemetry, summed over the 3 tasks of 8, 8 and 4 clouds
        summary = json.loads((out / "bound_summary.json").read_text())
        seconds, sizes = summary["stages"]["seconds"], summary["stages"]["sizes"]
        assert sorted(seconds) == ["filtration", "laplacians", "lipschitz", "spectra"]
        assert sorted(sizes) == ["pairs", "solves", "tasks", "workers"]
        assert all(v >= 0 for v in [*seconds.values(), *sizes.values()])
        assert sizes["pairs"] == summary["pairs_checked"]
        assert (sizes["tasks"], sizes["workers"]) == (3, min(3, cpus))


def test_bound_check_worker_errors_propagate_and_no_worker_outlives_the_call(monkeypatch, tmp_path):
    parent = os.getpid()

    def broken(mats):
        raise RuntimeError("deliberate bug in a worker" if os.getpid() != parent else "ran in the parent")

    monkeypatch.setattr(hodge, "spectra", broken)
    with pytest.raises(RuntimeError, match="^deliberate bug in a worker$"):
        _bound_check(monkeypatch, tmp_path / "out", 4)
    assert multiprocessing.active_children() == []


def test_empirical_lipschitz_positive(unit_square):
    filt = rips_filtration(unit_square, eps_max=2.0)
    lip = empirical_lipschitz(FiltrationLaplacians(filt), 1.0, math.sqrt(2), 1)
    assert lip > 0
