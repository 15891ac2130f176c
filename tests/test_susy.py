import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from topospec.hodge import laplacian_k
from topospec.susy import (
    clique_laplacian,
    onehot_hamiltonian,
    sector_block,
    supercharge,
    susy_hamiltonian,
    verify_block_equivalence,
)
from helpers import graph_from_edges


def excitation_number(n):
    """Dense N = sum_i (I - Z_i)/2: the Hamming weight of each basis index."""
    return np.diag([float(bin(i).count("1")) for i in range(1 << n)])


def random_connected_graph(rng, n):
    while True:
        pairs = list(itertools.combinations(range(n), 2))
        mask = rng.random(len(pairs)) < 0.5
        edges = [p for p, m in zip(pairs, mask) if m]
        if len(edges) < n - 1:
            continue
        g = graph_from_edges(n, edges, pure=True)
        if np.linalg.matrix_rank(g.B1.astype(float)) == n - 1:
            return g


def test_single_vertex_nilpotent():
    g = graph_from_edges(1, [])
    terms = supercharge(g)
    Q = sum(t.dense() for t in terms)
    assert np.abs(Q @ Q).max() == 0.0


def test_two_isolated_vertices_mutual_exclusion():
    g = graph_from_edges(2, [])
    terms = supercharge(g)
    # complement projectors gate each flip on the other qubit being empty
    plain = [t for t in terms if t.coefficient > 0]
    assert sorted(t.letters for t in plain) == ["+z", "z+"]
    Q = sum(t.dense() for t in terms)
    # |11> (index 3) is never produced: the excited-pair sector is empty
    assert np.abs(Q[3, :]).max() == 0.0
    assert np.abs(Q @ Q).max() == 0.0
    H = susy_hamiltonian(g).dense()
    # sector spectra match the complex of two isolated vertices: L0 = 0
    blk = sector_block(H, 1, g)
    assert np.abs(blk).max() < 1e-12


def test_k3_complement_projectors_trivial():
    g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    terms = supercharge(g)
    # no non-neighbors: the complement projector of each flip is empty, so the
    # main branches are bare Jordan-Wigner raising strings
    plain = [t for t in terms if t.coefficient > 0]
    assert sorted(t.letters for t in plain) == ["+II", "Z+I", "ZZ+"]


def test_k3_edge_sector_spectrum():
    g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    ham = susy_hamiltonian(g)
    blk = sector_block(ham.dense(), 2, g)
    assert np.allclose(np.linalg.eigvalsh(blk), [3.0, 3.0, 3.0], atol=1e-12)
    assert np.allclose(blk, clique_laplacian(g, 1), atol=1e-12)


def test_c4_edge_sector_reproduces_hodge():
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ham = susy_hamiltonian(g)
    blk = sector_block(ham.dense(), 2, g)
    assert np.allclose(np.linalg.eigvalsh(blk), [0.0, 2.0, 2.0, 4.0], atol=1e-12)
    L1 = laplacian_k(g.B1, None)
    assert np.allclose(blk, L1, atol=1e-12)


def test_vertex_sector_is_graph_laplacian():
    rng = np.random.default_rng(0)
    for _ in range(5):
        g = random_connected_graph(rng, int(rng.integers(3, 7)))
        ham = susy_hamiltonian(g)
        blk = sector_block(ham.dense(), 1, g)
        L0 = laplacian_k(None, g.B1)  # B1 B1^T
        assert np.allclose(blk, L0, atol=1e-12)


def test_hamiltonian_commutes_with_excitation_number():
    rng = np.random.default_rng(1)
    g = random_connected_graph(rng, 5)
    H = susy_hamiltonian(g).dense()
    N = excitation_number(5)
    assert np.abs(H @ N - N @ H).max() < 1e-12


def test_hermitian_and_real():
    rng = np.random.default_rng(2)
    g = random_connected_graph(rng, 6)
    H = susy_hamiltonian(g).dense()
    assert np.abs(H - H.T).max() < 1e-12
    assert np.abs(H.imag).max() == 0.0


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_block_equivalence_random_graphs(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    g = random_connected_graph(rng, n)
    rep = verify_block_equivalence(g, k_max=n)
    assert rep.passed, rep.max_deviation


def test_nilpotency_dense_up_to_ten():
    rng = np.random.default_rng(3)
    for n in (4, 6, 8, 10):
        g = random_connected_graph(rng, n)
        Q = sum(t.dense() for t in supercharge(g))
        assert np.abs(Q @ Q).max() <= 1e-12


def test_positivity_and_susy_pairing():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 5)
    H = susy_hamiltonian(g).dense()
    spectra = {}
    for k in range(1, 6):
        blk = sector_block(H, k, g)
        if blk.size:
            ev = np.linalg.eigvalsh(blk)
            assert ev.min() > -1e-10
            spectra[k] = ev
    for k, ev in spectra.items():
        for lam in ev[ev > 1e-9]:
            neighbors = np.concatenate(
                [spectra.get(k - 1, np.array([])), spectra.get(k + 1, np.array([]))]
            )
            assert neighbors.size and np.abs(neighbors - lam).min() < 1e-9


def test_kernel_dims_are_betti_numbers():
    # dim ker(sector k) = beta_{k-1} of the clique complex
    g = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])  # C4: beta1 = 1
    H = susy_hamiltonian(g).dense()
    ev1 = np.linalg.eigvalsh(sector_block(H, 1, g))
    ev2 = np.linalg.eigvalsh(sector_block(H, 2, g))
    assert (ev1 < 1e-9).sum() == 1  # beta0
    assert (ev2 < 1e-9).sum() == 1  # beta1


def test_offsector_states_decouple():
    g = graph_from_edges(3, [(0, 1), (1, 2)])  # path: {0,2} is not an edge
    H = susy_hamiltonian(g).dense()
    invalid = 0b101  # qubits 0 and 2 excited, non-adjacent
    valid = [0b001, 0b010, 0b100, 0b011, 0b110]
    for v in valid:
        assert abs(H[invalid, v]) < 1e-12


def test_term_count_quadratic():
    # bounded-degree graphs: term count grows at most ~ c n^2
    rng = np.random.default_rng(5)
    counts = {}
    for n in (4, 6, 8, 10):
        edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
        g = graph_from_edges(n, edges, pure=True)
        counts[n] = len(susy_hamiltonian(g).terms)
    cs = [counts[n] / n**2 for n in counts]
    assert max(cs) <= 2.5 * min(cs)


def test_identity_offset_on_complete_graph():
    g = graph_from_edges(3, [(0, 1), (0, 2), (1, 2)])
    ham = susy_hamiltonian(g)
    # on K_n every diagonal projector is trivial, so a constant shows up
    assert ham.identity_offset != 0.0
    H = ham.dense()
    assert np.abs(H - H.T).max() < 1e-12


def test_onehot_encoding_matches_matrix():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    M = (A + A.T) / 2
    ham = onehot_hamiltonian(M)
    dense = ham.dense()
    idx = [1 << q for q in range(5)]
    blk = dense[np.ix_(idx, idx)]
    assert np.allclose(blk, M, atol=1e-12)
    N = excitation_number(5)
    assert np.abs(dense @ N - N @ dense).max() < 1e-12


def test_dense_guard():
    from topospec.errors import ResourceLimitError
    import pytest

    g = graph_from_edges(14, [(i, i + 1) for i in range(13)], pure=True)
    ham = susy_hamiltonian(g)  # symbolic assembly stays cheap at n = 14
    assert ham.n == 14
    with pytest.raises(ResourceLimitError):
        ham.dense()


def test_block_equivalence_rejects_more_than_ten_vertices():
    from topospec.errors import ResourceLimitError
    import pytest

    g = graph_from_edges(11, [(i, i + 1) for i in range(10)], pure=True)
    with pytest.raises(ResourceLimitError, match=r"^dense equivalence check limited to n <= 10$"):
        verify_block_equivalence(g, k_max=3)


def test_jsonl_export(tmp_path):
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    ham = susy_hamiltonian(g)
    ham.to_jsonl(tmp_path / "ham.jsonl")
    import json

    lines = (tmp_path / "ham.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert head["n"] == 3
    assert len(lines) == 1 + len(ham.terms)
