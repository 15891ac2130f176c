import math

import numpy as np
import pytest

from topospec.errors import TopospecError
from topospec.hodge import laplacian_k
from topospec.probe import (
    dephased_probes,
    diagonal_ensemble_weights,
    dicke_state,
    dicke_weights,
    uniform_edge_state,
    w_state_vector,
)
from topospec.qcompile import simulate
from topospec.spectro import correlator_exact
from topospec.topograph import build_graph
from helpers import graph_from_edges, w_state_circuit

C4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])


def test_uniform_edge_basics():
    assert np.array_equal(uniform_edge_state(1), [1.0])
    assert np.allclose(uniform_edge_state(4), 0.5)
    with pytest.raises(TopospecError):
        uniform_edge_state(0)


def test_uniform_edge_orthogonal_to_c4_harmonic():
    # with the cycle visiting 0-2-1-3, the harmonic flow alternates signs in
    # the sorted-edge basis and cancels exactly against the all-equal probe;
    # this blindness is why the dephased ensemble is the default Betti path
    g = graph_from_edges(4, [(0, 2), (1, 2), (1, 3), (0, 3)])
    L1 = laplacian_k(g.B1, None)
    evals, evecs = np.linalg.eigh(L1)
    assert evals[0] < 1e-12
    harmonic = evecs[:, 0]
    probe = uniform_edge_state(4)
    assert abs(probe @ harmonic) < 1e-12


def test_dicke_weights_uniform_when_unbiased():
    w = dicke_weights(C4, 0.0, 0.0)
    assert np.allclose(w, w[0])
    assert np.isclose((w**2).sum(), 1.0)


def test_dicke_weights_ring_endpoint_hand_count():
    # ring edges on C4 built from a circle: each vertex label appears as an
    # endpoint twice, so w_k gains 2*alpha at k in {0,1,2,3}
    theta = np.linspace(0, 2 * np.pi, 4, endpoint=False)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    from topospec.persistence import circular_coordinates

    g = build_graph(coords, circular_coordinates(coords), use_ring=True, eps_quantile=0.05)
    ring = g.ring_edges()
    w = dicke_weights(g, 1.0, 0.0)
    raw = np.ones(5)
    for (u, v) in ring:
        raw[u] += 1.0
        raw[v] += 1.0
    raw /= math.sqrt((raw**2).sum())
    assert np.allclose(w, raw, atol=1e-12)


def test_dicke_state_populations():
    w = dicke_weights(C4, 0.5, 0.5)
    psi = dicke_state(4, w)
    assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-12)
    pops = np.zeros(5)
    for idx, a in enumerate(psi):
        pops[bin(idx).count("1")] += a**2
    assert np.allclose(pops, (w / np.linalg.norm(w)) ** 2, atol=1e-12)


def test_w_state_n1_is_x():
    circ = w_state_circuit(1)
    assert [g.kind for g in circ.gates] == ["X"]
    v = w_state_vector(1)
    assert np.allclose(np.abs(v), [0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("n", range(1, 13))
def test_w_state_is_the_one_hot_uniform_edge_state(n):
    # exactly the uniform edge amplitudes at indices 1 << q, exactly 0 elsewhere
    one_hot = np.zeros(1 << n, dtype=complex)
    for q, a in enumerate(uniform_edge_state(n)):
        one_hot[1 << q] = a
    v = w_state_vector(n)
    assert np.array_equal(v, one_hot)
    # the RY/CRY/CNOT preparation chain from |0...0> reaches it up to rounding
    init = np.zeros(1 << n, dtype=complex)
    init[0] = 1.0
    assert np.abs(v - simulate(w_state_circuit(n), init)).max() <= 1e-15


def test_w_state_n2_bell_split():
    v = w_state_vector(2)
    assert abs(abs(v[0b01]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(abs(v[0b10]) - 1 / math.sqrt(2)) < 1e-12
    assert abs(v[0b00]) < 1e-12 and abs(v[0b11]) < 1e-12


def test_w_state_n7_uniform():
    v = w_state_vector(7)
    idx = [1 << q for q in range(7)]
    assert np.abs(np.abs(v[idx]) - 1 / math.sqrt(7)).max() < 1e-12
    mask = np.ones(128, dtype=bool)
    mask[idx] = False
    assert np.abs(v[mask]).max() < 1e-12


def test_w_state_relabel_invariance():
    # permuting qubit labels permutes amplitudes without changing magnitudes
    v = np.abs(w_state_vector(5))
    nz = sorted(np.where(v > 1e-12)[0])
    assert nz == [1 << q for q in range(5)]
    assert np.allclose(v[nz], v[nz][0])


def test_dephased_probes_are_unit_phase_draws():
    probe = np.array([0.6, 0.8, 0.0], dtype=complex)
    draws = dephased_probes(probe, samples=5, seed=4)
    assert draws.shape == (3, 5)
    assert np.allclose(np.linalg.norm(draws, axis=0), 1.0, atol=1e-12)
    assert np.allclose(np.abs(draws), np.abs(probe)[:, None], atol=1e-12)
    assert np.array_equal(draws, dephased_probes(probe, samples=5, seed=4))
    with pytest.raises(ValueError, match="at least one"):
        dephased_probes(probe, samples=0)


def test_dephase_noop_for_diagonal_hamiltonian():
    h = np.diag([0.0, 1.0, 3.0])
    probe = np.array([0.6, 0.8, 0.0], dtype=complex)
    tg = 0.3 * np.arange(16)
    avg = correlator_exact(h, dephased_probes(probe, samples=7, seed=1), 0.3, 16).values
    exact = (np.abs(probe) ** 2 * np.exp(-1j * np.outer(tg, np.diag(h)))).sum(axis=1)
    assert np.abs(avg - exact).max() < 1e-12


def test_dephase_converges_to_diagonal_ensemble():
    # 2-level toy with a known off-diagonal contribution
    h = np.array([[0.0, 0.4], [0.4, 1.0]])
    probe = np.array([1.0, 1.0]) / math.sqrt(2)
    tg = 0.4 * np.arange(24)
    evals, evecs = np.linalg.eigh(h)
    # dephasing the probe leaves the incoherent mixture of basis states
    # weighted by |c_k|^2, not the pure-state eigenweights
    a = (np.abs(evecs.T) ** 2) @ (np.abs(probe) ** 2)
    diag_part = (a * np.exp(-1j * np.outer(tg, evals))).sum(axis=1)
    errs = []
    for samples in (8, 64, 512):
        draws = dephased_probes(probe.astype(complex), samples=samples, seed=2)
        avg = correlator_exact(h, draws, 0.4, 24).values
        errs.append(np.abs(avg - diag_part).max())
    assert errs[2] < errs[0]
    assert errs[2] < 4.0 / math.sqrt(512)


def test_dephase_restores_c4_zero_mode():
    L1 = laplacian_k(C4.B1, None)
    tg = 0.25 * np.arange(64)
    probe = uniform_edge_state(4).astype(complex)
    avg = correlator_exact(L1, dephased_probes(probe, samples=400, seed=3), 0.25, 64).values
    # exact diagonal-ensemble weights put 1/4 on the kernel line
    evals, evecs = np.linalg.eigh(L1)
    weights = diagonal_ensemble_weights(evecs, np.eye(4))
    expect = (weights * np.exp(-1j * np.outer(tg, evals))).sum(axis=1)
    assert np.abs(avg - expect).max() < 0.15
    assert weights[evals < 1e-9].sum() == pytest.approx(0.25, abs=1e-12)
