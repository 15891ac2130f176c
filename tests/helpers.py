"""Test-only builders and reference implementations shared by several test
modules. None of them is on a program path: each is an independent oracle the
tests check the program against, or a fixture builder for hand-made inputs."""

from __future__ import annotations

import numpy as np

from topospec.errors import ResourceLimitError
from topospec.hodge import HodgeSpectrum
from topospec.qcompile import Circuit, _mask_bits, _pattern_key, simulate
from topospec.susy import PauliTerm
from topospec.topograph import TopoGraph, enumerate_triangles, incidence_matrices


def circuit_unitary(circ: Circuit) -> np.ndarray:
    """Materialize the circuit matrix by simulating every basis state: the
    dense gate-by-gate unitary that qcompile.simulate is checked against."""
    if circ.n_qubits > 12:
        raise ResourceLimitError("unitary materialization limited to 12 qubits")
    dim = 1 << circ.n_qubits
    U = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[j] = 1.0
        U[:, j] = simulate(circ, e)
    return U


def hodge_projectors(
    B_k: np.ndarray | None, B_k1: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_grad, P_harm, P_curl) on k-chains via Moore-Penrose pseudoinverses:
    the oracle for the harmonic dimension."""
    if B_k is not None:
        dim = np.asarray(B_k).shape[1]
    elif B_k1 is not None:
        dim = np.asarray(B_k1).shape[0]
    else:
        raise ValueError("need at least one incidence matrix")
    ident = np.eye(dim)
    if B_k is None:
        P_grad = np.zeros((dim, dim))
    else:
        Bk = np.asarray(B_k, dtype=float)
        P_grad = Bk.T @ np.linalg.pinv(Bk @ Bk.T) @ Bk
    if B_k1 is None:
        P_curl = np.zeros((dim, dim))
    else:
        Bk1 = np.asarray(B_k1, dtype=float)
        P_curl = Bk1 @ np.linalg.pinv(Bk1.T @ Bk1) @ Bk1.T
    P_harm = ident - P_grad - P_curl
    return P_grad, P_harm, P_curl


def graph_from_edges(n_vertices: int, edges, triangle_mode: str = "all_3_cliques") -> TopoGraph:
    """Graph on abstract vertices from an explicit edge list (coords default
    to a unit circle layout), for hand-made fixtures."""
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    tris = enumerate_triangles(edges, triangle_mode)
    B1, B2 = incidence_matrices(n_vertices, edges, tris)
    theta = 2 * np.pi * np.arange(n_vertices) / max(n_vertices, 1)
    coords = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return TopoGraph(
        coords=coords,
        edges=edges,
        provenance=tuple("mst" for _ in edges),
        triangles=tris,
        B1=B1,
        B2=B2,
    )


def toggle_count_for_order(terms: list[PauliTerm]) -> int:
    """Hamming toggles between consecutive same-pattern terms in the given
    order: the metric qcompile.schedule_gray's schedule is checked against."""
    total = 0
    prev: dict[tuple, int] = {}
    for t in terms:
        key = _pattern_key(t)
        _, mask = _mask_bits(t)
        if key in prev:
            total += bin(prev[key] ^ mask).count("1")
        prev = {key: mask}
    return total


def spectrum_oracle(L: np.ndarray) -> HodgeSpectrum:
    """One matrix, one ``eigvalsh`` call, kernel at 1e-8 * max(max|ev|, 1):
    the per-matrix spectrum that hodge.spectra's stacked solves are checked
    against."""
    L = np.asarray(L, dtype=float)
    if L.size == 0:
        return HodgeSpectrum(eigenvalues=np.zeros(0), tau0=0.0, beta_k=0, gap=None)
    if np.abs(L - L.T).max() > 1e-9 * max(1.0, np.abs(L).max()):
        raise ValueError("input matrix is not symmetric")
    ev = np.linalg.eigvalsh((L + L.T) / 2.0)
    tau0 = 1e-8 * max(float(np.abs(ev).max()), 1.0)
    beta = int(np.sum(ev <= tau0))
    above = ev[ev > tau0]
    gap = float(above[0]) if len(above) else None
    return HodgeSpectrum(eigenvalues=ev, tau0=tau0, beta_k=beta, gap=gap)
