"""Boundary matrices, clique lists, Hodge Laplacians, spectra, projectors,
and the gap-persistence bound checker.

This module is the one owner of the face and sign rule (`boundary_matrix`)
and of the sum B_k^T B_k + B_{k+1} B_{k+1}^T (`laplacian_k`); topograph's
incidence matrices and susy's clique Laplacians are built from them.

All eigensolves are dense symmetric decompositions; desk-scale complexes stay
well under a few hundred simplices.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .embedding import PointCloud
from .persistence import Filtration, compute_persistence, rips_filtration


@dataclass(frozen=True)
class HodgeSpectrum:
    eigenvalues: np.ndarray  # ascending
    tau0: float
    beta_k: int
    gap: float | None  # first eigenvalue above tau0, absent if none


def laplacian_k(B_k: np.ndarray | None, B_k1: np.ndarray | None) -> np.ndarray:
    """L_k = B_k^T B_k + B_{k+1} B_{k+1}^T; either side may be absent at the
    ends of the complex."""
    if B_k is None and B_k1 is None:
        raise ValueError("need at least one incidence matrix")
    down = None if B_k is None else np.asarray(B_k).T @ np.asarray(B_k)
    up = None if B_k1 is None else np.asarray(B_k1) @ np.asarray(B_k1).T
    if down is not None and up is not None:
        if down.shape != up.shape:
            raise ValueError(f"dimension mismatch: down {down.shape}, up {up.shape}")
        return down + up
    return down if down is not None else up


def kernel_tolerance(evals: np.ndarray) -> float:
    """Eigenvalues at or below this count as kernel: a relative tolerance on
    the largest eigenvalue magnitude, floored at 1."""
    return 1e-8 * max(float(np.abs(evals).max()), 1.0)


def spectrum(L: np.ndarray) -> HodgeSpectrum:
    """Dense symmetric eigendecomposition with kernel count (at the
    ``kernel_tolerance``) and first gap."""
    L = np.asarray(L, dtype=float)
    if L.size == 0:
        return HodgeSpectrum(eigenvalues=np.zeros(0), tau0=0.0, beta_k=0, gap=None)
    if np.abs(L - L.T).max() > 1e-9 * max(1.0, np.abs(L).max()):
        raise ValueError("input matrix is not symmetric")
    ev = np.linalg.eigvalsh((L + L.T) / 2.0)
    tau0 = kernel_tolerance(ev)
    beta = int(np.sum(ev <= tau0))
    above = ev[ev > tau0]
    gap = float(above[0]) if len(above) else None
    return HodgeSpectrum(eigenvalues=ev, tau0=tau0, beta_k=beta, gap=gap)


def hodge_projectors(
    B_k: np.ndarray | None, B_k1: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(P_grad, P_harm, P_curl) on k-chains via Moore-Penrose pseudoinverses."""
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


# ---------------------------------------------------------------------------
# boundaries, cliques and complexes; the one face and sign rule
# ---------------------------------------------------------------------------


def _faces(simplices: list[tuple[int, ...]], i: int) -> list[tuple[int, ...]]:
    """Face i of each sorted simplex: vertex i dropped. It enters the
    boundary with sign (-1)^i."""
    return [s[:i] + s[i + 1 :] for s in simplices]


def boundary_matrix(
    simp_k: list[tuple[int, ...]], simp_km1: list[tuple[int, ...]]
) -> np.ndarray:
    """Signed boundary of k-simplices (all of one dimension) with the
    orientation induced by sorted vertex order."""
    idx = {s: r for r, s in enumerate(simp_km1)}
    B = np.zeros((len(simp_km1), len(simp_k)), dtype=float)
    cols = np.arange(len(simp_k))
    for i in range(len(simp_k[0]) if simp_k else 0):
        B[[idx[face] for face in _faces(simp_k, i)], cols] = (-1.0) ** i
    return B


def cliques(n_vertices: int, edges, size: int) -> list[tuple[int, ...]]:
    """Vertex sets of the size-cliques of a graph whose edges are (i, j) pairs
    with i < j, in lexicographic order."""
    es = set(edges)
    return [
        c
        for c in itertools.combinations(range(n_vertices), size)
        if all(pair in es for pair in itertools.combinations(c, 2))
    ]


def complex_laplacian(cx: dict[int, list[tuple[int, ...]]], p: int) -> np.ndarray:
    """Dense L_p of a complex given as sorted simplex lists by dimension; a
    dimension absent from cx has no simplices."""
    simp_p = cx.get(p, [])
    if not simp_p:
        return np.zeros((0, 0))
    down = boundary_matrix(simp_p, cx[p - 1]) if p >= 1 else None
    return laplacian_k(down, boundary_matrix(cx.get(p + 1, []), simp_p))


def laplacian_at(filt: Filtration, eps: float, p: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense p-Laplacian of the complex at radius eps, with its p-simplex basis."""
    cx = filt.complex_at(eps)
    return complex_laplacian(cx, p), cx[p]


# ---------------------------------------------------------------------------
# gap-persistence bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    birth: float
    death: float
    lipschitz: float
    d_p_max_cofacets: int  # max p-simplices over a (p-1)-simplex at K_death
    d_p_max_faces: int  # faces per p-simplex (p+1 when any p-simplex exists)
    lambda_at_birth: float  # smallest eigenvalue above tau0 of Delta_p(K_birth)
    lhs: float
    rhs: float
    slack: float
    holds: bool


def _padded_norm_diff(La: np.ndarray, basis_a, Lb: np.ndarray, basis_b) -> float:
    """Spectral norm of Lb - La, embedding La's chain space into the larger
    one of Lb (basis_a is a subset of basis_b) with zero blocks."""
    if not basis_b:
        return 0.0
    idx = {s: i for i, s in enumerate(basis_b)}
    ia = [idx[s] for s in basis_a]
    diff = np.array(Lb, dtype=float)
    diff[np.ix_(ia, ia)] -= La
    return float(np.linalg.norm(diff, ord=2))


def empirical_lipschitz(filt: Filtration, b: float, d: float, p: int) -> float:
    """Max over consecutive critical radii in [b, d] of
    ||Delta_p(K_{t+}) - Delta_p(K_t)||_2 / (t+ - t)."""
    radii = [r for r in filt.critical_radii() if b - 1e-12 <= r <= d + 1e-12]
    laps = [laplacian_at(filt, r, p) for r in radii]
    best = 0.0
    for r0, r1, (L0, s0), (L1, s1) in zip(radii, radii[1:], laps, laps[1:]):
        if r1 - r0 <= 1e-15:
            continue
        best = max(best, _padded_norm_diff(L0, s0, L1, s1) / (r1 - r0))
    return best


def _d_p_max(filt: Filtration, eps: float, p: int) -> tuple[int, int]:
    """Both readings of d_{p,max} at radius eps: (max cofacet count over
    (p-1)-simplices, faces per p-simplex)."""
    cx = filt.complex_at(eps)
    simp_p = cx[p]
    faces = (p + 1) if simp_p else 0
    counts = Counter(face for i in range(p + 1) for face in _faces(simp_p, i))
    cofacets = max((counts[s] for s in cx[p - 1]), default=0) if p >= 1 else 0
    return cofacets, faces


def verify_gap_persistence_bound(cloud: PointCloud | np.ndarray, p: int = 1) -> list[BoundReport]:
    """Check L~ (d-b) + (p+1) d_{p,max} >= lambda_{beta_p + 1}(Delta_p(K_b))
    for every finite H_p pair of the cloud's Rips filtration.

    d_{p,max} is evaluated at the death radius under both wordings (cofacet
    count and face count); the larger enters the bound and both are reported.
    lambda at birth is the smallest eigenvalue above the kernel tolerance.
    """
    cloud = PointCloud.of(cloud)
    if cloud.n > 12:
        raise ValueError("bound checker is limited to clouds of <= 12 points")
    filt = rips_filtration(cloud)
    diag = compute_persistence(filt)
    reports: list[BoundReport] = []
    for b, d in diag.in_dim(p, finite_only=True):
        L_b, simp_b = laplacian_at(filt, b, p)
        spec_b = spectrum(L_b) if simp_b else None
        lam = spec_b.gap if spec_b is not None and spec_b.gap is not None else 0.0
        lip = empirical_lipschitz(filt, b, d, p) if d > b else 0.0
        cof, fac = _d_p_max(filt, d, p)
        dmax = max(cof, fac)
        lhs = lip * (d - b) + (p + 1) * dmax
        rhs = lam
        reports.append(
            BoundReport(
                birth=b,
                death=d,
                lipschitz=lip,
                d_p_max_cofacets=cof,
                d_p_max_faces=fac,
                lambda_at_birth=rhs,
                lhs=lhs,
                rhs=rhs,
                slack=lhs - rhs,
                holds=lhs >= rhs - 1e-9,
            )
        )
    return reports
