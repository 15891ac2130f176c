"""Boundary matrices, Hodge Laplacians, spectra, and the
gap-persistence bound checker.

Every complex is a ``persistence.Filtration`` (a graph or clique complex is
one whose radii are all 0), and its faces come from the filtration's face
table. This module owns the sign rule: ``FiltrationLaplacians`` builds each
boundary B_d from that table with face i signed (-1)^i, and ``laplacian_k``
sums B_k^T B_k + B_{k+1} B_{k+1}^T; topograph's incidence matrices and susy's
clique Laplacians are read off them.

The Laplacians of a filtration's complex at a radius are prefix slices of the
boundaries built once per filtration, not rebuilt from simplex lists at each
radius.

All eigensolves are dense symmetric decompositions; desk-scale complexes stay
well under a few hundred simplices. ``spectra`` solves a list of matrices
as one stacked ``eigvalsh`` call per size, bit-equal to solving each alone;
the bound checker solves every birth Laplacian of its clouds that way.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

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


def kernel_tolerance(evals: np.ndarray) -> float | np.ndarray:
    """Eigenvalues at or below this count as kernel: a relative tolerance on
    the largest eigenvalue magnitude, floored at 1; one per row of a stack."""
    return 1e-8 * np.maximum(np.abs(evals).max(axis=-1), 1.0)


def spectra(mats) -> list[HodgeSpectrum]:
    """Dense symmetric eigendecomposition of each matrix, with kernel count
    (at the ``kernel_tolerance``) and first gap, in input order.

    The matrices are grouped by shape; each group is checked for symmetry
    member by member and solved by one stacked ``eigvalsh`` call, which runs
    the same LAPACK routine on each matrix as a call of its own, so every
    eigenvalue is bit-equal to the per-matrix solve.
    """
    mats = [np.asarray(L, dtype=float) for L in mats]
    out: list[HodgeSpectrum | None] = [None] * len(mats)
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for i, L in enumerate(mats):
        if L.size == 0:
            out[i] = HodgeSpectrum(eigenvalues=np.zeros(0), tau0=0.0, beta_k=0, gap=None)
        else:
            by_shape.setdefault(L.shape, []).append(i)
    groups = [(members, np.stack([mats[i] for i in members])) for members in by_shape.values()]
    for _, stack in groups:
        asym = np.abs(stack - stack.transpose(0, 2, 1)).max(axis=(1, 2))
        if (asym > 1e-9 * np.maximum(1.0, np.abs(stack).max(axis=(1, 2)))).any():
            raise ValueError("input matrix is not symmetric")
    for members, stack in groups:
        evs = np.linalg.eigvalsh((stack + stack.transpose(0, 2, 1)) / 2.0)
        tau0 = kernel_tolerance(evs)
        # eigenvalues ascend, so the kernel is a prefix and the gap follows it
        beta = (evs <= tau0[:, None]).sum(axis=1)
        for i, ev, t, b in zip(members, evs, tau0.tolist(), beta.tolist()):
            gap = float(ev[b]) if b < len(ev) else None
            out[i] = HodgeSpectrum(eigenvalues=ev, tau0=t, beta_k=b, gap=gap)
    return out


def spectrum(L: np.ndarray) -> HodgeSpectrum:
    """The ``spectra`` of one matrix."""
    return spectra([L])[0]


# ---------------------------------------------------------------------------
# the boundaries of a filtration; the one sign rule
# ---------------------------------------------------------------------------


class FiltrationLaplacians:
    """The boundaries of one filtration, built once in table order, so the
    Laplacian of the complex at any radius is a slice of them. Column j of
    B_d holds (-1)^i at the row of face i of the d-cell j (``filt.faces``):
    the package's one sign rule.

    The complex at radius eps is the first ``bisect_right(radii[d], eps)``
    rows of each table. Its L_p is B_p and B_{p+1} cut to those rows and
    columns, with the p-simplices put in lexicographic order, in which the
    table rows below a count appear as ``lex[d][lex[d] < count]``. Every
    entry is a sum of products of 0 and +-1, so slicing and reordering leave
    each float exactly as a rebuild from the simplex lists would give it.
    ``lex`` and ``critical_radii`` are built on first use, since a reader of
    ``boundaries`` alone (topograph's incidence matrices) needs neither.
    """

    def __init__(self, filt: Filtration):
        self.filt = filt
        cells = filt.cells
        # boundaries[d] is B_d, the boundary of the d-cells; the top dimension has no cofaces
        self.boundaries = [None]
        for d in range(1, len(cells)):
            faces = filt.faces[d]
            B = np.zeros((len(cells[d - 1]), len(faces)))
            B[faces, np.arange(len(faces))[:, None]] = (-1.0) ** np.arange(d + 1)
            self.boundaries.append(B)
        self.boundaries.append(np.zeros((len(cells[-1]), 0)))
        # counts() runs once per slice, and bisect on a list beats searchsorted per call
        self._radii = [radii.tolist() for radii in filt.radii]

    @cached_property
    def lex(self) -> tuple[np.ndarray, ...]:
        return tuple(np.lexsort(cells.T[::-1]) for cells in self.filt.cells)

    @cached_property
    def critical_radii(self) -> np.ndarray:
        return self.filt.critical_radii()

    def counts(self, eps: float) -> list[int]:
        """Number of cells of each dimension present at radius eps, and 0
        cofaces above the top."""
        return [bisect.bisect_right(radii, eps) for radii in self._radii] + [0]

    def laplacian(self, eps: float, p: int) -> tuple[np.ndarray, np.ndarray]:
        """Dense L_p of the complex at radius eps, with the table rows of its
        p-simplex basis in lexicographic order."""
        n = self.counts(eps)
        rows = self.lex[p][self.lex[p] < n[p]]
        if not len(rows):
            return np.zeros((0, 0)), rows
        down = self.boundaries[p][: n[p - 1], rows] if p >= 1 else None
        return laplacian_k(down, self.boundaries[p + 1][rows, : n[p + 1]]), rows

    def d_p_max(self, eps: float, p: int) -> tuple[int, int]:
        """Both readings of d_{p,max} at radius eps: (max cofacet count over
        (p-1)-simplices, faces per p-simplex)."""
        n = self.counts(eps)[p]
        # the cofacets of a (p-1)-simplex are the nonzeros of its row of B_p
        cofacets = int(np.count_nonzero(self.boundaries[p][:, :n], axis=1).max(initial=0)) if p >= 1 else 0
        return cofacets, (p + 1) if n else 0


def laplacian_at(filt: Filtration, eps: float, p: int) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """Dense p-Laplacian of the complex at radius eps, with its p-simplex
    basis in lexicographic order. No program path calls it; it stays as a
    perfbench tracer target, which tests/test_tracer_contract.py requires."""
    L, rows = FiltrationLaplacians(filt).laplacian(eps, p)
    return L, list(map(tuple, filt.cells[p][rows].tolist()))


# ---------------------------------------------------------------------------
# gap-persistence bound
# ---------------------------------------------------------------------------


BOUND_MAX_POINTS = 12  # the largest cloud the bound checker takes


@dataclass(frozen=True)
class BoundReport:
    cloud: int  # position of the cloud in the list checked
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


def empirical_lipschitz(laps: FiltrationLaplacians, b: float, d: float, p: int) -> float:
    """Max over consecutive critical radii in [b, d] of
    ||Delta_p(K_{t+}) - Delta_p(K_t)||_2 / (t+ - t), with Delta_p(K_t)
    embedded in the larger chain space of K_{t+} by zero blocks."""
    radii = laps.critical_radii
    radii = radii[(b - 1e-12 <= radii) & (radii <= d + 1e-12)]
    slices = [laps.laplacian(r, p) for r in radii]
    best = 0.0
    for r0, r1, (L0, rows0), (L1, rows1) in zip(radii, radii[1:], slices, slices[1:]):
        if r1 - r0 <= 1e-15:
            continue
        norm = 0.0
        if len(rows1):
            # K_t's simplices are the first len(rows0) table rows, in the same order within K_{t+}
            kept = np.flatnonzero(rows1 < len(rows0))
            diff = L1.copy()
            diff[np.ix_(kept, kept)] -= L0
            norm = float(np.linalg.norm(diff, ord=2))
        best = max(best, norm / (r1 - r0))
    return best


def verify_gap_persistence_bound(
    clouds: list[PointCloud | np.ndarray],
    p: int = 1,
    seconds: dict[str, float] | None = None,
    sizes: dict[str, int] | None = None,
) -> list[BoundReport]:
    """Check L~ (d-b) + (p+1) d_{p,max} >= lambda_{beta_p + 1}(Delta_p(K_b))
    for every finite H_p pair of each cloud's Rips filtration: one report
    per pair, clouds in order, each carrying its cloud's position.

    d_{p,max} is evaluated at the death radius under both wordings (cofacet
    count and face count); the larger enters the bound and both are reported.
    lambda at birth is the smallest eigenvalue above the kernel tolerance.

    Every cloud's filtration, diagram and ``FiltrationLaplacians`` are built
    first, then the birth Laplacians of all pairs are solved in one
    ``spectra`` call, then the reports are assembled. The wall seconds of
    these stages (``filtration``, ``laplacians``, ``spectra``, ``lipschitz``)
    go into ``seconds`` and the number of stacked eigensolves into
    ``sizes["solves"]``, when given.
    """
    # sweep imports this module, so its timer is looked up at call time
    from .sweep import _timed

    seconds = {} if seconds is None else seconds
    clouds = [PointCloud.of(cloud) for cloud in clouds]
    if any(cloud.n > BOUND_MAX_POINTS for cloud in clouds):
        raise ValueError(f"bound checker is limited to clouds of <= {BOUND_MAX_POINTS} points")
    with _timed(seconds, "filtration"):
        filts = [rips_filtration(cloud) for cloud in clouds]
        diags = [compute_persistence(filt) for filt in filts]
        pairs = [(c, b, d) for c, diag in enumerate(diags) for b, d in diag.in_dim(p, finite_only=True)]
    with _timed(seconds, "laplacians"):
        laps = [FiltrationLaplacians(filt) for filt in filts]
        births = [laps[c].laplacian(b, p)[0] for c, b, _ in pairs]
    with _timed(seconds, "spectra"):
        specs = spectra(births)
    if sizes is not None:
        sizes["solves"] = len({L.shape for L in births if L.size})
    reports: list[BoundReport] = []
    with _timed(seconds, "lipschitz"):
        for (c, b, d), spec_b in zip(pairs, specs):
            lam = spec_b.gap if spec_b.gap is not None else 0.0
            lip = empirical_lipschitz(laps[c], b, d, p) if d > b else 0.0
            cof, fac = laps[c].d_p_max(d, p)
            dmax = max(cof, fac)
            lhs = lip * (d - b) + (p + 1) * dmax
            rhs = lam
            reports.append(
                BoundReport(
                    cloud=c,
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
