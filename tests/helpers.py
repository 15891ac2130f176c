"""Test-only builders and reference implementations shared by several test
modules. None of them is on a program path: each is an independent oracle the
tests check the program against, or a fixture builder for hand-made inputs."""

from __future__ import annotations

import itertools
import math

import numpy as np

from topospec import spectro
from topospec.embedding import PointCloud
from topospec.errors import DegenerateBandwidthError, ResourceLimitError, SelectionInfeasibleError
from topospec.hodge import HodgeSpectrum, laplacian_k
from topospec.persistence import Filtration
from topospec.qcompile import Circuit, Gate, controlled_evolution, fuse, simulate
from topospec.selection import _nearest
from topospec.spectro import CorrelatorSeries, RefinedPeaks, periodogram
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


def _ry(theta: float, q: int) -> list[Gate]:
    """RY from the fixed gate set: RZ(pi/2) RX(theta) RZ(-pi/2)."""
    return [
        Gate("RZ", target=q, theta=-math.pi / 2),
        Gate("RX", target=q, theta=theta),
        Gate("RZ", target=q, theta=math.pi / 2),
    ]


def _cry(theta: float, control: int, target: int) -> list[Gate]:
    """Controlled-RY via the two-CNOT decomposition."""
    gates = _ry(theta / 2, target)
    gates.append(Gate("CNOT", target=target, controls=((control, 1),)))
    gates += _ry(-theta / 2, target)
    gates.append(Gate("CNOT", target=target, controls=((control, 1),)))
    return gates


def w_state_circuit(n: int) -> Circuit:
    """Linear-depth preparation of the single-excitation Dicke state from
    |0...0>: an X on qubit 0, then a chain of controlled rotations splitting
    the amplitude evenly, each followed by a CNOT that moves the excitation
    marker. Simulated, it is the oracle probe.w_state_vector's exact
    amplitudes are checked against."""
    if n < 1:
        raise ValueError("need at least one qubit")
    gates: list[Gate] = [Gate("X", target=0)]
    for i in range(n - 1):
        theta = 2 * math.acos(1.0 / math.sqrt(n - i))
        gates += _cry(theta, control=i, target=i + 1)
        gates.append(Gate("CNOT", target=i, controls=((i + 1, 1),)))
    return Circuit(n_qubits=n, gates=tuple(gates))


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


def boundary_oracle(simp_k, simp_km1) -> np.ndarray:
    """Signed boundary of k-simplices (all of one dimension), found through a
    dict of vertex tuples: face i of a sorted simplex, vertex i dropped,
    enters with sign (-1)^i. The boundary hodge.FiltrationLaplacians builds
    from a filtration's face table is checked against it."""
    idx = {s: r for r, s in enumerate(simp_km1)}
    B = np.zeros((len(simp_km1), len(simp_k)))
    for col, s in enumerate(simp_k):
        for i in range(len(s)):
            B[idx[s[:i] + s[i + 1 :]], col] = (-1.0) ** i
    return B


def complex_laplacian_oracle(cx: dict[int, list[tuple[int, ...]]], p: int) -> np.ndarray:
    """Dense L_p of a complex given as sorted simplex lists by dimension, from
    ``boundary_oracle``; a dimension absent from cx has no simplices."""
    simp_p = cx.get(p, [])
    if not simp_p:
        return np.zeros((0, 0))
    down = boundary_oracle(simp_p, cx[p - 1]) if p >= 1 else None
    return laplacian_k(down, boundary_oracle(cx.get(p + 1, []), simp_p))


def complex_at(filt: Filtration, eps: float) -> dict[int, list[tuple[int, ...]]]:
    """Simplices of each dimension present at radius eps (a prefix of each
    table), in lexicographic order."""
    return {
        d: sorted(map(tuple, cells[: np.searchsorted(radii, eps, side="right")].tolist()))
        for d, (cells, radii) in enumerate(zip(filt.cells, filt.radii))
    }


def reference_complex_at(simplices, eps: float) -> dict[int, list[tuple[int, ...]]]:
    """The complex at radius eps by scanning every simplex and sorting: the
    oracle ``complex_at`` is checked against."""
    out = {0: [], 1: [], 2: []}
    for verts, r in simplices:
        if r <= eps:
            out[len(verts) - 1].append(verts)
    return {k: sorted(v) for k, v in out.items()}


def face_tables_oracle(cells) -> list[tuple[tuple[int | None, ...], ...]]:
    """Face tables of cells given as sorted vertex tuples by dimension, found
    through a dict of vertex tuples: entry i of row j of table d is the row in
    cells[d - 1] of the face of cells[d][j] with vertex i dropped, None where
    that face is absent. The code-matched tables of ``Filtration`` are
    checked against it."""
    faces = [((),) * len(cells[0])]
    for d in range(1, len(cells)):
        row = {verts: k for k, verts in enumerate(cells[d - 1])}
        # combinations drops the last vertex first, so reversed its faces are faces 0..d
        faces.append(tuple(tuple(map(row.get, itertools.combinations(v, d)))[::-1] for v in cells[d]))
    return faces


def _reduce(columns: list[int], cleared: set[int]) -> dict[int, int]:
    """Reduce bitmask columns left to right, in place, skipping the cleared
    ones; maps the pivot (highest set bit) of each nonzero column to it."""
    low_to_col: dict[int, int] = {}
    for j, col in enumerate(columns):
        if j in cleared:
            continue
        while col:
            other = low_to_col.get(col.bit_length() - 1)
            if other is None:
                break
            col ^= columns[other]
        columns[j] = col
        if col:
            low_to_col[col.bit_length() - 1] = j
    return low_to_col


def persistence_oracle(filt: Filtration) -> tuple[tuple[int, float, float], ...]:
    """Sorted degree-0 and degree-1 pairs of a filtration's tables by the
    standard boundary reduction over GF(2) with clearing, faces from
    ``face_tables_oracle``: the homology reduction that
    persistence.compute_persistence's cohomology is checked against.

    Dimensions are processed top-down from 2 (absent tables count as empty);
    when a dim-k column pairs with a dim-(k-1) pivot, the pivot's own column
    is cleared (it is necessarily a cycle).
    """
    cells = [list(map(tuple, c.tolist())) for c in filt.cells[:3]]
    radii = [r.tolist() for r in filt.radii[:3]]
    cells += [[]] * (3 - len(cells))
    radii += [[]] * (3 - len(radii))
    faces = face_tables_oracle(cells)
    pairs: list[tuple[int, float, float]] = []
    paired: set[int] = set()  # simplices of dim paired as births by dim + 1; vertices have no pivots
    for dim in (2, 1, 0):
        pivots = _reduce([sum(1 << k for k in face) for face in faces[dim]], paired)
        pairs += [(dim - 1, radii[dim - 1][low], radii[dim][j]) for low, j in pivots.items()]
        if dim < 2:  # neither paired as a birth nor a death: an essential class
            dead = paired | set(pivots.values())
            pairs += [(dim, r, math.inf) for j, r in enumerate(radii[dim]) if j not in dead]
        paired = set(pivots)
    return tuple(sorted(pairs))


def sq_distances_broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared distances through one (len(a), len(b), m) difference array,
    summed by numpy: the formula embedding.sq_distances's column-wise kernel
    is checked against bit for bit."""
    diff = a[:, None, :] - b[None, :, :]
    return (diff**2).sum(axis=-1)


# The N x N passes of selection over whole matrices: the row-block passes
# must reproduce them bit for bit.


def density_weights_oracle(cloud, alpha: float) -> np.ndarray:
    """Density weights from the whole kernel matrix at once, its squared
    distances from the broadcast formula."""
    pts = PointCloud.of(cloud).points
    n, m = pts.shape
    d2 = sq_distances_broadcast(pts, pts)
    h = float(np.quantile(np.sqrt(d2[np.triu_indices(n, k=1)]), 0.10))
    if h == 0.0:
        raise DegenerateBandwidthError("10th-percentile bandwidth is zero")
    rho = np.exp(-d2 / (2 * h * h)).sum(axis=1) / (n * h**m)
    w = rho ** (alpha - 1.0)
    return w / w.sum()


def candidate_set_oracle(cloud, diag) -> tuple[np.ndarray, bool]:
    """Loop candidates from neighbour counts over the whole distance matrix."""
    cloud = PointCloud.of(cloud)
    n = cloud.n
    finite = diag.in_dim(1, finite_only=True)
    if not finite:
        return np.arange(n), True
    b, d = max(finite, key=lambda bd: bd[1] - bd[0])
    nu = (np.sqrt(cloud.d2) < 0.5 * (b + d)).sum(axis=1) - 1
    n_min = int(0.02 * n)
    n_max = max(n_min + 5, int(0.10 * n))
    keep = np.where((nu > n_min) & (nu < n_max))[0]
    if len(keep) == 0:
        raise SelectionInfeasibleError(f"no candidate satisfies {n_min} < nu < {n_max}")
    return keep, False


def knn_graph_oracle(cloud, knn_k: int) -> tuple[np.ndarray, np.ndarray]:
    """The padded kNN table, neighbours and edge lengths read from the whole
    distance matrix."""
    cloud = PointCloud.of(cloud)
    n, dist = cloud.n, np.sqrt(cloud.d2)
    nn = _nearest(dist, min(knn_k + 1, n))[:, 1:]
    src = np.repeat(np.arange(n), nn.shape[1])
    a = np.concatenate([src, nn.ravel()])
    b = np.concatenate([nn.ravel(), src])
    keep = dist[a, b] > 0
    edges = np.unique(a[keep] * n + b[keep])
    a, b = edges // n, edges % n
    degree = np.bincount(a, minlength=n)
    nbr = np.repeat(np.arange(n)[:, None], max(int(degree.max(initial=0)), 1), axis=1)
    w = np.full(nbr.shape, np.inf)
    slot = np.arange(len(a)) - (np.cumsum(degree) - degree)[a]
    nbr[a, slot] = b
    w[a, slot] = dist[a, b]
    return nbr, w


def select_global_oracle(cloud, weights: np.ndarray, already: list[int], k_global: int) -> list[int]:
    """Global picks from the columns of the whole distance matrix."""
    cloud = PointCloud.of(cloud)
    selected, out = list(already), []
    dist = np.sqrt(cloud.d2)
    d_min = dist[:, selected].min(axis=1) if selected else np.full(cloud.n, np.inf)
    for _ in range(k_global):
        score = weights * (1.0 + d_min)
        score[selected + out] = -np.inf
        j = int(score.argmax())
        out.append(j)
        d_min = np.minimum(d_min, dist[:, j])
    return out


def refine_peaks_oracle(omegas: np.ndarray, power: np.ndarray, dt: float) -> RefinedPeaks:
    """Peak refinement by a scan of one spectrum bin by bin in Python: the
    oracle of spectro.refine_peaks and its row-wise mask."""
    amp = np.sqrt(power)
    nyq = math.pi / dt
    lo, hi = spectro.PEAK_BAND[0] * nyq, spectro.PEAK_BAND[1] * nyq
    in_band = (omegas >= lo) & (omegas <= hi)
    med = float(np.median(amp[in_band]))
    mad = float(np.median(np.abs(amp[in_band] - med)))
    flat = mad == 0.0
    if flat:
        thr = float(amp[in_band].mean() + 3 * amp[in_band].std())
    else:
        thr = med + 1.4826 * spectro.PEAK_K_SIGMA * mad
    lines: list[tuple[float, float]] = []
    dw = omegas[1] - omegas[0]
    for i in range(1, len(omegas) - 1):
        if not in_band[i]:
            continue
        a0, am, ap = amp[i], amp[i - 1], amp[i + 1]
        if a0 < thr or a0 < am or a0 <= ap:
            continue
        if am > 0 and ap > 0:
            lm, l0, lp = math.log(am), math.log(a0), math.log(ap)
        else:
            lm, l0, lp = am, a0, ap
        denom = lm - 2 * l0 + lp
        delta = 0.5 * (lm - lp) / denom if denom != 0 else 0.0
        amp_denom = am - 2 * a0 + ap
        a_hat = a0 - (am - ap) ** 2 / (8 * amp_denom) if amp_denom != 0 else a0
        lines.append((float(omegas[i] + delta * dw), float(a_hat)))
    lines.sort()
    return RefinedPeaks(lines=tuple(lines), threshold=thr, flat_spectrum=flat)


def bootstrap_gap_ci_oracle(series: CorrelatorSeries, guard: float) -> tuple[float, float] | None:
    """The circular block bootstrap one resample at a time, each with its own
    periodogram and ``refine_peaks_oracle``: the oracle of
    spectro._bootstrap_gap_ci's batched resamples."""
    rng = np.random.default_rng(spectro.BOOTSTRAP_SEED)
    m = series.m
    block = max(2, min(spectro.BOOTSTRAP_BLOCK, m // 2))
    n_blocks = math.ceil(m / block)
    gaps = []
    for _ in range(spectro.BOOTSTRAP_RESAMPLES):
        starts = rng.integers(0, m, size=n_blocks)
        idx = np.concatenate([np.arange(s, s + block) % m for s in starts])[:m]
        boot = CorrelatorSeries(series.dt, series.values[idx], series.shots, series.alpha_scale)
        om, pw = periodogram(boot)
        cand = [w for w, _ in refine_peaks_oracle(om, pw, boot.dt).lines if w > guard]
        if cand:
            gaps.append(min(cand))
    if len(gaps) < max(10, spectro.BOOTSTRAP_RESAMPLES // 10):
        return None
    lo, hi = np.percentile(gaps, [2.5, 97.5])
    return float(lo), float(hi)


def cliques_oracle(n_vertices: int, edges, size: int) -> list[tuple[int, ...]]:
    """Vertex sets of the size-cliques of a graph whose edges are (i, j)
    pairs with i < j, in lexicographic order: every vertex subset tested
    pair by pair, the reference ``persistence.cliques`` is checked against."""
    es = set(edges)
    return [
        c
        for c in itertools.combinations(range(n_vertices), size)
        if all(pair in es for pair in itertools.combinations(c, 2))
    ]


def mst_eps_edges_oracle(coords: np.ndarray, eps_quantile: float) -> tuple[tuple, tuple]:
    """``build_edges`` without a ring, from its own distance matrix: Kruskal
    over every pair sorted by (length, i, j), kept when it merges two trees,
    then the pairs shorter than the eps_quantile of all pair lengths; an edge
    of both layers keeps provenance mst."""
    dist = PointCloud(np.asarray(coords, dtype=float)).distances()
    n = len(dist)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    prov = {}
    for _, a, b in sorted((float(dist[i, j]), i, j) for i, j in itertools.combinations(range(n), 2)):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            prov[(a, b)] = "mst"
    eps = float(np.quantile(dist[np.triu_indices(n, k=1)], eps_quantile))
    for i, j in itertools.combinations(range(n), 2):
        if dist[i, j] < eps:
            prov.setdefault((i, j), "eps")
    ordered = sorted(prov)
    return tuple(ordered), tuple(prov[e] for e in ordered)


def graph_from_edges(n_vertices: int, edges, pure: bool = False) -> TopoGraph:
    """Graph on abstract vertices from an explicit edge list (coords default
    to a unit circle layout), for hand-made fixtures: the clique complex of
    the edges, or with ``pure`` the graph alone (no triangles, B2 = 0)."""
    edges = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
    tris = () if pure else enumerate_triangles(edges)
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


def correlator_hadamard_loop(
    ham, psi_system, dt: float, m: int, shots: int = 0, order: int = 2, steps: int | None = None,
    alpha: float = 1.0, seed: int = 0,
) -> CorrelatorSeries:
    """The fused Hadamard-test loop on the full register: the controlled step
    of length dt, its n sub-steps compiled together and fused, run m-1 times
    on the 2^(n+2)-amplitude state. The oracle of spectro.correlator_hadamard's
    sector-matrix readout."""
    n_sub = steps or max(1, math.ceil(ham.gershgorin_bound() / alpha * dt))
    step = fuse(controlled_evolution(ham, dt, order=order, steps=n_sub, alpha=alpha))
    return _full_register_loop(step, ham.n, psi_system, dt, m, shots, alpha, seed)


def correlator_hadamard_unfused(
    ham, psi_system, dt: float, m: int, shots: int = 0, order: int = 2, alpha: float = 1.0, seed: int = 0
) -> CorrelatorSeries:
    """The Hadamard-test loop as it ran before gate fusion: the compiled step,
    gate by gate, m-1 times on the full state, with the same sub-step count
    as ``correlator_hadamard_loop``, the second oracle of
    spectro.correlator_hadamard."""
    n_sub = max(1, math.ceil(ham.gershgorin_bound() / alpha * dt))
    step = controlled_evolution(ham, dt, order=order, steps=n_sub, alpha=alpha)
    return _full_register_loop(step, ham.n, psi_system, dt, m, shots, alpha, seed)


def _full_register_loop(step: Circuit, n_system: int, psi_system, dt, m, shots, alpha, seed) -> CorrelatorSeries:
    """(|0>|psi> + |1>|psi>)/sqrt(2) advanced by the step m-1 times, the work
    qubit checked after each step, C = 2 <branch0|branch1>, and the shots
    drawn as spectro.correlator_hadamard draws them."""
    rng = np.random.default_rng(seed)
    sysdim = 1 << n_system
    state = np.zeros(4 * sysdim, dtype=complex)
    branches = state.reshape(2, 2, sysdim)
    branches[:, 0, :] = np.asarray(psi_system, dtype=complex) / math.sqrt(2)
    vals = np.zeros(m, dtype=complex)
    c = 1.0 + 0.0j
    for k in range(m):
        if k:
            state = simulate(step, state)
            branches = state.reshape(2, 2, sysdim)
            if np.linalg.norm(branches[:, 1, :]) > 1e-9:
                raise RuntimeError(f"work qubit left |0> after controlled step {k}")
            c = 2 * np.vdot(branches[0, 0], branches[1, 0])
        ps = [min(max((1 + part) / 2, 0.0), 1.0) for part in (c.real, c.imag)]
        if shots > 0:
            ps = [rng.binomial(shots, p) / shots for p in ps]
        vals[k] = (2 * ps[0] - 1) + 1j * (2 * ps[1] - 1)
    return CorrelatorSeries(dt=dt, values=vals, shots=shots, alpha_scale=alpha)
