"""Rayleigh-parameter sweep: per-rho pipeline runs, the six diagnostics, and
cross-indicator correlations."""

from __future__ import annotations

import itertools
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dynamics, embedding, persistence, selection, spectro, topograph
from .errors import ConfigError, TopospecError, UndefinedEntropyError, typed
from .hodge import kernel_tolerance, laplacian_k
from .serialize import digest_text


def spectral_entropy(series: spectro.CorrelatorSeries) -> float:
    """Shannon entropy of the normalized Hann periodogram on the canonical grid."""
    _, power = spectro.periodogram(series)
    total = power.sum()
    if total <= 0:
        raise UndefinedEntropyError("zero total spectral power")
    p = power / total
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def curvature(e0: np.ndarray, drho: float) -> np.ndarray:
    """Second difference (E0(r+d) - 2 E0(r) + E0(r-d)) / d^2; endpoints are NaN."""
    e0 = np.asarray(e0, dtype=float)
    out = np.full_like(e0, np.nan)
    out[1:-1] = (e0[2:] - 2 * e0[1:-1] + e0[:-2]) / drho**2
    return out


def fidelity(v0: np.ndarray, v1: np.ndarray) -> float:
    """|<v0|v1>| for unit vectors; 2-D inputs are treated as orthonormal bases
    of degenerate ground spaces and compared through the largest principal
    angle (the smallest singular value of the overlap block)."""
    v0 = np.asarray(v0, dtype=float)
    v1 = np.asarray(v1, dtype=float)
    if v0.ndim == 1:
        v0 = v0[:, None]
    if v1.ndim == 1:
        v1 = v1[:, None]
    d = min(v0.shape[1], v1.shape[1])
    overlap = v0[:, :d].T @ v1[:, :d]
    svals = np.linalg.svd(overlap, compute_uv=False)
    return float(np.clip(svals.min() if len(svals) else 0.0, 0.0, 1.0))


@dataclass(frozen=True)
class SweepConfig:
    """Every stage setting of the pipeline. Each value is checked here, once,
    and a bad one raises ConfigError naming its ``sweep.<key>``, so no stage
    runs on it."""

    # trajectory
    dt: float = 0.01
    t_trans: float = 20.0
    t_total: float = 170.0
    x0: tuple[float, float, float] = (1.0, 1.0, 1.0)
    observable: str = "x"
    # embedding (frozen across rho; tau=None resolves once on the first point;
    # the default pins the canonical-regime mutual-information choice)
    tau: int | None = 15
    m: int = 3
    cloud_stride: int | None = None  # defaults to tau
    n_fps: int = 64
    # selection
    k: int = 7
    r: float = 0.6  # fraction of k reserved for the topological stage
    alpha_sel: float = 1.5  # density exponent; also the Renyi entropy order
    knn_k: int = 10
    bins: int = 12  # angular histogram bins
    lambdas: tuple[float, float, float, float] = (1.0, 1.0, 0.5, 2.0)
    seed: int = 0
    # graph
    use_ring: bool = True
    eps_quantile: float = 0.3
    triangle_mode: str = "all_3_cliques"
    # spectroscopy
    m_samples: int = 256
    dt_corr: float = 0.25
    alpha_scale: float | None = None  # None = calibrate once from the sweep
    # set through run.mode / run.shots (or --mode / --shots) only
    mode: str = "exact"  # exact | hadamard
    shots: int = 0
    # lyapunov
    lyap_t_total: float = 400.0
    lyap_dt: float = 0.005
    lyap_renorm: int = 20

    def __post_init__(self):
        for f in fields(self):
            val = getattr(self, f.name)
            if not typed(val, f.type):
                raise ConfigError(f"sweep.{f.name} = {val!r}: expected {f.type} (finite numbers, not bool or text)")
            if f.type.startswith("tuple["):
                object.__setattr__(self, f.name, tuple(map(float, val)))
        # rules a stage owns are read from it
        modes, tri_modes, min_samples = spectro.READOUT_MODES, topograph.TRIANGLE_MODES, spectro.prony_min_samples()
        renorms = self.lyap_dt > 0 and self.lyap_renorm >= 1 and dynamics.renorm_count(
            self.lyap_dt, self.lyap_t_total, self.lyap_renorm
        )
        for key, ok, need in (
            ("dt", self.dt > 0, "must be > 0"),
            ("t_trans", self.t_trans >= 0, "must be >= 0"),
            ("t_total", self.t_total > self.t_trans, "must exceed sweep.t_trans"),
            ("observable", self.observable in ("x", "y", "z"), "must be one of x, y, z"),
            ("tau", self.tau is None or self.tau >= 1, "must be >= 1"),
            ("m", self.m >= 2, "must be >= 2"),
            ("cloud_stride", self.cloud_stride is None or self.cloud_stride >= 1, "must be >= 1"),
            ("n_fps", self.n_fps >= 2, "must be >= 2"),
            ("r", 0 < self.r < 1, "must be in (0, 1)"),
            ("k", self.k_topo >= 1, "needs floor(k * r) >= 1"),
            ("alpha_sel", self.alpha_sel > 1, "must exceed 1"),
            ("knn_k", self.knn_k >= 1, "must be >= 1"),
            ("bins", self.bins >= 4, "must be >= 4"),
            ("lambdas", min(self.lambdas) >= 0, "must be nonnegative"),
            ("seed", self.seed >= 0, "must be >= 0"),
            ("eps_quantile", 0 <= self.eps_quantile <= 1, "must be in [0, 1]"),
            ("triangle_mode", self.triangle_mode in tri_modes, f"must be one of {tri_modes}"),
            ("m_samples", self.m_samples >= min_samples, f"must be >= {min_samples}, the Prony minimum"),
            ("dt_corr", self.dt_corr > 0, "must be > 0"),
            ("alpha_scale", self.alpha_scale is None or self.alpha_scale > 0, "must be > 0"),
            ("mode", self.mode in modes, f"unknown mode; run.mode must be one of {modes}"),
            ("shots", self.shots >= 0, "must be >= 0"),
            ("lyap_dt", self.lyap_dt > 0, "must be > 0"),
            ("lyap_renorm", self.lyap_renorm >= 1, "must be >= 1"),
            ("lyap_t_total", renorms >= dynamics.MIN_RENORMS, f"needs {dynamics.MIN_RENORMS} renormalizations"),
        ):
            if not ok:
                raise ConfigError(f"sweep.{key} = {getattr(self, key)!r}: {need}")

    @property
    def k_topo(self) -> int:
        """Representatives the topological selection stage picks."""
        return int(self.k * self.r)

    def digest(self) -> str:
        names = sorted(self.__dataclass_fields__)
        text = "\n".join(f"{k} = {getattr(self, k)}" for k in names)
        return digest_text(text)


@dataclass(frozen=True)
class SweepRecord:
    rho: float
    h_spec: float | None = None
    f_curvature: float | None = None
    fidelity_to_next: float | None = None
    lambda_max: float | None = None
    ell_max_h1: float | None = None
    gamma: float | None = None
    delta1_susy_sim: float | None = None
    beta1_hat: int | None = None
    seed: int = 0
    config_digest: str = ""
    failed_stage: str | None = None
    # not CSV columns: the "<type>: <message>" of a failed stage, and the
    # run's telemetry, seconds and sizes per stage (timings differ from run
    # to run, so they take no part in comparing records)
    error: str | None = None
    seconds: dict[str, float] = field(default_factory=dict, compare=False)
    sizes: dict[str, int] = field(default_factory=dict, compare=False)

    def as_row(self) -> tuple:
        return tuple(getattr(self, name) for name in self.header())

    @staticmethod
    def header() -> tuple[str, ...]:
        return tuple(f.name for f in fields(SweepRecord) if f.name not in ("error", "seconds", "sizes"))


STAGES = ("cloud", "persistence", "selection", "graph", "lyapunov")
# what a stage may raise on bad data; anything else is a bug and propagates
EXPECTED_ERRORS = (TopospecError, ValueError, np.linalg.LinAlgError)


@dataclass
class _StageResult:
    rho: float
    tau: int
    # the cloud, diagram and representatives are kept only by a run that
    # stops at their stage
    cloud: embedding.PointCloud | None = None
    diagram: persistence.PersistenceDiagram | None = None
    ell_max: float | None = None
    reps: selection.RepresentativeSet | None = None
    graph: topograph.TopoGraph | None = None
    l1: np.ndarray | None = None
    lambda_max: float | None = None
    failed_stage: str | None = None
    error: str | None = None
    # wall seconds per stage reached, in stage order, and the layer sizes
    seconds: dict[str, float] = field(default_factory=dict)
    sizes: dict[str, int] = field(default_factory=dict)


@contextmanager
def _timed(seconds: dict[str, float], name: str):
    """Record the wall time of the block as ``seconds[name]``, also when it raises."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        seconds[name] = time.perf_counter() - t0


def _pipeline_stage(rho: float, cfg: SweepConfig, tau: int, until: str = "lyapunov") -> _StageResult:
    """Trajectory -> embedding -> persistence -> selection -> graph -> L1 ->
    Lyapunov exponent, stopped after the stage named by ``until``.

    A sweep keeps one result per rho, so the cloud (with its pairwise
    geometry), the diagram and the representatives are returned only by a
    run that stops at their stage; a full run keeps the graph, L1 and scalars.
    The stage reads pairs only, so its diagram comes from ``rips_diagram``,
    the complex cut at the enclosing radius. Every stage reached is timed
    into ``seconds``, and ``sizes`` holds the cloud and FPS point counts and
    the graph's |V|, |E| and |T|.
    """
    if until not in STAGES:
        raise ValueError(f"unknown pipeline stage {until!r}; expected one of {STAGES}")
    res = _StageResult(rho=rho, tau=tau)
    try:
        with _timed(res.seconds, "dynamics"):
            params = dynamics.LorenzParams(rho=rho)
            traj = dynamics.integrate(params, cfg.x0, cfg.dt, cfg.t_trans, cfg.t_total)
            series = traj.observable(cfg.observable)

        with _timed(res.seconds, "embedding"):
            emb = embedding.delay_embed(series, tau, cfg.m)
            cloud = embedding.PointCloud(emb.points[:: cfg.cloud_stride or tau])
            res.sizes["cloud_points"] = cloud.n
            if until == "cloud":
                res.cloud = cloud
                return res

        with _timed(res.seconds, "persistence"):
            fps_idx = _farthest_point_indices(cloud.points, cfg.n_fps, cfg.seed)
            res.sizes["fps_points"] = len(fps_idx)
            fps = embedding.PointCloud(cloud.points[fps_idx])
            diag = persistence.rips_diagram(fps)
            res.ell_max = persistence.max_h1_persistence(diag)
            if until == "persistence":
                res.diagram = diag
                return res

        with _timed(res.seconds, "selection"):
            reps = selection.select_representatives(cloud, diag, cfg)
            if until == "selection":
                res.reps = reps
                return res

        with _timed(res.seconds, "graph"):
            # loop-localized angles carried over from selection; the ring
            # closes over the topological representatives only
            ring_v = np.array([i for i, p in enumerate(reps.provenance) if p == "topo"])
            graph = res.graph = topograph.build_graph(
                reps.coords(cloud),
                reps.angles[list(reps.indices)],
                use_ring=cfg.use_ring,
                eps_quantile=cfg.eps_quantile,
                triangle_mode=cfg.triangle_mode,
                ring_vertices=ring_v,
            )
            res.sizes.update(
                vertices=graph.n_vertices, edges=len(graph.edges), triangles=len(graph.triangles)
            )
            res.l1 = laplacian_k(graph.B1, graph.B2 if len(graph.triangles) else None)
            if until == "graph":
                return res

        with _timed(res.seconds, "lyapunov"):
            lyap = dynamics.lyapunov_max(params, cfg.x0, cfg.lyap_dt, cfg.lyap_t_total, cfg.lyap_renorm)
            res.lambda_max = lyap.lambda_max
    except EXPECTED_ERRORS as exc:
        res.failed_stage = list(res.seconds)[-1]  # the stage that raised was timed last
        res.error = f"{type(exc).__name__}: {exc}"
    return res


def _farthest_point_indices(pts: np.ndarray, n: int, seed: int) -> np.ndarray:
    """Deterministic farthest-point subsample (start at the seed-th index mod N).

    Only the n chosen rows of the distance matrix are ever formed.
    """
    n_pts = len(pts)
    if n >= n_pts:
        return np.arange(n_pts)
    start = seed % n_pts
    chosen = [start]
    d_min = np.linalg.norm(pts - pts[start], axis=1)
    for _ in range(n - 1):
        nxt = int(d_min.argmax())
        chosen.append(nxt)
        d_min = np.minimum(d_min, np.linalg.norm(pts - pts[nxt], axis=1))
    return np.array(sorted(chosen))


def _resolve_tau(grid: list[float], cfg: SweepConfig) -> int:
    if cfg.tau is not None:
        return cfg.tau
    params = dynamics.LorenzParams(rho=grid[0])
    traj = dynamics.integrate(params, cfg.x0, cfg.dt, cfg.t_trans, cfg.t_total)
    series = traj.observable(cfg.observable)
    choice = embedding.choose_tau(series, max_lag=min(100, len(series) // 5))
    return choice.tau


def _stage_job(rho: float, cfg: SweepConfig, tau: int) -> _StageResult:
    """One full pipeline run, as the sweep maps it over the grid. The name
    ``_pipeline_stage`` is looked up at call time, so a rebinding of it (a
    tracer's wrapper, a test's stub) reaches forked workers too."""
    return _pipeline_stage(rho, cfg, tau)


def run_sweep(grid: list[float], cfg: SweepConfig) -> tuple[list[SweepRecord], dict]:
    """Run the frozen-config pipeline at every rho and correlate the
    topological persistence with the estimated spectral gap.

    The rho points do not depend on each other, so their pipeline runs are
    spread over forked worker processes, one per available CPU and at most
    one per point, and come back in grid order; with one CPU (or one point)
    they run in this process. Each run is the same computation either way,
    so the records are bit-identical to a one-core run. The spectral readout
    then runs here, with one alpha calibrated over every L1. A programming
    error in a worker propagates with its type and message, and no worker
    outlives the call.

    A stage failure marks the record, which keeps every diagnostic computed
    before the failure, and the sweep continues. Identical configs
    produce identical records. Each record carries its pipeline's stage
    seconds (and the readout's, as ``spectro``) and sizes. The curvature
    diagnostic is a uniform second difference, so a grid of three or more
    points must be evenly spaced.
    """
    if not grid:
        return [], {"n_pairs": 0, "pearson_r": None, "spearman_rho": None}
    grid = sorted(grid)
    spacing = np.diff(grid)
    if len(grid) >= 3 and not (spacing[0] > 0 and np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0)):
        raise ConfigError(f"rho grid {grid} is not evenly spaced; f_curvature needs a uniform step")
    digest = cfg.digest()
    tau = _resolve_tau(grid, cfg)
    jobs = [(rho, cfg, tau) for rho in grid]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(len(grid), cpus)
    if workers == 1:
        stages = list(itertools.starmap(_stage_job, jobs))
    else:
        # imported here, as every CLI command imports this module and only a
        # sweep forks. fork rather than spawn: a worker re-imports nothing and
        # keeps this process's bindings of _pipeline_stage. This process runs
        # no Python thread here, and OpenBLAS shuts its thread pool down at
        # a fork (pthread_atfork), so the fork is safe.
        import multiprocessing

        with multiprocessing.get_context("fork").Pool(workers) as pool:
            stages = pool.starmap(_stage_job, jobs, chunksize=1)
            pool.close()
            pool.join()

    alpha = cfg.alpha_scale
    if alpha is None:  # one calibration for the whole sweep
        alpha = spectro.calibrated_alpha([st.l1 for st in stages if st.l1 is not None], cfg.dt_corr, cfg.mode)

    records: list[SweepRecord] = []
    e0_list: list[float] = []
    ground_spaces: list[np.ndarray | None] = []
    for st in stages:
        # every diagnostic the pipeline reached, also on a failed row
        rec = SweepRecord(
            rho=st.rho,
            lambda_max=st.lambda_max,
            ell_max_h1=st.ell_max,
            seed=cfg.seed,
            config_digest=digest,
            failed_stage=st.failed_stage,
            error=st.error,
            seconds=st.seconds,
            sizes=st.sizes,
        )
        if st.l1 is None:
            records.append(rec)
            e0_list.append(np.nan)
            ground_spaces.append(None)
            continue
        evals, evecs = np.linalg.eigh(st.l1 / alpha)
        kernel = evecs[:, evals <= kernel_tolerance(evals)]
        ground_spaces.append(kernel if kernel.shape[1] else evecs[:, :1])
        e0_list.append(float(evals[0]))
        rec = replace(rec, gamma=float(evals[1] - evals[0]) if len(evals) > 1 else None)
        try:
            with _timed(rec.seconds, "spectro"):
                series, _, _ = spectro.edge_readout(
                    st.l1, cfg.dt_corr, cfg.m_samples, alpha, cfg.mode, cfg.shots, cfg.seed
                )
                est = spectro.estimate(series, ensemble_dim=st.l1.shape[0])
                h_spec = spectral_entropy(series)
            rec = replace(rec, h_spec=h_spec, delta1_susy_sim=est.gap_hat, beta1_hat=est.beta1_hat)
        except EXPECTED_ERRORS as exc:
            rec = replace(rec, failed_stage="spectro", error=f"{type(exc).__name__}: {exc}")
        records.append(rec)

    e0 = np.array(e0_list)
    if len(grid) >= 3 and np.isfinite(e0).all():
        drho = grid[1] - grid[0]
        curv = curvature(e0, drho)
    else:
        curv = np.full(len(grid), np.nan)
    fids: list[float | None] = [None] * len(grid)
    for i, (g0, g1) in enumerate(zip(ground_spaces, ground_spaces[1:])):
        if g0 is not None and g1 is not None and g0.shape[0] == g1.shape[0]:
            fids[i] = fidelity(g0, g1)
    records = [
        replace(
            rec,
            f_curvature=None if math.isnan(curv[i]) else float(curv[i]),
            fidelity_to_next=fids[i],
        )
        for i, rec in enumerate(records)
    ]

    report = correlation_report(records, seed=cfg.seed)
    return records, report


def correlation_report(records: list[SweepRecord], seed: int = 0, n_perm: int = 2000) -> dict:
    """Pearson and Spearman between ell_max_H1 and the estimated gap, with
    permutation p-values and a pair-resampling bootstrap CI.

    Degenerate (constant) columns yield absent correlations rather than NaN.
    The ``n_perm`` permutations and the 1000 bootstrap resamples are drawn
    one round at a time, as one ``rng.permutation`` or ``rng.integers`` call
    each, and scored as arrays (``_resampled_rounds``). Every statistic is
    computed with numpy alone; scipy is the oracle: each one is bit-equal to
    one scipy ``pearsonr``/``spearmanr`` call per round.
    """
    if n_perm < 1:
        raise ValueError(f"n_perm = {n_perm!r}: a permutation p-value needs n_perm >= 1")
    pairs = [
        (r.ell_max_h1, r.delta1_susy_sim)
        for r in records
        if r.ell_max_h1 is not None and r.delta1_susy_sim is not None
    ]
    out: dict = {"n_pairs": len(pairs)}
    if len(pairs) < 3:
        out["pearson_r"] = None
        out["spearman_rho"] = None
        return out
    x = np.array([p[0] for p in pairs])
    y = np.array([p[1] for p in pairs])
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        out["pearson_r"] = None
        out["spearman_rho"] = None
        out["note"] = "constant diagnostic; correlation undefined"
        return out
    r = float(_pearson_rows(x, y))
    rho_s = float(_spearman_rows(x, y[None])[0])
    perm_r, perm_s, boots = _resampled_rounds(x, y, np.random.default_rng(seed), n_perm)
    out["pearson_r"] = r
    out["spearman_rho"] = rho_s
    out["pearson_p_perm"] = float((np.abs(perm_r) >= abs(r)).mean())
    out["spearman_p_perm"] = float((np.abs(perm_s) >= abs(rho_s)).mean())
    if len(boots):
        lo, hi = np.percentile(boots, [2.5, 97.5])
        out["pearson_ci"] = [float(lo), float(hi)]
    return out


def _resampled_rounds(
    x: np.ndarray, y: np.ndarray, rng: np.random.Generator, n_perm: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-round Pearson and Spearman of ``n_perm`` permutations of y, then
    the Pearson of 1000 pair resamples, skipping a resample with a constant
    column.

    Each round draws as the per-call loop did (one ``rng.permutation(y)``,
    then one ``rng.integers(0, n, n)``), so the stream does not rest on how
    numpy buffers a single bounded draw of shape (1000, n). ``_pearson_rows``
    scores every row bit-equal to its own scipy ``pearsonr`` call, the oracle.
    """
    n = len(x)
    perms = np.stack([rng.permutation(y) for _ in range(n_perm)])
    perm_r = _pearson_rows(x, perms)
    perm_s = _spearman_rows(x, perms)
    idx = np.stack([rng.integers(0, n, n) for _ in range(1000)])
    xb, yb = x[idx], y[idx]
    keep = (np.ptp(xb, axis=1) != 0) & (np.ptp(yb, axis=1) != 0)
    return perm_r, perm_s, _pearson_rows(xb[keep], yb[keep])


def _pearson_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Pearson r of x against ys along the last axis (either may be batched),
    for columns that are not constant.

    It repeats the operations of scipy 1.17's ``pearsonr(x, ys,
    axis=-1).statistic``, its oracle, so each r is bit-equal to it: centre on
    the mean, take the norm as max|v_c| * ||v_c / max|v_c|||, and return
    clip(vecdot(x_c / |x_c|, y_c / |y_c|), -1, 1).
    """

    def unit(v: np.ndarray) -> np.ndarray:
        vc = v - v.mean(axis=-1, keepdims=True)
        vmax = np.abs(vc).max(axis=-1, keepdims=True)
        return vc / (vmax * np.linalg.norm(vc / vmax, axis=-1, keepdims=True))

    return np.clip(np.vecdot(unit(x), unit(ys)), -1.0, 1.0)


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """Ranks from 1 along the last axis, tied values sharing their mean rank,
    as scipy's ``rankdata`` (the oracle) gives them: a value with L values
    below it and U at or below it has rank (L + U + 1) / 2. Every rank is a
    multiple of 0.5, so the result is exact."""
    below = (a[..., None, :] < a[..., :, None]).sum(axis=-1)
    upto = (a[..., None, :] <= a[..., :, None]).sum(axis=-1)
    return (below + upto + 1) / 2


def _spearman_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Spearman rho of x against each row of ys, bit-equal to its oracle
    ``scipy.stats.spearmanr(x, row).statistic``.

    It repeats the operations ``spearmanr`` -> ``np.corrcoef`` -> ``np.cov``
    perform on the ranks: centre each rank row on its mean, take
    c_xy = (y_c . x_c) * (1/(n-1)) and s = sqrt((v . v) * (1/(n-1))), and
    return clip(c_xy / s_y / s_x, -1, 1), s_y first because ``spearmanr``
    reads entry [1, 0]. Ranks sum to n(n+1)/2, so every centred rank is a
    multiple of 0.5 and each dot product is exact in any summation order.
    """
    inv = np.true_divide(1, len(x) - 1)
    xc = _average_ranks(x)
    xc -= xc.mean()
    yc = _average_ranks(ys)
    yc -= yc.mean(axis=-1, keepdims=True)
    sx = np.sqrt((xc @ xc) * inv)
    sy = np.sqrt(np.einsum("ij,ij->i", yc, yc) * inv)
    return np.clip((yc @ xc) * inv / sy / sx, -1.0, 1.0)


def _savgol5(v: np.ndarray) -> np.ndarray:
    """Savitzky-Golay smoothing, window 5 and order 2, of a series of at least
    5 values, bit-equal to its oracle, scipy 1.17's ``savgol_filter(v, 5, 2)``
    (mode "interp"), by repeating its operations.

    The taps solve ``savgol_coeffs``' flipped Vandermonde design by least
    squares (rcond 5 eps). Each interior value sums as ``ndimage``'s symmetric
    correlation does: the centre tap, then the outer pair, then the inner
    pair. Each end fits a quadratic to its 5 values as scipy's ``polyfit``
    does (column-scaled Vandermonde, least squares, unscale) and evaluates it
    at the 2 end offsets by Horner's rule.
    """
    rcond = 5 * np.finfo(float).eps
    offsets = np.arange(2.0, -3.0, -1.0)
    taps = np.linalg.lstsq(offsets ** np.arange(3.0)[:, None], np.array([1.0, 0.0, 0.0]), rcond=rcond)[0]
    w = taps[::-1]  # convolution taps, reversed into correlation order
    out = np.empty_like(v)
    mid = v[2:-2] * w[2]
    mid += (v[:-4] + v[4:]) * w[0]
    mid += (v[1:-3] + v[3:-1]) * w[1]
    out[2:-2] = mid
    design = np.arange(5.0)[:, None] ** np.array([2.0, 1.0, 0.0])
    scale = np.sqrt(np.sum(design * design, axis=0))
    design /= scale
    for lo, ends in ((0, slice(0, 2)), (len(v) - 5, slice(-2, None))):
        coef = np.linalg.lstsq(design, v[lo : lo + 5, None], rcond=rcond)[0][:, 0] / scale
        at = np.arange(5.0)[ends]
        fit = np.zeros(2)
        for c in coef:
            fit = fit * at + c
        out[ends] = fit
    return out


def smoothed_columns(records: list[SweepRecord]) -> dict[str, np.ndarray]:
    """Savitzky-Golay (window 5, order 2) smoothed copies of the exported
    observables, by ``_savgol5`` (numpy alone; scipy's ``savgol_filter`` is
    the oracle); raw columns are never smoothed."""
    cols = {}
    for name in ("h_spec", "ell_max_h1", "gamma", "delta1_susy_sim", "lambda_max"):
        vals = np.array(
            [getattr(r, name) if getattr(r, name) is not None else np.nan for r in records]
        )
        if np.isfinite(vals).all() and len(vals) >= 5:
            cols[name + "_smooth"] = _savgol5(vals)
        else:
            cols[name + "_smooth"] = vals
    return cols
