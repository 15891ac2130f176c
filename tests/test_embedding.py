import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from topospec import embedding
from topospec.embedding import (
    choose_tau,
    delay_embed,
    mutual_information,
)
from topospec.errors import InsufficientDataError, ZeroVarianceError
from helpers import sq_distances_broadcast


def test_sliding_window_definition():
    series = np.arange(6.0)
    cloud = delay_embed(series, 1, 3)
    expected = np.array([[0, 1, 2], [1, 2, 3], [2, 3, 4], [3, 4, 5]], dtype=float)
    assert np.array_equal(cloud.points, expected / expected.std(axis=0))  # unit-variance columns


def test_constant_series():
    with pytest.raises(ZeroVarianceError):
        delay_embed(np.full(100, 3.5), 5, 3)


def test_too_short_series_names_minimum():
    with pytest.raises(InsufficientDataError) as exc:
        delay_embed(np.arange(10.0), 5, 3)
    assert "10" in str(exc.value)


@given(
    n=st.integers(min_value=30, max_value=200),
    tau=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=2, max_value=5),
)
@settings(max_examples=40, deadline=None)
def test_row_count_formula(n, tau, m):
    span = (m - 1) * tau
    if n <= span:
        return
    rng = np.random.default_rng(n)
    cloud = delay_embed(rng.normal(size=n), tau, m)
    assert cloud.n == n - span


@given(scale=st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=20, deadline=None)
def test_scale_invariance_under_normalization(scale):
    rng = np.random.default_rng(7)
    s = rng.normal(size=120)
    assert np.allclose(delay_embed(scale * s, 3, 3).points, delay_embed(s, 3, 3).points, atol=1e-10)


@given(
    m=st.integers(min_value=0, max_value=300),
    rows=st.tuples(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=6)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
# each side of numpy's switches: 8 running sums from 8 columns, halves past 128
@example(m=7, rows=(4, 5), seed=0)
@example(m=8, rows=(4, 5), seed=0)
@example(m=128, rows=(4, 5), seed=0)
@example(m=129, rows=(4, 5), seed=0)
@example(m=300, rows=(0, 5), seed=0)
@example(m=3, rows=(5, 0), seed=0)
@settings(max_examples=150, deadline=None)
def test_sq_distances_is_the_broadcast_sum_bit_for_bit(m, rows, seed):
    rng = np.random.default_rng(seed)
    # column magnitudes decades apart, so that any other summation order shows
    scale = 10.0 ** rng.uniform(-4, 4, size=m)
    a, b = (rng.standard_normal((r, m)) * scale for r in rows)
    got, want = embedding.sq_distances(a, b), sq_distances_broadcast(a, b)
    assert got.shape == want.shape == rows and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("block", (1, 2, 3, embedding.BLOCK_ROWS))
@given(n=st.integers(1, 10), m=st.integers(1, 10), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_row_blocks_fill_d2_bit_for_bit(block, n, m, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, m)) * 10.0 ** rng.uniform(-4, 4, size=m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(embedding, "BLOCK_ROWS", block)
        cloud = embedding.PointCloud(pts)
        blocks = cloud.row_blocks()
        d2 = cloud.d2
    assert all(0 < r.stop - r.start <= block for r in blocks)
    assert np.array_equal(np.concatenate([np.arange(n)[r] for r in blocks]), np.arange(n))
    assert np.array_equal(d2.view(np.uint64), sq_distances_broadcast(pts, pts).view(np.uint64))
    assert np.array_equal(d2, d2.T) and not d2.flags.writeable
    dist = cloud.distances()
    assert np.array_equal(dist, np.sqrt(d2)) and cloud.distances() is not dist
    assert cloud.diameter() == dist.max()
    assert np.array_equal(cloud.distances(slice(1, 3)), dist[1:3])


def test_tau_sinusoid_quarter_period():
    # brute-force MI over all lags has its first basin centered near P/4
    period = 40
    t = np.arange(4000)
    s = np.sin(2 * np.pi * t / period)
    mi = np.array([mutual_information(s, lag) for lag in range(1, 31)])
    basin = np.where(mi <= mi.min() + 0.02 * (mi.max() - mi.min()))[0] + 1
    assert basin[0] <= period / 4 <= basin[-1]  # brute-force oracle
    choice = choose_tau(s, max_lag=30)
    assert abs(choice.tau - period / 4) <= 1.0
    assert choice.method == "mi_min"


def test_tau_white_noise_is_immediate():
    rng = np.random.default_rng(0)
    choice = choose_tau(rng.normal(size=4000), max_lag=30)
    assert choice.tau == 1


def test_tau_lorenz_in_canonical_window(lorenz_series):
    choice = choose_tau(lorenz_series, max_lag=100)
    assert 0.05 <= choice.tau * 0.01 <= 0.2


def test_tau_acf_fallback_on_monotone_mi():
    # AR(1), phi=0.9: MI decays without an interior minimum; acf crosses 1/e
    # near lag -1/ln(0.9) ~ 9.5
    rng = np.random.default_rng(5)
    x = np.zeros(8000)
    for i in range(1, len(x)):
        x[i] = 0.9 * x[i - 1] + rng.normal()
    choice = choose_tau(x, max_lag=30)
    assert choice.method == "acf_1e"
    assert 8 <= choice.tau <= 13


def test_tau_never_decorrelating_warns():
    # near-unit-root AR(1): acf stays above 1/e across the window
    rng = np.random.default_rng(6)
    x = np.zeros(8000)
    for i in range(1, len(x)):
        x[i] = 0.999 * x[i - 1] + rng.normal()
    choice = choose_tau(x, max_lag=20)
    assert choice.tau == 20
    assert choice.warned


def test_lorenz_embedding_carries_a_loop(lorenz_cloud):
    # persistence oracle: the reconstructed attractor has a prominent H1 class
    from topospec import persistence
    from topospec.sweep import _farthest_point_indices

    pts = lorenz_cloud.points
    idx = _farthest_point_indices(pts, 60, 0)
    sub = pts[idx]
    diam = embedding.PointCloud(sub).diameter()
    diag = persistence.compute_persistence(
        persistence.rips_filtration(sub, eps_max=diam)
    )
    best = persistence.max_h1_persistence(diag)
    assert best > 0.1 * diam


def test_cloud_csv(tmp_path):
    cloud = delay_embed(np.arange(10.0), 2, 2)
    cloud.to_csv(tmp_path / "cloud.csv")
    lines = (tmp_path / "cloud.csv").read_text().splitlines()
    assert lines[0] == "c0,c1"
    assert len(lines) == 1 + cloud.n
