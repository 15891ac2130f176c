import numpy as np
import pytest

from topospec import dynamics, embedding


@pytest.fixture(scope="session")
def lorenz_series():
    """Chaotic-regime x(t) at rho=28, dt=0.01, shared across tests."""
    traj = dynamics.integrate(
        dynamics.LorenzParams(rho=28.0), (1.0, 1.0, 1.0), dt=0.01, t_trans=20.0, t_total=80.0
    )
    return traj.observable("x")


@pytest.fixture(scope="session")
def lorenz_cloud(lorenz_series):
    """Delay-embedded and stride-decorrelated point cloud at rho=28."""
    tau = embedding.choose_tau(lorenz_series, max_lag=100).tau
    emb = embedding.delay_embed(lorenz_series, tau, 3)
    return embedding.PointCloud(emb.points[::tau])


@pytest.fixture(scope="session")
def unit_square():
    return np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
