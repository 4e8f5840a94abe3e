import numpy as np
import pytest

from jacobispec import models


@pytest.fixture(scope="session")
def free1():
    return models.free_model(1)


@pytest.fixture(scope="session")
def free2():
    return models.free_model(2)


@pytest.fixture(scope="session")
def diag01():
    """l = 2, D = I, V = diag(0, 1): decoupled channels with offset bands."""
    return models.PeriodicSpec((np.eye(2),), (np.diag([0.0, 1.0]),))


def make_random_bounded(seed=20240521, period=8, l=2):
    """Validated random bounded model: rotated positive D, bounded V."""
    rng = np.random.default_rng(seed)
    ds, vs = [], []
    for _ in range(period):
        theta = rng.uniform(0, 2 * np.pi)
        q = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        d = q @ np.diag(rng.uniform(0.7, 1.4, size=l)) @ q.T
        v = rng.uniform(-0.8, 0.8, size=(l, l))
        v = (v + v.T) / 2
        ds.append((d + d.T) / 2)
        vs.append(v)
    return models.PeriodicSpec(tuple(ds), tuple(vs))


@pytest.fixture(scope="session")
def random_bounded2():
    return make_random_bounded()


@pytest.fixture(scope="session")
def wrap_alternating():
    """l = 2 explicit wrap model whose D alternates between I and a general block."""
    d = np.array([[1.2, 0.3], [0.3, 0.9]])
    v = np.array([[0.5, 0.1], [0.1, -0.4]])
    return models.ExplicitSpec(
        [[np.eye(2), np.diag([0.0, 1.0])], [d, v], [np.eye(2), np.diag([0.3, -0.2])], [d, -v]]
    )


@pytest.fixture(scope="session")
def weighted1():
    """l = 1 explicit model whose D varies and is 1 at some indices."""
    ds = (1.0, 0.5, 1.3, 1.0, 0.8, 2.0, 1.0)
    vs = (0.0, 0.3, -0.4, 0.1, 0.7, -0.2, 0.5)
    return models.ExplicitSpec(tuple((np.array([[d]]), np.array([[v]])) for d, v in zip(ds, vs)))


@pytest.fixture(scope="session")
def periodic3():
    """Validated random period-3 l = 3 model (the general-l code paths)."""
    rng = np.random.default_rng(7)
    ds, vs = [], []
    for _ in range(3):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        d = q @ np.diag(rng.uniform(0.7, 1.4, size=3)) @ q.T
        v = rng.uniform(-0.8, 0.8, size=(3, 3))
        ds.append((d + d.T) / 2)
        vs.append((v + v.T) / 2)
    return models.PeriodicSpec(tuple(ds), tuple(vs))


@pytest.fixture(scope="session")
def golden_amo():
    """l = 1 cosine sampling with amplitude 0.5 along the golden rotation."""
    alpha = (np.sqrt(5.0) - 1.0) / 2.0
    f_d = models.CosinePolynomialMap(np.eye(1))
    f_v = models.CosinePolynomialMap(np.zeros((1, 1)), (((1,), 0.5 * np.eye(1), 0.0),))
    return models.DynamicalSpec((alpha,), (0.0,), f_d, f_v)
