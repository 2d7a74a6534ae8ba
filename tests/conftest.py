"""Shared helpers: random pose/instance builders and independent oracles."""

import numpy as np
import pytest

from blindpnp.geometry import Pose, skew


def random_pose(rng, max_angle=0.7, z_offset=4.5):
    """Random pose with the camera pulled back along +z."""
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    r = axis * rng.uniform(0.05, max_angle)
    t = rng.uniform(-0.5, 0.5, 3) + np.array([0.0, 0.0, z_offset])
    return Pose(r, t)


def exact_bearings(pose, points):
    """Noise-free unit bearings of transformed points."""
    q = points @ pose.matrix().T + pose.t
    return q / np.linalg.norm(q, axis=1, keepdims=True)


def rotation_series(r, terms=20):
    """Truncated matrix-exponential series: an oracle for the closed form."""
    S = skew(np.asarray(r, dtype=np.float64))
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ S / k
        out = out + term
    return out


def transport_cost(M, P) -> float:
    """Linear transport cost sum(M * P) of a plan."""
    return float(np.sum(np.asarray(M) * np.asarray(P)))


def tiny_angle(f, u):
    """Cross-product angle measure, exact near zero (unlike arccos)."""
    f = np.asarray(f, dtype=np.float64)
    u = np.asarray(u, dtype=np.float64)
    s = np.linalg.norm(np.cross(f, u), axis=-1)
    return np.arcsin(np.clip(s, 0.0, 1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
