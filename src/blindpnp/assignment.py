"""One-to-one assignment and candidate selection.

Three operations: minimum-cost bipartite assignment (Hungarian), the
pose-conditioned correspondence extraction (threshold the angular error,
then enforce one-to-one with the Hungarian step), and deterministic
selection of the k most probable entries of a correspondence matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .geometry import Pose, ray_angles, transform_points

# Stand-in cost for pairs excluded by the angular threshold; angles are
# bounded by pi, so any matching that can avoid a sentinel will.
_SENTINEL_COST = 1e6


def hungarian(cost) -> np.ndarray:
    """Minimum-total-cost one-to-one assignment of a rectangular matrix.

    Returns a (min(m, n), 2) array of (row, col) pairs sorted by row.
    The |m - n| surplus rows or columns stay unmatched.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise ValidationError(f"cost must be a nonempty 2-d matrix, got {c.shape}")
    if np.any(np.isnan(c)):
        raise ValidationError("cost matrix contains NaN")
    if not np.all(np.isfinite(c)):
        raise ValidationError("cost matrix contains non-finite entries")
    rows, cols = linear_sum_assignment(c)
    return np.stack([rows, cols], axis=1).astype(np.int64)


def correspondences_from_pose(bearings, points, pose: Pose,
                              theta: float) -> np.ndarray:
    """One-to-one pairs whose angular error at `pose` is at most theta.

    Pairs above the threshold are excluded up front; among the admissible
    ones the Hungarian step picks the assignment with the smallest total
    angular error.  May be empty.
    """
    if not (0.0 < theta < np.pi):
        raise ValidationError(f"theta must lie in (0, pi), got {theta}")
    angles = ray_angles(bearings, transform_points(pose, points), exact=True,
                        pairwise=True)
    admissible = angles <= theta
    if not np.any(admissible):
        return np.zeros((0, 2), dtype=np.int64)
    cost = np.where(admissible, angles, _SENTINEL_COST)
    pairs = hungarian(cost)
    keep = admissible[pairs[:, 0], pairs[:, 1]]
    return pairs[keep]


def top_k_select(P, k: int):
    """The k largest entries of P in descending order.

    Ties are broken by ascending (row, column) so runs are reproducible.
    Returns (rows, cols, values) arrays of length k.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValidationError(f"P must be 2-d, got shape {P.shape}")
    m, n = P.shape
    if not (1 <= k <= m * n):
        raise ValidationError(f"k must lie in [1, {m * n}], got {k}")
    flat = P.ravel()
    if k < flat.size:
        # keep everything >= the k-th largest value, then sort that pool
        kth = np.partition(flat, flat.size - k)[flat.size - k]
        pool = np.flatnonzero(flat >= kth)
    else:
        pool = np.arange(flat.size)
    rows, cols = np.divmod(pool, n)
    order = np.lexsort((cols, rows, -flat[pool]))
    chosen = pool[order[:k]]
    rows, cols = np.divmod(chosen, n)
    return rows.astype(np.int64), cols.astype(np.int64), flat[chosen]


def candidate_count(m: int, n: int, k_factor: float = 1.5) -> int:
    """Number of candidate pairs kept for robust initialization."""
    return int(min(m * n, int(np.ceil(k_factor * min(m, n)))))
