"""One-to-one assignment and candidate selection.

Four operations: minimum-cost bipartite assignment (`hungarian`), its
sparse form over a pair list (`one_to_one`: pairs that share no row or
column with another pair are kept as they are, and only the others go
through `hungarian`), the pose-conditioned correspondence extraction
(threshold the angular error, then `one_to_one`), and deterministic
selection of the k most probable entries of a correspondence matrix.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import ValidationError
from .geometry import Pose, ray_angles, transform_points

# Stand-in cost for the pairs absent from a conflict sub-matrix; far above
# any angle (at most pi), so a matching that can avoid a sentinel will.
_SENTINEL_COST = 1e6
_TIE_CHUNK = 65536  # plan entries scanned at a time for tied top-k entries


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


def one_to_one(pairs, costs) -> np.ndarray:
    """Minimum-cost one-to-one subset of (row, col) pairs, sorted by row.

    The most pairs, and among those the least total cost (a repeated
    pair counts at its smallest): what `hungarian` gives on the dense
    matrix of the costs with a sentinel elsewhere, so costs must lie far
    below 1e6, as angles do.  A free pair, whose row and column no other
    pair uses, is in every such set (matching its row to its column adds
    a pair), so only the pairs that share a row or a column go through
    `hungarian`, on the sub-matrix over their own rows and columns.
    Where costs tie exactly, the pairing kept may differ from the dense
    matrix's; the pair count and the total cost do not.
    """
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    if costs.shape[0] != pairs.shape[0]:
        raise ValidationError(
            f"{pairs.shape[0]} pairs but {costs.shape[0]} costs")
    _, ri, row_uses = np.unique(pairs[:, 0], return_inverse=True,
                                return_counts=True)
    _, ci, col_uses = np.unique(pairs[:, 1], return_inverse=True,
                                return_counts=True)
    free = (row_uses[ri] == 1) & (col_uses[ci] == 1)
    kept = pairs[free]
    if not free.all():
        shared = pairs[~free]
        rows, sub_r = np.unique(shared[:, 0], return_inverse=True)
        cols, sub_c = np.unique(shared[:, 1], return_inverse=True)
        cost = np.full((rows.size, cols.size), _SENTINEL_COST)
        np.minimum.at(cost, (sub_r, sub_c), costs[~free])
        matches = hungarian(cost)
        matches = matches[cost[matches[:, 0], matches[:, 1]] < _SENTINEL_COST]
        kept = np.concatenate(
            [kept, np.stack([rows[matches[:, 0]], cols[matches[:, 1]]], 1)])
    return kept[np.argsort(kept[:, 0])]


def correspondences_from_pose(bearings, points, pose: Pose,
                              theta: float) -> np.ndarray:
    """One-to-one pairs whose angular error at `pose` is at most theta.

    Pairs above the threshold are excluded up front; among the admissible
    ones `one_to_one` picks the largest set with the smallest total
    angular error.  Sorted by bearing; may be empty.
    """
    if not (0.0 < theta < np.pi):
        raise ValidationError(f"theta must lie in (0, pi), got {theta}")
    angles = ray_angles(bearings, transform_points(pose, points), exact=True,
                        pairwise=True)
    admissible = angles <= theta
    return one_to_one(np.argwhere(admissible), angles[admissible])


def top_k_select(P, k: int):
    """The k largest entries of P in descending order.

    Ties are broken by ascending (row, column) so runs are reproducible.
    Returns (rows, cols, values) arrays of length k.

    The k-th largest value comes from an in-place partition of one
    negated copy of P.  Only the fewer than k entries strictly above it
    are sorted; the rest are the first entries equal to it in flat
    order, which is ascending (row, column), so a large tie pool (the
    off-diagonal entries of a sharp plan) is never sorted.  They are
    taken by scanning the plan in chunks of _TIE_CHUNK entries until
    enough are found.  O(mn) time; the extra memory is one float copy
    of P, freed before the index passes, then a one-byte mask of P for
    the entries above the k-th, plus O(k + _TIE_CHUNK).
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValidationError(f"P must be 2-d, got shape {P.shape}")
    m, n = P.shape
    if not (1 <= k <= m * n):
        raise ValidationError(f"k must lie in [1, {m * n}], got {k}")
    if not np.all(np.isfinite(P)):
        raise ValidationError("P has non-finite entries")
    flat = P.ravel()
    neg = np.negative(flat)
    neg.partition(k - 1)
    kth = -neg[k - 1]
    del neg  # free the copy before the index passes below
    above = np.flatnonzero(flat > kth)
    chosen = [above[np.lexsort((above, -flat[above]))]]
    need = k - above.size
    for start in range(0, flat.size, _TIE_CHUNK):
        if need == 0:
            break
        ties = np.flatnonzero(flat[start:start + _TIE_CHUNK] == kth)[:need]
        chosen.append(ties + start)
        need -= ties.size
    chosen = np.concatenate(chosen)
    rows, cols = np.divmod(chosen, n)
    return rows.astype(np.int64), cols.astype(np.int64), flat[chosen]


def candidate_count(m: int, n: int, k_factor: float = 1.5) -> int:
    """Number of candidate pairs kept for robust initialization."""
    return int(min(m * n, int(np.ceil(k_factor * min(m, n)))))
