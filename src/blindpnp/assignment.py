"""One-to-one assignment and candidate selection.

Four operations: minimum-cost bipartite assignment (`hungarian`), its
sparse form over a pair list (`one_to_one`: pairs that share no row or
column with another pair are kept as they are, and only the others go
through `hungarian`), the pose-conditioned correspondence extraction
(threshold the angular error of all pairs or a pool, then `one_to_one`),
and deterministic selection of the k most probable entries of a matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .geometry import (Pose, _pairs_array, check_angle_threshold,
                       check_pairs_in_range, ray_angles, transform_points)

# Stand-in cost for the pairs absent from a conflict sub-matrix; far above
# any angle (at most pi), so a matching that can avoid a sentinel will.
_SENTINEL_COST = 1e6
_TIE_CHUNK = 65536  # plan entries scanned at a time for tied top-k entries
_SAMPLE_STRIDE = 64  # spacing of the entries sampled for a top-k threshold


def hungarian(cost) -> np.ndarray:
    """Minimum-total-cost one-to-one assignment of a rectangular matrix.

    Returns a (min(m, n), 2) array of (row, col) pairs sorted by row.
    The |m - n| surplus rows or columns stay unmatched.

    Crouse's shortest augmenting path method ("On implementing 2D
    rectangular assignment algorithms", IEEE TAES 2016), as in
    scipy.optimize.linear_sum_assignment, whose pairs it returns: a
    matrix with more rows than columns is transposed, and each row then
    adds one augmenting path, found by a Dijkstra search over the
    reduced costs.  The tie order is scipy's too: the search scans the
    columns not yet reached in a list that starts reversed and loses an
    entry by moving the last one into its place; among columns at the
    least path cost it takes the last unassigned one, else the first.
    O(min(m, n)^2 max(m, n)) time.
    """
    c = np.asarray(cost, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] < 1 or c.shape[1] < 1:
        raise ValidationError(f"cost must be a nonempty 2-d matrix, got {c.shape}")
    if np.any(np.isnan(c)):
        raise ValidationError("cost matrix contains NaN")
    if not np.all(np.isfinite(c)):
        raise ValidationError("cost matrix contains non-finite entries")
    transpose = c.shape[0] > c.shape[1]
    col4row = _augment_rows(c.T if transpose else c)
    if transpose:
        cols = np.argsort(col4row)
        return np.stack([col4row[cols], cols], axis=1)
    return np.stack([np.arange(col4row.size), col4row], axis=1)


def _augment_rows(c) -> np.ndarray:
    """Column of each row of a finite (nr, nc) matrix, nr <= nc, in a
    minimum-cost assignment: one shortest augmenting path per row."""
    nr, nc = c.shape
    u = np.zeros(nr)  # row duals
    v = np.zeros(nc)  # column duals
    path = np.full(nc, -1)
    col4row = np.full(nr, -1)
    row4col = np.full(nc, -1)
    for current in range(nr):
        shortest = np.full(nc, np.inf)
        remaining = np.arange(nc - 1, -1, -1)
        rows_seen = np.zeros(nr, dtype=bool)
        cols_seen = np.zeros(nc, dtype=bool)
        i, min_val, left = current, 0.0, nc
        while True:
            rows_seen[i] = True
            cols = remaining[:left]
            reduced = ((min_val + c[i, cols]) - u[i]) - v[cols]
            better = reduced < shortest[cols]
            path[cols[better]] = i
            shortest[cols[better]] = reduced[better]
            at = shortest[cols]
            min_val = at.min()
            tied = np.flatnonzero(at == min_val)
            free = tied[row4col[cols[tied]] == -1]
            index = free[-1] if free.size else tied[0]
            j = cols[index]
            cols_seen[j] = True
            left -= 1
            remaining[index] = remaining[left]
            if row4col[j] == -1:
                break
            i = row4col[j]
        # update the duals, then flip the path ending at the free column j
        u[current] += min_val
        rows_seen[current] = False
        u[rows_seen] += min_val - shortest[col4row[rows_seen]]
        v[cols_seen] -= min_val - shortest[cols_seen]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    return col4row


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
    pairs = _pairs_array(pairs)
    costs = np.asarray(costs, dtype=np.float64).reshape(-1)
    if costs.shape[0] != pairs.shape[0]:
        raise ValidationError(
            f"{pairs.shape[0]} pairs but {costs.shape[0]} costs")
    free = np.ones(pairs.shape[0], dtype=bool)
    for labels in pairs.T:  # uses of each row, then each column, label
        labels = labels - labels.min(initial=0)  # bincount takes labels >= 0
        free &= np.bincount(labels)[labels] == 1
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


def correspondences_from_pose(bearings, points, pose: Pose, theta: float,
                              pairs=None) -> np.ndarray:
    """One-to-one pairs whose angular error at `pose` is at most theta,
    from the (k, 2) (bearing, point) pool `pairs`, else all pairs.

    Pairs above the threshold are excluded up front; among the admissible
    ones `one_to_one` picks the largest set with the smallest total
    angular error.  A pair is admitted or not whether it is listed in a
    pool or met among all pairs.  Sorted by bearing; may be empty.  Pool
    indices outside the bearings or points raise ValidationError.
    """
    check_angle_threshold(theta)
    f = np.asarray(bearings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if pairs is None:
        angles = ray_angles(f[:, None], transform_points(pose, p)[None])
        admissible = angles <= theta
        return one_to_one(np.argwhere(admissible), angles[admissible])
    pairs = _pairs_array(pairs)
    check_pairs_in_range(pairs, f.shape[0], p.shape[0], "pool")
    angles = ray_angles(f[pairs[:, 0]], transform_points(pose, p[pairs[:, 1]]))
    admissible = angles <= theta
    return one_to_one(pairs[admissible], angles[admissible])


def top_k_select(P, k: int):
    """The k largest entries of P in descending order.

    Ties are broken by ascending (row, column) so runs are reproducible.
    Returns (rows, cols, values) arrays of length k.

    A threshold t is the (2 (k // 64) + 16)-th largest of every 64th
    entry of P, if that sample holds four times as many (Floyd and
    Rivest's SELECT).  One pass over P, in chunks of _TIE_CHUNK entries,
    checks finiteness and lists the entries above t (about 2k + 1000 on
    a generic plan); only those are partitioned for the k-th largest
    value.  The fewer than k entries strictly above it are sorted; the
    rest are the first entries equal to it in flat order, which is
    ascending (row, column), taken by scanning the plan in chunks until
    enough are found, so a large tie pool (the off-diagonal entries of
    a sharp plan) is never sorted.  If t lies above the k-th value (top
    entries crowd the sample's stride), the steps rerun with all of P as
    the sample, whose k-th largest is exact.  O(mn) time.  The sampled
    path copies only the sample (1/8 byte per entry), plus O(k +
    _TIE_CHUNK); the rerun adds one float copy, freed before the pass.
    """
    P = np.asarray(P, dtype=np.float64)
    if P.ndim != 2:
        raise ValidationError(f"P must be 2-d, got shape {P.shape}")
    m, n = P.shape
    if not (1 <= k <= m * n):
        raise ValidationError(f"k must lie in [1, {m * n}], got {k}")
    flat = P.ravel()
    for stride in (_SAMPLE_STRIDE, 1):
        sample = flat[::stride]
        rank = 2 * (k // stride) + 16 if stride > 1 else k
        if stride > 1 and sample.size < 4 * rank:
            continue
        neg = np.negative(sample)
        neg.partition(rank - 1)
        t = -neg[rank - 1]
        del neg  # free the copy before the pass below
        above = []
        for start in range(0, flat.size, _TIE_CHUNK):
            chunk = flat[start:start + _TIE_CHUNK]
            if not np.all(np.isfinite(chunk)):
                raise ValidationError("P has non-finite entries")
            above.append(np.flatnonzero(chunk > t) + start)
        above = np.concatenate(above)
        values = flat[above]
        kth = t
        if above.size >= k:
            kth = -np.partition(-values, k - 1)[k - 1]
            above, values = above[values > kth], values[values > kth]
        chosen = [above[np.lexsort((above, -values))]]
        need = k - above.size
        for start in range(0, flat.size, _TIE_CHUNK):
            if need == 0:
                break
            ties = np.flatnonzero(flat[start:start + _TIE_CHUNK] == kth)[:need]
            chosen.append(ties + start)
            need -= ties.size
        if need == 0:  # else t lies above the k-th value
            break
    chosen = np.concatenate(chosen)
    rows, cols = np.divmod(chosen, n)
    return rows.astype(np.int64), cols.astype(np.int64), flat[chosen]


def candidate_count(m: int, n: int, k_factor: float = 1.5) -> int:
    """Number of candidate pairs kept for robust initialization."""
    return int(min(m * n, int(np.ceil(k_factor * min(m, n)))))
