"""The minimal pose solver, the robust initializer and the inlier refit.

* `p3p` solves the three-point pose problem: reduce the three
  law-of-cosines equations to a quartic, polish each root with Newton
  iterations on the original trilateration system, and lift the camera-
  frame points to a pose by rigid alignment.  Up to four solutions.
* `ransac_p3p` runs P3P hypotheses over weighted candidate pairs (three
  points per sample plus one disambiguating pair).  Samples are drawn
  with probability proportional to the candidate weights, hypotheses
  are scored by angular inlier count, and the search stops at the
  confidence bound on the best hypothesis's share of the weight; then
  `refit_to_inliers` refits its inliers with the uniformly weighted pose
  layer (`weighted_pnp.pnp_solve`) and takes them again at the refit
  pose until they repeat, as `pipeline.alternation_baseline` does over
  all pairs.  Hypotheses are drawn, solved, probed and scored a batch of
  samples at a time, in batches that grow while the bound allows; `p3p`
  is a batch of one through the same solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import correspondences_from_pose
from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .geometry import (INLIER_THRESHOLD, Pose, _pairs_array,
                       check_bearings_and_points, check_pairs_in_range,
                       log_so3, ray_angles)
from .weighted_pnp import PnPProblem, PnPSolverConfig, SparseWeights, pnp_solve

_COLLINEAR_DIST = 1e-9
_COLLINEAR_AREA = 1e-12
_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))  # point pairs ab, ac, bc
_NEWTON_STEPS = 8
_FLOOR_ULPS = 4  # depth polish: the rounding floor, in ulps of the terms
# RANSAC batches double from _FIRST_BATCH up to _BATCH.  First batches of
# 8-24 samples left n = 2000 runs holding one more plan-sized heap block
# (peak RSS +30 MB) in a quarter of the seeds; 32 did not (CHANGES.md).
_FIRST_BATCH = 32
_BATCH = 64
_ZERO_WEIGHT_GAP = 1e3  # log-weight gap below the lightest positive weight
_REFITS = 4  # at most this many re-scored refits of the inlier set
_CONFIDENCE = 0.99  # of the stopping bound on the sample count


def _rigid_align(world: np.ndarray, camera: np.ndarray):
    """Least-squares rigid transforms with R @ world + t ~= camera (Kabsch),
    over leading batch dimensions: R (..., 3, 3) and t (..., 3)."""
    wc, cc = world.mean(axis=-2), camera.mean(axis=-2)
    S = np.swapaxes(camera - cc[..., None, :], -1, -2) @ (world - wc[..., None, :])
    U, _, Vt = np.linalg.svd(S)
    D = np.broadcast_to(np.eye(3), S.shape).copy()
    D[..., 2, 2] = np.linalg.det(U @ Vt)
    R = U @ D @ Vt
    return R, cc - (R @ wc[..., None])[..., 0]


def _minimal_degeneracy(p: np.ndarray):
    """Masks of the (..., 3, 3) point triples that are coincident or collinear."""
    i, j = _EDGES
    dist = np.linalg.norm(p[..., i, :] - p[..., j, :], axis=-1)
    coincident = dist.min(axis=-1) <= _COLLINEAR_DIST
    area = 0.5 * np.linalg.norm(np.cross(p[..., 1, :] - p[..., 0, :],
                                         p[..., 2, :] - p[..., 0, :]), axis=-1)
    return coincident, ~coincident & (area <= _COLLINEAR_AREA)


def _polymul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise product of (B, la) and (B, lb) polynomial coefficients."""
    out = np.zeros((a.shape[0], a.shape[1] + b.shape[1] - 1))
    for i in range(a.shape[1]):
        out[:, i:i + b.shape[1]] += a[:, i:i + 1] * b
    return out


def _law_of_cosines(s, cos, target):
    """Residuals s_i^2 + s_j^2 - 2 s_i s_j cos_ij - d_ij^2 over the three
    edges of a (c, 3) stack of depths, and their (c, 3, 3) Jacobian."""
    i, j = _EDGES
    si, sj = s[:, i], s[:, j]
    F = si * si + sj * sj - 2.0 * si * sj * cos - target
    J = np.zeros(s.shape + (3,))
    J[:, [0, 1, 2], i] = 2.0 * si - 2.0 * sj * cos
    J[:, [0, 1, 2], j] = 2.0 * sj - 2.0 * si * cos
    return F, J


def _polish_depths(s, cos, target):
    """Newton on the law-of-cosines system for a (c, 3) stack of depths;
    returns the depths and each row's max-norm residual.  A row stops
    at its rounding floor (_FLOOR_ULPS ulps of the size of its terms),
    at a singular Jacobian, after _NEWTON_STEPS, or once a step fails to
    shrink a residual already below 1e-9 of its largest target, where
    `_p3p_batch` accepts a root; that step is not taken.  Farther out
    every step is taken, as Newton may climb before it converges."""
    s = s.copy()
    F, J = _law_of_cosines(s, cos, target)
    resid = np.max(np.abs(F), axis=1)
    i, j = _EDGES
    terms = s[:, i] ** 2 + s[:, j] ** 2 + 2.0 * np.abs(s[:, i] * s[:, j] * cos)
    floor = _FLOOR_ULPS * np.finfo(float).eps * np.max(terms + target, axis=1)
    settled = 1e-9 * target.max(axis=1)
    active = np.arange(s.shape[0])
    for _ in range(_NEWTON_STEPS):
        active = active[resid[active] > floor[active]]
        if active.size == 0:
            break
        solved = np.ones(active.size, dtype=bool)
        try:
            step = np.linalg.solve(J[active], F[active, :, None])[..., 0]
        except np.linalg.LinAlgError:  # a singular row: solve row by row
            step = np.zeros((active.size, 3))
            for r, a in enumerate(active):
                try:
                    step[r] = np.linalg.solve(J[a], F[a])
                except np.linalg.LinAlgError:
                    solved[r] = False
        trial = s[active] - step
        F_new, J_new = _law_of_cosines(trial, cos[active], target[active])
        resid_new = np.max(np.abs(F_new), axis=1)
        better = solved & ((resid_new < resid[active])
                           | (resid[active] > settled[active]))
        active = active[better]
        s[active], F[active], J[active] = (trial[better], F_new[better],
                                           J_new[better])
        resid[active] = resid_new[better]
    return s, resid


@np.errstate(divide="ignore", invalid="ignore")  # bad rows are masked out
def _p3p_batch(f: np.ndarray, p: np.ndarray):
    """P3P for a (B, 3, 3) stack of unit bearings and points.

    Returns R (B, 12, 3, 3), t (B, 12, 3) and a (B, 12) mask of at most
    four solutions per row, over root candidates in root order; a row
    with coincident or collinear points has none.  Every step treats
    rows and candidates independently, so no row depends on the others.
    """
    B = f.shape[0]
    i, j = _EDGES
    cos = np.sum(f[:, i] * f[:, j], axis=-1)             # ab, ac, bc
    dist = np.linalg.norm(p[:, i] - p[:, j], axis=-1)
    cos_ab, cos_ac, cos_bc = cos.T[:, :, None]
    d_ab, d_ac, d_bc = dist.T[:, :, None]

    # Depths s_i along each bearing satisfy three law-of-cosines equations.
    # With s2 = u s1 and s3 = v s1, eliminating s1 and u leaves a quartic
    # in v, assembled here by polynomial arithmetic (coefficients ordered
    # highest degree first, as np.roots expects).
    #   A(v) = (d_bc/d_ac)^2 (1 + v^2 - 2 v cos_ac)      [u^2+v^2-2uv cos_bc]
    #   C(v) = (d_ab/d_ac)^2 (1 + v^2 - 2 v cos_ac)      [u^2+1 -2u  cos_ab]
    #   u = N(v)/D(v),  N = A - C - v^2 + 1,  D = 2(cos_ab - v cos_bc)
    #   quartic: N^2 + D^2 - 2 N D cos_ab - C D^2 = 0
    kc = (d_ab / d_ac) ** 2
    base = np.concatenate([np.ones((B, 1)), -2.0 * cos_ac, np.ones((B, 1))], 1)
    C = kc * base
    N = (d_bc / d_ac) ** 2 * base - C - np.array([1.0, 0.0, -1.0])
    D = np.concatenate([-2.0 * cos_bc, 2.0 * cos_ab], axis=1)
    D2 = _polymul(D, D)
    quartic = _polymul(N, N)
    quartic[:, 2:] += D2
    quartic[:, 1:] -= 2.0 * cos_ab * _polymul(N, D)
    quartic -= _polymul(C, D2)

    # the roots are the eigenvalues of the companion matrix, as in np.roots,
    # which handles the rows with a zero first or last coefficient itself
    q = quartic / np.max(np.abs(quartic), axis=1, keepdims=True)
    usable = np.all(np.isfinite(q), axis=1) & ~np.any(_minimal_degeneracy(p), 0)
    full = usable & (q[:, 0] != 0) & (q[:, 4] != 0)
    companion = np.repeat(np.eye(4, k=-1)[None], np.count_nonzero(full), 0)
    companion[:, 0] = -q[full, 1:] / q[full, :1]
    roots = np.full((B, 4), np.nan, dtype=complex)
    roots[full] = np.linalg.eigvals(companion)
    for r in np.flatnonzero(usable & ~full):
        found = np.roots(q[r])
        roots[r, :found.size] = found

    v = roots.real
    real = np.abs(roots.imag) <= 1e-6 * np.maximum(1.0, np.abs(v))
    base_v = 1.0 + v * v - 2.0 * v * cos_ac
    # u satisfies the quadratic u^2 - 2 u cos_ab + 1 - C(v) = 0; both roots
    # are tried because the rational selector N(v)/D(v) is 0/0 at
    # symmetric configurations (double roots of the quartic)
    disc = cos_ab * cos_ab - 1.0 + kc * base_v
    denom = 2.0 * (cos_ab - v * cos_bc)
    sq = np.sqrt(disc)
    rational = ((N[:, :1] * v + N[:, 1:2]) * v + N[:, 2:]) / denom
    u = np.stack([cos_ab + sq, cos_ab - sq, rational], axis=2).reshape(B, 12)
    tried = np.stack([disc >= 0, disc >= 0, np.abs(denom) > 1e-9], axis=2)
    tried &= (real & (v > 0) & (base_v > 0))[:, :, None]
    row, slot = np.nonzero(tried.reshape(B, 12) & (u > 0))
    s1 = d_ac / np.sqrt(base_v)
    s = s1[row, slot // 3, None] * np.stack(
        [np.ones(row.size), u[row, slot], v[row, slot // 3]], axis=1)
    s, resid = _polish_depths(s, cos[row], dist[row] ** 2)
    good = np.zeros((B, 12), dtype=bool)
    good[row, slot] = np.all(s > 0, axis=1) & (resid <= 1e-9 * dist[row].max(1) ** 2)
    depths = np.full((3, B, 12), np.nan)  # depth axis first: fast maxima over it
    depths[:, row, slot] = s.T

    # keep the first four solutions that differ from every one kept before
    close = (np.max(np.abs(depths[:, :, :, None] - depths[:, :, None]), axis=0)
             < 1e-9 * np.max(depths, axis=0)[:, :, None])
    ok = np.zeros((B, 12), dtype=bool)
    for c in range(12):
        ok[:, c] = (good[:, c] & ~np.any(ok[:, :c] & close[:, c, :c], axis=1)
                    & (np.count_nonzero(ok[:, :c], axis=1) < 4))
    row, slot = np.nonzero(ok)
    R, t = np.full((B, 12, 3, 3), np.nan), np.full((B, 12, 3), np.nan)
    R[row, slot], t[row, slot] = _rigid_align(
        p[row], depths[:, row, slot].T[:, :, None] * f[row])
    return R, t, ok


def p3p(bearings, points) -> list[Pose]:
    """Camera poses consistent with three bearing/point correspondences.

    Returns up to four poses; each reprojects the three points onto the
    three bearings essentially exactly.  Raises ValidationError for
    bearings that are not unit vectors or points that are not finite,
    and DegenerateGeometryError for collinear or coincident points.  An
    empty list means the quartic has no usable real root.
    """
    f = np.asarray(bearings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if f.shape != (3, 3) or p.shape != (3, 3):
        raise ValidationError("p3p expects three bearings and three points")
    check_bearings_and_points(f, p)
    coincident, collinear = _minimal_degeneracy(p)
    if coincident:
        raise DegenerateGeometryError("three-point set has coincident points")
    if collinear:
        raise DegenerateGeometryError("three-point set is collinear")
    R, t, ok = _p3p_batch(f[None], p[None])
    return [Pose(log_so3(Rs), ts) for Rs, ts in zip(R[ok], t[ok])]


@dataclass(frozen=True)
class CandidateSet:
    """Weighted 2D-3D candidate pairs over shared bearing/point sets.

    `ransac_p3p` draws its samples with probability proportional to the
    weights, so they must be finite and nonnegative, with a positive
    total unless the set is empty; only their ratios matter.
    """

    pairs: np.ndarray          # (k, 2) int indices (bearing, point)
    weights: np.ndarray        # (k,) finite, nonnegative
    bearings: np.ndarray       # (m, 3)
    points: np.ndarray         # (n, 3)

    def __post_init__(self):
        pairs = _pairs_array(self.pairs)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        for name in ("bearings", "points"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            if value.ndim != 2 or value.shape[1] != 3:
                raise ValidationError(f"candidate {name} must have 3 "
                                      f"columns, got shape {value.shape}")
            object.__setattr__(self, name, value)
        if pairs.shape[0] != weights.shape[0]:
            raise ValidationError("pairs and weights lengths differ")
        if not np.all((weights >= 0) & (weights < np.inf)):  # NaN fails too
            raise ValidationError(
                "candidate weights must be finite and nonnegative")
        if weights.size and not weights.any():
            raise ValidationError("candidate weights must not all be zero")
        check_pairs_in_range(pairs, self.bearings.shape[0],
                             self.points.shape[0], "candidate")

    def __len__(self):
        return self.pairs.shape[0]


@dataclass(frozen=True)
class RansacConfig:
    max_iterations: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")


@dataclass(frozen=True)
class RobustEstimate:
    pose: Pose
    inliers: np.ndarray          # one-to-one (k, 2) pairs
    iterations_used: int
    found_pose: bool             # False when no hypothesis scored any inlier

    @property
    def low_inlier(self) -> bool:
        """No hypothesis scored an inlier, or the one-to-one inliers are
        fewer than the 4 pairs that `ransac_p3p` refits."""
        return self.inliers.shape[0] < 4 or not self.found_pose


def _draw_samples(rng: np.random.Generator, log_w: np.ndarray,
                  size: int) -> np.ndarray:
    """(size, 4) samples, each drawn without replacement with probability
    proportional to exp(log_w): the four largest keys log_w + Gumbel
    noise, largest first, as a one-at-a-time draw would order them."""
    keys = log_w + rng.gumbel(size=(size, log_w.size))
    top = np.argpartition(keys, -4, axis=1)[:, -4:]
    order = np.argsort(-np.take_along_axis(keys, top, axis=1), axis=1)
    return np.take_along_axis(top, order, axis=1)


def _score_samples(cand: CandidateSet, fc: np.ndarray, pc: np.ndarray,
                   w: np.ndarray, sel: np.ndarray):
    """Hypotheses of a (B, 4) batch of candidate samples: three feed P3P,
    the fourth picks the solution of smallest angular residual.  Returns
    each sample's inlier count (-1 when it forms no hypothesis: a bearing
    or point repeated among all four, as such a probe fits every solution
    alike; a degenerate triple; or no P3P solution), its inlier weight
    under the weights w, and the chosen R (B, 3, 3) and t (B, 3)."""
    tri = sel[:, :3]
    rows = np.flatnonzero(np.all(
        np.diff(np.sort(cand.pairs[sel], axis=1), axis=1) != 0, axis=(1, 2)))
    R, t, ok = _p3p_batch(fc[tri[rows]], pc[tri[rows]])
    probe = sel[rows, 3]
    q = (R @ pc[probe, None, :, None])[..., 0] + t
    resid = np.where(ok, ray_angles(fc[probe, None], q), np.inf)
    formed = np.flatnonzero(ok.any(axis=1))
    rows, pick = rows[formed], np.argmin(resid[formed], axis=1)
    counts, mass = np.full(sel.shape[0], -1), np.zeros(sel.shape[0])
    R_best, t_best = np.zeros((sel.shape[0], 3, 3)), np.zeros((sel.shape[0], 3))
    R_best[rows], t_best[rows] = R[formed, pick], t[formed, pick]
    q = pc @ np.swapaxes(R_best[rows], -1, -2) + t_best[rows, None, :]
    inlier = ray_angles(fc, q) <= INLIER_THRESHOLD
    counts[rows] = np.count_nonzero(inlier, axis=1)
    # a row's own sum, not a matrix product: the same bits in any batch
    mass[rows] = np.where(inlier, w, 0.0).sum(axis=1)
    return counts, mass, R_best, t_best


def refit_to_inliers(bearings, points, pose: Pose, theta: float, rounds: int,
                     pairs=None, solver: PnPSolverConfig | None = None):
    """Alternate `correspondences_from_pose` (over the pool `pairs`, or
    all pairs) and, while that set has 4 or more pairs and differs from
    the set last fit, a `pnp_solve` refit from the current pose under
    uniform weights over its gathered rows.  A NumericalError keeps the
    pose.  At most `rounds` refits.  Returns (pose, the set it was fit
    to, or the first set if no refit ran, the number of refits).  Pool
    indices outside the bearings or points raise ValidationError."""
    inliers = correspondences_from_pose(bearings, points, pose, theta, pairs)
    fit_to, refits = None, 0
    while (refits < rounds and inliers.shape[0] >= 4
           and not np.array_equal(inliers, fit_to)):
        own = np.arange(inliers.shape[0])  # pair i: bearing i, point i
        weights = SparseWeights(pairs=np.stack([own, own], 1),
                                values=np.full(own.size, 1.0 / own.size))
        try:
            pose = pnp_solve(PnPProblem(bearings[inliers[:, 0]],
                                        points[inliers[:, 1]], weights, pose),
                             solver).pose
        except NumericalError:
            break
        refits, fit_to = refits + 1, inliers
        inliers = correspondences_from_pose(bearings, points, pose, theta,
                                            pairs)
    return pose, inliers if fit_to is None else fit_to, refits


def ransac_p3p(candidates: CandidateSet, config: RansacConfig) -> RobustEstimate:
    """Robust pose from candidate correspondences.

    Each hypothesis draws four distinct candidates with probability
    proportional to their weights (zero-weight ones only into a sample
    the others cannot fill): three feed P3P and the fourth selects among
    its solutions by angular residual.  Scoring counts candidates within
    the angular threshold (many-to-one allowed).  The search stops after
    `ceil(log(1 - _CONFIDENCE) / log(1 - W^4))` samples, W being the best
    hypothesis's inlier weight over the total weight: the usual bound
    on the inlier ratio when the weights are uniform.  Batches of samples
    grow from _FIRST_BATCH to _BATCH, capped by the bound, and are taken
    in sample order; sample r always takes row r of one noise stream, so
    the result is that of one sample at a time.

    Then at most _REFITS rounds of `refit_to_inliers` over the candidates
    take a hypothesis that admits a few wrong pairs to the pose of the
    right ones; the inliers returned are those the pose was fit to.
    Deterministic for a fixed seed.
    """
    k = len(candidates)
    if k < 4:
        raise ValidationError(f"ransac needs at least 4 candidates, got {k}")
    fc = candidates.bearings[candidates.pairs[:, 0]]
    pc = candidates.points[candidates.pairs[:, 1]]
    check_bearings_and_points(fc, pc)
    rng = np.random.default_rng(config.seed)
    w = candidates.weights / candidates.weights.max()  # sums without overflow
    total = w.sum()
    positive = w > 0
    log_w = np.full(k, np.log(w[positive].min()) - _ZERO_WEIGHT_GAP)
    log_w[positive] = np.log(w[positive])

    best_count, best = 0, None
    limit, it, batch = config.max_iterations, 0, _FIRST_BATCH
    while it < limit:
        size = min(batch, _BATCH, limit - it)
        batch *= 2
        sel = _draw_samples(rng, log_w, size)
        counts, mass, R, t = _score_samples(candidates, fc, pc, w, sel)
        for b in range(size):
            it += 1
            if counts[b] >= 0 and (counts[b] > best_count or best is None):
                best_count, best = int(counts[b]), (R[b], t[b])
                w4 = (mass[b] / total) ** 4
                limit = config.max_iterations
                if w4 >= 1.0:
                    limit = it
                elif w4 > 0:
                    needed = np.ceil(np.log(1.0 - _CONFIDENCE)
                                     / np.log1p(-w4))
                    limit = int(min(limit, needed))
            if it >= limit:
                break

    if best is None:  # no hypothesis could be formed (all samples degenerate)
        return RobustEstimate(pose=Pose.identity(),
                              inliers=np.zeros((0, 2), dtype=np.int64),
                              iterations_used=it, found_pose=False)

    pose, inliers, _ = refit_to_inliers(
        candidates.bearings, candidates.points,
        Pose(log_so3(best[0]), best[1]), INLIER_THRESHOLD, _REFITS,
        candidates.pairs)
    return RobustEstimate(pose=pose, inliers=inliers, iterations_used=it,
                          found_pose=best_count > 0)
