"""Minimal and linear pose solvers plus the robust initializer.

* `p3p` solves the three-point pose problem: reduce the three
  law-of-cosines equations to a quartic, polish each root with Newton
  iterations on the original trilateration system, and lift the camera-
  frame points to a pose by rigid alignment.  Up to four solutions.
* `epnp` is the control-point linear solver.  Constraints are written
  with the bearing cross product, f x (sum_k alpha_k x_k) = 0, so image
  points never need to be dehomogenized.  Handles planar point sets with
  a three-control-point basis.
* `ransac_p3p` runs P3P hypotheses over weighted candidate pairs (three
  points per sample plus one disambiguating pair), scores by angular
  inlier count, early-exits on the usual confidence bound, and refines
  the best one-to-one inlier set with EPnP.  Hypotheses are solved,
  probed and scored a batch of samples at a time; `p3p` is a batch of
  one through the same solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import one_to_one
from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .geometry import (Pose, check_pairs_in_range, log_so3, ray_angles,
                       transform_points)

_COLLINEAR_DIST = 1e-9
_COLLINEAR_AREA = 1e-12
_EDGES = (np.array([0, 0, 1]), np.array([1, 2, 2]))  # point pairs ab, ac, bc
_NEWTON_STEPS = 8
_BATCH = 64  # RANSAC samples evaluated together


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
    after a step taken from a residual below 1e-15 of its largest
    target, at a singular Jacobian, or after _NEWTON_STEPS."""
    s = s.copy()
    tol = 1e-15 * target.max(axis=1)
    active = np.arange(s.shape[0])
    for _ in range(_NEWTON_STEPS):
        F, J = _law_of_cosines(s[active], cos[active], target[active])
        solved = np.ones(active.size, dtype=bool)
        try:
            step = np.linalg.solve(J, F[..., None])[..., 0]
        except np.linalg.LinAlgError:  # a singular row: solve row by row
            step = np.zeros_like(F)
            for r in range(active.size):
                try:
                    step[r] = np.linalg.solve(J[r], F[r])
                except np.linalg.LinAlgError:
                    solved[r] = False
        s[active[solved]] -= step[solved]
        active = active[solved & ~(np.max(np.abs(F), axis=1) < tol[active])]
    F, _ = _law_of_cosines(s, cos, target)
    return s, np.max(np.abs(F), axis=1)


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
    three bearings essentially exactly.  Raises DegenerateGeometryError
    for collinear or coincident points.  An empty list means the quartic
    has no usable real root.
    """
    f = np.asarray(bearings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if f.shape != (3, 3) or p.shape != (3, 3):
        raise ValidationError("p3p expects three bearings and three points")
    if np.any(np.abs(np.linalg.norm(f, axis=1) - 1.0) > 1e-9):
        raise ValidationError("bearings must be unit vectors")
    coincident, collinear = _minimal_degeneracy(p)
    if coincident:
        raise DegenerateGeometryError("three-point set has coincident points")
    if collinear:
        raise DegenerateGeometryError("three-point set is collinear")
    R, t, ok = _p3p_batch(f[None], p[None])
    return [Pose(log_so3(Rs), ts) for Rs, ts in zip(R[ok], t[ok])]


def _control_points(points: np.ndarray):
    """PCA control-point basis; three points when the set is planar."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered / points.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    scales = np.sqrt(np.maximum(eigvals[order], 0.0))
    eigvecs = eigvecs[:, order]
    planar = scales[2] <= 1e-9 * max(scales[0], 1e-300)
    ctrl = [centroid] + [centroid + scales[a] * eigvecs[:, a]
                         for a in range(2 if planar else 3)]
    return np.asarray(ctrl), planar


def _barycentric(points: np.ndarray, ctrl: np.ndarray) -> np.ndarray:
    """Coefficients alpha with sum 1 and sum_k alpha_k c_k = p."""
    k = ctrl.shape[0]
    A = np.vstack([ctrl.T, np.ones(k)])            # 4 x k
    B = np.vstack([points.T, np.ones(points.shape[0])])  # 4 x n
    if k == 4:
        return np.linalg.solve(A, B).T
    sol, *_ = np.linalg.lstsq(A, B, rcond=None)
    return sol.T


def _betas_from_distances(V: np.ndarray, ctrl: np.ndarray,
                          n_basis: int) -> np.ndarray | None:
    """Initial basis coefficients from control-point distance preservation.

    V has shape (n_basis, k, 3): null-space basis vectors reshaped to
    camera control points.  Solves the linearized system in the products
    beta_a beta_b, then extracts a consistent sign pattern.
    """
    i, j = np.triu_indices(ctrl.shape[0], 1)       # control-point pairs
    dv = np.ascontiguousarray(V[:, i] - V[:, j])  # (n_basis, npairs, 3)
    dc = np.array([np.linalg.norm(d) for d in ctrl[i] - ctrl[j]])

    if n_basis == 1:
        num = float(np.sum(np.linalg.norm(dv[0], axis=1) * dc))
        den = float(np.sum(np.sum(dv[0] * dv[0], axis=1)))
        if den <= 0:
            return None
        return np.array([num / den])

    # unknowns: products beta_a * beta_b for a <= b
    prods = [(a, b) for a in range(n_basis) for b in range(a, n_basis)]
    L = np.zeros((dc.size, len(prods)))
    for row in range(dc.size):
        for col, (a, b) in enumerate(prods):
            fac = 1.0 if a == b else 2.0
            L[row, col] = fac * float(dv[a, row] @ dv[b, row])
    sol, *_ = np.linalg.lstsq(L, dc**2, rcond=None)
    b0 = np.sqrt(abs(sol[0]))  # prods begins (0, 0), (0, 1), (0, 2)
    if b0 == 0:
        return None
    return np.concatenate([[b0], sol[1:n_basis] / b0])


def _refine_betas(betas: np.ndarray, V: np.ndarray, ctrl: np.ndarray,
                  iterations: int = 10) -> np.ndarray:
    """Gauss-Newton on the control-point distance residuals."""
    i, j = np.triu_indices(ctrl.shape[0], 1)
    dc2 = np.sum((ctrl[i] - ctrl[j]) ** 2, axis=1)
    dv = np.ascontiguousarray(V[:, i] - V[:, j])
    for _ in range(iterations):
        diff = np.einsum("i,ipx->px", betas, dv)
        resid = np.sum(diff * diff, axis=1) - dc2
        J = 2.0 * np.einsum("px,ipx->pi", diff, dv)
        try:
            step, *_ = np.linalg.lstsq(J, resid, rcond=None)
        except np.linalg.LinAlgError:
            break
        betas = betas - step
        if np.max(np.abs(resid)) < 1e-14 * max(dc2.max(), 1.0):
            break
    return betas


def _epnp_design(f: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """The (3n, 3k) EPnP system: pair i contributes skew(f_i) applied to
    sum_a alpha_ia x_a = 0, block (i, a) being alpha_ia skew(f_i)."""
    S = np.zeros((f.shape[0], 3, 3))
    S[:, [2, 0, 1], [1, 2, 0]] = f
    S[:, [1, 2, 0], [2, 0, 1]] = -f
    M = alphas[:, None, :, None] * S[:, :, None, :]
    return M.reshape(3 * f.shape[0], 3 * alphas.shape[1])


def epnp(bearings, points) -> Pose:
    """Linear pose from four or more 2D-3D correspondences.

    Expresses each point in a control-point basis, solves the bearing
    cross-product constraints for the camera-frame control points, and
    recovers the pose by rigid alignment.  Candidate null-space
    dimensions 1..3 are tried (1..2 for planar sets) with Gauss-Newton
    refinement of the basis coefficients; the candidate with the lowest
    mean angular residual wins.
    """
    f = np.asarray(bearings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if f.ndim != 2 or f.shape != (p.shape[0], 3) or p.shape[1] != 3:
        raise ValidationError("bearings and points must be matching (k, 3) arrays")
    npts = p.shape[0]
    if npts < 4:
        raise ValidationError(f"epnp needs at least 4 pairs, got {npts}")

    ctrl, planar = _control_points(p)
    k = ctrl.shape[0]
    alphas = _barycentric(p, ctrl)

    M = _epnp_design(f, alphas)
    _, eigvecs = np.linalg.eigh(M.T @ M)
    max_basis = 2 if planar else 3
    V = eigvecs[:, :max_basis].T.reshape(max_basis, k, 3)

    best_pose, best_err = None, np.inf
    for n_basis in range(1, max_basis + 1):
        betas = _betas_from_distances(V[:n_basis], ctrl, n_basis)
        if betas is None:
            continue
        betas = _refine_betas(betas, V[:n_basis], ctrl)
        x = np.einsum("i,ikx->kx", betas, V[:n_basis])
        cam = alphas @ x
        # resolve the global sign so points sit in front of the camera
        if float(np.sum(np.sum(f * cam, axis=1))) < 0:
            cam = -cam
        scale = np.linalg.norm(cam)
        if not np.isfinite(scale) or scale < 1e-12:
            continue
        try:
            R, t = _rigid_align(p, cam)
            pose = Pose(log_so3(R), t)
        except (ValidationError, np.linalg.LinAlgError):
            continue
        err = float(np.mean(ray_angles(f, transform_points(pose, p))))
        if err < best_err:
            best_err, best_pose = err, pose
    if best_pose is None:
        raise NumericalError("epnp control-point system is degenerate")
    return best_pose


@dataclass(frozen=True)
class CandidateSet:
    """Weighted 2D-3D candidate pairs over shared bearing/point sets."""

    pairs: np.ndarray          # (k, 2) int indices (bearing, point)
    weights: np.ndarray        # (k,) nonnegative
    bearings: np.ndarray       # (m, 3)
    points: np.ndarray         # (n, 3)

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        weights = np.asarray(self.weights, dtype=np.float64).reshape(-1)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bearings",
                           np.asarray(self.bearings, dtype=np.float64))
        object.__setattr__(self, "points",
                           np.asarray(self.points, dtype=np.float64))
        if pairs.shape[0] != weights.shape[0]:
            raise ValidationError("pairs and weights lengths differ")
        if np.any(weights < 0):
            raise ValidationError("candidate weights must be nonnegative")
        check_pairs_in_range(pairs, self.bearings.shape[0],
                             self.points.shape[0], "candidate")

    def __len__(self):
        return self.pairs.shape[0]


@dataclass(frozen=True)
class RansacConfig:
    inlier_threshold: float = 0.01   # angular reprojection error, radians
    max_iterations: int = 1000
    confidence: float = 0.99
    seed: int = 0

    def __post_init__(self):
        if self.inlier_threshold <= 0:
            raise ValidationError("inlier threshold must be positive")
        if self.max_iterations < 1:
            raise ValidationError("max_iterations must be at least 1")
        if not (0.0 < self.confidence < 1.0):
            raise ValidationError("confidence must lie in (0, 1)")


@dataclass(frozen=True)
class RobustEstimate:
    pose: Pose
    inliers: np.ndarray          # one-to-one (k, 2) pairs
    iterations_used: int
    found_pose: bool             # False when no hypothesis scored any inlier
    hypothesis_count: int = 0    # inliers of the best minimal hypothesis

    @property
    def low_inlier(self) -> bool:
        """No hypothesis scored an inlier, or the one-to-one inliers are
        fewer than the 4 pairs that `ransac_p3p` refits with EPnP."""
        return self.inliers.shape[0] < 4 or not self.found_pose


def _candidate_angles(fc: np.ndarray, pc: np.ndarray, R: np.ndarray,
                      t: np.ndarray) -> np.ndarray:
    """Exact angles of the candidate pairs (bearings fc, points pc) under
    rotations R (..., 3, 3) and translations t (..., 3)."""
    return ray_angles(fc, pc @ np.swapaxes(R, -1, -2) + t[..., None, :],
                      exact=True)


def _score_samples(cand: CandidateSet, fc: np.ndarray, pc: np.ndarray,
                   sel: np.ndarray, threshold: float):
    """Hypotheses of a (B, 4) batch of candidate samples: three feed P3P,
    the fourth picks the solution of smallest angular residual.  Returns
    each sample's inlier count (-1 when it forms no hypothesis: a repeated
    bearing or point, a degenerate triple or no P3P solution) and the
    chosen R (B, 3, 3) and t (B, 3)."""
    tri = sel[:, :3]
    rows = np.flatnonzero(np.all(
        np.diff(np.sort(cand.pairs[tri], axis=1), axis=1) != 0, axis=(1, 2)))
    R, t, ok = _p3p_batch(fc[tri[rows]], pc[tri[rows]])
    probe = sel[rows, 3]
    q = (R @ pc[probe, None, :, None])[..., 0] + t
    resid = np.where(ok, ray_angles(fc[probe, None], q), np.inf)
    formed = np.flatnonzero(ok.any(axis=1))
    rows, pick = rows[formed], np.argmin(resid[formed], axis=1)
    counts = np.full(sel.shape[0], -1)
    R_best, t_best = np.zeros((sel.shape[0], 3, 3)), np.zeros((sel.shape[0], 3))
    R_best[rows], t_best[rows] = R[formed, pick], t[formed, pick]
    inlier = _candidate_angles(fc, pc, R_best[rows], t_best[rows]) <= threshold
    counts[rows] = np.count_nonzero(inlier, axis=1)
    return counts, R_best, t_best


def ransac_p3p(candidates: CandidateSet, config: RansacConfig) -> RobustEstimate:
    """Robust pose from candidate correspondences.

    Each hypothesis samples four distinct candidates: three feed P3P
    and the fourth selects among its solutions by angular residual.
    Scoring counts candidates within the angular threshold (many-to-one
    allowed); the final inlier set is made one-to-one on angular cost
    by `one_to_one`, where only the inliers that share a bearing or a
    point go through the Hungarian step, and refined with EPnP when it
    has four or more pairs.  Hypotheses are evaluated _BATCH samples at
    a time, then taken in sample order under the confidence bound, so
    the result is that of one sample at a time.  Deterministic for a
    fixed seed.
    """
    k = len(candidates)
    if k < 4:
        raise ValidationError(f"ransac needs at least 4 candidates, got {k}")
    fc = candidates.bearings[candidates.pairs[:, 0]]
    pc = candidates.points[candidates.pairs[:, 1]]
    if np.any(np.abs(np.linalg.norm(fc, axis=1) - 1.0) > 1e-9):
        raise ValidationError("bearings must be unit vectors")
    rng = np.random.default_rng(config.seed)
    thr = config.inlier_threshold

    best_count, best = 0, None
    needed, it = config.max_iterations, 0
    while it < min(config.max_iterations, needed):
        size = min(_BATCH, min(config.max_iterations, needed) - it)
        sel = np.array([rng.choice(k, size=4, replace=False)
                        for _ in range(size)])
        counts, R, t = _score_samples(candidates, fc, pc, sel, thr)
        for b in range(size):
            it += 1
            if counts[b] >= 0 and (counts[b] > best_count or best is None):
                best_count, best = int(counts[b]), (R[b], t[b])
                w = best_count / k
                if w >= 1.0:
                    needed = it
                elif w > 0:
                    denom = np.log1p(-min(w**4, 1.0 - 1e-16))
                    needed = int(np.ceil(np.log(1.0 - config.confidence)
                                         / denom))
            if it >= min(config.max_iterations, needed):
                break

    if best is None:  # no hypothesis could be formed (all samples degenerate)
        return RobustEstimate(pose=Pose.identity(),
                              inliers=np.zeros((0, 2), dtype=np.int64),
                              iterations_used=it, found_pose=False)

    best_pose = Pose(log_so3(best[0]), best[1])
    angles = _candidate_angles(fc, pc, best_pose.matrix(), best_pose.t)
    passing = angles <= thr
    inliers = one_to_one(candidates.pairs[passing], angles[passing])
    pose = best_pose
    if inliers.shape[0] >= 4:
        try:
            pose = epnp(candidates.bearings[inliers[:, 0]],
                        candidates.points[inliers[:, 1]])
        except (NumericalError, ValidationError):
            pose = best_pose  # keep the minimal-solver estimate
    return RobustEstimate(pose=pose, inliers=inliers, iterations_used=it,
                          found_pose=best_count > 0,
                          hypothesis_count=best_count)
