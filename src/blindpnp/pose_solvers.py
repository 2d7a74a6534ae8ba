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
  the best one-to-one inlier set with EPnP.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import hungarian
from .errors import DegenerateGeometryError, NumericalError, ValidationError
from .geometry import (Pose, check_pairs_in_range, log_so3, ray_angles,
                       transform_points)

_COLLINEAR_DIST = 1e-9
_COLLINEAR_AREA = 1e-12


def _rigid_align(world: np.ndarray, camera: np.ndarray) -> Pose:
    """Least-squares rigid transform with R @ world + t ~= camera (Kabsch)."""
    wc = world.mean(axis=0)
    cc = camera.mean(axis=0)
    S = (camera - cc).T @ (world - wc)
    U, _, Vt = np.linalg.svd(S)
    D = np.diag([1.0, 1.0, np.linalg.det(U @ Vt)])
    R = U @ D @ Vt
    t = cc - R @ wc
    return Pose(log_so3(R), t)


def _check_minimal_points(points: np.ndarray) -> None:
    d01 = np.linalg.norm(points[0] - points[1])
    d02 = np.linalg.norm(points[0] - points[2])
    d12 = np.linalg.norm(points[1] - points[2])
    if min(d01, d02, d12) <= _COLLINEAR_DIST:
        raise DegenerateGeometryError("three-point set has coincident points")
    area = 0.5 * np.linalg.norm(
        np.cross(points[1] - points[0], points[2] - points[0]))
    if area <= _COLLINEAR_AREA:
        raise DegenerateGeometryError("three-point set is collinear")


def _trilateration_newton(s, cos_ab, cos_ac, cos_bc, d_ab, d_ac, d_bc,
                          iterations: int = 8):
    """Polish camera-frame depths (s1, s2, s3) on the law-of-cosines system."""
    s = s.copy()
    target = np.array([d_ab**2, d_ac**2, d_bc**2])
    for _ in range(iterations):
        s1, s2, s3 = s
        F = np.array([
            s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cos_ab,
            s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cos_ac,
            s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * cos_bc,
        ]) - target
        J = np.array([
            [2 * s1 - 2 * s2 * cos_ab, 2 * s2 - 2 * s1 * cos_ab, 0.0],
            [2 * s1 - 2 * s3 * cos_ac, 0.0, 2 * s3 - 2 * s1 * cos_ac],
            [0.0, 2 * s2 - 2 * s3 * cos_bc, 2 * s3 - 2 * s2 * cos_bc],
        ])
        try:
            step = np.linalg.solve(J, F)
        except np.linalg.LinAlgError:
            return s, np.max(np.abs(F))
        s = s - step
        if np.max(np.abs(F)) < 1e-15 * np.max(target):
            break
    s1, s2, s3 = s
    F = np.array([
        s1 * s1 + s2 * s2 - 2.0 * s1 * s2 * cos_ab,
        s1 * s1 + s3 * s3 - 2.0 * s1 * s3 * cos_ac,
        s2 * s2 + s3 * s3 - 2.0 * s2 * s3 * cos_bc,
    ]) - target
    return s, np.max(np.abs(F))


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
    norms = np.linalg.norm(f, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-9):
        raise ValidationError("bearings must be unit vectors")
    _check_minimal_points(p)

    cos_ab = float(f[0] @ f[1])
    cos_ac = float(f[0] @ f[2])
    cos_bc = float(f[1] @ f[2])
    d_ab = np.linalg.norm(p[0] - p[1])
    d_ac = np.linalg.norm(p[0] - p[2])
    d_bc = np.linalg.norm(p[1] - p[2])

    # Depths s_i along each bearing satisfy three law-of-cosines equations.
    # With s2 = u s1 and s3 = v s1, eliminating s1 and u leaves a quartic
    # in v, assembled here by polynomial arithmetic (coefficients ordered
    # highest degree first, as np.roots expects).
    #   A(v) = (d_bc/d_ac)^2 (1 + v^2 - 2 v cos_ac)      [u^2+v^2-2uv cos_bc]
    #   C(v) = (d_ab/d_ac)^2 (1 + v^2 - 2 v cos_ac)      [u^2+1 -2u  cos_ab]
    #   u = N(v)/D(v),  N = A - C - v^2 + 1,  D = 2(cos_ab - v cos_bc)
    #   quartic: N^2 + D^2 - 2 N D cos_ab - C D^2 = 0
    ka = (d_bc / d_ac) ** 2
    kc = (d_ab / d_ac) ** 2
    base = np.array([1.0, -2.0 * cos_ac, 1.0])          # v^2 - 2 v cos_ac + 1
    A = ka * base
    C = kc * base
    N = A - C - np.array([1.0, 0.0, -1.0])
    D = np.array([-2.0 * cos_bc, 2.0 * cos_ab])
    D2 = np.polymul(D, D)
    quartic = np.polyadd(np.polymul(N, N), D2)
    quartic = np.polysub(quartic, 2.0 * cos_ab * np.polymul(N, D))
    quartic = np.polysub(quartic, np.polymul(C, D2))

    lead = np.max(np.abs(quartic))
    if lead == 0.0:
        return []
    roots = np.roots(quartic / lead)

    poses = []
    seen: list[np.ndarray] = []
    scale = max(d_ab, d_ac, d_bc) ** 2
    for root in roots:
        if abs(root.imag) > 1e-6 * max(1.0, abs(root.real)):
            continue
        v = float(root.real)
        if v <= 0:
            continue
        base_v = 1.0 + v * v - 2.0 * v * cos_ac
        if base_v <= 0:
            continue
        s1 = d_ac / np.sqrt(base_v)
        # u satisfies the quadratic u^2 - 2 u cos_ab + 1 - C(v) = 0; both
        # roots are tried because the rational selector N(v)/D(v) is 0/0
        # at symmetric configurations (double roots of the quartic)
        disc = cos_ab * cos_ab - 1.0 + kc * base_v
        candidates_u = []
        if disc >= 0:
            sq = np.sqrt(disc)
            candidates_u.extend([cos_ab + sq, cos_ab - sq])
        denom = 2.0 * (cos_ab - v * cos_bc)
        if abs(denom) > 1e-9:
            candidates_u.append(float(np.polyval(N, v) / denom))
        for u in candidates_u:
            if u <= 0:
                continue
            s = np.array([s1, u * s1, v * s1])
            s, resid = _trilateration_newton(s, cos_ab, cos_ac, cos_bc,
                                             d_ab, d_ac, d_bc)
            if not np.all(s > 0) or resid > 1e-9 * scale:
                continue
            if any(np.max(np.abs(s - prev)) < 1e-9 * s.max() for prev in seen):
                continue  # duplicate solution
            seen.append(s)
            camera = s[:, None] * f
            poses.append(_rigid_align(p, camera))
    return poses[:4]


def _control_points(points: np.ndarray):
    """PCA control-point basis; three points when the set is planar."""
    centroid = points.mean(axis=0)
    centered = points - centroid
    cov = centered.T @ centered / points.shape[0]
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    eigvecs = eigvecs[:, order]
    scales = np.sqrt(np.maximum(eigvals, 0.0))
    planar = scales[2] <= 1e-9 * max(scales[0], 1e-300)
    axes = 2 if planar else 3
    ctrl = [centroid]
    for a in range(axes):
        ctrl.append(centroid + scales[a] * eigvecs[:, a])
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
    k = ctrl.shape[0]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    dv = np.array([[V[i, a] - V[i, b] for (a, b) in pairs]
                   for i in range(n_basis)])      # (n_basis, npairs, 3)
    dc = np.array([np.linalg.norm(ctrl[a] - ctrl[b]) for (a, b) in pairs])

    if n_basis == 1:
        num = float(np.sum(np.linalg.norm(dv[0], axis=1) * dc))
        den = float(np.sum(np.sum(dv[0] * dv[0], axis=1)))
        if den <= 0:
            return None
        return np.array([num / den])

    # unknowns: products beta_a * beta_b for a <= b
    prods = [(a, b) for a in range(n_basis) for b in range(a, n_basis)]
    L = np.zeros((len(pairs), len(prods)))
    for row, _ in enumerate(pairs):
        for col, (a, b) in enumerate(prods):
            fac = 1.0 if a == b else 2.0
            L[row, col] = fac * float(dv[a, row] @ dv[b, row])
    sol, *_ = np.linalg.lstsq(L, dc**2, rcond=None)
    betas = np.zeros(n_basis)
    b11 = sol[prods.index((0, 0))]
    betas[0] = np.sqrt(abs(b11))
    if betas[0] == 0:
        return None
    for a in range(1, n_basis):
        betas[a] = sol[prods.index((0, a))] / betas[0]
    return betas


def _refine_betas(betas: np.ndarray, V: np.ndarray, ctrl: np.ndarray,
                  iterations: int = 10) -> np.ndarray:
    """Gauss-Newton on the control-point distance residuals."""
    k = ctrl.shape[0]
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    dc2 = np.array([np.sum((ctrl[a] - ctrl[b]) ** 2) for (a, b) in pairs])
    dv = np.array([[V[i, a] - V[i, b] for (a, b) in pairs]
                   for i in range(len(betas))])
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


def _pose_residual(f: np.ndarray, p: np.ndarray, pose: Pose,
                   weights: np.ndarray) -> float:
    ang = ray_angles(f, transform_points(pose, p))
    return float(np.average(ang, weights=weights))


def epnp(bearings, points, weights=None) -> Pose:
    """Linear pose from four or more 2D-3D correspondences.

    Expresses each point in a control-point basis, solves the bearing
    cross-product constraints for the camera-frame control points, and
    recovers the pose by rigid alignment.  Candidate null-space
    dimensions 1..3 are tried (1..2 for planar sets) with Gauss-Newton
    refinement of the basis coefficients; the candidate with the lowest
    weighted angular residual wins.
    """
    f = np.asarray(bearings, dtype=np.float64)
    p = np.asarray(points, dtype=np.float64)
    if f.ndim != 2 or f.shape != (p.shape[0], 3) or p.shape[1] != 3:
        raise ValidationError("bearings and points must be matching (k, 3) arrays")
    npts = p.shape[0]
    if npts < 4:
        raise ValidationError(f"epnp needs at least 4 pairs, got {npts}")
    if weights is None:
        w = np.ones(npts)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (npts,) or np.any(w < 0):
            raise ValidationError("weights must be a nonnegative (k,) array")
        if w.sum() == 0:
            raise ValidationError("weights sum to zero")

    ctrl, planar = _control_points(p)
    k = ctrl.shape[0]
    alphas = _barycentric(p, ctrl)

    # each pair contributes skew(f_i) applied to sum_k alpha_ik x_k = 0
    M = np.zeros((3 * npts, 3 * k))
    for i in range(npts):
        fx, fy, fz = f[i]
        S = np.array([[0.0, -fz, fy], [fz, 0.0, -fx], [-fy, fx, 0.0]])
        for a in range(k):
            M[3 * i:3 * i + 3, 3 * a:3 * a + 3] = w[i] * alphas[i, a] * S

    MtM = M.T @ M
    eigvals, eigvecs = np.linalg.eigh(MtM)
    max_basis = 2 if planar else 3
    V = eigvecs[:, :max_basis].T.reshape(max_basis, k, 3)

    best_pose = None
    best_err = np.inf
    for n_basis in range(1, max_basis + 1):
        betas = _betas_from_distances(V[:n_basis], ctrl, n_basis)
        if betas is None:
            continue
        betas = _refine_betas(betas, V[:n_basis], ctrl)
        x = np.einsum("i,ikx->kx", betas, V[:n_basis])
        cam = alphas @ x
        # resolve the global sign so points sit in front of the camera
        if float(np.sum(np.sum(f * cam, axis=1) * w)) < 0:
            cam = -cam
        scale = np.linalg.norm(cam)
        if not np.isfinite(scale) or scale < 1e-12:
            continue
        try:
            pose = _rigid_align(p, cam)
        except (ValidationError, np.linalg.LinAlgError):
            continue
        err = _pose_residual(f, p, pose, w)
        if err < best_err:
            best_err = err
            best_pose = pose
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


def _candidate_angles(cand: CandidateSet, pose: Pose) -> np.ndarray:
    q = transform_points(pose, cand.points[cand.pairs[:, 1]])
    return ray_angles(cand.bearings[cand.pairs[:, 0]], q, exact=True)


def _one_to_one_inliers(cand: CandidateSet, angles: np.ndarray,
                        threshold: float) -> np.ndarray:
    """Reduce threshold-passing candidates to a one-to-one pair set."""
    mask = angles <= threshold
    if not np.any(mask):
        return np.zeros((0, 2), dtype=np.int64)
    pairs = cand.pairs[mask]
    ang = angles[mask]
    rows = np.unique(pairs[:, 0])
    cols = np.unique(pairs[:, 1])
    if rows.size == pairs.shape[0] and cols.size == pairs.shape[0]:
        return pairs[np.argsort(pairs[:, 0])]  # already one-to-one
    rmap = {r: i for i, r in enumerate(rows)}
    cmap = {c: i for i, c in enumerate(cols)}
    sentinel = 1e6
    cost = np.full((rows.size, cols.size), sentinel)
    for (i, j), a in zip(pairs, ang):
        cost[rmap[i], cmap[j]] = min(cost[rmap[i], cmap[j]], a)
    matches = hungarian(cost)
    keep = cost[matches[:, 0], matches[:, 1]] < sentinel
    matches = matches[keep]
    return np.stack([rows[matches[:, 0]], cols[matches[:, 1]]], axis=1)


def ransac_p3p(candidates: CandidateSet, config: RansacConfig) -> RobustEstimate:
    """Robust pose from candidate correspondences.

    Each hypothesis samples four distinct candidates: three feed P3P
    and the fourth selects among its solutions by angular residual.
    Scoring counts candidates within the angular threshold (many-to-one
    allowed); the final inlier set is made one-to-one by a Hungarian
    pass on angular cost and refined with EPnP when it has four or more
    pairs.  Deterministic for a fixed seed.
    """
    k = len(candidates)
    if k < 4:
        raise ValidationError(f"ransac needs at least 4 candidates, got {k}")
    rng = np.random.default_rng(config.seed)
    thr = config.inlier_threshold

    best_count = 0
    best_pose: Pose | None = None
    needed = config.max_iterations
    it = 0
    while it < min(config.max_iterations, needed):
        it += 1
        sel = rng.choice(k, size=4, replace=False)
        tri = candidates.pairs[sel[:3]]
        # degenerate sample: repeated bearing or repeated point
        if (len(set(tri[:, 0])) < 3 or len(set(tri[:, 1])) < 3):
            continue
        try:
            hyps = p3p(candidates.bearings[tri[:, 0]],
                       candidates.points[tri[:, 1]])
        except DegenerateGeometryError:
            continue
        if not hyps:
            continue
        probe = candidates.pairs[sel[3]]
        fb = candidates.bearings[probe[0]]
        pp = candidates.points[probe[1]]
        q = np.concatenate([transform_points(hyp, pp[None]) for hyp in hyps])
        resid = ray_angles(np.broadcast_to(fb, q.shape), q)
        pose = hyps[int(np.argmin(resid))]
        count = int(np.count_nonzero(_candidate_angles(candidates, pose) <= thr))
        if count > best_count or best_pose is None:
            best_count = count
            best_pose = pose
            w = count / k
            if w >= 1.0:
                needed = it
            elif w > 0:
                denom = np.log1p(-min(w**4, 1.0 - 1e-16))
                needed = int(np.ceil(np.log(1.0 - config.confidence) / denom))

    if best_pose is None:
        # no hypothesis could even be formed (all samples degenerate)
        return RobustEstimate(pose=Pose.identity(),
                              inliers=np.zeros((0, 2), dtype=np.int64),
                              iterations_used=it, found_pose=False,
                              hypothesis_count=0)

    angles = _candidate_angles(candidates, best_pose)
    inliers = _one_to_one_inliers(candidates, angles, thr)
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
