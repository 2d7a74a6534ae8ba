"""Training losses on correspondence matrices and poses.

The correspondence loss rewards probability mass on ground-truth-
consistent pairs and penalizes the rest; it is linear in the matrix, so
its derivative entries are exactly +-1.  The pose loss is the relative
rotation angle plus the translation distance, with the arccos argument
clamped so gradients stay finite at 0 and 180 degrees (the subgradient
is taken as zero where the clamp is active).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (INLIER_THRESHOLD, Pose, check_angle_threshold,
                       check_pairs_in_range, ray_angles,
                       so3_exp_and_derivatives, transform_points,
                       validate_one_to_one)


@dataclass(frozen=True)
class LossConfig:
    theta: float = INLIER_THRESHOLD   # angular inlier threshold, radians

    def __post_init__(self):
        check_angle_threshold(self.theta)


def inlier_sign_matrix(bearings, points, gt_pose: Pose, theta: float,
                       gt_pairs=None) -> np.ndarray:
    """Matrix with -1 on inlier-consistent pairs and +1 elsewhere.

    Inliers come from the listed ground-truth pairs when available,
    otherwise from the angular threshold test against the true pose.
    """
    m = np.asarray(bearings).shape[0]
    n = np.asarray(points).shape[0]
    if gt_pairs is not None:
        pairs = validate_one_to_one(gt_pairs)
        check_pairs_in_range(pairs, m, n, "gt pair")
        ind = np.zeros((m, n), dtype=bool)
        ind[pairs[:, 0], pairs[:, 1]] = True
    else:
        check_angle_threshold(theta)
        angles = ray_angles(np.asarray(bearings, dtype=np.float64)[:, None],
                            transform_points(gt_pose, points)[None])
        ind = angles <= theta
    return np.where(ind, -1.0, 1.0)


def correspondence_loss(P, bearings, points, gt_pose: Pose, theta: float,
                        gt_pairs=None):
    """Correspondence loss and its exact derivative with respect to P.

    sum_ij P_ij * (1 - 2 * [pair (i, j) is an inlier]), bounded in
    [-1, 1) for any strictly positive P that sums to one and has at least
    one inlier pair.  The derivative is the sign matrix itself.  A P
    whose total is not within 1e-6 of one, NaN included, is rejected.
    """
    P = np.asarray(P, dtype=np.float64)
    total = P.sum()
    # written so that a NaN total fails it
    if not abs(total - 1.0) <= 1e-6:
        raise ValidationError(f"P must sum to 1 (got {total})")
    sign = inlier_sign_matrix(bearings, points, gt_pose, theta, gt_pairs)
    if P.shape != sign.shape:
        raise ValidationError(f"P must have shape {sign.shape}, got {P.shape}")
    return float(np.sum(P * sign)), sign


@dataclass(frozen=True)
class PoseLoss:
    total: float               # rotation term plus translation term
    rotation: float            # radians, in [0, pi]
    translation: float
    grad: np.ndarray           # d(total)/d(r, t) of the estimate, shape (6,)


# Clamp bound for the arccos of `pose_loss`; keeps d(arccos)/dx finite.
ARCCOS_CLAMP = 1.0 - 1e-7


def pose_loss(pose: Pose, gt_pose: Pose) -> PoseLoss:
    """Rotation-angle plus translation-distance loss with its gradient.

    The rotation term is arccos((trace(R_gt' R) - 1) / 2) with the
    argument clamped; its gradient through the clamp boundary is zero.
    The translation gradient at exactly zero distance is taken as zero.
    """
    R, dR = so3_exp_and_derivatives(pose.r)
    R_gt = gt_pose.matrix()
    cos_arg = 0.5 * (np.trace(R_gt.T @ R) - 1.0)
    clamped = np.clip(cos_arg, -ARCCOS_CLAMP, ARCCOS_CLAMP)
    l_r = float(np.arccos(clamped))

    grad = np.zeros(6)
    if abs(cos_arg) < ARCCOS_CLAMP:
        dl_dc = -1.0 / np.sqrt(1.0 - cos_arg * cos_arg)
        for k in range(3):
            grad[k] = dl_dc * 0.5 * np.trace(R_gt.T @ dR[k])

    diff = pose.t - gt_pose.t
    l_t = float(np.linalg.norm(diff))
    if l_t > 0:
        grad[3:] = diff / l_t
    return PoseLoss(total=l_r + l_t, rotation=l_r, translation=l_t, grad=grad)

