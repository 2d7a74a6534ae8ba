"""Training losses on correspondence matrices and poses.

The correspondence loss rewards probability mass on ground-truth-
consistent pairs and penalizes the rest; it is linear in the matrix, so
its derivative entries are exactly +-1.  The pose loss is the reported
error: the geodesic rotation angle plus the translation distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .geometry import (INLIER_THRESHOLD, Pose, check_angle_threshold,
                       check_pairs_in_range, log_so3, ray_angles,
                       so3_exp_and_derivatives, transform_points,
                       validate_one_to_one)


@dataclass(frozen=True)
class LossConfig:
    theta: float = INLIER_THRESHOLD   # angular inlier threshold, radians

    def __post_init__(self):
        check_angle_threshold(self.theta)


def correspondence_loss(P, bearings, points, gt_pose: Pose, theta: float,
                        gt_pairs=None):
    """Correspondence loss and its exact derivative with respect to P.

    sum_ij P_ij * (1 - 2 * [pair (i, j) is an inlier]), taken as P's
    total less twice its inlier mass; bounded in [-1, 1) for any strictly
    positive P that sums to one and has at least one inlier pair.  The
    derivative is the sign matrix itself.  Inliers are the `gt_pairs`
    when given, else the pairs within `theta` at the true pose.  A P not
    of shape (m, n), or whose total is not within 1e-6 of one (NaN
    included), is rejected.
    """
    P = np.asarray(P, dtype=np.float64)
    bearings = np.asarray(bearings, dtype=np.float64)
    m, n = bearings.shape[0], np.asarray(points).shape[0]
    if P.shape != (m, n):
        raise ValidationError(f"P must have shape {(m, n)}, got {P.shape}")
    total = P.sum()
    # written so that a NaN total fails it
    if not abs(total - 1.0) <= 1e-6:
        raise ValidationError(f"P must sum to 1 (got {total})")
    if gt_pairs is not None:
        pairs = validate_one_to_one(gt_pairs)
        check_pairs_in_range(pairs, m, n, "gt pair")
        inlier = (pairs[:, 0], pairs[:, 1])
    else:
        check_angle_threshold(theta)
        inlier = ray_angles(bearings[:, None],
                            transform_points(gt_pose, points)[None]) <= theta
    sign = np.ones((m, n))
    sign[inlier] = -1.0
    return float(total - 2.0 * P[inlier].sum()), sign


@dataclass(frozen=True)
class PoseLoss:
    total: float               # rotation term plus translation term
    rotation: float            # radians, in [0, pi]
    translation: float
    grad: np.ndarray           # d(total)/d(r, t) of the estimate, shape (6,)


def pose_loss(pose: Pose, gt_pose: Pose) -> PoseLoss:
    """Rotation-angle plus translation-distance loss with its gradient.

    The terms are `geodesic_rotation_angle` |w|, w = log(R_gt' R), and
    `translation_error`, bit for bit.  The rotation gradient is the axis
    w / |w| against the right-Jacobian columns vee(R' dR/dr_k), with no
    division by sin |w|.  Each gradient is zero where its term is zero.
    """
    R, dR = so3_exp_and_derivatives(pose.r)
    w = log_so3(gt_pose.matrix().T @ R)
    l_r = float(np.linalg.norm(w))

    grad = np.zeros(6)
    if l_r > 0:
        J = R.T @ dR   # J[k] = R' dR/dr_k, skew-symmetric
        grad[:3] = np.stack([J[:, 2, 1], J[:, 0, 2], J[:, 1, 0]], 1) @ w / l_r

    diff = pose.t - gt_pose.t
    l_t = float(np.linalg.norm(diff))
    if l_t > 0:
        grad[3:] = diff / l_t
    return PoseLoss(total=l_r + l_t, rotation=l_r, translation=l_t, grad=grad)
