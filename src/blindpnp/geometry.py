"""Rotations, bearing vectors, and angular error measures.

Conventions used throughout the library:

* rotations are parameterized by an angle-axis 3-vector ``r`` (radians
  times unit axis) with the matrix obtained from the exponential map,
* a pose ``(r, t)`` maps scene points into the camera frame as
  ``R(r) @ p + t``,
* a bearing vector is the unit ray through an image point,
  proportional to ``inv(K) @ [u, v, 1]``,
* R and its first and second derivatives come from one closed-form
  kernel, `so3_exp_and_derivatives`, holomorphic in r so that complex
  steps differentiate through it,
* every angle between a bearing and a transformed scene point comes
  from `ray_angles`, one exact arctan2 measure, so inlier tests and
  reported errors agree bit for bit.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# ||r||^2 below this takes _TAYLOR_TERMS terms of the series (truncated
# under 1e-17); above, cancellation costs d2R at most ~16 ulps.
_SMALL_ANGLE_SQ = 1.0
_TAYLOR_TERMS = 12
_ROTATION_TOL = 1e-6  # max |R'R - I| of a matrix taken as a rotation


def _as_vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.shape != (3,):
        raise ValidationError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} has non-finite components: {v}")
    return v


@dataclass(frozen=True)
class Pose:
    """Rigid transform: angle-axis rotation ``r`` plus translation ``t``."""

    r: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vec3(self.r, "rotation r"))
        object.__setattr__(self, "t", _as_vec3(self.t, "translation t"))

    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix of this pose."""
        return exp_so3(self.r)

    def canonical(self) -> "Pose":
        """Same rotation with the angle-axis norm wrapped into [0, pi]."""
        return Pose(canonicalize_angle_axis(self.r), self.t)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.r, self.t])

    @staticmethod
    def from_vector(x) -> "Pose":
        x = np.asarray(x, dtype=np.float64)
        return Pose(x[:3], x[3:6])

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), np.zeros(3))


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ x == cross(v, x)."""
    z = v[0] * 0.0  # preserves dtype (complex-step safe)
    return np.array([[z, -v[2], v[1]], [v[2], z, -v[0]], [-v[1], v[0], z]])


_EYE3 = np.eye(3)
_SKEW_BASIS = np.array([skew(e) for e in _EYE3])  # E_k = skew(e_k)
# A_k = E_k S + S E_k = e_k r' + r e_k' - 2 r_k I is linear in r: r @ this
_ANTI_BASIS = (np.einsum("ka,ib->ikab", _EYE3, _EYE3)
               + np.einsum("ia,kb->ikab", _EYE3, _EYE3)
               - 2.0 * np.einsum("ik,ab->ikab", _EYE3, _EYE3)).reshape(3, 27)


# rows: the coefficients of a, b, c1, c2, e1, e2 (see `_rodrigues_coeffs`)
# in powers of sq; each pair is twice the sq-derivative of the one before
_SERIES = [np.array([[(-1) ** j / math.factorial(2 * j + i)
                      for j in range(_TAYLOR_TERMS + 2)] for i in (1, 2)])]
for _ in range(2):
    _SERIES.append(2 * np.arange(1, _SERIES[-1].shape[1]) * _SERIES[-1][:, 1:])
_SERIES = np.vstack([c[:, :_TAYLOR_TERMS] for c in _SERIES])
_POWERS = np.arange(_TAYLOR_TERMS)


def _rodrigues_coeffs(sq):
    """Coefficient functions of the Rodrigues formula and its derivatives.

    Returns (a, b, c1, c2, e1, e2): a = sin(theta) / theta and b = (1 -
    cos(theta)) / sq at theta = sqrt(sq), then twice the sq-derivative
    of a, b, c1 and c2 in turn, so that da/dr_k = c1 r_k, dc1/dr_k = e1
    r_k, and so for b.  All six are entire functions of sq, so the
    Taylor branch keeps them holomorphic (safe under complex-step
    differentiation) and avoids 0/0 at the identity.
    """
    if np.real(sq) < _SMALL_ANGLE_SQ:
        return _SERIES @ sq ** _POWERS
    theta = np.sqrt(sq)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / sq
    c1 = (np.cos(theta) - a) / sq
    c2 = (a - 2.0 * b) / sq
    return a, b, c1, c2, -(a + 3.0 * c1) / sq, (c1 - 4.0 * c2) / sq


def exp_so3(r) -> np.ndarray:
    """Rotation matrix from an angle-axis vector (Rodrigues formula).

    Total on finite input; a Taylor branch handles the small-angle case.
    Accepts complex input for complex-step differentiation.
    """
    r = np.asarray(r)
    if r.shape != (3,):
        raise ValidationError(f"angle-axis must be a 3-vector, got {r.shape}")
    return so3_exp_and_derivatives(r)[0]


def so3_exp_and_derivatives(r, second: bool = False):
    """Rotation matrix R, the stack dR[k] = dR/dr_k of shape (3, 3, 3),
    and with `second` the stack d2R[k, l] = d2R/dr_k dr_l, (3, 3, 3, 3).

    With S = skew(r), S^2 = r r' - |r|^2 I and A_k = E_k S + S E_k =
    e_k r' + r e_k' - 2 r_k I, in the coefficients of `_rodrigues_coeffs`:

        R          = I + a S + b S^2
        dR[k]      = r_k (c1 S + c2 S^2) + a E_k + b A_k
        d2R[k, l]  = delta_kl (c1 S + c2 S^2) + r_k r_l (e1 S + e2 S^2)
                     + r_k (c1 E_l + c2 A_l) + r_l (c1 E_k + c2 A_k)
                     + b (e_k e_l' + e_l e_k' - 2 delta_kl I)

    (Gallego and Yezzi, JMIV 2015, give the compact form of dR.)  All
    branches are holomorphic: complex steps differentiate through it.
    """
    r = np.asarray(r)
    sq = r @ r
    a, b, c1, c2, e1, e2 = _rodrigues_coeffs(sq)
    S = (r @ _SKEW_BASIS.reshape(3, 9)).reshape(3, 3)
    rr = r[:, None] * r
    S2 = rr - sq * _EYE3
    A = (r @ _ANTI_BASIS).reshape(3, 3, 3)
    M1 = c1 * S + c2 * S2
    R = _EYE3 + a * S + b * S2
    dR = r[:, None, None] * M1 + a * _SKEW_BASIS + b * A
    if not second:
        return R, dR
    X = r[:, None, None, None] * (c1 * _SKEW_BASIS + c2 * A)  # r_k X_l
    d2R = (_EYE3[:, :, None, None] * M1
           + rr[:, :, None, None] * (e1 * S + e2 * S2)
           + X + X.transpose(1, 0, 2, 3) + b * _ANTI_BASIS.reshape(3, 3, 3, 3))
    return R, dR, d2R


def _quaternion_from_matrix(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) with w >= 0, stable for all angles.

    Branches on the largest of the trace and the diagonal entries so the
    extraction never divides by a small number (Shepperd's method).
    """
    m = R
    t = np.trace(m)
    if t > m[0, 0] and t > m[1, 1] and t > m[2, 2]:
        s = np.sqrt(1.0 + t) * 2.0
        q = np.array(
            [0.25 * s, (m[2, 1] - m[1, 2]) / s, (m[0, 2] - m[2, 0]) / s,
             (m[1, 0] - m[0, 1]) / s])
    elif m[0, 0] >= m[1, 1] and m[0, 0] >= m[2, 2]:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2.0
        q = np.array(
            [(m[2, 1] - m[1, 2]) / s, 0.25 * s, (m[0, 1] + m[1, 0]) / s,
             (m[0, 2] + m[2, 0]) / s])
    elif m[1, 1] >= m[2, 2]:
        s = np.sqrt(1.0 + m[1, 1] - m[0, 0] - m[2, 2]) * 2.0
        q = np.array(
            [(m[0, 2] - m[2, 0]) / s, (m[0, 1] + m[1, 0]) / s, 0.25 * s,
             (m[1, 2] + m[2, 1]) / s])
    else:
        s = np.sqrt(1.0 + m[2, 2] - m[0, 0] - m[1, 1]) * 2.0
        q = np.array(
            [(m[1, 0] - m[0, 1]) / s, (m[0, 2] + m[2, 0]) / s,
             (m[1, 2] + m[2, 1]) / s, 0.25 * s])
    if q[0] < 0:
        q = -q
    return q / np.sqrt(q @ q)


def validate_rotation_matrix(R) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValidationError(f"rotation matrix must be 3x3, got {R.shape}")
    err = np.max(np.abs(R.T @ R - np.eye(3)))
    if err > _ROTATION_TOL:
        raise ValidationError("matrix is not orthonormal: max |R'R - I| = "
                              f"{err:.3e} > {_ROTATION_TOL:.0e}")
    if np.linalg.det(R) < 0:
        raise ValidationError("matrix has negative determinant (reflection)")
    return R


def log_so3(R) -> np.ndarray:
    """Angle-axis vector of a rotation matrix, with norm in [0, pi].

    Goes through a quaternion so the extraction stays stable at and near
    180 degrees (exp_so3(log_so3(R)) reproduces R to ~1e-12 everywhere).
    At exactly 180 degrees the axis sign is chosen deterministically.
    """
    R = validate_rotation_matrix(R)
    w, x, y, z = _quaternion_from_matrix(R)
    vn = np.sqrt(x * x + y * y + z * z)
    angle = 2.0 * np.arctan2(vn, w)
    if vn < 1e-300:
        return np.zeros(3)
    return (angle / vn) * np.array([x, y, z])


def canonicalize_angle_axis(r) -> np.ndarray:
    """Wrap an angle-axis vector so its norm lies in [0, pi]."""
    r = _as_vec3(r, "angle-axis r")
    theta = np.linalg.norm(r)
    if theta <= np.pi:
        return r
    # remove whole turns, then flip if still above pi
    reduced = np.mod(theta, 2.0 * np.pi)
    if reduced > np.pi:
        reduced -= 2.0 * np.pi
    return r * (reduced / theta)


def pixels_to_bearings(uv, K) -> np.ndarray:
    """Vectorized bearing construction for an (m, 2) array of pixels."""
    K = validate_intrinsics(K)
    uv = np.asarray(uv, dtype=np.float64)
    ones = np.ones((uv.shape[0], 1))
    rays = np.linalg.solve(K, np.hstack([uv, ones]).T).T
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def validate_intrinsics(K) -> np.ndarray:
    K = np.asarray(K, dtype=np.float64)
    if K.shape != (3, 3):
        raise ValidationError(f"intrinsics must be 3x3, got {K.shape}")
    if abs(np.linalg.det(K)) < 1e-12:
        raise ValidationError("intrinsics matrix is singular")
    if K[0, 0] <= 0 or K[1, 1] <= 0:
        raise ValidationError("focal entries must be positive")
    return K


def make_intrinsics(focal: float, cx: float, cy: float) -> np.ndarray:
    """Square-pixel, zero-skew camera matrix."""
    return np.array([[focal, 0.0, cx], [0.0, focal, cy], [0.0, 0.0, 1.0]])


def transform_points(pose: Pose, points) -> np.ndarray:
    """Apply R p + t to an (n, 3) array of points."""
    points = np.asarray(points, dtype=np.float64)
    return points @ pose.matrix().T + pose.t


def _dot3(a, b):
    """np.sum(a * b, axis=-1) bit for bit for a last axis of length 3,
    without the per-row cost of a reduction over a short axis."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


def ray_angles(bearings, directions) -> np.ndarray:
    """Angles in [0, pi] between unit bearings and unnormalized directions.

    Rows are paired, ``bearings[..., i, :]`` with ``directions[..., i, :]``,
    under numpy broadcasting: ``ray_angles(f[:, None], q[None])`` is the
    (m, n) matrix of every bearing against every direction, bit for bit
    the angles of the same pairs taken row by row.  A zero direction (a
    point at the camera center) has no defined angle: it counts as pi,
    with a RuntimeWarning.

    The measure is the arctan2 of the row cosine, which resolves angles
    down to ~1e-7 rad, where the rounding of the cosine itself sets the
    limit, so inlier thresholds as small as 1e-6 hold.  No gradient flows
    through it, so it needs no clamp.
    """
    f = np.asarray(bearings, dtype=np.float64)
    q = np.asarray(directions, dtype=np.float64)
    norms = np.sqrt(_dot3(q, q))
    degenerate = norms == 0.0
    any_degenerate = degenerate.any()
    if any_degenerate:
        warnings.warn(
            f"{int(degenerate.sum())} transformed point(s) at the camera "
            "center; treating their angles as pi", RuntimeWarning)
        norms = np.where(degenerate, 1.0, norms)
    c = _dot3(f, q) / norms
    # Rounding can push c just outside [-1, 1]; the arctan2 form needs no
    # clip for that: it gives exactly 0 or pi there (its sine term is 0).
    ang = np.arctan2(np.sqrt(np.maximum((1.0 - c) * (1.0 + c), 0.0)), c)
    if any_degenerate:
        ang = np.where(degenerate, np.pi, ang)
    return ang


def check_bearings_and_points(bearings: np.ndarray, points: np.ndarray) -> None:
    """Reject bearings that are not finite unit vectors and points that
    are not finite."""
    # a NaN norm fails the <= test
    if not np.all(np.abs(np.linalg.norm(bearings, axis=-1) - 1.0) <= 1e-9):
        raise ValidationError("bearings must be finite unit vectors")
    if not np.isfinite(points).all():
        raise ValidationError("points must be finite")


INLIER_THRESHOLD = 0.01  # radians: RANSAC's test; the loss's and --theta's default


def check_angle_threshold(theta, name: str = "theta") -> None:
    """Reject an angular threshold outside (0, pi), NaN included."""
    if not 0.0 < theta < np.pi:
        raise ValidationError(f"{name} must lie in (0, pi), got {theta}")


def _pairs_array(pairs) -> np.ndarray:
    """A (k, 2) int64 pair array; empty input of any shape gives (0, 2)."""
    p = np.asarray(pairs, dtype=np.int64)
    if p.size == 0:
        return p.reshape(0, 2)
    if p.ndim != 2 or p.shape[1] != 2:
        raise ValidationError(f"pair list must have shape (k, 2), got {p.shape}")
    return p


def check_pairs_in_range(pairs: np.ndarray, m: int, n: int,
                         what: str) -> None:
    """Reject a (k, 2) pair array whose indices fall outside [0, m) x [0, n)."""
    if pairs.size and (pairs[:, 0].min() < 0 or pairs[:, 0].max() >= m
                       or pairs[:, 1].min() < 0 or pairs[:, 1].max() >= n):
        raise ValidationError(f"{what} indices out of range")


def validate_one_to_one(pairs) -> np.ndarray:
    p = _pairs_array(pairs)
    if len(np.unique(p[:, 0])) != p.shape[0]:
        raise ValidationError("correspondence list repeats a row index")
    if len(np.unique(p[:, 1])) != p.shape[0]:
        raise ValidationError("correspondence list repeats a column index")
    return p


def angular_reprojection_error(bearings, points, pairs, pose: Pose) -> float:
    """Mean angular error (radians) over a (k, 2) list of (bearing, point)
    pairs at `pose`: the per-match average used for evaluation reports.
    The angle is that of `ray_angles`, the one the inlier tests use; an
    empty list gives 0.  Indices outside the bearings or points raise
    ValidationError.
    """
    p = _pairs_array(pairs)
    f = np.asarray(bearings, dtype=np.float64)
    q = transform_points(pose, np.asarray(points, dtype=np.float64))
    check_pairs_in_range(p, f.shape[0], q.shape[0], "pair")
    if p.shape[0] == 0:
        return 0.0
    angles = ray_angles(f[p[:, 0]], q[p[:, 1]])
    return float(angles.sum()) / float(p.shape[0])


def geodesic_rotation_angle(R, R_gt) -> float:
    """Exact angle of the relative rotation (no clamp floor); reported by
    `pipeline.pose_errors`, and the rotation term of `losses.pose_loss`."""
    R = validate_rotation_matrix(R)
    R_gt = validate_rotation_matrix(R_gt)
    return float(np.linalg.norm(log_so3(R_gt.T @ R)))


def translation_error(t, t_gt) -> float:
    """Euclidean distance between two translations."""
    return float(np.linalg.norm(_as_vec3(t, "t") - _as_vec3(t_gt, "t_gt")))
