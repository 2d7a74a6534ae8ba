"""Rotations, bearing vectors, and angular error measures.

Conventions used throughout the library:

* rotations are parameterized by an angle-axis 3-vector ``r`` (radians
  times unit axis) with the matrix obtained from the exponential map,
* a pose ``(r, t)`` maps scene points into the camera frame as
  ``R(r) @ p + t``,
* a bearing vector is the unit ray through an image point,
  proportional to ``inv(K) @ [u, v, 1]``,
* every arccos in the library clamps its argument to ``+-(1 - 1e-7)``
  so that angle gradients stay finite at 0 and 180 degrees,
* every angle between a bearing and a transformed scene point comes
  from `ray_angles`: the exact arctan2 measure for inlier tests, the
  clamped arccos everywhere else.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# Clamp bound for arccos arguments; keeps d(arccos)/dx finite.
ARCCOS_CLAMP = 1.0 - 1e-7

# ||r||^2 below this uses the Taylor branch of the exponential map.
_SMALL_ANGLE_SQ = 1e-4


def clamped_arccos(x):
    """arccos with the argument clamped to the open interval (-1, 1)."""
    return np.arccos(np.clip(x, -ARCCOS_CLAMP, ARCCOS_CLAMP))


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


def _rodrigues_coeffs(sq):
    """Coefficient functions of the Rodrigues formula and its derivative.

    Returns (a, b, c1, c2) where, with theta = sqrt(sq),

        R        = I + a*S + b*S^2,            S = skew(r)
        dR/dr_k  = c1*r_k*S + a*E_k + c2*r_k*S^2 + b*(E_k S + S E_k)

    All four are entire functions of sq = theta^2, so the Taylor branch
    keeps them holomorphic (safe under complex-step differentiation) and
    avoids 0/0 at the identity.
    """
    if np.real(sq) < _SMALL_ANGLE_SQ:
        a = 1.0 - sq / 6.0 + sq * sq / 120.0 - sq**3 / 5040.0
        b = 0.5 - sq / 24.0 + sq * sq / 720.0 - sq**3 / 40320.0
        c1 = -1.0 / 3.0 + sq / 30.0 - sq * sq / 840.0 + sq**3 / 45360.0
        c2 = -1.0 / 12.0 + sq / 180.0 - sq * sq / 6720.0 + sq**3 / 453600.0
    else:
        theta = np.sqrt(sq)
        s, c = np.sin(theta), np.cos(theta)
        a = s / theta
        b = (1.0 - c) / sq
        c1 = (theta * c - s) / (sq * theta)
        c2 = (theta * s - 2.0 * (1.0 - c)) / (sq * sq)
    return a, b, c1, c2


def exp_so3(r) -> np.ndarray:
    """Rotation matrix from an angle-axis vector (Rodrigues formula).

    Total on finite input; a Taylor branch handles the small-angle case.
    Accepts complex input for complex-step differentiation.
    """
    r = np.asarray(r)
    if r.shape != (3,):
        raise ValidationError(f"angle-axis must be a 3-vector, got {r.shape}")
    sq = r @ r
    a, b, _, _ = _rodrigues_coeffs(sq)
    S = skew(r)
    return np.eye(3, dtype=S.dtype) + a * S + b * (S @ S)


def so3_exp_and_derivatives(r):
    """Rotation matrix R plus the stack dR[k] = dR/dr_k, shape (3, 3, 3).

    Complex-step safe: all branches are holomorphic in r.
    """
    r = np.asarray(r)
    sq = r @ r
    a, b, c1, c2 = _rodrigues_coeffs(sq)
    S = skew(r)
    S2 = S @ S
    R = np.eye(3, dtype=S.dtype) + a * S + b * S2
    dR = np.empty((3, 3, 3), dtype=S.dtype)
    for k in range(3):
        e = np.zeros(3)
        e[k] = 1.0
        E = skew(e).astype(S.dtype)
        dR[k] = c1 * r[k] * S + a * E + c2 * r[k] * S2 + b * (E @ S + S @ E)
    return R, dR


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


def validate_rotation_matrix(R, tol: float = 1e-6) -> np.ndarray:
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise ValidationError(f"rotation matrix must be 3x3, got {R.shape}")
    err = np.max(np.abs(R.T @ R - np.eye(3)))
    if err > tol:
        raise ValidationError(
            f"matrix is not orthonormal: max |R'R - I| = {err:.3e} > {tol:.0e}")
    if np.linalg.det(R) < 0:
        raise ValidationError("matrix has negative determinant (reflection)")
    return R


def log_so3(R, tol: float = 1e-6) -> np.ndarray:
    """Angle-axis vector of a rotation matrix, with norm in [0, pi].

    Goes through a quaternion so the extraction stays stable at and near
    180 degrees (exp_so3(log_so3(R)) reproduces R to ~1e-12 everywhere).
    At exactly 180 degrees the axis sign is chosen deterministically.
    """
    R = validate_rotation_matrix(R, tol)
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


def bearing_from_pixel(u: float, v: float, K) -> np.ndarray:
    """Unit bearing vector of an image point: normalize(inv(K) @ [u, v, 1])."""
    K = validate_intrinsics(K)
    ray = np.linalg.solve(K, np.array([u, v, 1.0]))
    n = np.linalg.norm(ray)
    return ray / n


def pixels_to_bearings(uv, K) -> np.ndarray:
    """Vectorized bearing construction for an (m, 2) array of pixels."""
    K = validate_intrinsics(K)
    uv = np.asarray(uv, dtype=np.float64)
    ones = np.ones((uv.shape[0], 1))
    rays = np.linalg.solve(K, np.hstack([uv, ones]).T).T
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def bearings_to_pixels(bearings, K) -> np.ndarray:
    """Inverse of pixels_to_bearings (bearings must have positive z)."""
    K = validate_intrinsics(K)
    b = np.asarray(bearings, dtype=np.float64)
    proj = (K @ b.T).T
    return proj[:, :2] / proj[:, 2:3]


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


def angle_between(x, y) -> float:
    """Angle in [0, pi] between two nonzero vectors (clamped arccos)."""
    x = _as_vec3(x, "x")
    y = _as_vec3(y, "y")
    nx = np.linalg.norm(x)
    ny = np.linalg.norm(y)
    if nx == 0.0 or ny == 0.0:
        raise ValidationError("angle_between requires nonzero vectors")
    return float(clamped_arccos((x @ y) / (nx * ny)))


def transform_points(pose: Pose, points) -> np.ndarray:
    """Apply R p + t to an (n, 3) array of points."""
    points = np.asarray(points, dtype=np.float64)
    return points @ pose.matrix().T + pose.t


def ray_angles(bearings, directions, exact: bool = False,
               pairwise: bool = False) -> np.ndarray:
    """Angles in [0, pi] between unit bearings and unnormalized directions.

    Rows are paired, ``bearings[i]`` with ``directions[i]``, giving a (k,)
    array; with ``pairwise=True`` every bearing meets every direction,
    giving the (m, n) matrix.  A zero direction (a point at the camera
    center) has no defined angle: it counts as pi, with a RuntimeWarning.

    The default measure is the clamped arccos, whose gradient stays
    finite but whose value floors near 4.5e-4 rad.  ``exact=True`` uses
    arctan2 instead, which inlier tests with thresholds as small as 1e-6
    require: it resolves angles down to ~1e-7 rad, where the rounding of
    the cosine itself sets the limit.  No gradient flows through
    classification, so it needs no clamp.
    """
    f = np.asarray(bearings, dtype=np.float64)
    q = np.asarray(directions, dtype=np.float64)
    norms = np.linalg.norm(q, axis=1)
    degenerate = norms == 0.0
    any_degenerate = degenerate.any()
    if any_degenerate:
        warnings.warn(
            f"{int(degenerate.sum())} transformed point(s) at the camera "
            "center; treating their angles as pi", RuntimeWarning)
        norms = np.where(degenerate, 1.0, norms)
    if pairwise:
        c = (f @ q.T) / norms[None, :]
    else:
        c = np.sum(f * q, axis=1) / norms
    # Rounding can push c just outside [-1, 1]; neither measure needs a
    # clip for that: the arccos clamp lies inside the interval, and the
    # arctan2 form gives exactly 0 or pi there (its sine term is 0).
    if exact:
        ang = np.arctan2(np.sqrt(np.maximum((1.0 - c) * (1.0 + c), 0.0)), c)
    else:
        ang = clamped_arccos(c)
    if any_degenerate:
        ang[..., degenerate] = np.pi
    return ang


def _pairs_array(pairs) -> np.ndarray:
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


def angular_reprojection_error(bearings, points, correspondence, pose: Pose,
                               normalize: str = "product") -> float:
    """Weighted mean angular error between bearings and transformed points.

    `correspondence` is either a dense (m, n) nonnegative weight matrix or
    a (k, 2) index pair list (treated as unit weights).  With
    ``normalize="product"`` the sum is divided by m*n; with
    ``normalize="matches"`` it is divided by the total weight, which is
    the per-match average used for evaluation reports.
    """
    if normalize not in ("product", "matches"):
        raise ValidationError(f"unknown normalization '{normalize}'")
    f = np.asarray(bearings, dtype=np.float64)
    pts = np.asarray(points, dtype=np.float64)
    m, n = f.shape[0], pts.shape[0]
    q = transform_points(pose, pts)

    corr = np.asarray(correspondence)
    if corr.ndim == 2 and corr.shape == (m, n) and corr.dtype != np.int64:
        weights = np.asarray(corr, dtype=np.float64)
        if np.any(weights < 0):
            raise ValidationError("correspondence weights must be nonnegative")
        angles = ray_angles(f, q, pairwise=True)
        total = float(np.sum(weights * angles))
        wsum = float(weights.sum())
    else:
        pairs = _pairs_array(correspondence)
        if pairs.shape[0] == 0:
            return 0.0
        angles = ray_angles(f[pairs[:, 0]], q[pairs[:, 1]])
        total = float(angles.sum())
        wsum = float(pairs.shape[0])

    if normalize == "matches":
        return total / wsum if wsum > 0 else 0.0
    return total / float(m * n)


def inlier_objective(bearings, points, pairs, pose: Pose, theta: float) -> int:
    """(#inliers - #outliers) among the listed one-to-one pairs.

    A pair is an inlier when the angle between its bearing and its
    transformed point is at most theta.  Uses the exact angle measure so
    thresholds down to 1e-6 classify noiseless data correctly.
    """
    if not (0.0 < theta < np.pi):
        raise ValidationError(f"theta must lie in (0, pi), got {theta}")
    p = validate_one_to_one(pairs)
    if p.shape[0] == 0:
        return 0
    f = np.asarray(bearings, dtype=np.float64)[p[:, 0]]
    q = transform_points(pose, np.asarray(points, dtype=np.float64))[p[:, 1]]
    inlier = ray_angles(f, q, exact=True) <= theta
    return int(2 * inlier.sum() - p.shape[0])


def rotation_error(R, R_gt) -> float:
    """Angle of the relative rotation, through the clamped arccos.

    This is the loss-style measure: its value floors at about 4.5e-4 rad
    because the arccos argument is clamped.  Use geodesic_rotation_angle
    when exact small angles matter.
    """
    R = validate_rotation_matrix(R)
    R_gt = validate_rotation_matrix(R_gt)
    return float(clamped_arccos(0.5 * (np.trace(R_gt.T @ R) - 1.0)))


def geodesic_rotation_angle(R, R_gt) -> float:
    """Exact angle of the relative rotation (no clamp floor)."""
    R = validate_rotation_matrix(R)
    R_gt = validate_rotation_matrix(R_gt)
    return float(np.linalg.norm(log_so3(R_gt.T @ R)))


def translation_error(t, t_gt) -> float:
    """Euclidean distance between two translations."""
    return float(np.linalg.norm(_as_vec3(t, "t") - _as_vec3(t_gt, "t_gt")))
