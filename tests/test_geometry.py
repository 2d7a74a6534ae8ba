"""Rotation maps, bearings, and angular error measures.

Expected values are either hand-computed, generated by an independent
oracle (truncated exponential series, brute-force loops), or exact
geometric identities.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindpnp.assignment import correspondences_from_pose, one_to_one
from blindpnp.errors import ValidationError
from blindpnp.geometry import (_SMALL_ANGLE_SQ, Pose,
                               angular_reprojection_error,
                               canonicalize_angle_axis, exp_so3,
                               geodesic_rotation_angle, log_so3,
                               make_intrinsics, pixels_to_bearings, ray_angles,
                               so3_exp_and_derivatives, transform_points,
                               translation_error)
from blindpnp.losses import LossConfig, correspondence_loss
from blindpnp.pose_solvers import CandidateSet
from blindpnp.weighted_pnp import SparseWeights

from conftest import exact_bearings, random_pose, rotation_series


class TestExpSo3:
    def test_identity(self):
        np.testing.assert_allclose(exp_so3(np.zeros(3)), np.eye(3), atol=1e-15)

    def test_quarter_turn_about_x(self):
        R = exp_so3(np.array([np.pi / 2, 0.0, 0.0]))
        np.testing.assert_allclose(R @ [0, 1, 0], [0, 0, 1], atol=1e-15)

    def test_matches_series_oracle(self, rng):
        for _ in range(50):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            np.testing.assert_allclose(exp_so3(r), rotation_series(r),
                                       atol=1e-12)

    def test_orthonormal_for_any_finite_input(self, rng):
        for scale in (1e-12, 1e-7, 1e-3, 1.0, np.pi, 10.0, 1e3):
            r = rng.standard_normal(3) * scale
            R = exp_so3(r)
            assert np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9
            assert abs(np.linalg.det(R) - 1.0) <= 1e-9

    def test_small_angle_branch_continuity(self):
        # across the Taylor/trig switch the map must agree to fp precision
        for theta in (1e-9, 1e-5, 9e-3, 1.1e-2):
            r = np.array([theta, 0.0, 0.0])
            np.testing.assert_allclose(exp_so3(r), rotation_series(r),
                                       atol=1e-14)


class TestSo3Derivatives:
    def test_matches_finite_differences(self, rng):
        h = 1e-7
        for _ in range(20):
            r = rng.standard_normal(3) * rng.uniform(1e-6, 2.0)
            _, dR = so3_exp_and_derivatives(r)
            for k in range(3):
                rp = r.copy()
                rp[k] += h
                rm = r.copy()
                rm[k] -= h
                fd = (exp_so3(rp) - exp_so3(rm)) / (2 * h)
                np.testing.assert_allclose(dR[k], fd, atol=1e-6)

    def test_complex_step_consistency(self, rng):
        # holomorphic branches: imaginary parts reproduce the derivative
        r = rng.standard_normal(3) * 0.3
        _, dR = so3_exp_and_derivatives(r)
        for k in range(3):
            rc = r.astype(np.complex128)
            rc[k] += 1e-20j
            Rc, _ = so3_exp_and_derivatives(rc)
            np.testing.assert_allclose(np.imag(Rc) / 1e-20, dR[k], atol=1e-12)


def complex_step(f, r, step=1e-20):
    """Stack over k of the complex-step derivative of f at r along e_k."""
    return np.stack([f(r + 1j * step * e).imag / step for e in np.eye(3)])


def max_relative_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestRotationKernelProperties:
    @settings(deadline=None, derandomize=True, database=None,
              max_examples=200)
    @given(angle=st.one_of(
               st.floats(0.0, np.pi),
               # both sides of the Taylor switch, and at it
               st.floats(-1e-6, 1e-6).map(
                   lambda d: np.sqrt(_SMALL_ANGLE_SQ) * (1.0 + d))),
           axis=arrays(np.float64, 3, elements=st.floats(-1.0, 1.0)))
    def test_closed_forms_match_series_and_complex_steps(self, angle, axis):
        assume(np.linalg.norm(axis) > 0.1)
        r = angle * axis / np.linalg.norm(axis)
        R, dR, d2R = so3_exp_and_derivatives(r, second=True)
        assert max_relative_error(R, rotation_series(r, terms=40)) <= 1e-13
        # dR[k] = dR/dr_k from R; d2R[k, l] = d(dR[k])/dr_l from dR
        assert max_relative_error(
            dR, complex_step(lambda x: so3_exp_and_derivatives(x)[0], r)) <= 1e-13
        d2R_cs = complex_step(lambda x: so3_exp_and_derivatives(x)[1], r)
        assert max_relative_error(d2R, d2R_cs.transpose(1, 0, 2, 3)) <= 1e-13
        # complex input: the same values, to rounding, and no imaginary part
        Rc, dRc, d2Rc = so3_exp_and_derivatives(r.astype(complex), second=True)
        for got, want in ((Rc, R), (dRc, dR), (d2Rc, d2R)):
            assert got.dtype == np.complex128 and not got.imag.any()
            assert max_relative_error(got.real, want) <= 1e-15


class TestLogSo3:
    def test_identity(self):
        np.testing.assert_allclose(log_so3(np.eye(3)), np.zeros(3), atol=1e-15)

    def test_round_trip_small(self):
        r = np.array([0.3, -0.2, 0.1])
        np.testing.assert_allclose(log_so3(exp_so3(r)), r, atol=1e-10)

    def test_half_turn_about_z(self):
        R = exp_so3(np.array([0.0, 0.0, np.pi]))
        r = log_so3(R)
        assert abs(np.linalg.norm(r) - np.pi) <= 1e-9
        np.testing.assert_allclose(np.abs(r), [0.0, 0.0, np.pi], atol=1e-9)

    def test_round_trip_over_angle_range(self, rng):
        for _ in range(100):
            axis = rng.standard_normal(3)
            axis /= np.linalg.norm(axis)
            angle = rng.uniform(1e-9, np.pi - 1e-6)
            R = exp_so3(axis * angle)
            np.testing.assert_allclose(exp_so3(log_so3(R)), R, atol=1e-9)
            assert np.linalg.norm(log_so3(R)) <= np.pi

    def test_rejects_non_orthonormal(self):
        M = np.eye(3)
        M[0, 1] = 1e-3
        with pytest.raises(ValidationError):
            log_so3(M)

    def test_rejects_reflection(self):
        with pytest.raises(ValidationError):
            log_so3(np.diag([1.0, 1.0, -1.0]))


class TestCanonicalize:
    def test_wraps_large_norms(self):
        axis = np.array([0.0, 1.0, 0.0])
        r = canonicalize_angle_axis(axis * (2 * np.pi + 0.3))
        np.testing.assert_allclose(r, axis * 0.3, atol=1e-12)

    def test_flips_beyond_pi(self):
        axis = np.array([1.0, 0.0, 0.0])
        r = canonicalize_angle_axis(axis * (np.pi + 0.1))
        assert np.linalg.norm(r) <= np.pi
        np.testing.assert_allclose(exp_so3(r), exp_so3(axis * (np.pi + 0.1)),
                                   atol=1e-12)


class TestBearings:
    K = make_intrinsics(800.0, 320.0, 240.0)

    def test_principal_point_is_optical_axis(self):
        np.testing.assert_allclose(
            pixels_to_bearings([[320.0, 240.0]], self.K)[0], [0.0, 0.0, 1.0],
            atol=1e-15)

    def test_forty_five_degree_ray(self):
        b = pixels_to_bearings([[320.0 + 800.0, 240.0]], self.K)[0]
        np.testing.assert_allclose(b, np.array([1.0, 0.0, 1.0]) / np.sqrt(2),
                                   atol=1e-15)

    def test_pixel_round_trip(self, rng):
        uv = rng.uniform([0, 0], [640, 480], (200, 2))
        bearings = pixels_to_bearings(uv, self.K)
        np.testing.assert_allclose(np.linalg.norm(bearings, axis=1), 1.0,
                                   atol=1e-12)
        proj = bearings @ self.K.T
        np.testing.assert_allclose(proj[:, :2] / proj[:, 2:], uv, atol=1e-9)

    def test_singular_intrinsics_rejected(self):
        K = self.K.copy()
        K[2, 2] = 0.0
        with pytest.raises(ValidationError):
            pixels_to_bearings([[1.0, 1.0]], K)


class TestAngularReprojectionError:
    def _instance(self, rng, n=20):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (n, 3))
        return pose, points, exact_bearings(pose, points)

    def test_zero_at_generating_pose(self, rng):
        pose, points, bearings = self._instance(rng)
        pairs = np.stack([np.arange(20), np.arange(20)], axis=1)
        err = angular_reprojection_error(bearings, points, pairs, pose)
        # the rounding of the bearings and of the transform, not a clamp
        assert err <= 1e-7

    def test_empty_pairs_vacuous(self, rng):
        pose, points, bearings = self._instance(rng)
        assert angular_reprojection_error(
            bearings, points, np.zeros((0, 2), dtype=int), pose) == 0.0

    def test_matches_direct_recomputation(self, rng):
        # independent scalar oracle: plain Python loop over a pair list
        import math
        pose, points, bearings = self._instance(rng, n=8)
        perturbed = Pose(pose.r + 0.1, pose.t + np.array([0.05, 0, -0.05]))
        pairs = np.stack([rng.permutation(8)[:6], rng.permutation(8)[:6]],
                         axis=1)
        R = perturbed.matrix()
        total = 0.0
        for i, j in pairs:
            q = R @ points[j] + perturbed.t
            cosv = float(bearings[i] @ q / np.linalg.norm(q))
            total += math.acos(max(-1.0, min(1.0, cosv)))
        expected = total / 6.0
        got = angular_reprojection_error(bearings, points, pairs, perturbed)
        assert abs(got - expected) <= 1e-12

    def test_point_at_camera_center_warns_and_counts_pi(self, rng):
        pose = Pose(np.zeros(3), np.zeros(3))
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        bearings = np.array([[0.0, 0.0, 1.0]])
        pairs = np.array([[0, 0]])
        with pytest.warns(RuntimeWarning):
            err = angular_reprojection_error(bearings, points, pairs, pose)
        assert err == np.pi

    @pytest.mark.parametrize("bad", [[[-1, 0]], [[10, 0]], [[0, 20]]])
    def test_pair_index_out_of_range_rejected(self, rng, bad):
        # -1 would silently take the last bearing, 10 a bare IndexError
        pose, points, bearings = self._instance(rng)
        with pytest.raises(ValidationError, match="out of range"):
            angular_reprojection_error(bearings[:10], points, bad, pose)


@st.composite
def rays(draw):
    """Unit bearings (m, 3) and nonzero directions (n, 3); some directions
    lie within ~1e-6 of +-bearing so both ends of [0, pi] are exercised."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    coords = st.floats(-10.0, 10.0, allow_nan=False)
    f = draw(arrays(np.float64, (m, 3), elements=coords).filter(
        lambda a: np.all(np.linalg.norm(a, axis=1) > 1e-3)))
    f = f / np.linalg.norm(f, axis=1, keepdims=True)
    q = draw(arrays(np.float64, (n, 3), elements=coords))
    for j in range(n):
        if draw(st.booleans()):
            scale = draw(st.floats(-10.0, 10.0).filter(lambda s: abs(s) > 0.1))
            jitter = draw(arrays(np.float64, (3,),
                                 elements=st.floats(-1e-6, 1e-6)))
            q[j] = scale * f[draw(st.integers(0, m - 1))] + jitter
    assume(np.all(np.linalg.norm(q, axis=1) > 1e-3))
    return f, q


def paired_grid(f, q):
    """The (m, n) matrix rebuilt from paired rows (i, j)."""
    m, n = f.shape[0], q.shape[0]
    ii, jj = np.divmod(np.arange(m * n), n)
    return ray_angles(f[ii], q[jj]).reshape(m, n)


class TestRayAngles:
    @settings(deadline=None, derandomize=True, database=None)
    @given(rays())
    def test_range_and_pairing(self, data):
        f, q = data
        grid = ray_angles(f[:, None], q[None])
        assert np.all((grid >= 0.0) & (grid <= np.pi))
        # one formula over broadcast rows: a pair's angle does not depend
        # on the shape it is computed in
        np.testing.assert_array_equal(grid, paired_grid(f, q))

    @settings(deadline=None, derandomize=True, database=None)
    @given(rays(), st.data())
    def test_zero_direction_is_pi_with_warning(self, data, draw):
        f, q = data
        j = draw.draw(st.integers(0, q.shape[0] - 1))
        q = q.copy()
        q[j] = 0.0
        # paired rows, and the broadcast grid, whose zero mask is (1, n)
        for g, d in ((np.resize(f, q.shape), q), (f[:, None], q[None])):
            with pytest.warns(RuntimeWarning, match="camera center"):
                ang = ray_angles(g, d)
            assert np.all(ang[..., j] == np.pi)
            others = np.delete(ang, j, axis=-1)
            assert np.all((others >= 0.0) & (others <= np.pi))

    def test_exact_matches_brute_force(self, rng):
        # independent scalar oracle: a plain Python loop over paired rows
        import math
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (10, 3))
        f = exact_bearings(random_pose(rng), points)
        q = transform_points(pose, points)[rng.permutation(10)]
        expected = [math.acos(max(-1.0, min(1.0, float(fi @ qi)
                                            / math.sqrt(float(qi @ qi)))))
                    for fi, qi in zip(f, q)]
        got = ray_angles(f, q)
        # the arccos loses precision near 0 and pi; none are near here
        assert all(1e-3 < e < np.pi - 1e-3 for e in expected)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


class TestPoseErrors:
    def test_geodesic_angle_resolves_below_clamp(self):
        R = exp_so3(np.array([1e-6, 0.0, 0.0]))
        assert abs(geodesic_rotation_angle(R, np.eye(3)) - 1e-6) <= 1e-12

    def test_translation_error(self):
        assert translation_error([1, 0, 0], [0, 0, 0]) == 1.0
        assert translation_error([3, 4, 0], [0, 0, 0]) == 5.0
        assert translation_error([1, 2, 3], [1, 2, 3]) == 0.0


class TestTransformPoints:
    def test_matches_manual(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-1, 1, (5, 3))
        expected = np.array([pose.matrix() @ p + pose.t for p in points])
        np.testing.assert_allclose(transform_points(pose, points), expected,
                                   atol=1e-14)


def _candidate_pairs(pairs):
    return CandidateSet(pairs=pairs, weights=np.ones(len(np.ravel(pairs)) // 2),
                        bearings=np.eye(3), points=np.eye(6, 3)).pairs


def _sparse_pairs(pairs):
    return SparseWeights(pairs=pairs,
                         values=np.ones(len(np.ravel(pairs)) // 2)).pairs


def _one_to_one_pairs(pairs):
    return one_to_one(pairs, np.ones(len(np.ravel(pairs)) // 2))


class TestPairArrays:
    # each takes a (k, 2) pair list; any other shape is an error, not a
    # reshape into pairs that no caller wrote
    builders = [_candidate_pairs, _sparse_pairs, _one_to_one_pairs]

    @pytest.mark.parametrize("build", builders)
    @pytest.mark.parametrize("pairs", [[[0, 1, 2], [3, 4, 5]], [0, 1, 2, 3]])
    def test_other_shapes_rejected(self, build, pairs):
        with pytest.raises(ValidationError, match=r"shape \(k, 2\)"):
            build(pairs)

    @pytest.mark.parametrize("build", builders)
    def test_empty_and_k_by_2_kept(self, build):
        assert build(np.zeros(0)).shape == (0, 2)
        np.testing.assert_array_equal(build([[0, 1], [2, 0]]),
                                      [[0, 1], [2, 0]])


class TestAngleThreshold:
    """Every angular inlier threshold follows one rule: it lies in (0, pi)."""

    @staticmethod
    def users(rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (6, 3))
        bearings = exact_bearings(pose, points)
        return [
            lambda theta: LossConfig(theta=theta),
            lambda theta: correspondences_from_pose(bearings, points, pose,
                                                    theta),
            lambda theta: correspondences_from_pose(
                bearings, points, pose, theta, pairs=[[0, 0], [1, 1]]),
            lambda theta: correspondence_loss(np.full((6, 6), 1.0 / 36.0),
                                              bearings, points, pose, theta),
        ]

    @pytest.mark.parametrize("theta", [0.0, -0.1, np.pi, 4.0, np.inf,
                                       np.nan])
    def test_outside_zero_pi_rejected_everywhere(self, rng, theta):
        for use in self.users(rng):
            with pytest.raises(ValidationError, match=r"\(0, pi\)"):
                use(theta)

    @pytest.mark.parametrize("theta", [1e-9, 0.01, np.pi - 1e-9])
    def test_inside_zero_pi_accepted_everywhere(self, rng, theta):
        for use in self.users(rng):
            use(theta)
