"""Correspondence and pose losses: exact derivative structure, bounds,
agreement with the reported errors, and finite-difference checks."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindpnp.errors import ValidationError
from blindpnp.geometry import (Pose, exp_so3, geodesic_rotation_angle,
                               log_so3, ray_angles, transform_points,
                               translation_error)
from blindpnp.losses import correspondence_loss, pose_loss
from blindpnp.transport import sinkhorn_forward

from conftest import exact_bearings, random_pose


def gt_setup(rng, n=10):
    pose = random_pose(rng)
    points = rng.uniform(-0.5, 0.5, (n, 3))
    bearings = exact_bearings(pose, points)
    pairs = np.stack([np.arange(n), np.arange(n)], axis=1)
    return pose, points, bearings, pairs


class TestCorrespondenceLoss:
    def test_all_mass_on_inliers_is_minus_one(self, rng):
        pose, points, bearings, pairs = gt_setup(rng)
        P = np.zeros((10, 10))
        P[pairs[:, 0], pairs[:, 1]] = 0.1
        value, grad = correspondence_loss(P, bearings, points, pose, 1e-3,
                                          gt_pairs=pairs)
        assert value == -1.0

    def test_all_mass_on_outliers_is_plus_one(self, rng):
        pose, points, bearings, pairs = gt_setup(rng)
        P = np.zeros((10, 10))
        P[0, 1] = 0.5
        P[1, 0] = 0.5
        value, _ = correspondence_loss(P, bearings, points, pose, 1e-3,
                                       gt_pairs=pairs)
        assert value == 1.0

    def test_derivative_entries_exactly_plus_minus_one(self, rng):
        pose, points, bearings, pairs = gt_setup(rng)
        P = np.full((10, 10), 0.01)
        _, grad = correspondence_loss(P, bearings, points, pose, 1e-3,
                                      gt_pairs=pairs)
        assert set(np.unique(grad).tolist()) == {-1.0, 1.0}
        assert np.all(grad[pairs[:, 0], pairs[:, 1]] == -1.0)

    def test_bounded_on_transport_plans(self, rng):
        # strictly positive plans with at least one true pair keep the
        # loss inside [-1, 1)
        for _ in range(25):
            pose, points, bearings, pairs = gt_setup(rng, n=6)
            M = rng.uniform(0, 2, (6, 6))
            plan = sinkhorn_forward(M, mu=0.1)
            value, _ = correspondence_loss(plan.P, bearings, points, pose,
                                           1e-3, gt_pairs=pairs)
            assert -1.0 <= value < 1.0

    def test_linear_superposition_exact(self, rng):
        pose, points, bearings, pairs = gt_setup(rng, n=5)
        A = rng.uniform(0, 1, (5, 5))
        A /= 2 * A.sum()
        B = rng.uniform(0, 1, (5, 5))
        B /= 2 * B.sum()
        la, grad = correspondence_loss(A + B, bearings, points, pose, 1e-3,
                                       gt_pairs=pairs)
        assert la == np.sum((A + B) * grad)

    def test_theta_test_agrees_with_gt_pairs_on_clean_data(self, rng):
        pose, points, bearings, pairs = gt_setup(rng)
        P = sinkhorn_forward(rng.uniform(0, 1, (10, 10)), mu=0.1).P
        via_pairs, g1 = correspondence_loss(P, bearings, points, pose, 1e-4,
                                            gt_pairs=pairs)
        via_theta, g2 = correspondence_loss(P, bearings, points, pose, 1e-4)
        assert via_pairs == via_theta
        np.testing.assert_array_equal(g1, g2)

    def test_unnormalized_p_rejected(self, rng):
        pose, points, bearings, pairs = gt_setup(rng, n=3)
        with_nan = np.full((3, 3), 1.0 / 9.0)
        with_nan[1, 2] = np.nan
        for P in (np.ones((3, 3)), with_nan):
            with pytest.raises(ValidationError):
                correspondence_loss(P, bearings, points, pose,
                                    1e-3, gt_pairs=pairs)

    @pytest.mark.parametrize("pair", [[0, 12], [-1, 0]])
    def test_out_of_range_gt_pair_rejected(self, rng, pair):
        # a negative index would wrap and mark pair (9, 0) an inlier
        pose, points, bearings, _ = gt_setup(rng)
        with pytest.raises(ValidationError, match="gt pair"):
            correspondence_loss(np.full((10, 10), 0.01), bearings, points,
                                pose, 1e-3, gt_pairs=[pair])

    def test_wrong_shape_rejected(self, rng):
        # a (n,) row of total one would broadcast against the (m, n) signs
        pose, points, bearings, pairs = gt_setup(rng, n=3)
        with pytest.raises(ValidationError):
            correspondence_loss(np.full(3, 1.0 / 3.0), bearings, points, pose,
                                1e-3, gt_pairs=pairs)

    @pytest.mark.parametrize("branch", ["gt_pairs", "theta"])
    def test_matches_the_sign_matrix_sum(self, rng, branch):
        # the value is P's total less twice its inlier mass; against the
        # sum of P times the sign matrix it may differ only by rounding
        for n in (7, 60, 300):
            pose, points, bearings, pairs = gt_setup(rng, n)
            theta = 0.05
            if branch == "gt_pairs":
                mask = np.zeros((n, n), dtype=bool)
                mask[pairs[:, 0], pairs[:, 1]] = True
            else:
                mask = ray_angles(bearings[:, None],
                                  transform_points(pose, points)[None]) <= theta
                assert n < mask.sum() < n * n  # more than the true pairs
            P = sinkhorn_forward(rng.uniform(0, 1, (n, n)), mu=0.1).P
            value, sign = correspondence_loss(
                P, bearings, points, pose, theta,
                gt_pairs=pairs if branch == "gt_pairs" else None)
            assert sign.tobytes() == np.where(mask, -1.0, 1.0).tobytes()
            assert abs(value - np.sum(P * sign)) <= 4 * np.spacing(1.0)

    def test_peak_memory_is_one_plan_with_gt_pairs(self, rng):
        n = 1000
        pose, points, bearings, pairs = gt_setup(rng, n)
        P = np.full((n, n), 1.0 / n**2)
        # a first call allocates numpy's lazily built internals once
        correspondence_loss(P, bearings, points, pose, 1e-3, gt_pairs=pairs)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            correspondence_loss(P, bearings, points, pose, 1e-3,
                                gt_pairs=pairs)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * P.nbytes


class TestPoseLoss:
    def test_identical_poses_floor(self, rng):
        # no clamp floor: identical poses are exactly zero apart
        pose = random_pose(rng)
        result = pose_loss(pose, pose)
        assert result.translation == 0.0
        assert result.rotation == 0.0
        assert result.total == 0.0
        np.testing.assert_array_equal(result.grad, np.zeros(6))

    def test_quarter_turn_plus_two_units(self, rng):
        gt = Pose(np.zeros(3), np.zeros(3))
        est = Pose(np.array([0.0, np.pi / 2, 0.0]), np.array([0.0, 0.0, 2.0]))
        result = pose_loss(est, gt)
        assert abs(result.total - (np.pi / 2 + 2.0)) <= 1e-9

    def test_rotation_term_bounds(self, rng):
        for _ in range(50):
            a = random_pose(rng, max_angle=3.0)
            b = random_pose(rng, max_angle=3.0)
            result = pose_loss(a, b)
            assert 0.0 <= result.rotation <= np.pi
            assert result.translation >= 0.0

    def test_gradient_matches_finite_differences(self, rng):
        h = 1e-6
        for _ in range(10):
            gt = random_pose(rng)
            est = Pose(gt.r + rng.standard_normal(3) * 0.2,
                       gt.t + rng.standard_normal(3) * 0.2)
            grad = pose_loss(est, gt).grad
            x = est.as_vector()
            fd = np.zeros(6)
            for k in range(6):
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                fd[k] = (pose_loss(Pose.from_vector(xp), gt).total
                         - pose_loss(Pose.from_vector(xm), gt).total) / (2 * h)
            assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_identical_rotations_have_zero_rotation_gradient(self, rng):
        pose = random_pose(rng)
        shifted = Pose(pose.r, pose.t + np.array([0.0, 0.0, 0.5]))
        grad = pose_loss(shifted, pose).grad
        np.testing.assert_array_equal(grad[:3], np.zeros(3))
        assert np.linalg.norm(grad[3:]) > 0

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_terms_are_the_reported_errors(self, data):
        # over relative angles from 1e-8 to just below pi: the rotation
        # term is the geodesic error bit for bit, the translation term
        # the translation error, and away from 0 and pi the gradient
        # matches central differences
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        angle = data.draw(st.floats(1e-8, np.pi - 1e-6))
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        gt = Pose(rng.uniform(-3, 3, 3), rng.uniform(-1, 1, 3))
        est = Pose(log_so3(gt.matrix() @ exp_so3(angle * axis)),
                   rng.uniform(-1, 1, 3))
        result = pose_loss(est, gt)
        assert result.rotation == geodesic_rotation_angle(est.matrix(),
                                                          gt.matrix())
        assert result.translation == translation_error(est.t, gt.t)
        if 0.01 <= angle <= np.pi - 0.01:
            h = 1e-6
            fd = np.zeros(6)
            for k in range(6):
                xp, xm = est.as_vector(), est.as_vector()
                xp[k] += h
                xm[k] -= h
                fd[k] = (pose_loss(Pose.from_vector(xp), gt).total
                         - pose_loss(Pose.from_vector(xm), gt).total) / (2 * h)
            assert np.max(np.abs(result.grad - fd)) <= 1e-6

    def test_micro_radian_error_is_resolved(self, rng):
        # a pose 1e-6 rad off reads its own geodesic error, not a clamp
        # floor of 4.5e-4, and its rotation gradient is the slope of the
        # loss, measured by steps that stay small against the angle
        gt = random_pose(rng)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        est = Pose(gt.r + 1e-6 * axis, gt.t)
        result = pose_loss(est, gt)
        angle = geodesic_rotation_angle(est.matrix(), gt.matrix())
        assert 5e-7 < result.rotation == angle < 2e-6
        h = 1e-10
        fd = np.zeros(3)
        for k in range(3):
            x = est.as_vector()
            x[k] += h
            fd[k] = (pose_loss(Pose.from_vector(x), gt).total
                     - result.total) / h
        assert np.linalg.norm(result.grad[:3]) > 0.1
        assert np.max(np.abs(result.grad[:3] - fd)) <= 1e-3
