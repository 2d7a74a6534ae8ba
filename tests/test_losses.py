"""Correspondence and pose losses: exact derivative structure, bounds,
and finite-difference checks away from the arccos singularities."""

import numpy as np
import pytest

from blindpnp.errors import ValidationError
from blindpnp.geometry import Pose
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


class TestPoseLoss:
    def test_identical_poses_floor(self, rng):
        pose = random_pose(rng)
        result = pose_loss(pose, pose)
        assert result.translation == 0.0
        assert result.rotation <= 4.5e-4
        assert result.total <= 4.5e-4
        np.testing.assert_array_equal(result.grad[3:], np.zeros(3))

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

    def test_clamped_region_has_zero_rotation_gradient(self, rng):
        pose = random_pose(rng)
        shifted = Pose(pose.r, pose.t + np.array([0.0, 0.0, 0.5]))
        grad = pose_loss(shifted, pose).grad
        np.testing.assert_array_equal(grad[:3], np.zeros(3))
        assert np.linalg.norm(grad[3:]) > 0
