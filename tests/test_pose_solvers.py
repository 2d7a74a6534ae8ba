"""Minimal solver, linear solver, and the robust initializer.

P3P solutions are checked for algebraic self-consistency with the
cross-product angle measure (the arccos form floors near 1.5e-8 and
cannot certify 1e-9 residuals).  Recovery tests construct instances
forward from a known pose.
"""

import numpy as np
import pytest

from blindpnp.errors import DegenerateGeometryError, ValidationError
from blindpnp.geometry import (Pose, geodesic_rotation_angle,
                               translation_error)
from blindpnp.pose_solvers import (CandidateSet, RansacConfig, ransac_p3p,
                                   epnp, p3p)

from conftest import exact_bearings, random_pose, tiny_angle


def pose_distance(a: Pose, b: Pose) -> float:
    return geodesic_rotation_angle(a.matrix(), b.matrix()) \
        + translation_error(a.t, b.t)


class TestP3P:
    def test_recovers_generating_pose(self, rng):
        hits = 0
        for _ in range(100):
            pose = random_pose(rng)
            points = rng.uniform(-0.5, 0.5, (3, 3))
            bearings = exact_bearings(pose, points)
            solutions = p3p(bearings, points)
            assert solutions, "no solution on a consistent instance"
            if min(pose_distance(s, pose) for s in solutions) < 1e-8:
                hits += 1
        assert hits == 100

    def test_every_solution_self_consistent(self, rng):
        for _ in range(100):
            pose = random_pose(rng)
            points = rng.uniform(-0.5, 0.5, (3, 3))
            bearings = exact_bearings(pose, points)
            for sol in p3p(bearings, points):
                q = points @ sol.matrix().T + sol.t
                u = q / np.linalg.norm(q, axis=1, keepdims=True)
                assert np.max(tiny_angle(bearings, u)) <= 1e-9

    def test_collinear_points_rejected(self):
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, 6.0], [0.0, 0.0, 7.0]])
        bearings = np.eye(3)
        with pytest.raises(DegenerateGeometryError):
            p3p(bearings, points)

    def test_coincident_points_rejected(self, rng):
        points = np.array([[1.0, 0.0, 5.0], [1.0, 0.0, 5.0], [0.0, 1.0, 5.0]])
        bearings = exact_bearings(Pose.identity(), points + [0, 0, 1e-12])
        with pytest.raises(DegenerateGeometryError):
            p3p(bearings, points)

    def test_identity_pose_canonical_configuration(self):
        points = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [-1.0, 0.0, 5.0]])
        bearings = points / np.linalg.norm(points, axis=1, keepdims=True)
        solutions = p3p(bearings, points)
        assert solutions
        for sol in solutions:
            q = points @ sol.matrix().T + sol.t
            u = q / np.linalg.norm(q, axis=1, keepdims=True)
            assert np.max(tiny_angle(bearings, u)) <= 1e-9
        identity = Pose.identity()
        assert min(pose_distance(s, identity) for s in solutions) <= 1e-9

    def test_non_unit_bearings_rejected(self):
        points = np.array([[1.0, 0.0, 5.0], [0.0, 1.0, 5.0], [-1.0, 0.0, 5.0]])
        with pytest.raises(ValidationError):
            p3p(points, points)


class TestEPnP:
    def test_recovers_pose_from_ten_pairs(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            points = rng.uniform(-0.5, 0.5, (10, 3))
            bearings = exact_bearings(pose, points)
            est = epnp(bearings, points)
            assert geodesic_rotation_angle(est.matrix(), pose.matrix()) <= 1e-6
            assert translation_error(est.t, pose.t) <= 1e-6

    def test_planar_branch_four_points(self, rng):
        for _ in range(50):
            pose = random_pose(rng)
            flat = rng.uniform(-0.5, 0.5, (4, 2))
            points = np.column_stack([flat, np.zeros(4)])
            bearings = exact_bearings(pose, points)
            est = epnp(bearings, points)
            assert pose_distance(est, pose) <= 1e-5

    def test_three_pairs_rejected(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (3, 3))
        with pytest.raises(ValidationError):
            epnp(exact_bearings(pose, points), points)

    def test_permutation_invariance(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (12, 3))
        bearings = exact_bearings(pose, points)
        base = epnp(bearings, points)
        perm = rng.permutation(12)
        shuffled = epnp(bearings[perm], points[perm])
        assert np.max(np.abs(base.r - shuffled.r)) <= 1e-9
        assert np.max(np.abs(base.t - shuffled.t)) <= 1e-9

    def test_weighted_downweights_bad_pair(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (12, 3))
        bearings = exact_bearings(pose, points)
        corrupted = bearings.copy()
        corrupted[0] = corrupted[0] + np.array([0.05, -0.03, 0.0])
        corrupted[0] /= np.linalg.norm(corrupted[0])
        weights = np.ones(12)
        weights[0] = 1e-8
        est = epnp(corrupted, points, weights=weights)
        assert pose_distance(est, pose) <= 1e-4

    def test_negative_weights_rejected(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (5, 3))
        with pytest.raises(ValidationError):
            epnp(exact_bearings(pose, points), points,
                 weights=np.array([1, 1, 1, 1, -1.0]))


def make_candidates(rng, pose, n=100, true_count=75, wrong_count=75):
    points = rng.uniform(-0.5, 0.5, (n, 3))
    bearings = exact_bearings(pose, points)
    true_pairs = np.stack([np.arange(true_count), np.arange(true_count)],
                          axis=1)
    wrong = np.stack([rng.integers(0, n, wrong_count),
                      rng.integers(0, n, wrong_count)], axis=1)
    pairs = np.vstack([true_pairs, wrong])
    cand = CandidateSet(pairs=pairs, weights=np.ones(len(pairs)),
                        bearings=bearings, points=points)
    return cand


class TestRansac:
    def test_all_inlier_early_exit(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (40, 3))
        bearings = exact_bearings(pose, points)
        pairs = np.stack([np.arange(40), np.arange(40)], axis=1)
        cand = CandidateSet(pairs=pairs, weights=np.full(40, 1.0 / 40),
                            bearings=bearings, points=points)
        est = ransac_p3p(cand, RansacConfig(seed=1))
        assert est.found_pose
        assert pose_distance(est.pose, pose) <= 1e-5
        assert est.inliers.shape[0] == 40
        assert est.iterations_used <= 5  # confidence bound with w = 1

    def test_too_few_candidates_rejected(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (3, 3))
        cand = CandidateSet(pairs=np.stack([np.arange(3), np.arange(3)], axis=1),
                            weights=np.ones(3),
                            bearings=exact_bearings(pose, points),
                            points=points)
        with pytest.raises(ValidationError):
            ransac_p3p(cand, RansacConfig())

    def test_half_outliers_monte_carlo(self, rng):
        hits = 0
        for seed in range(20):
            pose = random_pose(rng)
            cand = make_candidates(rng, pose)
            est = ransac_p3p(cand, RansacConfig(seed=seed))
            # geometric refinement over the inlier set, as in the pipeline
            from blindpnp.weighted_pnp import (PnPProblem, PnPSolverConfig,
                                               SparseWeights, pnp_solve)
            weights = SparseWeights(
                pairs=est.inliers,
                values=np.full(est.inliers.shape[0],
                               1.0 / max(est.inliers.shape[0], 1)))
            problem = PnPProblem(bearings=cand.bearings, points=cand.points,
                                 weights=weights, init=est.pose)
            refined = pnp_solve(problem, PnPSolverConfig(newton_polish=True))
            if geodesic_rotation_angle(refined.pose.matrix(), pose.matrix()) \
                    <= 1e-3 and translation_error(refined.pose.t, pose.t) <= 1e-3:
                hits += 1
        assert hits == 20

    def test_deterministic_per_seed(self, rng):
        pose = random_pose(rng)
        cand = make_candidates(rng, pose)
        a = ransac_p3p(cand, RansacConfig(seed=9))
        b = ransac_p3p(cand, RansacConfig(seed=9))
        assert np.array_equal(a.pose.r, b.pose.r)
        assert np.array_equal(a.pose.t, b.pose.t)
        assert np.array_equal(a.inliers, b.inliers)
        assert a.iterations_used == b.iterations_used

    def test_inliers_one_to_one(self, rng):
        pose = random_pose(rng)
        cand = make_candidates(rng, pose, wrong_count=150)
        est = ransac_p3p(cand, RansacConfig(seed=5))
        inl = est.inliers
        assert len(set(inl[:, 0].tolist())) == inl.shape[0]
        assert len(set(inl[:, 1].tolist())) == inl.shape[0]

    def test_degenerate_candidates_graceful(self, rng):
        # all candidates share two bearings: no valid minimal sample exists
        points = rng.uniform(-0.5, 0.5, (10, 3))
        pose = random_pose(rng)
        bearings = exact_bearings(pose, points)
        pairs = np.array([[0, j] for j in range(5)]
                         + [[1, j] for j in range(5)])
        cand = CandidateSet(pairs=pairs, weights=np.ones(10),
                            bearings=bearings, points=points)
        est = ransac_p3p(cand, RansacConfig(seed=0, max_iterations=50))
        assert not est.found_pose
        assert est.inliers.shape[0] == 0

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RansacConfig(inlier_threshold=0.0)
        with pytest.raises(ValidationError):
            RansacConfig(max_iterations=0)
        with pytest.raises(ValidationError):
            RansacConfig(confidence=1.0)
