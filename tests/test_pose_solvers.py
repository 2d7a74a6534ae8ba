"""Minimal solver and the robust initializer.

P3P solutions are checked for algebraic self-consistency with the
cross-product angle measure (the arccos form floors near 1.5e-8 and
cannot certify 1e-9 residuals).  Recovery tests construct instances
forward from a known pose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindpnp.assignment import correspondences_from_pose
from blindpnp.errors import (DegenerateGeometryError, NumericalError,
                             ValidationError)
from blindpnp.geometry import (Pose, geodesic_rotation_angle, log_so3,
                               translation_error)
import blindpnp.pose_solvers as pose_solvers
from blindpnp.pose_solvers import (CandidateSet, RansacConfig, ransac_p3p,
                                   p3p, refit_to_inliers, _p3p_batch,
                                   _polish_depths)
from blindpnp.weighted_pnp import PnPProblem, SparseWeights, pnp_objective

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

    @pytest.mark.parametrize("where", ["bearing", "point"])
    def test_nan_input_rejected(self, rng, where):
        points = rng.uniform(-0.5, 0.5, (3, 3))
        bearings = exact_bearings(random_pose(rng), points)
        (bearings if where == "bearing" else points)[1, 2] = np.nan
        with pytest.raises(ValidationError):
            p3p(bearings, points)


def minimal_row(kind: str, seed: int, eps: float):
    """Bearings and points of one three-point problem of the given kind."""
    rng = np.random.default_rng(seed)
    if kind == "symmetric":
        # camera on the mirror plane of an isosceles triangle, moved off
        # it by eps: the quartic's roots crowd together, which is where
        # the Newton polish and the duplicate test are least certain
        a, b = rng.uniform(0.2, 0.6, 2)
        points = np.array([[a, 0.0, 0.0], [-a, 0.0, 0.0], [0.0, b, 0.0]])
        points += eps * rng.standard_normal((3, 3))
        pose = Pose(np.zeros(3), [0.0, rng.uniform(-0.3, 0.3), 4.5])
    else:
        points = rng.uniform(-0.5, 0.5, (3, 3))
        pose = random_pose(rng)
        if kind == "coincident":
            points[1] = points[0]
        elif kind == "collinear":
            points[2] = 2.0 * points[1] - points[0]
    return exact_bearings(pose, points), points


def reference_p3p(f, p):
    """The one-sample P3P that the batched solver replaced: np.roots on
    the quartic, then a scalar Newton polish of each root candidate."""
    cos_ab, cos_ac, cos_bc = f[0] @ f[1], f[0] @ f[2], f[1] @ f[2]
    d_ab, d_ac, d_bc = (np.linalg.norm(p[a] - p[b])
                        for a, b in ((0, 1), (0, 2), (1, 2)))
    ka, kc = (d_bc / d_ac) ** 2, (d_ab / d_ac) ** 2
    base = np.array([1.0, -2.0 * cos_ac, 1.0])
    N = ka * base - kc * base - np.array([1.0, 0.0, -1.0])
    D = np.array([-2.0 * cos_bc, 2.0 * cos_ab])
    D2 = np.polymul(D, D)
    quartic = np.polyadd(np.polymul(N, N), D2)
    quartic = np.polysub(quartic, 2.0 * cos_ab * np.polymul(N, D))
    quartic = np.polysub(quartic, np.polymul(kc * base, D2))
    cos = np.array([cos_ab, cos_ac, cos_bc])
    target = np.array([d_ab, d_ac, d_bc]) ** 2
    edges = ((0, 1), (0, 2), (1, 2))

    def residual(s):
        return np.array([s[a] ** 2 + s[b] ** 2 - 2.0 * s[a] * s[b] * c
                         for (a, b), c in zip(edges, cos)]) - target

    poses, seen = [], []
    for root in np.roots(quartic / np.max(np.abs(quartic))):
        v = root.real
        base_v = 1.0 + v * v - 2.0 * v * cos_ac
        if abs(root.imag) > 1e-6 * max(1.0, abs(v)) or v <= 0 or base_v <= 0:
            continue
        s1 = d_ac / np.sqrt(base_v)
        disc = cos_ab * cos_ab - 1.0 + kc * base_v
        us = [cos_ab + np.sqrt(disc), cos_ab - np.sqrt(disc)] \
            if disc >= 0 else []
        denom = 2.0 * (cos_ab - v * cos_bc)
        if abs(denom) > 1e-9:
            us.append(np.polyval(N, v) / denom)
        for u in (u for u in us if u > 0):
            s = np.array([s1, u * s1, v * s1])
            for _ in range(8):
                F = residual(s)
                J = np.zeros((3, 3))
                for e, ((a, b), c) in enumerate(zip(edges, cos)):
                    J[e, a] = 2 * s[a] - 2 * s[b] * c
                    J[e, b] = 2 * s[b] - 2 * s[a] * c
                try:
                    s = s - np.linalg.solve(J, F)
                except np.linalg.LinAlgError:
                    break
                if np.max(np.abs(F)) < 1e-15 * target.max():
                    break
            resid = np.max(np.abs(residual(s)))
            if (np.all(s > 0) and resid <= 1e-9 * target.max()
                    and all(np.max(np.abs(s - q)) >= 1e-9 * s.max()
                            for q in seen)):
                seen.append(s)
                camera = s[:, None] * f
                cc, wc = camera.mean(axis=0), p.mean(axis=0)
                U, _, Vt = np.linalg.svd((camera - cc).T @ (p - wc))
                R = U @ np.diag([1.0, 1.0, np.linalg.det(U @ Vt)]) @ Vt
                poses.append(Pose(log_so3(R), cc - R @ wc))
    return poses[:4]


class TestBatchedP3P:
    def test_matches_one_sample_reference(self, rng):
        # the arithmetic order changed (batched sums, eigenvalues of a
        # stack), so the poses agree to rounding, not bit for bit; near a
        # double root of the quartic rounding grows to about sqrt(eps)
        for _ in range(300):
            points = rng.uniform(-0.5, 0.5, (3, 3))
            bearings = exact_bearings(random_pose(rng), points)
            got = p3p(bearings, points)
            expected = reference_p3p(bearings, points)
            assert len(got) == len(expected)
            for x, y in zip(got, expected):
                assert np.max(np.abs(x.as_vector() - y.as_vector())) <= 1e-7

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=60)
    @given(st.lists(st.tuples(
        st.sampled_from(["random", "random", "symmetric", "coincident",
                         "collinear"]),
        st.integers(0, 2**32 - 1),
        st.sampled_from([0.0, 1e-12, 1e-9, 1e-6])), min_size=1, max_size=12))
    def test_rows_match_their_batch_of_one(self, rows):
        f, p = (np.stack(a) for a in zip(*(minimal_row(*r) for r in rows)))
        R, t, ok = _p3p_batch(f, p)
        assert np.all(np.count_nonzero(ok, axis=1) <= 4)
        for b in range(len(rows)):
            try:
                single = p3p(f[b], p[b])
            except DegenerateGeometryError:
                assert rows[b][0] in ("coincident", "collinear")
                assert not ok[b].any()
                continue
            batch = [Pose(log_so3(Rs), ts)
                     for Rs, ts in zip(R[b, ok[b]], t[b, ok[b]])]
            assert len(batch) == len(single)
            for x, y in zip(batch, single):
                assert x.r.tobytes() == y.r.tobytes()
                assert x.t.tobytes() == y.t.tobytes()

    def test_singular_jacobian_row_leaves_the_rest_unchanged(self, rng):
        # zero depths make the Jacobian zero: that row stops where it is
        # and the batch falls back to row-by-row solves
        s = rng.uniform(3.0, 5.0, (5, 3))
        s[2] = 0.0
        cos = rng.uniform(0.9, 0.99, (5, 3))
        target = rng.uniform(0.1, 0.5, (5, 3))
        depths, resid = _polish_depths(s, cos, target)
        assert np.array_equal(depths[2], np.zeros(3))
        assert resid[2] == np.max(target[2])
        for r in (0, 1, 3, 4):
            alone, alone_resid = _polish_depths(s[r:r + 1], cos[r:r + 1],
                                                target[r:r + 1])
            assert depths[r].tobytes() == alone[0].tobytes()
            assert resid[r] == alone_resid[0]


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
            from blindpnp.weighted_pnp import pnp_solve
            weights = SparseWeights(
                pairs=est.inliers,
                values=np.full(est.inliers.shape[0],
                               1.0 / max(est.inliers.shape[0], 1)))
            problem = PnPProblem(bearings=cand.bearings, points=cand.points,
                                 weights=weights, init=est.pose)
            refined = pnp_solve(problem)
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

    @pytest.mark.parametrize("shared", [[0, 3], [3, 0]])
    def test_probe_repeating_a_bearing_or_point_forms_no_hypothesis(
            self, rng, shared):
        # four candidates, the last sharing bearing 0 or point 0 with the
        # first: a sample's triple is valid only without one of the two,
        # so its probe is then the other, which fits every P3P solution
        # alike and cannot choose among them
        points = rng.uniform(-0.5, 0.5, (4, 3))
        bearings = exact_bearings(random_pose(rng), points)
        cand = CandidateSet(pairs=[[0, 0], [1, 1], [2, 2], shared],
                            weights=np.ones(4), bearings=bearings,
                            points=points)
        est = ransac_p3p(cand, RansacConfig(seed=0, max_iterations=50))
        assert not est.found_pose
        assert est.iterations_used == 50
        assert est.inliers.shape[0] == 0

    @pytest.mark.parametrize("seed, wrong, pinned", [
        (0, 75, (61, 78, 76, 5700)),
        (1, 150, (317, 78, 75, 5550)),
        (2, 225, (909, 80, 75, 5550)),
    ])
    def test_pinned_results(self, seed, wrong, pinned):
        # iterations, best hypothesis count, inliers and their index sum
        rng = np.random.default_rng(seed)
        cand = make_candidates(rng, random_pose(rng), wrong_count=wrong)
        est = ransac_p3p(cand, RansacConfig(seed=seed))
        assert (est.iterations_used, est.hypothesis_count,
                est.inliers.shape[0], int(est.inliers.sum())) == pinned

    @pytest.mark.parametrize("seed", range(4))
    def test_batch_schedule_does_not_change_the_estimate(self, monkeypatch,
                                                         seed):
        rng = np.random.default_rng(seed)
        cand = make_candidates(rng, random_pose(rng), wrong_count=150)
        cand = CandidateSet(pairs=cand.pairs,
                            weights=rng.uniform(0.0, 1.0, len(cand)),
                            bearings=cand.bearings, points=cand.points)
        batched = ransac_p3p(cand, RansacConfig(seed=seed))
        assert batched.iterations_used > 2 * pose_solvers._BATCH  # 3+ batches
        monkeypatch.setattr(pose_solvers, "_BATCH", 1)
        single = ransac_p3p(cand, RansacConfig(seed=seed))
        assert batched.pose.r.tobytes() == single.pose.r.tobytes()
        assert batched.pose.t.tobytes() == single.pose.t.tobytes()
        assert np.array_equal(batched.inliers, single.inliers)
        assert batched.iterations_used == single.iterations_used
        assert batched.hypothesis_count == single.hypothesis_count

    def test_zero_weight_pairs_never_drawn(self, monkeypatch, rng):
        pose = random_pose(rng)
        cand = make_candidates(rng, pose)
        weights = np.r_[np.ones(75), np.zeros(75)]
        cand = CandidateSet(pairs=cand.pairs, weights=weights,
                            bearings=cand.bearings, points=cand.points)
        drawn = []
        score = pose_solvers._score_samples

        def spy(*args, **kwargs):
            drawn.append(args[4])
            return score(*args, **kwargs)

        monkeypatch.setattr(pose_solvers, "_score_samples", spy)
        est = ransac_p3p(cand, RansacConfig(seed=3))
        assert np.all(weights[np.concatenate(drawn)] == 1.0)
        # the first hypothesis holds all the weight: the bound is 1 sample
        assert est.iterations_used == 1
        assert pose_distance(est.pose, pose) <= 1e-9

    def test_exactly_four_candidates(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (4, 3))
        pairs = np.stack([np.arange(4), np.arange(4)], axis=1)
        cand = CandidateSet(pairs=pairs, weights=[0.1, 0.2, 0.3, 0.4],
                            bearings=exact_bearings(pose, points),
                            points=points)
        est = ransac_p3p(cand, RansacConfig(seed=0))
        assert est.found_pose
        assert np.array_equal(est.inliers, pairs)
        assert pose_distance(est.pose, pose) <= 1e-9

    def test_non_unit_candidate_bearing_rejected(self, rng):
        cand = make_candidates(rng, random_pose(rng))
        bearings = cand.bearings.copy()
        bearings[cand.pairs[-1, 0]] *= 1.01
        bad = CandidateSet(pairs=cand.pairs, weights=cand.weights,
                           bearings=bearings, points=cand.points)
        with pytest.raises(ValidationError, match="unit"):
            ransac_p3p(bad, RansacConfig(seed=0, max_iterations=1))

    @pytest.mark.parametrize("where", ["bearing", "point"])
    def test_nan_candidate_rejected(self, rng, where):
        cand = make_candidates(rng, random_pose(rng), n=40, true_count=40,
                               wrong_count=0)
        bearings, points = cand.bearings.copy(), cand.points.copy()
        (bearings if where == "bearing" else points)[7, 0] = np.nan
        bad = CandidateSet(pairs=cand.pairs, weights=cand.weights,
                           bearings=bearings, points=points)
        with pytest.raises(ValidationError):
            ransac_p3p(bad, RansacConfig(seed=0))

    def test_pose_is_stationary_over_its_inliers(self, rng):
        # the refit leaves the pose at the optimum of uniform weights over
        # its own inliers, not merely near it
        for seed in range(20):
            pose = random_pose(rng)
            cand = make_candidates(rng, pose)
            noise = rng.standard_normal(cand.bearings.shape) * 1e-3
            bearings = cand.bearings + noise
            bearings /= np.linalg.norm(bearings, axis=1, keepdims=True)
            cand = CandidateSet(pairs=cand.pairs, weights=cand.weights,
                                bearings=bearings, points=cand.points)
            est = ransac_p3p(cand, RansacConfig(seed=seed))
            assert est.inliers.shape[0] >= 4
            weights = SparseWeights(
                pairs=est.inliers,
                values=np.full(est.inliers.shape[0], 1.0 / est.inliers.shape[0]))
            _, grad = pnp_objective(
                PnPProblem(bearings=bearings, points=cand.points,
                           weights=weights, init=est.pose), est.pose)
            assert np.linalg.norm(grad) <= 1e-9

    def test_planar_candidates_recover_pose(self, rng):
        for seed in range(20):
            pose = random_pose(rng)
            flat = rng.uniform(-0.5, 0.5, (30, 2))
            points = np.column_stack([flat, np.zeros(30)])
            pairs = np.stack([np.arange(30), np.arange(30)], axis=1)
            cand = CandidateSet(pairs=pairs, weights=np.ones(30),
                                bearings=exact_bearings(pose, points),
                                points=points)
            est = ransac_p3p(cand, RansacConfig(seed=seed))
            assert est.inliers.shape[0] == 30
            assert pose_distance(est.pose, pose) <= 1e-9

    @pytest.mark.parametrize("weights", [
        [1.0, np.nan, 1.0, 1.0], [1.0, np.inf, 1.0, 1.0],
        [1.0, -0.5, 1.0, 1.0], [0.0, 0.0, 0.0, 0.0]])
    def test_bad_weights_rejected(self, weights):
        pairs = np.stack([np.arange(4), np.arange(4)], axis=1)
        with pytest.raises(ValidationError, match="weights"):
            CandidateSet(pairs=pairs, weights=weights,
                         bearings=np.eye(4, 3), points=np.eye(4, 3))

    @pytest.mark.parametrize("where", ["bearings", "points"])
    def test_inputs_without_three_columns_rejected(self, where):
        inputs = {"bearings": np.eye(4, 3), "points": np.eye(4, 3)}
        inputs[where] = np.ones((4, 2))
        pairs = np.stack([np.arange(4), np.arange(4)], axis=1)
        with pytest.raises(ValidationError, match=where):
            CandidateSet(pairs=pairs, weights=np.ones(4), **inputs)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            RansacConfig(max_iterations=0)


def noisy_candidates(rng, sigma=5e-3):
    # bearing noise of half the threshold moves pairs across it, so the
    # set changes over two or more refits before it repeats
    pose = random_pose(rng)
    cand = make_candidates(rng, pose)
    bearings = cand.bearings + rng.standard_normal(cand.bearings.shape) * sigma
    bearings /= np.linalg.norm(bearings, axis=1, keepdims=True)
    start = Pose(pose.r + 0.002, pose.t + 0.01)
    return cand.pairs, bearings, cand.points, start


class TestRefitToInliers:
    def test_ends_stationary_over_the_set_it_was_fit_to(self, rng):
        for _ in range(5):
            pairs, bearings, points, start = noisy_candidates(rng)
            pose, inliers, refits = refit_to_inliers(
                bearings, points, start, 0.01, 10, pairs)
            assert 1 <= refits < 10  # stopped because the set repeated
            np.testing.assert_array_equal(
                inliers, correspondences_from_pose(bearings, points, pose,
                                                   0.01, pairs))
            weights = SparseWeights(pairs=inliers, values=np.full(
                inliers.shape[0], 1.0 / inliers.shape[0]))
            _, grad = pnp_objective(PnPProblem(bearings, points, weights,
                                               pose), pose)
            assert np.linalg.norm(grad) <= 1e-9

    def test_no_rounds_returns_the_first_set(self, rng):
        pairs, bearings, points, start = noisy_candidates(rng)
        pose, inliers, refits = refit_to_inliers(bearings, points, start,
                                                 0.01, 0, pairs)
        assert refits == 0 and pose is start
        np.testing.assert_array_equal(
            inliers, correspondences_from_pose(bearings, points, start, 0.01,
                                               pairs))

    def test_numerical_error_keeps_the_previous_pose(self, monkeypatch, rng):
        pairs, bearings, points, start = noisy_candidates(rng)
        want = refit_to_inliers(bearings, points, start, 0.01, 1, pairs)
        solve = pose_solvers.pnp_solve
        calls = []

        def second_call_fails(problem, config=None):
            calls.append(problem)
            if len(calls) == 2:
                raise NumericalError("injected")
            return solve(problem, config)

        monkeypatch.setattr(pose_solvers, "pnp_solve", second_call_fails)
        pose, inliers, refits = refit_to_inliers(bearings, points, start,
                                                 0.01, 10, pairs)
        assert len(calls) == 2 and refits == 1
        assert pose.as_vector().tobytes() == want[0].as_vector().tobytes()
        np.testing.assert_array_equal(inliers, want[1])

    def test_fewer_than_four_inliers_are_not_refit(self, rng):
        pairs, bearings, points, start = noisy_candidates(rng)
        pose, inliers, refits = refit_to_inliers(bearings, points, start,
                                                 0.01, 10, pairs[:3])
        assert refits == 0 and pose is start and inliers.shape[0] <= 3

    @pytest.mark.parametrize("bad", [[-1, 0], [100, 0], [0, 100]])
    def test_pool_index_out_of_range_rejected(self, rng, bad):
        # -1 would silently take the last bearing and come back as a pair
        pairs, bearings, points, start = noisy_candidates(rng)
        assert bearings.shape[0] == points.shape[0] == 100
        with pytest.raises(ValidationError, match="out of range"):
            refit_to_inliers(bearings, points, start, 0.01, 10,
                             np.concatenate([pairs, [bad]]))
