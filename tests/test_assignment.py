"""Assignment, pose-conditioned correspondences, and top-k selection.

The Hungarian step is checked against exhaustive permutation search for
sizes where that is feasible; top-k is checked against sort-everything.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindpnp.assignment import (candidate_count, correspondences_from_pose,
                                 hungarian, top_k_select)
from blindpnp.errors import ValidationError
from blindpnp.geometry import Pose, ray_angles, transform_points
from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
from blindpnp.transport import sinkhorn_forward

from conftest import exact_bearings, random_pose


def brute_force_cost(cost):
    """Minimum assignment cost over all permutations (square matrices)."""
    n = cost.shape[0]
    return min(sum(cost[i, p[i]] for i in range(n))
               for p in itertools.permutations(range(n)))


class TestHungarian:
    def test_diagonal_favoring(self):
        cost = np.ones((3, 3)) - np.eye(3)
        np.testing.assert_array_equal(hungarians := hungarian(cost),
                                      [[0, 0], [1, 1], [2, 2]])
        assert hungarians.dtype == np.int64

    def test_anti_diagonal(self):
        pairs = hungarian(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(pairs, [[0, 1], [1, 0]])

    def test_matches_brute_force_6x6(self, rng):
        for _ in range(20):
            cost = rng.uniform(0, 1, (6, 6))
            pairs = hungarian(cost)
            total = cost[pairs[:, 0], pairs[:, 1]].sum()
            assert abs(total - brute_force_cost(cost)) <= 1e-12

    def test_matches_brute_force_up_to_7(self, rng):
        for n in range(1, 8):
            cost = rng.uniform(0, 1, (n, n))
            pairs = hungarian(cost)
            total = cost[pairs[:, 0], pairs[:, 1]].sum()
            assert abs(total - brute_force_cost(cost)) <= 1e-12

    def test_rectangular(self, rng):
        cost = rng.uniform(0, 1, (3, 5))
        pairs = hungarian(cost)
        assert pairs.shape == (3, 2)
        assert len(set(pairs[:, 0])) == 3
        assert len(set(pairs[:, 1])) == 3

    def test_beats_identity_and_random_permutations(self, rng):
        cost = rng.uniform(0, 1, (20, 20))
        pairs = hungarian(cost)
        best = cost[pairs[:, 0], pairs[:, 1]].sum()
        assert best <= np.trace(cost) + 1e-12
        for _ in range(100):
            perm = rng.permutation(20)
            assert best <= cost[np.arange(20), perm].sum() + 1e-12

    def test_nan_rejected(self):
        cost = np.zeros((2, 2))
        cost[0, 1] = np.nan
        with pytest.raises(ValidationError):
            hungarian(cost)

    def test_inf_rejected(self):
        cost = np.zeros((2, 2))
        cost[1, 0] = np.inf
        with pytest.raises(ValidationError):
            hungarian(cost)


class TestCorrespondencesFromPose:
    def test_recovers_generating_pairs(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (30, 3))
        bearings = exact_bearings(pose, points)
        perm = rng.permutation(30)
        pairs = correspondences_from_pose(bearings, points[perm], pose, 1e-3)
        expected = np.stack([np.arange(30), np.argsort(perm)[np.arange(30)]],
                            axis=1)
        # map bearing i to the shuffled position of point i
        inverse = np.empty(30, dtype=int)
        inverse[perm] = np.arange(30)
        expected = np.stack([np.arange(30), inverse], axis=1)
        np.testing.assert_array_equal(pairs[np.argsort(pairs[:, 0])], expected)

    def test_single_pair_always_admissible(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (1, 3))
        bearings = exact_bearings(pose, points) + rng.normal(0, 0.1, (1, 3))
        bearings /= np.linalg.norm(bearings)
        pairs = correspondences_from_pose(bearings, points, pose,
                                          np.pi - 1e-9)
        np.testing.assert_array_equal(pairs, [[0, 0]])

    def test_camera_pointing_away_gives_empty(self, rng):
        points = rng.uniform(-0.5, 0.5, (10, 3)) + [0, 0, 4.5]
        bearings = points / np.linalg.norm(points, axis=1, keepdims=True)
        # half turn about x sends the cloud behind the camera
        away = Pose(np.array([np.pi, 0.0, 0.0]), np.zeros(3))
        pairs = correspondences_from_pose(bearings, points, away, 0.01)
        assert pairs.shape == (0, 2)

    def test_output_pairs_respect_threshold(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (40, 3))
        bearings = exact_bearings(pose, points)
        noisy = bearings + rng.normal(0, 0.01, bearings.shape)
        noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
        theta = 0.02
        pairs = correspondences_from_pose(noisy, points, pose, theta)
        angles = ray_angles(noisy, transform_points(pose, points),
                            pairwise=True)
        assert np.all(angles[pairs[:, 0], pairs[:, 1]] <= theta)

    def test_theta_validated(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (3, 3))
        bearings = exact_bearings(pose, points)
        with pytest.raises(ValidationError):
            correspondences_from_pose(bearings, points, pose, 0.0)


class TestTopKSelect:
    def test_uniform_ties_break_row_major(self):
        P = np.full((2, 3), 1.0 / 6.0)
        rows, cols, values = top_k_select(P, 3)
        np.testing.assert_array_equal(rows, [0, 0, 0])
        np.testing.assert_array_equal(cols, [0, 1, 2])

    def test_single_dominant_entry(self, rng):
        P = rng.uniform(0, 0.1, (5, 5))
        P[3, 1] = 5.0
        rows, cols, values = top_k_select(P, 1)
        assert (rows[0], cols[0]) == (3, 1)
        assert values[0] == 5.0

    def test_matches_full_sort_oracle(self, rng):
        P = rng.uniform(0, 1, (10, 12))
        rows, cols, values = top_k_select(P, 50)
        order = np.argsort(P.ravel())[::-1][:50]
        expected = set(map(tuple, np.stack(np.divmod(order, 12), axis=1)))
        assert set(zip(rows.tolist(), cols.tolist())) == expected

    def test_sorted_descending_and_dominates_excluded(self, rng):
        P = rng.uniform(0, 1, (8, 8))
        rows, cols, values = top_k_select(P, 20)
        assert np.all(np.diff(values) <= 0)
        excluded = P.copy()
        excluded[rows, cols] = -np.inf
        assert values.min() >= excluded.max()

    def test_k_bounds(self, rng):
        P = rng.uniform(0, 1, (3, 3))
        with pytest.raises(ValidationError):
            top_k_select(P, 10)
        with pytest.raises(ValidationError):
            top_k_select(P, 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        P = np.full((3, 4), 0.1)
        P[1, 2] = bad
        with pytest.raises(ValidationError):
            top_k_select(P, 2)

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_lexsort_oracle_for_every_k(self, data):
        # a few distinct values, so ties decide most of the order
        m = data.draw(st.integers(1, 30))
        n = data.draw(st.integers(1, 30))
        levels = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=3)))
        P = levels[data.draw(arrays(np.intp, (m, n),
                                    elements=st.integers(0, levels.size - 1)))]
        assert_matches_lexsort_oracle(P, range(1, m * n + 1))

    def test_sharp_plan_takes_ties_in_row_major_order(self, rng):
        # the oracle plan's layout: one high entry per row, all others tied
        n = 200
        perm = rng.permutation(n)
        P = np.full((n, n), 1e-20)
        P[np.arange(n), perm] = 1.0 / n
        rows, cols, values = top_k_select(P, 300)
        np.testing.assert_array_equal(rows[:n], np.arange(n))
        np.testing.assert_array_equal(cols[:n], perm)
        assert np.all(values[n:] == 1e-20)
        assert_matches_lexsort_oracle(P, [300])

    def test_candidate_count(self):
        assert candidate_count(100, 100) == 150
        assert candidate_count(3, 5) == 5        # ceil(4.5)
        assert candidate_count(1, 1) == 1        # capped at m*n

    @pytest.mark.parametrize("sharpness, cost_noise", [(5.0, 0.0), (1.0, 0.3)])
    def test_peak_memory_is_one_float_copy(self, sharpness, cost_noise):
        # tied (two distinct values) and untied 1000 x 1000 oracle plans;
        # sorting the tie pool took 40 B/entry, negating a second copy
        # for the partition would take 16 B/entry on the untied plan
        inst = generate_instance(SynthConfig(n_points=1000, seed=0))
        P = sinkhorn_forward(oracle_cost(inst, sharpness, cost_noise),
                             mu=0.1).P
        k = candidate_count(*P.shape)
        tracemalloc.start()
        tracemalloc.reset_peak()
        top_k_select(P, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 12 * P.size


def assert_matches_lexsort_oracle(P, ks):
    """top_k_select equals the first k of a full sort by descending
    value, then ascending (row, column), bit for bit."""
    n = P.shape[1]
    rows, cols = np.divmod(np.arange(P.size), n)
    order = np.lexsort((cols, rows, -P.ravel()))
    for k in ks:
        got = top_k_select(P, k)
        want = (rows[order[:k]], cols[order[:k]], P.ravel()[order[:k]])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert g.tobytes() == w.tobytes()
