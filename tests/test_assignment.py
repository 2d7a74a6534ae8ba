"""Assignment, pose-conditioned correspondences, and top-k selection.

The Hungarian step is checked against exhaustive permutation search for
sizes where that is feasible; the sparse one-to-one step against one
dense Hungarian over every pair; top-k against sort-everything.
"""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindpnp import assignment
from blindpnp.assignment import (_SAMPLE_STRIDE, _SENTINEL_COST, _TIE_CHUNK,
                                 candidate_count, correspondences_from_pose,
                                 hungarian, one_to_one, top_k_select)
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

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=200)
    @given(st.data())
    def test_same_pairs_as_scipy(self, data):
        # the oracle is scipy's solver, which the library does not import
        from scipy.optimize import linear_sum_assignment
        m = data.draw(st.integers(1, 40))
        n = data.draw(st.integers(1, 40))
        kind = data.draw(st.sampled_from(["uniform", "integer", "sentinel"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        if kind == "uniform":
            cost = rng.uniform(0.0, 1.0, (m, n))
        elif kind == "integer":  # ties everywhere
            cost = rng.integers(0, 4, (m, n)).astype(np.float64)
        else:  # a conflict sub-matrix as `one_to_one` builds it
            k = data.draw(st.integers(0, 2 * (m + n)))
            cost = np.full((m, n), _SENTINEL_COST)
            np.minimum.at(cost, (rng.integers(0, m, k), rng.integers(0, n, k)),
                          np.round(4.0 * rng.uniform(0.0, np.pi, k)) / 4.0)
        for c in (cost, cost.T):
            rows, cols = linear_sum_assignment(c)
            got = hungarian(c)
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, np.stack([rows, cols], axis=1))

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


def reference_one_to_one(pairs, costs):
    """The dense-sentinel form that one_to_one replaced: every row and
    column of the pair list goes into one Hungarian."""
    sentinel = 1e6
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64)
    rows, ri = np.unique(pairs[:, 0], return_inverse=True)
    cols, ci = np.unique(pairs[:, 1], return_inverse=True)
    if rows.size == pairs.shape[0] and cols.size == pairs.shape[0]:
        return pairs[np.argsort(pairs[:, 0])]  # already one-to-one
    cost = np.full((rows.size, cols.size), sentinel)
    np.minimum.at(cost, (ri, ci), costs)
    matches = hungarian(cost)
    matches = matches[cost[matches[:, 0], matches[:, 1]] < sentinel]
    return np.stack([rows[matches[:, 0]], cols[matches[:, 1]]], axis=1)


def random_pair_list(data, tied):
    """Up to 80 pairs over at most 40 x 40 indices, with repeats; costs
    in [0, pi], or multiples of 1/4 there when `tied`."""
    m = data.draw(st.integers(1, 40))
    n = data.draw(st.integers(1, 40))
    k = data.draw(st.integers(0, 80))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    pairs = np.stack([rng.integers(0, m, k), rng.integers(0, n, k)], axis=1)
    costs = rng.uniform(0.0, np.pi, k)
    if tied:
        costs = np.round(4.0 * costs) / 4.0
    return pairs, costs


def pair_costs(pairs, costs, chosen):
    """Each chosen pair's cost: its smallest over repeats in the list."""
    best = {}
    for (i, j), c in zip(pairs.tolist(), costs.tolist()):
        best[i, j] = min(c, best.get((i, j), np.inf))
    return [best[i, j] for i, j in chosen.tolist()]


class TestOneToOne:
    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_dense_reference_with_untied_costs(self, data):
        pairs, costs = random_pair_list(data, tied=False)
        got = one_to_one(pairs, costs)
        want = reference_one_to_one(pairs, costs)
        assert got.dtype == np.int64
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_tied_costs_keep_count_and_total(self, data):
        pairs, costs = random_pair_list(data, tied=True)
        got = one_to_one(pairs, costs)
        want = reference_one_to_one(pairs, costs)
        assert got.shape == want.shape
        # multiples of 1/4 below 2**40 sum exactly in any order
        assert sum(pair_costs(pairs, costs, got)) == \
            sum(pair_costs(pairs, costs, want))
        assert np.all(np.diff(got[:, 0]) > 0)
        assert np.unique(got[:, 1]).size == got.shape[0]
        assert set(map(tuple, got.tolist())) <= set(map(tuple, pairs.tolist()))

    def test_empty(self):
        got = one_to_one(np.zeros((0, 2), dtype=np.int64), np.zeros(0))
        assert got.shape == (0, 2) and got.dtype == np.int64

    def test_all_free_pairs_skip_the_hungarian(self, rng, monkeypatch):
        def fail(cost):
            raise AssertionError("hungarian called on a conflict-free list")
        monkeypatch.setattr(assignment, "hungarian", fail)
        perm = rng.permutation(50)
        pairs = np.stack([perm, rng.permutation(60)[:50]], axis=1)
        got = one_to_one(pairs, rng.uniform(0, 1, 50))
        np.testing.assert_array_equal(got, pairs[np.argsort(perm)])

    def test_single_conflict_component(self, monkeypatch):
        # rows 0, 1 and columns 0, 1 conflict; (5, 7) and (3, 2) are free.
        # Two pairs beat the cheapest single pair (0, 0).
        seen = []

        def spy(cost):
            seen.append(cost.shape)
            return hungarian(cost)
        monkeypatch.setattr(assignment, "hungarian", spy)
        pairs = np.array([[5, 7], [0, 0], [0, 1], [3, 2], [1, 0]])
        costs = np.array([0.3, 0.01, 0.5, 0.2, 0.6])
        got = one_to_one(pairs, costs)
        np.testing.assert_array_equal(got, [[0, 1], [1, 0], [3, 2], [5, 7]])
        assert seen == [(2, 2)]
        np.testing.assert_array_equal(got, reference_one_to_one(pairs, costs))

    def test_lengths_must_match(self):
        with pytest.raises(ValidationError):
            one_to_one([[0, 0], [1, 1]], [0.1])


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
        q = transform_points(pose, points)
        angles = ray_angles(noisy[:, None], q[None])
        assert np.all(angles[pairs[:, 0], pairs[:, 1]] <= theta)

    def test_pool_keeps_only_listed_pairs(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (30, 3))
        bearings = exact_bearings(pose, points)
        listed = np.stack([np.arange(0, 30, 2), np.arange(0, 30, 2)], axis=1)
        wrong = np.stack([np.arange(1, 30, 2), np.arange(0, 30, 2)], axis=1)
        pool = np.concatenate([wrong, listed])
        pairs = correspondences_from_pose(bearings, points, pose, 1e-3, pool)
        np.testing.assert_array_equal(pairs, listed)

    def test_pool_of_every_pair_matches_all_pairs(self, rng):
        # theta also at a true pair's own angle: that pair lies on the
        # boundary, so both paths must compute its angle bit for bit
        every = np.argwhere(np.ones((40, 40), dtype=bool))
        for _ in range(50):
            pose = random_pose(rng)
            points = rng.uniform(-0.5, 0.5, (40, 3))
            noisy = exact_bearings(pose, points) + rng.normal(0, 0.01, (40, 3))
            noisy /= np.linalg.norm(noisy, axis=1, keepdims=True)
            i = rng.integers(40)
            own = float(ray_angles(
                noisy[i], transform_points(pose, points)[i]))
            for theta in (0.02, own):
                np.testing.assert_array_equal(
                    correspondences_from_pose(noisy, points, pose, theta,
                                              every),
                    correspondences_from_pose(noisy, points, pose, theta))

    @pytest.mark.parametrize("bad", [[-1, 0], [10, 0], [0, 10]])
    def test_pool_index_out_of_range_rejected(self, rng, bad):
        # -1 would silently take the last bearing and come back as a pair
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (10, 3))
        bearings = exact_bearings(pose, points)
        pool = [[0, 0], [1, 1], bad]
        with pytest.raises(ValidationError, match="out of range"):
            correspondences_from_pose(bearings, points, pose, 0.01, pool)

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

    @pytest.mark.parametrize("levels", [(0.5, 0.25), (0.75, 0.5, 0.25)])
    def test_ties_across_chunk_boundaries(self, rng, levels):
        # 300 x 300 plans span two tie-scan chunks; per level, k takes
        # every tie in the first chunk and stops at its end, or goes on
        # 1 or 1000 entries into the second
        assert 300 * 300 > _TIE_CHUNK
        weights = np.array([0.02, 0.3, 0.68][-len(levels):])
        P = np.asarray(levels)[rng.choice(len(levels), size=(300, 300),
                                          p=weights / weights.sum())]
        flat = P.ravel()
        ks = [P.size]
        for level in levels:
            before = np.count_nonzero(flat > level)
            in_first = np.count_nonzero(flat[:_TIE_CHUNK] == level)
            assert in_first < np.count_nonzero(flat == level)
            ks += [before + in_first, before + in_first + 1,
                   before + in_first + 1000]
        assert_matches_lexsort_oracle(P, ks)

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


class TestSampledThreshold:
    """The sampled-threshold path of top_k_select, on plans whose every
    64th entry holds at least four times the threshold's rank."""

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_matches_lexsort_oracle(self, data):
        m = data.draw(st.integers(64, 200))
        n = data.draw(st.integers(64, 200))
        layout = data.draw(st.sampled_from(
            ["levels", "sharp", "on_stride", "off_stride"]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        P = stride_layout_plan(rng, m, n, layout, data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False),
            min_size=1, max_size=3)))
        # the largest k whose threshold rank the sample can hold
        sample = -(-P.size // _SAMPLE_STRIDE)
        sampled = _SAMPLE_STRIDE * ((sample // 4 - 16) // 2 + 1) - 1
        ks = [1, P.size] + data.draw(st.lists(
            st.integers(1, sampled), min_size=3, max_size=3)) + \
            data.draw(st.lists(st.integers(1, P.size), min_size=2,
                               max_size=2))
        assert_matches_lexsort_oracle(P, ks)

    @pytest.mark.parametrize("layout", ["on_stride", "off_stride", "sharp"])
    def test_rerun_only_when_top_entries_crowd_the_stride(self, rng, layout):
        # the stride-1 rerun negates a float copy of P (8 B/entry); the
        # sampled path copies 1/64 of it and lists the entries above t
        # and the ties in one _TIE_CHUNK
        P = stride_layout_plan(rng, 400, 500, layout, [0.5])
        k = 1000
        tracemalloc.start()
        tracemalloc.reset_peak()
        top_k_select(P, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        if layout == "on_stride":
            assert peak >= 8 * P.size
        else:
            assert peak <= 4 * P.size
        assert_matches_lexsort_oracle(P, [k])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [-1, _TIE_CHUNK + 1])
    def test_non_finite_after_the_last_needed_tie_rejected(self, rng, bad,
                                                          where):
        # every entry k needs lies in the first tie-scan chunk, and the
        # bad entry is off the sample's stride
        P = stride_layout_plan(rng, 300, 300, "sharp", [])
        assert where % _SAMPLE_STRIDE and P.size > _TIE_CHUNK + 1
        P.ravel()[where] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            top_k_select(P, 450)

    @pytest.mark.parametrize("sharpness, cost_noise", [(5.0, 0.0), (1.0, 0.3)])
    def test_peak_memory_below_one_byte_per_entry(self, sharpness,
                                                  cost_noise):
        inst = generate_instance(SynthConfig(n_points=1000, seed=0))
        P = sinkhorn_forward(oracle_cost(inst, sharpness, cost_noise),
                             mu=0.1).P
        k = candidate_count(*P.shape)
        tracemalloc.start()
        tracemalloc.reset_peak()
        top_k_select(P, k)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= P.size


def stride_layout_plan(rng, m, n, layout, levels):
    """An m x n plan with one of four layouts:
    levels     each entry one of `levels`, so ties decide the order;
    sharp      one entry 1/n per row at a random column, the rest 1e-20;
    on_stride  the entries at flat positions on the sample's stride
               high and distinct, the rest low, so the sampled
               threshold lies above the k-th value for most k;
    off_stride a random twentieth of the off-stride entries high, at
               three tied levels, none on the stride, so the sample
               sees only low values."""
    if layout == "levels":
        return np.asarray(levels)[rng.integers(0, len(levels), (m, n))]
    if layout == "sharp":
        P = np.full((m, n), 1e-20)
        P[np.arange(m), rng.integers(0, n, m)] = 1.0 / n
        return P
    P = rng.uniform(0.0, 0.1, (m, n))
    flat = P.ravel()
    on = np.arange(flat.size) % _SAMPLE_STRIDE == 0
    if layout == "on_stride":
        flat[on] = rng.uniform(1.0, 2.0, np.count_nonzero(on))
    else:
        off = np.flatnonzero(~on)
        high = rng.choice(off, off.size // 20, replace=False)
        flat[high] = 1.0 + rng.integers(0, 3, high.size) / 4.0
    return P


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
