"""Synthetic instance generation, oracle probabilities, and file I/O."""

import numpy as np
import pytest

from blindpnp.assignment import top_k_select
from blindpnp.errors import InstanceFormatError, ValidationError
from blindpnp.geometry import ray_angles, transform_points
from blindpnp.synth import (EULER_CONVENTION, EULER_MAX, TRANSLATION_RANGE,
                            Z_OFFSET, PointSets, SynthConfig,
                            generate_instance, load_instance, oracle_cost,
                            save_instance)
from blindpnp.transport import sinkhorn_forward


def to_pixels(directions, K):
    """Pixel coordinates of camera-frame directions in front of the camera."""
    proj = directions @ K.T
    return proj[:, :2] / proj[:, 2:]


def pixel_residuals(instance, pose):
    """Per-pair pixel residuals of ground-truth pairs at a pose: for a
    generated instance, the injected pixel perturbations."""
    pairs = instance.gt_pairs
    observed = to_pixels(instance.bearings[pairs[:, 0]], instance.intrinsics)
    predicted = to_pixels(transform_points(pose, instance.points[pairs[:, 1]]),
                          instance.intrinsics)
    return observed - predicted


def euler_zyx_angles(R):
    """Inverse of the intrinsic Z-Y-X convention (oracle decomposition)."""
    pitch = np.arcsin(-R[2, 0])
    yaw = np.arctan2(R[1, 0], R[0, 0])
    roll = np.arctan2(R[2, 1], R[2, 2])
    return yaw, pitch, roll


class TestGeneration:
    def test_exact_construction_when_noiseless(self):
        inst = generate_instance(SynthConfig(n_points=60, seed=4,
                                             pixel_noise_sigma=0.0))
        pairs = inst.gt_pairs
        assert pairs.shape[0] == 60
        q = transform_points(inst.gt_pose, inst.points)
        assert np.all(ray_angles(inst.bearings[pairs[:, 0]],
                                 q[pairs[:, 1]]) <= 1e-6)

    def test_deterministic_per_seed(self):
        a = generate_instance(SynthConfig(n_points=200, seed=9))
        b = generate_instance(SynthConfig(n_points=200, seed=9))
        np.testing.assert_array_equal(a.bearings, b.bearings)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.gt_pose.r, b.gt_pose.r)
        np.testing.assert_array_equal(a.gt_pairs, b.gt_pairs)

    def test_different_seeds_differ(self):
        a = generate_instance(SynthConfig(n_points=50, seed=1))
        b = generate_instance(SynthConfig(n_points=50, seed=2))
        assert not np.array_equal(a.points, b.points)

    def test_pixel_noise_statistics(self):
        inst = generate_instance(SynthConfig(n_points=1000, seed=3,
                                             pixel_noise_sigma=2.0))
        res = pixel_residuals(inst, inst.gt_pose)
        assert abs(res.std() - 2.0) <= 0.15

    def test_bearings_unit_norm(self):
        inst = generate_instance(SynthConfig(n_points=300, seed=8))
        np.testing.assert_allclose(np.linalg.norm(inst.bearings, axis=1),
                                   1.0, atol=1e-12)

    def test_draws_stay_in_configured_ranges(self):
        # pose parameters recovered from the instance must respect the
        # sampling box (Euler angles via the inverse convention)
        for seed in range(50):
            inst = generate_instance(SynthConfig(n_points=20, seed=seed))
            R = inst.gt_pose.matrix()
            yaw, pitch, roll = euler_zyx_angles(R)
            for angle in (yaw, pitch, roll):
                assert -1e-9 <= angle <= EULER_MAX + 1e-9
            offset = inst.gt_pose.t - np.array([0.0, 0.0, Z_OFFSET])
            assert np.all(np.abs(offset) <= TRANSLATION_RANGE + 1e-12)
            assert np.all(np.abs(inst.points) <= 0.5 + 1e-12)

    def test_three_sigma_angular_inlier_bound(self):
        # 3-sigma pixel noise mapped through the focal length: pooled over
        # instances the miss rate stays at or below one percent
        theta = 3.0 * (2.0 / 800.0)
        hits = total = 0
        for seed in range(20):
            inst = generate_instance(SynthConfig(n_points=1000, seed=seed,
                                                 pixel_noise_sigma=2.0))
            q = transform_points(inst.gt_pose, inst.points)[inst.gt_pairs[:, 1]]
            f = inst.bearings[inst.gt_pairs[:, 0]]
            cos = np.sum(f * q / np.linalg.norm(q, axis=1, keepdims=True), 1)
            ang = np.arccos(np.clip(cos, -1.0, 1.0))
            hits += int(np.count_nonzero(ang <= theta))
            total += ang.size
        assert hits / total >= 0.99

    def test_outlier_fraction_removes_pairs(self):
        inst = generate_instance(SynthConfig(n_points=100, seed=5,
                                             outlier_fraction=0.3))
        assert inst.gt_pairs.shape[0] == 70
        assert inst.m == 100 and inst.n == 100

    def test_gt_pairs_are_a_shuffled_permutation(self):
        inst = generate_instance(SynthConfig(n_points=100, seed=6,
                                             pixel_noise_sigma=0.0))
        assert not np.array_equal(inst.gt_pairs[:, 0], inst.gt_pairs[:, 1])

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            SynthConfig(n_points=0)
        with pytest.raises(ValidationError):
            SynthConfig(pixel_noise_sigma=-1.0)
        with pytest.raises(ValidationError):
            SynthConfig(outlier_fraction=1.0)


class TestOracleProbability:
    def test_sharp_oracle_recovers_pairs(self):
        inst = generate_instance(SynthConfig(n_points=40, seed=7,
                                             pixel_noise_sigma=0.0))
        plan = sinkhorn_forward(oracle_cost(inst, sharpness=5.0), mu=0.1)
        rows, cols, _ = top_k_select(plan.P, inst.gt_pairs.shape[0])
        assert set(zip(rows.tolist(), cols.tolist())) \
            == set(map(tuple, inst.gt_pairs.tolist()))

    def test_zero_sharpness_uniform(self):
        inst = generate_instance(SynthConfig(n_points=10, seed=7))
        plan = sinkhorn_forward(oracle_cost(inst, sharpness=0.0), mu=0.1)
        np.testing.assert_allclose(plan.P, np.full((10, 10), 0.01), atol=1e-12)

    def test_single_point_instance(self):
        inst = generate_instance(SynthConfig(n_points=1, seed=7))
        plan = sinkhorn_forward(oracle_cost(inst, sharpness=3.0), mu=0.1)
        np.testing.assert_allclose(plan.P, [[1.0]], atol=1e-12)

    @pytest.mark.parametrize("sharpness, noise", [
        (np.nan, 0.0), (np.inf, 0.0), (5.0, -1.0), (5.0, np.nan),
        (5.0, np.inf)])
    def test_bad_settings_rejected(self, sharpness, noise):
        # a negative noise used to add no noise; NaN costs failed in transport
        inst = generate_instance(SynthConfig(n_points=5, seed=7))
        with pytest.raises(ValidationError, match="oracle cost"):
            oracle_cost(inst, sharpness, noise_sigma=noise)

    def test_requires_ground_truth(self):
        inst = generate_instance(SynthConfig(n_points=5, seed=7))
        stripped = PointSets(bearings=inst.bearings, points=inst.points,
                             intrinsics=inst.intrinsics)
        with pytest.raises(ValidationError):
            oracle_cost(stripped, sharpness=1.0)


class TestInstanceIO:
    def test_round_trip_field_exact(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=64, seed=13,
                                             outlier_fraction=0.1))
        path = tmp_path / "inst.txt"
        save_instance(inst, path)
        back = load_instance(path)
        np.testing.assert_array_equal(inst.bearings, back.bearings)
        np.testing.assert_array_equal(inst.points, back.points)
        np.testing.assert_array_equal(inst.intrinsics, back.intrinsics)
        np.testing.assert_array_equal(inst.gt_pose.r, back.gt_pose.r)
        np.testing.assert_array_equal(inst.gt_pose.t, back.gt_pose.t)
        np.testing.assert_array_equal(inst.gt_pairs, back.gt_pairs)
        assert inst.metadata == back.metadata
        assert back.metadata["euler_convention"] == EULER_CONVENTION

    def test_save_load_save_byte_identical(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=32, seed=14))
        p1 = tmp_path / "a.txt"
        p2 = tmp_path / "b.txt"
        save_instance(inst, p1)
        save_instance(load_instance(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_missing_bearings_section(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=4, seed=1))
        path = tmp_path / "broken.txt"
        save_instance(inst, path)
        lines = path.read_text().splitlines()
        start = lines.index("section bearings")
        del lines[start:start + 5]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError, match="bearings"):
            load_instance(path)

    def test_truncated_file(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=4, seed=1))
        path = tmp_path / "trunc.txt"
        save_instance(inst, path)
        content = path.read_text().splitlines()
        path.write_text("\n".join(content[:8]) + "\n")
        with pytest.raises(InstanceFormatError, match="truncated"):
            load_instance(path)

    def test_bad_number_diagnosed_with_line(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=4, seed=1))
        path = tmp_path / "bad.txt"
        save_instance(inst, path)
        lines = path.read_text().splitlines()
        idx = lines.index("section points") + 2
        lines[idx] = "0.1 oops 0.3"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError, match=f"line {idx + 1}"):
            load_instance(path)

    @pytest.mark.parametrize("section, offset, text", [
        ("section metadata", 1, "m five"),
        ("section metadata", 1, "m -1"),
        ("section gt_pairs", 1, "-2"),
        ("section gt_pairs", 2, "a b"),
        ("section gt_pairs", 2, "99999999999999999999 1")])
    def test_bad_integer_diagnosed_with_line(self, tmp_path, section, offset,
                                             text):
        inst = generate_instance(SynthConfig(n_points=4, seed=1))
        path = tmp_path / "bad.txt"
        save_instance(inst, path)
        lines = path.read_text().splitlines()
        idx = lines.index(section) + offset
        lines[idx] = text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(InstanceFormatError, match=f"line {idx + 1}:"):
            load_instance(path)

    def test_negative_gt_pair_rejected(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=4, seed=1))
        path = tmp_path / "negative.txt"
        save_instance(inst, path)
        lines = path.read_text().splitlines()
        idx = lines.index("section gt_pairs") + 2
        lines[idx] = "-1 " + lines[idx].split()[1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValidationError, match="out of range"):
            load_instance(path)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "alien.txt"
        path.write_text("some other format\n")
        with pytest.raises(InstanceFormatError, match="line 1"):
            load_instance(path)

    def test_ground_truth_sections_optional(self, tmp_path):
        inst = generate_instance(SynthConfig(n_points=4, seed=2))
        stripped = PointSets(bearings=inst.bearings, points=inst.points,
                             intrinsics=inst.intrinsics)
        path = tmp_path / "nogt.txt"
        save_instance(stripped, path)
        back = load_instance(path)
        assert back.gt_pose is None
        assert back.gt_pairs is None

    def test_solve_after_round_trip_is_bit_exact(self, tmp_path):
        # instances are exchangeable across the pipeline: solving the
        # reloaded instance reproduces the direct solve exactly
        from blindpnp.pipeline import PipelineConfig, solve
        from blindpnp.pose_solvers import RansacConfig

        inst = generate_instance(SynthConfig(n_points=25, seed=17,
                                             pixel_noise_sigma=0.0))
        path = tmp_path / "x.txt"
        save_instance(inst, path)
        loaded = load_instance(path)
        config = PipelineConfig(ransac=RansacConfig(seed=2))
        direct = solve(oracle_cost(inst, 5.0), inst, config)
        reloaded = solve(oracle_cost(loaded, 5.0), loaded, config)
        np.testing.assert_array_equal(direct.refined_pose.as_vector(),
                                      reloaded.refined_pose.as_vector())
        np.testing.assert_array_equal(direct.ransac_pose.as_vector(),
                                      reloaded.ransac_pose.as_vector())
        np.testing.assert_array_equal(direct.plan.P, reloaded.plan.P)
