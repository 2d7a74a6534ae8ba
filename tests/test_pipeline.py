"""End-to-end composition: forward recovery, chained backward, the
alternation baseline, and the metrics helpers."""

import numpy as np
import pytest

from blindpnp.errors import StageError, ValidationError
from blindpnp.geometry import Pose, geodesic_rotation_angle, translation_error
from blindpnp.losses import correspondence_loss
from blindpnp.pipeline import (PipelineConfig, alternation_baseline, backward,
                               quartiles, recall, solve)
from blindpnp.pose_solvers import RansacConfig
from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
from blindpnp.transport import sinkhorn_vjp
from blindpnp.weighted_pnp import PnPSolverConfig

POLISHED = PipelineConfig(
    ransac=RansacConfig(seed=0),
    solver=PnPSolverConfig(newton_polish=True))


def noiseless_instance(n=50, seed=11):
    return generate_instance(SynthConfig(n_points=n, seed=seed,
                                         pixel_noise_sigma=0.0))


class TestForward:
    def test_recovers_pose_on_clean_instance(self):
        inst = noiseless_instance()
        result = solve(oracle_cost(inst, 5.0), inst, POLISHED)
        assert geodesic_rotation_angle(result.refined_pose.matrix(),
                                       inst.gt_pose.matrix()) <= 2e-5 * np.pi / 180
        assert translation_error(result.refined_pose.t, inst.gt_pose.t) <= 1e-5
        assert not result.diagnostics["low_inlier"]

    def test_deterministic(self):
        inst = noiseless_instance(seed=3)
        M = oracle_cost(inst, 5.0)
        a = solve(M, inst, POLISHED)
        b = solve(M, inst, POLISHED)
        np.testing.assert_array_equal(a.refined_pose.as_vector(),
                                      b.refined_pose.as_vector())
        np.testing.assert_array_equal(a.plan.P, b.plan.P)

    def test_uniform_cost_degrades_gracefully(self):
        inst = noiseless_instance(n=30, seed=5)
        result = solve(np.ones((30, 30)), inst, POLISHED)
        assert result.diagnostics["low_inlier"]

    def test_shape_mismatch_rejected(self):
        inst = noiseless_instance(n=10, seed=5)
        with pytest.raises(ValidationError):
            solve(np.ones((9, 10)), inst, POLISHED)

    def test_stage_errors_identify_stage(self):
        inst = noiseless_instance(n=10, seed=5)
        bad = PipelineConfig(mu=0.1, ransac=RansacConfig(seed=0),
                             k_factor=0.2)  # k < 4 candidates
        with pytest.raises(StageError) as err:
            solve(oracle_cost(inst, 5.0), inst, bad)
        assert err.value.stage == "ransac"


class TestBackward:
    def _case(self):
        inst = generate_instance(SynthConfig(n_points=8, seed=2,
                                             pixel_noise_sigma=0.5))
        M = oracle_cost(inst, sharpness=0.8, noise_sigma=0.2, seed=9)
        config = PipelineConfig(
            sinkhorn_tol=1e-13, ransac=RansacConfig(seed=4),
            solver=PnPSolverConfig(newton_polish=True,
                                   polish_tolerance=1e-14))
        return inst, M, config

    def test_zero_gradients_give_zero(self):
        inst, M, config = self._case()
        result = solve(M, inst, config)
        out = backward(result, inst, config, np.zeros((8, 8)), np.zeros(6))
        np.testing.assert_array_equal(out, np.zeros((8, 8)))

    def test_correspondence_only_path_equals_transport_backward(self):
        # with no pose gradient the chain collapses to the transport
        # layer's backward applied to the direct term
        inst, M, config = self._case()
        result = solve(M, inst, config)
        _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                     inst.points, inst.gt_pose, 0.01,
                                     gt_pairs=inst.gt_pairs)
        full = backward(result, inst, config, dlc, np.zeros(6))
        direct = sinkhorn_vjp(M, result.plan, config.mu, dlc)
        np.testing.assert_array_equal(full, direct)

    def test_linear_in_upstream_gradients(self, rng):
        inst, M, config = self._case()
        result = solve(M, inst, config)
        gP = rng.standard_normal((8, 8))
        gpose = rng.standard_normal(6)
        a = backward(result, inst, config, gP, gpose)
        b = backward(result, inst, config, 2.0 * gP, 2.0 * gpose)
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-9,
                                   atol=1e-12 * np.max(np.abs(a)))

    def test_matches_end_to_end_finite_differences(self):
        from blindpnp.gradcheck import check_end_to_end
        result = check_end_to_end(seeds=[2], probes_per_case=8)
        assert result.passed, result.failures

    def test_correspondence_only_gradients_finite_everywhere(self):
        # the correspondence-only chain must stay finite and bounded by
        # the direct gradient scale times the transport backward's
        # empirical operator bound, over many random instances; plans the
        # transport solve flags as unconverged are skipped, exactly as a
        # training loop would
        config = PipelineConfig(ransac=RansacConfig(seed=1),
                                sinkhorn_anneal=True)
        skipped = 0
        for seed in range(100):
            inst = generate_instance(SynthConfig(n_points=6, seed=seed,
                                                 pixel_noise_sigma=1.0))
            M = oracle_cost(inst, sharpness=0.6, noise_sigma=0.2, seed=seed)
            result = solve(M, inst, config)
            if not result.plan.converged:
                skipped += 1
                continue
            _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                         inst.points, inst.gt_pose, 0.01,
                                         gt_pairs=inst.gt_pairs)
            dM = backward(result, inst, config, dlc, np.zeros(6))
            assert np.all(np.isfinite(dM))
            # operator bound: |W (alpha + beta - G)| with |G| = 1 and the
            # reduced-system solution bounded by the plan scale over mu
            assert np.max(np.abs(dM)) \
                <= np.max(np.abs(dlc)) * 3.0 * np.max(result.plan.P) / config.mu
        assert skipped <= 5


class TestAlternation:
    def test_ground_truth_is_fixed_point(self):
        inst = noiseless_instance(n=100, seed=21)
        result = alternation_baseline(inst, inst.gt_pose, theta=0.05)
        assert not result.stalled
        assert geodesic_rotation_angle(result.pose.matrix(),
                                       inst.gt_pose.matrix()) <= 1e-9
        assert translation_error(result.pose.t, inst.gt_pose.t) <= 1e-9
        assert result.rounds <= 3

    def test_converges_from_nearby_init(self):
        inst = noiseless_instance(n=100, seed=21)
        init = Pose(inst.gt_pose.r + np.radians(5.0) / np.sqrt(3),
                    inst.gt_pose.t + np.array([0.05, -0.05, 0.05]))
        result = alternation_baseline(inst, init, theta=0.05)
        assert geodesic_rotation_angle(result.pose.matrix(),
                                       inst.gt_pose.matrix()) <= 1e-4
        assert translation_error(result.pose.t, inst.gt_pose.t) <= 1e-4

    def test_far_init_does_not_crash(self):
        # local methods have no accuracy contract outside the basin
        inst = noiseless_instance(n=50, seed=22)
        far = Pose(inst.gt_pose.r + np.array([np.pi / 2, 0, 0]),
                   inst.gt_pose.t)
        result = alternation_baseline(inst, far, theta=0.01, max_rounds=10)
        assert result.rounds <= 10

    def test_empty_correspondences_stall(self):
        inst = noiseless_instance(n=20, seed=23)
        away = Pose(np.array([np.pi, 0.0, 0.0]), np.zeros(3))
        result = alternation_baseline(inst, away, theta=0.001)
        assert result.stalled
        np.testing.assert_array_equal(result.pose.as_vector(),
                                      away.as_vector())


class TestEvaluate:
    def test_quartile_convention(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_single_value_quartiles(self):
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)

    def test_recall_strictly_below(self):
        assert recall([1.0, 2.0, 3.0, 4.0, 5.0], [3.0]) == [0.4]
