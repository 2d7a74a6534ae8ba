"""End-to-end composition: forward recovery, chained backward, the
alternation baseline, and the metrics helpers."""

import tracemalloc
from dataclasses import astuple, fields

import numpy as np
import pytest

from blindpnp.assignment import candidate_count, top_k_select
from blindpnp.errors import NumericalError, StageError, ValidationError
from blindpnp.geometry import Pose, geodesic_rotation_angle, translation_error
from blindpnp.losses import correspondence_loss, pose_loss
from blindpnp.pipeline import (PipelineConfig, StageSeconds,
                               alternation_baseline, backward, quartiles,
                               recall, solve)
from blindpnp.pose_solvers import RansacConfig
from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
from blindpnp.transport import sinkhorn_vjp
from blindpnp.weighted_pnp import PnPSolverConfig

SEEDED = PipelineConfig(ransac=RansacConfig(seed=0))


def noiseless_instance(n=50, seed=11):
    return generate_instance(SynthConfig(n_points=n, seed=seed,
                                         pixel_noise_sigma=0.0))


class TestForward:
    def test_recovers_pose_on_clean_instance(self):
        inst = noiseless_instance()
        result = solve(oracle_cost(inst, 5.0), inst, SEEDED)
        assert geodesic_rotation_angle(result.refined_pose.matrix(),
                                       inst.gt_pose.matrix()) <= 2e-5 * np.pi / 180
        assert translation_error(result.refined_pose.t, inst.gt_pose.t) <= 1e-5
        assert not result.ransac_estimate.low_inlier

    def test_deterministic(self):
        inst = noiseless_instance(seed=3)
        M = oracle_cost(inst, 5.0)
        a = solve(M, inst, SEEDED)
        b = solve(M, inst, SEEDED)
        np.testing.assert_array_equal(a.refined_pose.as_vector(),
                                      b.refined_pose.as_vector())
        np.testing.assert_array_equal(a.plan.P, b.plan.P)

    def test_stage_times_sum_to_total(self):
        inst = noiseless_instance(n=30, seed=5)
        seconds = solve(oracle_cost(inst, 5.0), inst, SEEDED).seconds
        assert [f.name for f in fields(StageSeconds)] \
            == ["transport", "top_k", "ransac", "refine"]
        stages = astuple(seconds)
        assert all(value >= 0.0 for value in stages)
        assert seconds.total == sum(stages)

    @pytest.mark.parametrize("seed", range(8))
    def test_default_refine_converges_on_sharp_plan(self, seed):
        # the refined pose must reach the 1e-9 gradient tolerance with the
        # default config, or the implicit backward refuses it
        inst = generate_instance(SynthConfig(n_points=100, seed=seed))
        result = solve(oracle_cost(inst, 5.0), inst)
        assert result.refined.converged, result.refined.gradient_norm

    def test_uniform_cost_degrades_gracefully(self):
        inst = noiseless_instance(n=30, seed=5)
        result = solve(np.ones((30, 30)), inst, SEEDED)
        assert result.ransac_estimate.low_inlier

    def test_shape_mismatch_rejected(self):
        inst = noiseless_instance(n=10, seed=5)
        with pytest.raises(ValidationError):
            solve(np.ones((9, 10)), inst, SEEDED)

    @pytest.mark.parametrize("field, value", [
        *(pytest.param("mu", v, id=str(v)) for v in (0.0, -0.1, np.nan)),
        ("k_factor", 0.0), ("k_factor", -1.5), ("k_factor", np.nan),
        ("k_factor", np.inf), ("sinkhorn_tol", -1.0),
        ("sinkhorn_tol", np.nan), ("sinkhorn_max_iterations", -3)])
    def test_mu_must_be_positive(self, field, value):
        # and every other setting outside its range is rejected on build
        with pytest.raises(ValidationError, match=field):
            PipelineConfig(**{field: value})

    def test_stage_errors_identify_stage(self):
        inst = noiseless_instance(n=10, seed=5)
        bad = PipelineConfig(mu=0.1, ransac=RansacConfig(seed=0),
                             k_factor=0.2)  # k < 4 candidates
        with pytest.raises(StageError) as err:
            solve(oracle_cost(inst, 5.0), inst, bad)
        assert err.value.stage == "ransac"

    def test_nan_cost_is_a_transport_error(self):
        inst = noiseless_instance(n=10, seed=5)
        M = oracle_cost(inst, 5.0)
        M[3, 4] = np.nan
        with pytest.raises(StageError) as err:
            solve(M, inst, SEEDED)
        assert err.value.stage == "transport"

    def test_refine_failure_is_a_refine_error(self, monkeypatch):
        def failing_pnp_solve(problem, config):
            raise NumericalError("injected")

        monkeypatch.setattr("blindpnp.pipeline.pnp_solve", failing_pnp_solve)
        inst = noiseless_instance(n=10, seed=5)
        with pytest.raises(StageError) as err:
            solve(oracle_cost(inst, 5.0), inst, SEEDED)
        assert err.value.stage == "refine"
        assert isinstance(err.value.original, NumericalError)


class TestBackward:
    @staticmethod
    def _noisy_case(config):
        inst = generate_instance(SynthConfig(n_points=40, seed=6))
        M = oracle_cost(inst, 1.0, noise_sigma=0.3, seed=6)
        return inst, solve(M, inst, config)

    def test_unconverged_refine_is_a_refine_backward_error(self):
        config = PipelineConfig(ransac=RansacConfig(seed=0),
                                solver=PnPSolverConfig(max_iterations=0))
        inst, result = self._noisy_case(config)
        with pytest.raises(StageError) as err:
            backward(result, inst, config, np.zeros((40, 40)), np.ones(6))
        assert err.value.stage == "refine-backward"
        assert "did not converge" in str(err.value)

    def test_unconverged_plan_is_a_transport_backward_error(self):
        config = PipelineConfig(ransac=RansacConfig(seed=0),
                                sinkhorn_max_iterations=1)
        inst, result = self._noisy_case(config)
        assert not result.plan.converged
        with pytest.raises(StageError) as err:
            backward(result, inst, config, np.ones((40, 40)), np.zeros(6))
        assert err.value.stage == "transport-backward"
        assert "did not converge" in str(err.value)

    def _case(self):
        inst = generate_instance(SynthConfig(n_points=8, seed=2,
                                             pixel_noise_sigma=0.5))
        M = oracle_cost(inst, sharpness=0.8, noise_sigma=0.2, seed=9)
        config = PipelineConfig(
            sinkhorn_tol=1e-13, ransac=RansacConfig(seed=4))
        return inst, M, config

    @pytest.mark.parametrize("n", [200, 1000])
    def test_readme_training_example(self, n):
        # README's library example: the oracle cost at sharpness 5 gives
        # a near-permutation plan (smallest entry ~1e-25), where the
        # marginal system's Schur complement is rounding-level
        inst = generate_instance(SynthConfig(n_points=n, seed=0))
        M = oracle_cost(inst, sharpness=5.0)
        result = solve(M, inst, PipelineConfig())
        _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                     inst.points, inst.gt_pose, theta=0.01,
                                     gt_pairs=inst.gt_pairs)
        pl = pose_loss(result.refined_pose, inst.gt_pose)
        dM = backward(result, inst, PipelineConfig(), dlc, pl.grad)
        assert dM.shape == M.shape
        assert np.all(np.isfinite(dM))

    def test_peak_memory_is_one_plan_and_grad_P_is_kept(self):
        # the pose path's fresh dense gradient takes grad_P and then
        # dL/dM; a new array for the sum and another for dL/dM took 2.02
        # plans.  With no pose gradient, dL/dM is the one new array.
        inst = generate_instance(SynthConfig(n_points=1000, seed=0))
        M = oracle_cost(inst, sharpness=5.0)
        config = PipelineConfig()
        result = solve(M, inst, config)
        _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                     inst.points, inst.gt_pose, theta=0.01,
                                     gt_pairs=inst.gt_pairs)
        kept = dlc.copy()
        for grad_pose in [pose_loss(result.refined_pose, inst.gt_pose).grad,
                          np.zeros(6)]:
            backward(result, inst, config, dlc, grad_pose)  # warm up BLAS
            tracemalloc.start()
            tracemalloc.reset_peak()
            backward(result, inst, config, dlc, grad_pose)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak <= 1.2 * M.nbytes
            assert dlc.tobytes() == kept.tobytes()

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


class TestTrainLossGradientAtBenchmarkSizes:
    """dL/dM of the whole train loss (correspondence plus pose loss) at
    the benchmark's train sizes, where the blocked epilogues of the
    transport layer and the dense pose-layer collapse run over more than
    one row block: its directional derivative along one fixed random D
    against central differences of the forward at two step sizes.  A
    probe whose top-k candidate set moves crosses a discontinuity of
    RANSAC and is skipped.  The worst relative error measured on such
    cases is 5.4e-6; 1e-4 leaves room for it, while a corrupted pose
    vjp or transport epilogue errs by O(1): the pose term carries over
    90 % of these derivatives."""

    @pytest.mark.parametrize("n, outliers", [(200, 0.3), (1000, 0.0)])
    def test_directional_derivative_matches_central_differences(
            self, n, outliers):
        config = PipelineConfig(mu=0.1)
        inst = generate_instance(SynthConfig(
            n_points=n, pixel_noise_sigma=2.0, outlier_fraction=outliers,
            seed=1))
        M = oracle_cost(inst, 1.0, noise_sigma=0.3, seed=1)
        k = candidate_count(inst.m, inst.n, config.k_factor)

        def run(Mx):
            result = solve(Mx, inst, config)
            lc, dlc = correspondence_loss(
                result.plan.P, inst.bearings, inst.points, inst.gt_pose,
                config.loss.theta, gt_pairs=inst.gt_pairs)
            pl = pose_loss(result.refined_pose, inst.gt_pose)
            rows, cols, _ = top_k_select(result.plan.P, k)
            return result, lc + pl.total, dlc, pl.grad, set(zip(rows, cols))

        base, _, dlc, grad_pose, candidates = run(M)
        D = np.random.default_rng(0).standard_normal(M.shape)
        want = np.sum(backward(base, inst, config, dlc, grad_pose) * D)
        checked = 0
        for h in (1e-4, 1e-5):
            _, up, _, _, c_up = run(M + h * D)
            _, down, _, _, c_down = run(M - h * D)
            if c_up != candidates or c_down != candidates:
                continue
            checked += 1
            assert abs((up - down) / (2 * h) - want) <= 1e-4 * abs(want)
        assert checked


class TestAlternation:
    def test_ground_truth_is_fixed_point(self):
        inst = noiseless_instance(n=100, seed=21)
        result = alternation_baseline(inst, inst.gt_pose, theta=0.05)
        assert result.correspondences.shape[0] >= 4
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
        result = alternation_baseline(inst, far, theta=0.01)
        assert result.rounds <= 50

    def test_empty_correspondences_stall(self):
        inst = noiseless_instance(n=20, seed=23)
        away = Pose(np.array([np.pi, 0.0, 0.0]), np.zeros(3))
        result = alternation_baseline(inst, away, theta=0.001)
        assert result.rounds == 0 and result.correspondences.shape[0] < 4
        np.testing.assert_array_equal(result.pose.as_vector(),
                                      away.as_vector())

    def test_numerical_error_keeps_the_pose(self, monkeypatch):
        # the refit loop that RANSAC shares keeps the pose before a failed
        # refit, so the baseline reports that pose instead of raising
        def failing_pnp_solve(problem, config):
            raise NumericalError("injected")

        monkeypatch.setattr("blindpnp.pose_solvers.pnp_solve",
                            failing_pnp_solve)
        inst = noiseless_instance(n=100, seed=21)
        init = Pose(inst.gt_pose.r + 0.01, inst.gt_pose.t)
        result = alternation_baseline(inst, init, theta=0.05)
        assert result.rounds == 0 and result.correspondences.shape[0] >= 4
        np.testing.assert_array_equal(result.pose.as_vector(),
                                      init.as_vector())


class TestEvaluate:
    def test_quartile_convention(self):
        assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)

    def test_single_value_quartiles(self):
        assert quartiles([3.0]) == (3.0, 3.0, 3.0)

    def test_recall_strictly_below(self):
        assert recall([1.0, 2.0, 3.0, 4.0, 5.0], [3.0]) == [0.4]
