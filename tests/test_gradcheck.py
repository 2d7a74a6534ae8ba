"""The gradient-check harness itself: metric behavior, bug detection,
and singular-case reporting."""

import numpy as np
import pytest

from blindpnp.gradcheck import (ALL_CHECKS, check_end_to_end,
                                check_loss_gradients, check_pnp_gradient,
                                check_pnp_second_order, check_pnp_vjp,
                                check_sinkhorn_vjp, relative_errors, run_all)


class TestMetric:
    def test_exact_match_is_zero(self):
        a = np.array([1.0, -2.0, 0.5])
        assert np.max(relative_errors(a, a)) == 0.0

    def test_small_entries_use_scale_floor(self):
        # an absolute error far below the gradient's scale must not blow
        # up through a near-zero denominator
        ref = np.array([1.0, 1e-9])
        approx = np.array([1.0, 2e-9])
        errs = relative_errors(approx, ref)
        np.testing.assert_allclose(errs[1], 1e-9 / 0.01, rtol=1e-12)

    def test_relative_on_dominant_entries(self):
        ref = np.array([2.0])
        approx = np.array([2.2])
        assert abs(relative_errors(approx, ref)[0] - 0.1) <= 1e-12


class TestChecksPass:
    def test_sinkhorn_vjp(self):
        assert check_sinkhorn_vjp(seeds=range(2)).passed

    def test_pnp_gradient(self):
        assert check_pnp_gradient(seeds=range(2)).passed

    def test_pnp_second_order(self):
        assert check_pnp_second_order(seeds=range(2)).passed

    def test_pnp_vjp(self):
        assert check_pnp_vjp(seeds=range(2), probes_per_case=4).passed

    def test_loss_gradients(self):
        assert check_loss_gradients(seeds=range(2)).passed

    def test_end_to_end(self):
        assert check_end_to_end(seeds=[2], probes_per_case=6).passed


class TestInjectedBugDetection:
    # a sign flip in the analytic quantity must flip each check to FAIL

    def test_sinkhorn_vjp(self):
        assert not check_sinkhorn_vjp(seeds=range(1), corrupt=True).passed

    def test_pnp_gradient(self):
        assert not check_pnp_gradient(seeds=range(1), corrupt=True).passed

    def test_pnp_second_order(self):
        assert not check_pnp_second_order(seeds=range(1), corrupt=True).passed

    def test_pnp_vjp(self):
        assert not check_pnp_vjp(seeds=range(1), probes_per_case=3,
                                 corrupt=True).passed

    def test_loss_gradients(self):
        assert not check_loss_gradients(seeds=range(1), corrupt=True).passed

    def test_end_to_end(self):
        assert not check_end_to_end(seeds=[2], probes_per_case=4,
                                    corrupt=True).passed

    def test_run_all_injects_into_named_check_only(self):
        results = run_all(names=["loss_gradients", "pnp_gradient"],
                          inject_bug="loss_gradients", seeds_per_check=1)
        by_name = {r.name: r for r in results}
        assert not by_name["pose-loss-gradient-vs-fd"].passed
        assert by_name["pnp-objective-gradient-vs-fd"].passed


class TestSingularCases:
    def test_single_pair_reported_expected_singular(self):
        # a one-pair pose problem is underdetermined; the harness notes
        # it instead of failing
        result = check_pnp_second_order(seeds=range(1), n=1)
        assert result.passed
        assert any("expected-singular" in note for note in result.notes)

    def test_vjp_single_pair_also_noted(self):
        result = check_pnp_vjp(seeds=range(1), n=1)
        assert result.passed
        assert any("expected-singular" in note for note in result.notes)


class TestSizes:
    @pytest.mark.parametrize("check", [check_pnp_vjp])
    def test_fewer_entries_than_probes(self, check):
        # 9 weight entries, fewer than the 12 probes a case asks for: every
        # entry is probed, and the cases are compared, not skipped
        result = check(seeds=range(2), n=3, probes_per_case=12)
        assert result.passed
        assert result.cases == 2
        assert not result.notes

    @pytest.mark.parametrize("check", [check_pnp_second_order, check_pnp_vjp])
    def test_two_points_are_expected_singular(self, check):
        # two bearings fix only 4 of the 6 pose coordinates; an arbitrary
        # null-space gradient must not be compared against the re-solve
        result = check(seeds=range(10), n=2)
        assert result.passed
        assert len(result.notes) == 10
        assert all("expected-singular" in note for note in result.notes)


class TestNoCases:
    @pytest.mark.parametrize("name", sorted(ALL_CHECKS))
    def test_no_seeds_does_not_pass(self, name):
        # a check that compared nothing has shown nothing
        result = ALL_CHECKS[name](seeds=[])
        assert not result.passed
        assert result.cases == 0


def test_all_checks_registry_complete():
    assert set(ALL_CHECKS) == {"sinkhorn_vjp", "pnp_gradient",
                               "pnp_second_order", "pnp_vjp",
                               "loss_gradients", "end_to_end"}
