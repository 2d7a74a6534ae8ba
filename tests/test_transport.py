"""Entropic transport: forward feasibility, a closed-form fixed point,
the small-regularization limit, and the analytic backward pass against
finite differences.
"""

import itertools
import tracemalloc

import numpy as np
import pytest

from blindpnp.assignment import hungarian
from blindpnp.errors import ValidationError
from blindpnp.transport import (TransportPlan, pairwise_cost, sinkhorn_forward,
                                sinkhorn_vjp, transport_cost, uniform_priors)


def fd_vjp(M, G, mu, step=1e-6, tol=1e-12):
    """Finite-difference oracle for the backward pass."""
    m, n = M.shape
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            Mp = M.copy()
            Mp[i, j] += step
            Mm = M.copy()
            Mm[i, j] -= step
            up = sinkhorn_forward(Mp, mu=mu, tol=tol, max_iterations=100000)
            dn = sinkhorn_forward(Mm, mu=mu, tol=tol, max_iterations=100000)
            out[i, j] = (np.sum(G * up.P) - np.sum(G * dn.P)) / (2 * step)
    return out


class TestForward:
    def test_one_by_one_forced(self):
        plan = sinkhorn_forward(np.array([[3.7]]), mu=0.1)
        np.testing.assert_allclose(plan.P, [[1.0]], atol=1e-12)
        assert plan.converged

    def test_constant_cost_uniform_plan(self):
        plan = sinkhorn_forward(np.full((4, 6), 2.5), mu=0.1)
        np.testing.assert_allclose(plan.P, np.full((4, 6), 1.0 / 24.0),
                                   atol=1e-12)

    def test_symmetric_2x2_closed_form(self):
        # doubly symmetric fixed point: scaling factors are equal on both
        # sides, so the diagonal entry a solves 2a(1 + e^{-c/mu}) = 1
        c = 0.1
        plan = sinkhorn_forward(np.array([[0.0, c], [c, 0.0]]), mu=0.1,
                                tol=1e-14, max_iterations=100000)
        a = 1.0 / (2.0 * (1.0 + np.exp(-1.0)))
        np.testing.assert_allclose(plan.P, [[a, a * np.exp(-1)],
                                            [a * np.exp(-1), a]], atol=1e-13)

    def test_plain_iteration_oracle_confirms_closed_form(self):
        # independent oracle: raw scaling iterations, no stabilization
        c, mu = 0.1, 0.1
        K = np.exp(-np.array([[0.0, c], [c, 0.0]]) / mu)
        r = np.full(2, 0.5)
        u = np.ones(2)
        v = np.ones(2)
        for _ in range(100000):
            u = r / (K @ v)
            v = r / (K.T @ u)
        P = u[:, None] * K * v[None, :]
        a = 1.0 / (2.0 * (1.0 + np.exp(-1.0)))
        np.testing.assert_allclose(P, [[a, a * np.exp(-1)],
                                       [a * np.exp(-1), a]], atol=1e-14)

    def test_marginals_feasible(self, rng):
        for _ in range(20):
            m, n = rng.integers(1, 40, 2)
            M = rng.uniform(0, 3, (m, n))
            plan = sinkhorn_forward(M, mu=0.1)
            r, c = uniform_priors(m, n)
            assert plan.converged
            assert np.max(np.abs(plan.P.sum(axis=1) - r)) <= 1e-8
            assert np.max(np.abs(plan.P.sum(axis=0) - c)) <= 1e-8
            assert np.all(plan.P > 0)

    def test_constant_shift_invariance(self, rng):
        M = rng.uniform(0, 2, (6, 9))
        base = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        shifted = sinkhorn_forward(M + 1.7, mu=0.1, tol=1e-12)
        np.testing.assert_allclose(base.P, shifted.P, atol=1e-9)

    def test_nonuniform_priors(self, rng):
        r = rng.uniform(0.5, 2.0, 5)
        r /= r.sum()
        c = rng.uniform(0.5, 2.0, 7)
        c /= c.sum()
        plan = sinkhorn_forward(rng.uniform(0, 1, (5, 7)), row_prior=r,
                                col_prior=c, mu=0.2)
        assert np.max(np.abs(plan.P.sum(axis=1) - r)) <= 1e-8
        assert np.max(np.abs(plan.P.sum(axis=0) - c)) <= 1e-8

    def test_small_mu_approaches_assignment(self, rng):
        # exact-transport limit; the assignment side is verified by brute
        # force so the comparison chain has an independent anchor
        for _ in range(5):
            M = rng.uniform(0, 1, (5, 5))
            pairs = hungarian(M)
            best = M[pairs[:, 0], pairs[:, 1]].sum()
            brute = min(sum(M[i, p[i]] for i in range(5))
                        for p in itertools.permutations(range(5)))
            assert abs(best - brute) <= 1e-12
            costs = []
            for mu in (0.1, 0.01, 0.001):
                plan = sinkhorn_forward(M, mu=mu, tol=1e-9,
                                        max_iterations=20000, anneal=True)
                costs.append(transport_cost(M, plan.P))
            assert costs[0] >= costs[1] >= costs[2] - 1e-12
            assert abs(costs[2] - brute / 5.0) <= 0.02 * brute / 5.0

    def test_nonconvergence_flagged_not_raised(self, rng):
        M = rng.uniform(0, 1, (6, 6))
        plan = sinkhorn_forward(M, mu=0.001, tol=1e-12, max_iterations=5)
        assert not plan.converged
        assert plan.iterations == 5

    def test_validation(self, rng):
        with pytest.raises(ValidationError):
            sinkhorn_forward(np.ones((2, 2)), mu=0.0)
        with pytest.raises(ValidationError):
            sinkhorn_forward(np.array([[np.inf, 1.0], [1.0, 1.0]]), mu=0.1)
        with pytest.raises(ValidationError):
            sinkhorn_forward(np.ones((2, 2)), row_prior=[0.5, 0.5],
                             col_prior=[0.9, 0.3], mu=0.1)


class TestBackward:
    def test_zero_gradient_zero_output(self, rng):
        M = rng.uniform(0, 1, (4, 5))
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        out = sinkhorn_vjp(M, plan, 0.1, np.zeros((4, 5)))
        np.testing.assert_array_equal(out, np.zeros((4, 5)))

    def test_matches_finite_differences(self, rng):
        mu = 0.1
        M = rng.uniform(0.05, 2.0, (8, 10))
        G = rng.standard_normal((8, 10))
        plan = sinkhorn_forward(M, mu=mu, tol=1e-12)
        analytic = sinkhorn_vjp(M, plan, mu, G)
        fd = fd_vjp(M, G, mu)
        rel = np.max(np.abs(analytic - fd)) / np.max(np.abs(fd))
        assert rel <= 1e-5

    def test_linearity_in_upstream_gradient(self, rng):
        M = rng.uniform(0, 1, (5, 6))
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        g1 = rng.standard_normal((5, 6))
        g2 = rng.standard_normal((5, 6))
        lhs = sinkhorn_vjp(M, plan, 0.1, g1 + g2)
        rhs = sinkhorn_vjp(M, plan, 0.1, g1) + sinkhorn_vjp(M, plan, 0.1, g2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_symmetry_preserved(self):
        # the 2x2 symmetric instance: a gradient sharing the symmetry
        # group produces an output sharing it too
        c, mu = 0.1, 0.1
        M = np.array([[0.0, c], [c, 0.0]])
        plan = sinkhorn_forward(M, mu=mu, tol=1e-14, max_iterations=100000)
        G = np.array([[1.0, -1.0], [-1.0, 1.0]])
        out = sinkhorn_vjp(M, plan, mu, G)
        assert abs(out[0, 0] - out[1, 1]) <= 1e-12
        assert abs(out[0, 1] - out[1, 0]) <= 1e-12
        fd = fd_vjp(M, G, mu)
        rel = np.max(np.abs(out - fd)) / np.max(np.abs(fd))
        assert rel <= 1e-5

    def test_degenerate_plan_rejected(self):
        P = np.array([[0.5, 0.0], [0.0, 0.5]])
        with pytest.raises(ValidationError):
            sinkhorn_vjp(None, P, 0.1, np.ones((2, 2)))

    def test_infeasible_plan_rejected(self, rng):
        M = rng.uniform(0, 1, (3, 3))
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        bad = TransportPlan(P=plan.P, iterations=plan.iterations,
                            residual=1e-3, converged=False)
        with pytest.raises(ValidationError):
            sinkhorn_vjp(M, bad, 0.1, np.ones((3, 3)))

    def test_single_row_and_column_edges(self, rng):
        for shape in ((1, 1), (1, 5), (5, 1)):
            M = rng.uniform(0, 1, shape)
            plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
            G = rng.standard_normal(shape)
            analytic = sinkhorn_vjp(M, plan, 0.1, G)
            fd = fd_vjp(M, G, 0.1)
            scale = max(np.max(np.abs(fd)), 1e-12)
            assert np.max(np.abs(analytic - fd)) / scale <= 1e-5 \
                or np.max(np.abs(analytic - fd)) <= 1e-10

    def test_auxiliary_memory_stays_linear_in_mn(self):
        # allocation accounting: everything the backward allocates must
        # stay within a small constant times the plan's own footprint
        m = n = 500
        rng = np.random.default_rng(0)
        M = rng.uniform(0, 1, (m, n))
        plan = sinkhorn_forward(M, mu=0.1)
        G = rng.standard_normal((m, n))
        sinkhorn_vjp(M, plan, 0.1, G)  # warm up BLAS buffers
        tracemalloc.start()
        tracemalloc.reset_peak()
        sinkhorn_vjp(M, plan, 0.1, G)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 64 * m * n


class TestPairwiseCost:
    def test_identical_single_vectors(self):
        np.testing.assert_allclose(pairwise_cost([[1.0, 2.0]], [[1.0, 2.0]]),
                                   [[0.0]], atol=1e-15)

    def test_unit_basis_vectors(self):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0]])
        np.testing.assert_allclose(pairwise_cost(a, b), [[np.sqrt(2)]],
                                   atol=1e-15)

    def test_matches_naive_loop(self, rng):
        a = rng.standard_normal((7, 16))
        b = rng.standard_normal((9, 16))
        expected = np.zeros((7, 9))
        for i in range(7):
            for j in range(9):
                expected[i, j] = np.sqrt(np.sum((a[i] - b[j]) ** 2))
        np.testing.assert_allclose(pairwise_cost(a, b), expected, atol=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValidationError):
            pairwise_cost(rng.standard_normal((3, 4)),
                          rng.standard_normal((3, 5)))
