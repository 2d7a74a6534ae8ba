"""Entropic transport: forward feasibility, a closed-form fixed point,
the small-regularization limit, the over-relaxed loop against the plain
scaling loop it replaced, and the analytic backward pass against finite
differences and an extended-precision solve of the full KKT system.
"""

import itertools
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from blindpnp import transport
from blindpnp.assignment import hungarian
from blindpnp.errors import ValidationError
from blindpnp.losses import correspondence_loss, pose_loss
from blindpnp.pipeline import PipelineConfig, backward, solve
from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
from blindpnp.transport import (_ABSORB_MAX, _EPILOGUE_BYTES, _OMEGA_WINDOW,
                                TransportPlan, _kernel, _logsumexp_rows,
                                _plan_and_sums, sinkhorn_forward, sinkhorn_vjp,
                                transport_cost)

TINY = np.finfo(np.float64).tiny


def exp_plan(logK0, phi, psi):
    """The unfused exp(logK0 + phi[:, None] + psi[None, :])."""
    return np.exp(logK0 + phi[:, None] + psi[None, :])


def exp_form(M, mu, phi, psi, u, v):
    """The plan as exp(-M / mu + (phi + log u) + (psi + log v))."""
    return exp_plan(-M / mu, phi + np.log(u), psi + np.log(v))


def reference_plan(M, mu, K, phi, psi, u, v):
    """The final plan's rule on whole arrays: u_i K_ij v_j, except in each
    block of _EPILOGUE_BYTES of rows where K or that product holds a
    number that is not a normal float; such a block takes the exp form."""
    m, n = K.shape
    with np.errstate(over="ignore"):  # such a block takes the exp form
        P = K * u[:, None] * v[None, :]
    E = exp_form(M, mu, phi, psi, u, v)
    step = max(1, _EPILOGUE_BYTES // (8 * n))
    for i in range(0, m, step):
        block = np.abs(np.concatenate([K[i:i + step], P[i:i + step]]))
        if not np.all((block >= TINY) & (block < np.inf)):
            P[i:i + step] = E[i:i + step]
    return P


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def reference_scaling(M, mu, tol=1e-9, max_iterations=10000):
    """The plain stabilized scaling loop that over-relaxation replaced:
    u = r / Kv, v = c / K'u, with its log-sum-exp fallback and its
    in-loop absorption of scalings past _ABSORB_MAX into the
    potentials, which the library's loop replaced by the log-sum-exp
    step; kept here as the plain-loop reference.  Stopped on the row
    residual alone (after a plain v-update the columns match c).
    Returns (K, phi, psi, u, v, iterations), the state that the final
    plan is formed from."""
    m, n = M.shape
    r, c = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    logK0 = -M / mu
    phi, psi = np.zeros(m), np.zeros(n)
    K, u, v = np.exp(logK0), np.ones(m), np.ones(n)
    it = 0
    Kv = K @ v
    while it < max_iterations:
        it += 1
        KTu = None
        if np.all(Kv > 0.0) and np.all(np.isfinite(Kv)):
            u = r / Kv
            KTu = K.T @ u
        if KTu is None or np.any(KTu <= 0.0) or not np.all(np.isfinite(KTu)):
            psi = psi + np.log(v)
            phi = np.log(r) - _logsumexp_rows(logK0 + psi[None, :])
            psi = np.log(c) - _logsumexp_rows((logK0 + phi[:, None]).T)
            K, u, v = exp_plan(logK0, phi, psi), np.ones(m), np.ones(n)
        else:
            v = c / KTu
            if max(u.max(), v.max()) > _ABSORB_MAX \
                    or min(u.min(), v.min()) < 1.0 / _ABSORB_MAX:
                phi, psi = phi + np.log(u), psi + np.log(v)
                K, u, v = exp_plan(logK0, phi, psi), np.ones(m), np.ones(n)
        Kv = K @ v
        if np.max(np.abs(u * Kv - r)) <= 0.5 * tol:
            break
    return K, phi, psi, u, v, it


def reference_sinkhorn(M, mu, tol=1e-9, max_iterations=10000):
    """`reference_scaling` with the final plan and its residual."""
    m, n = M.shape
    r, c = np.full(m, 1.0 / m), np.full(n, 1.0 / n)
    K, phi, psi, u, v, it = reference_scaling(M, mu, tol, max_iterations)
    P = reference_plan(M, mu, K, phi, psi, u, v)
    residual = max(np.max(np.abs(P.sum(axis=1) - r)),
                   np.max(np.abs(P.sum(axis=0) - c)))
    return TransportPlan(P=P, iterations=it, residual=float(residual),
                         converged=residual <= tol)


def marginal_residual(P):
    m, n = P.shape
    return max(np.max(np.abs(P.sum(axis=1) - 1.0 / m)),
               np.max(np.abs(P.sum(axis=0) - 1.0 / n)))


def outlier_train_case(seed, index):
    """An instance of the 30 %-outlier train workload (n = 200, 2 px
    pixel noise, oracle cost of sharpness 1 with noise 0.3), built from
    SeedSequence([seed, index]) the way the benchmark builds it."""
    inst_seed, cost_seed = (int(s) for s in np.random.SeedSequence(
        [seed, index]).generate_state(2))
    inst = generate_instance(SynthConfig(
        n_points=200, pixel_noise_sigma=2.0, outlier_fraction=0.3,
        seed=inst_seed))
    return inst, oracle_cost(inst, 1.0, noise_sigma=0.3, seed=cost_seed)


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


def bordered_kkt_vjp(P, mu, G, digits=40):
    """dL/dM = -x from [[diag(mu/P), A', 0], [A, 0, v], [0, v', 0]]
    [x; lam; t] = [G; 0; 0] in mpmath, A the (m + n) x mn marginal
    constraint matrix and v = (1_m, -1_n) its left null vector."""
    m, n = P.shape
    k = m * n
    size = k + m + n + 1
    with mpmath.workdps(digits):
        K = mpmath.zeros(size, size)
        rhs = mpmath.zeros(size, 1)
        for i in range(m):
            for j in range(n):
                e = i * n + j
                K[e, e] = mpmath.mpf(mu) / mpmath.mpf(P[i, j])
                for c in (k + i, k + m + j):
                    K[e, c] = K[c, e] = 1
                rhs[e] = mpmath.mpf(G[i, j])
        for c in range(m + n):
            K[c + k, size - 1] = K[size - 1, c + k] = 1 if c < m else -1
        x = mpmath.lu_solve(K, rhs)
        return -np.array([float(x[e]) for e in range(k)]).reshape(m, n)


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
            assert plan.converged
            assert np.max(np.abs(plan.P.sum(axis=1) - 1.0 / m)) <= 1e-8
            assert np.max(np.abs(plan.P.sum(axis=0) - 1.0 / n)) <= 1e-8
            assert np.all(plan.P > 0)

    def test_constant_shift_invariance(self, rng):
        M = rng.uniform(0, 2, (6, 9))
        base = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        shifted = sinkhorn_forward(M + 1.7, mu=0.1, tol=1e-12)
        np.testing.assert_allclose(base.P, shifted.P, atol=1e-9)

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
        with pytest.raises(ValidationError, match="tolerance"):
            sinkhorn_forward(np.ones((2, 2)), mu=0.1, tol=-1.0)
        with pytest.raises(ValidationError, match="max_iterations"):
            sinkhorn_forward(np.ones((2, 2)), mu=0.1, max_iterations=-3)
        # the check runs per block of rows: a NaN in the last one, and
        # huge finite entries
        M = np.zeros((2, _EPILOGUE_BYTES // 8))
        M[1, -1] = np.nan
        with pytest.raises(ValidationError, match="non-finite"):
            sinkhorn_forward(M, mu=0.1)
        plan = sinkhorn_forward(np.full((3, 4), 1e308), mu=1e308)
        assert plan.converged and np.all(plan.P == plan.P[0, 0])

    @pytest.mark.parametrize("oracle", [False, True])
    @pytest.mark.parametrize("anneal", [False, True])
    def test_no_floating_point_warning(self, oracle, anneal):
        # M / -mu overflows in the kernel and again in the final plan's
        # exp form; the oracle cost (noise 0.988 makes negative entries)
        # overflows the kernel at mu 0.00359
        if oracle:
            inst = generate_instance(SynthConfig(n_points=57, seed=191721757))
            M = oracle_cost(inst, 0.658, noise_sigma=0.988, seed=189845671)
            mu = 0.00359
        else:
            M, mu = np.array([[1e306, 0.0], [0.0, 1e306]]), 0.001
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn_forward(M, mu=mu, max_iterations=200,
                                    anneal=anneal)
        assert np.all(np.isfinite(plan.P))
        assert plan.converged or oracle

    def test_peak_memory_is_one_plan(self):
        # the kernel is built in the plan's buffer and scaled into the
        # plan; keeping -M/mu beside the kernel took 2.01 plans
        inst = generate_instance(SynthConfig(n_points=1000, seed=0))
        M = oracle_cost(inst, 5.0)
        tracemalloc.start()
        tracemalloc.reset_peak()
        sinkhorn_forward(M, mu=0.1)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= 1.2 * M.nbytes

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_exp_plan_matches_unfused_expression(self, data):
        # the kernel built in place from M = -logK0 at mu = 1; any finite
        # float, so signed zeros, overflow to inf, inf - inf = nan and
        # all-zero potentials all occur
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 6))
        finite = st.floats(allow_nan=False, allow_infinity=False)
        logK0 = data.draw(arrays(np.float64, (m, n), elements=finite))
        phi = data.draw(arrays(np.float64, (m,), elements=finite))
        psi = data.draw(arrays(np.float64, (n,), elements=finite))
        with np.errstate(all="ignore"):
            want = exp_plan(logK0, phi, psi)
            got = _kernel(-logK0, 1.0, phi, psi, np.empty((m, n)))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def assert_scaled_near_exp_form(M, mu, K, phi, psi, u, v):
    """The plan that `_plan_and_sums` forms from a scaling state is
    positive exactly where the exp form is, and within 1e-13 of it,
    relative, on every entry that is a normal float in both."""
    E = exp_form(M, mu, phi, psi, u, v)
    P, _, _ = _plan_and_sums(M, mu, K.copy(), phi, psi, u, v)
    assert np.array_equal(P > 0, E > 0)
    normal = (P >= TINY) & (E >= TINY)
    assert np.all(np.abs(P[normal] - E[normal]) <= 1e-13 * E[normal])


class TestBlockedEpilogue:
    """The final plan and its marginals, formed _EPILOGUE_BYTES of rows
    at a time: u K v by the rule of `reference_plan`, against the exp
    form and the whole-plan sums."""

    @settings(deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_same_bits_as_whole_plan_sums(self, data):
        row = _EPILOGUE_BYTES // 8  # one block's entries
        n = data.draw(st.one_of(st.integers(2, 700),
                                st.integers(row - 2, row + 3000), st.just(1)))
        step = max(1, row // n)  # rows per block
        m = data.draw(st.one_of(st.integers(step + 1, 4 * step - 1),
                                st.just(1), st.just(2 * step)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1.0, 30.0, 400.0]))
        mu = 0.1
        logK0 = rng.normal(-3.0, scale, (m, n))
        phi = rng.normal(0.0, scale, m)
        psi = rng.normal(0.0, scale, n)
        # scalings inside the loop's absorption bounds 1e-130 and 1e130
        u = np.exp(rng.uniform(-1.0, 1.0, m) * min(scale, 290.0))
        v = np.exp(rng.uniform(-1.0, 1.0, n) * min(scale, 290.0))
        # shifted so that neither K nor a row or column sum overflows; at
        # scale 30 and 400 entries run down past underflow, to subnormals
        # and zeros, and whole blocks take the exp form
        shifted = logK0 + phi[:, None] + psi[None, :]
        top = max(shifted.max(),
                  np.max(shifted + np.log(u)[:, None] + np.log(v)[None, :]))
        ceiling = np.log(np.finfo(np.float64).max) - np.log(max(m, n)) - 1.0
        M = -mu * (logK0 - max(0.0, top - ceiling))
        if data.draw(st.booleans()):
            M = np.asfortranarray(M)
        K = np.ascontiguousarray(exp_plan(-M / mu, phi, psi))
        want = reference_plan(M, mu, K, phi, psi, u, v)
        got, rows, cols = _plan_and_sums(M, mu, K, phi, psi, u, v)
        assert got is K
        assert np.all(np.isfinite(rows)) and np.all(np.isfinite(cols))
        for g, w in [(got, want), (rows, want.sum(axis=1)),
                     (cols, want.sum(axis=0))]:
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize("n, sharpness, noise, outliers", [
        (500, 5.0, 0.0, 0.0), (500, 1.0, 0.3, 0.0), (200, 1.0, 0.3, 0.3)])
    def test_scaled_plan_near_exp_form_on_workload_plans(
            self, n, sharpness, noise, outliers):
        # the inputs of the three benchmark workloads, n capped at 500
        inst = generate_instance(SynthConfig(
            n_points=n, pixel_noise_sigma=2.0, outlier_fraction=outliers,
            seed=7))
        M = oracle_cost(inst, sharpness, noise_sigma=noise, seed=7)
        assert_scaled_near_exp_form(M, 0.1, *reference_scaling(M, 0.1)[:5])

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(n=st.integers(2, 60), sharpness=st.floats(0.5, 8.0),
           mu=st.floats(0.02, 0.5), noise=st.sampled_from([0.0, 0.3, 1.0]),
           outliers=st.sampled_from([0.0, 0.3]),
           iterations=st.sampled_from([1, 30, 300]), seed=st.integers(0, 999))
    def test_scaled_plan_near_exp_form(self, n, sharpness, mu, noise,
                                       outliers, iterations, seed):
        # the state after a given number of plain scaling steps
        inst = generate_instance(SynthConfig(n_points=n, seed=seed,
                                             outlier_fraction=outliers))
        M = oracle_cost(inst, sharpness, noise_sigma=noise, seed=seed)
        state = reference_scaling(M, mu, max_iterations=iterations)
        assert_scaled_near_exp_form(M, mu, *state[:5])

    def test_underflowing_blocks_take_the_exp_form(self, monkeypatch):
        # a spread cost at small mu underflows in the rows of every other
        # block: those blocks are the exp form bit for bit, and the plan
        # is positive exactly where the exp form is
        m, n, mu = 48, 20000, 0.01
        step = _EPILOGUE_BYTES // (8 * n)
        spread = (np.arange(m) // step) % 2 == 1
        rng = np.random.default_rng(5)
        M = rng.uniform(0.0, 1.0, (m, n))
        M[spread] *= 10.0  # down to exp(-1000) = 0
        states = []

        def spy(M, mu, K, phi, psi, u, v):
            states.append((K.copy(), phi, psi, u, v))
            return _plan_and_sums(M, mu, K, phi, psi, u, v)

        monkeypatch.setattr(transport, "_plan_and_sums", spy)
        P = sinkhorn_forward(M, mu=mu, max_iterations=50).P
        K, phi, psi, u, v = states[0]
        E = exp_form(M, mu, phi, psi, u, v)
        assert np.array_equal(P > 0, E > 0)
        assert not np.all(E[spread] > 0) and np.all(E[~spread] >= TINY)
        for i in range(0, m, step):
            block = slice(i, i + step)
            if spread[i]:
                assert P[block].tobytes() == E[block].tobytes()
            else:
                assert np.all(P[block] >= TINY)
                assert np.array_equal(P[block], K[block] * u[block, None] * v)

    @pytest.mark.parametrize("shape", [(500, 500), (1, 300), (300, 1),
                                       (70000, 3), (4, 140000)])
    def test_forward_same_bits_as_plain_loop(self, shape):
        # several blocks, a partial last block, one row, one column, and
        # rows wider than a block
        if shape == (500, 500):
            inst = generate_instance(SynthConfig(n_points=500, seed=1))
            M = oracle_cost(inst, 5.0, noise_sigma=0.1, seed=1)
        else:
            M = np.random.default_rng(3).uniform(0.0, 0.1, shape)
        want = reference_sinkhorn(M, 0.1)
        assert want.iterations < 30
        got = sinkhorn_forward(M, mu=0.1)
        assert got.iterations == want.iterations
        assert got.P.tobytes() == want.P.tobytes()
        assert got.residual == want.residual


class TestOverRelaxation:
    @pytest.mark.parametrize("sharpness, mu", [(5.0, 0.1), (1.0, 1.0),
                                               (0.5, 0.5)])
    def test_same_bits_as_plain_loop_before_omega_moves(self, sharpness,
                                                         mu):
        # omega is first estimated after a full window; a solve that ends
        # sooner runs the plain expressions and returns the plain plan
        for seed in range(4):
            inst = generate_instance(SynthConfig(n_points=80, seed=seed))
            M = oracle_cost(inst, sharpness, noise_sigma=0.1, seed=seed)
            want = reference_sinkhorn(M, mu)
            assert want.iterations < _OMEGA_WINDOW
            got = sinkhorn_forward(M, mu=mu)
            assert got.iterations == want.iterations
            assert got.P.tobytes() == want.P.tobytes()

    @pytest.mark.parametrize("index", range(4))
    def test_cuts_iterations_on_workload_plans(self, index):
        # the plain loop takes 290-1214 iterations on these plans; omega
        # must move early for the solve to need a quarter of that
        _, M = outlier_train_case(7, index)
        tol = 1e-9
        plan = sinkhorn_forward(M, mu=0.1, tol=tol)
        want = reference_sinkhorn(M, 0.1, tol=tol)
        assert plan.converged and want.converged
        assert np.max(np.abs(plan.P - want.P)) <= 2.0 * tol
        assert plan.iterations <= want.iterations / 4

    def test_benchmark_instance_that_stalled_the_plain_loop(self):
        # seed 208, instance 131 of the outlier train workload: the plain
        # loop stops at the 10000-iteration cap with residual 1.39e-7,
        # so the transport backward refused the plan
        inst, M = outlier_train_case(208, 131)
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-9, max_iterations=10000)
        assert plan.converged and plan.iterations < 2000
        assert marginal_residual(plan.P) <= 1e-9
        config = PipelineConfig(mu=0.1)
        result = solve(M, inst, config)
        _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                     inst.points, inst.gt_pose,
                                     config.loss.theta, gt_pairs=inst.gt_pairs)
        dM = backward(result, inst, config, dlc,
                      pose_loss(result.refined_pose, inst.gt_pose).grad)
        assert dM.shape == M.shape and np.all(np.isfinite(dM))

    def test_log_sum_exp_fallback_when_every_row_underflows(self,
                                                            monkeypatch):
        # exp(-M / mu) is 0 in every entry, so the first scaling step
        # cannot form K v and the exact log-domain update takes over
        M = np.random.default_rng(3).uniform(0.8, 1.2, (30, 20))
        assert not np.exp(-M / 0.001).any()
        calls = []

        def spy(A):
            calls.append(A.shape)
            return _logsumexp_rows(A)

        monkeypatch.setattr(transport, "_logsumexp_rows", spy)
        tol = 1e-9
        plan = sinkhorn_forward(M, mu=0.001, tol=tol)
        assert calls  # the fallback ran
        assert plan.converged and marginal_residual(plan.P) <= tol
        want = reference_sinkhorn(M, 0.001, tol=tol)
        assert want.converged
        assert np.max(np.abs(plan.P - want.P)) <= 2.0 * tol

    @pytest.mark.parametrize("cause", ["kernel overflows",
                                       "scaling out of range"])
    def test_each_cause_takes_the_log_sum_exp_step(self, monkeypatch, cause):
        # an infinite kernel entry makes K v infinite; a row offset by
        # 322 mu keeps the kernel normal (about 1e-140) but asks for a row
        # scaling past _ABSORB_MAX.  Both fail the one range test, and
        # the exact step runs where the loop once absorbed the scalings
        if cause == "kernel overflows":
            M, mu = np.array([[-8.0, 0.0], [0.0, -8.0]]), 0.01
            assert -M.min() / mu > np.log(np.finfo(np.float64).max)
        else:
            mu = 0.1
            M = np.random.default_rng(4).uniform(0.0, 1.0, (30, 20))
            M[0] += 322.0 * mu
            K = np.exp(-M / mu)
            assert K.min() >= TINY
            assert (1.0 / 30.0) / K[0].sum() > _ABSORB_MAX
        calls = []

        def spy(A):
            calls.append(A.shape)
            return _logsumexp_rows(A)

        monkeypatch.setattr(transport, "_logsumexp_rows", spy)
        tol = 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn_forward(M, mu=mu, tol=tol)
        assert calls  # the log-sum-exp step ran
        assert plan.converged and marginal_residual(plan.P) <= tol
        want = reference_sinkhorn(M, mu, tol=tol)
        assert want.converged
        assert np.max(np.abs(plan.P - want.P)) <= 2.0 * tol

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(n=st.integers(2, 60), sharpness=st.floats(0.5, 8.0),
           mu=st.floats(0.02, 0.5), noise=st.sampled_from([0.0, 0.3, 1.0]),
           outliers=st.sampled_from([0.0, 0.3]),
           tol=st.sampled_from([1e-9, 1e-12]), seed=st.integers(0, 999))
    def test_converges_where_the_plain_loop_does_to_the_same_plan(
            self, n, sharpness, mu, noise, outliers, tol, seed):
        inst = generate_instance(SynthConfig(n_points=n, seed=seed,
                                             outlier_fraction=outliers))
        M = oracle_cost(inst, sharpness, noise_sigma=noise, seed=seed)
        plan = sinkhorn_forward(M, mu=mu, tol=tol)
        want = reference_sinkhorn(M, mu, tol=tol)
        if plan.converged:
            assert marginal_residual(plan.P) <= tol
        if want.converged:
            assert plan.converged
            assert np.max(np.abs(plan.P - want.P)) <= 2.0 * tol

    @settings(deadline=None, derandomize=True, database=None, max_examples=40)
    @given(n=st.integers(2, 40), sharpness=st.floats(0.5, 8.0),
           mu=st.floats(0.001, 0.05), noise=st.sampled_from([0.3, 1.0]),
           outliers=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 999))
    def test_small_mu_plan_is_the_plain_loops_plan(self, n, sharpness, mu,
                                                   noise, outliers, seed):
        # cost noise makes negative entries, so the kernel overflows at
        # small mu and the log-sum-exp step runs.  Whether the loop
        # converges where the plain loop does is not asserted here: near
        # the cap, oscillating omega can lose a plan the plain loop keeps
        inst = generate_instance(SynthConfig(n_points=n, seed=seed,
                                             outlier_fraction=outliers))
        M = oracle_cost(inst, sharpness, noise_sigma=noise, seed=seed)
        tol = 1e-9
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = sinkhorn_forward(M, mu=mu, tol=tol)
        assert np.all(np.isfinite(plan.P)) and np.all(plan.P >= 0.0)
        if plan.converged:
            assert marginal_residual(plan.P) <= tol
            want = reference_sinkhorn(M, mu, tol=tol)
            if want.converged:
                assert np.max(np.abs(plan.P - want.P)) <= 2.0 * tol


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
        plan = TransportPlan(P=np.array([[0.5, 0.0], [0.0, 0.5]]),
                             iterations=1, residual=0.0, converged=True)
        with pytest.raises(ValidationError, match="positive"):
            sinkhorn_vjp(None, plan, 0.1, np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_grad_rejected(self, rng, bad):
        # used to surface as a CG NumericalError at residual nan
        plan = sinkhorn_forward(rng.uniform(0, 1, (3, 4)), mu=0.1)
        G = rng.standard_normal((3, 4))
        G[1, 2] = bad
        with pytest.raises(ValidationError, match="grad_P"):
            sinkhorn_vjp(None, plan, 0.1, G)

    def test_nan_in_bare_plan_rejected(self):
        P = np.full((2, 2), 0.25)
        P[0, 1] = np.nan
        plan = TransportPlan(P=P, iterations=1, residual=0.0, converged=True)
        with pytest.raises(ValidationError, match="positive"):
            sinkhorn_vjp(None, plan, 0.1, np.ones((2, 2)))

    def test_infeasible_plan_rejected(self, rng):
        M = rng.uniform(0, 1, (3, 3))
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        bad = TransportPlan(P=plan.P, iterations=plan.iterations,
                            residual=1e-3, converged=False)
        with pytest.raises(ValidationError):
            sinkhorn_vjp(M, bad, 0.1, np.ones((3, 3)))

    def test_unconverged_plan_rejected_at_any_residual(self, rng):
        # the backward takes the forward's own verdict: a plan that
        # missed the 1e-9 tolerance is refused even at a small residual
        M = rng.uniform(0, 1, (3, 3))
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-12)
        bad = TransportPlan(P=plan.P, iterations=plan.iterations,
                            residual=1e-7, converged=False)
        with pytest.raises(ValidationError, match="did not converge"):
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
        assert peak <= 28 * m * n

    @pytest.mark.parametrize("shape, sharp", [
        ((4, 5), False), ((5, 4), False), ((1, 4), False), ((4, 1), False),
        ((4, 5), True), ((5, 4), True), ((5, 5), True)])
    def test_matches_bordered_kkt_in_extended_precision(self, shape, sharp):
        # reference: the full KKT system of the forward, with every
        # marginal constraint and one bordering row fixing the constant
        # that moves between row and column multipliers, solved in
        # 40-digit arithmetic for the same float plan
        m, n = shape
        rng = np.random.default_rng(m * 10 + n + 100 * sharp)
        mu = 0.1
        if sharp:  # near-permutation: off-pattern entries ~ exp(-50)
            M = np.full(shape, 5.0)
            M[np.arange(min(m, n)), np.arange(min(m, n))] = 0.0
        else:
            M = rng.uniform(0.0, 1.0, shape)
        plan = sinkhorn_forward(M, mu=mu)
        assert plan.converged
        G = rng.standard_normal(shape)
        got = sinkhorn_vjp(M, plan, mu, G)
        want = bordered_kkt_vjp(plan.P, mu, G)
        scale = np.abs(plan.P / mu * G).sum(axis=0).max()
        assert np.max(np.abs(got - want)) <= 1e-9 * scale
        if not sharp and min(shape) > 1:  # one row or column: dL/dM = 0
            assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    @settings(deadline=None, derandomize=True, database=None, max_examples=60)
    @given(n=st.integers(2, 60), sharpness=st.floats(0.5, 8.0),
           mu=st.floats(0.02, 0.5), noise=st.sampled_from([0.0, 0.3, 1.0]),
           outliers=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 999))
    def test_total_on_every_converged_plan(self, n, sharpness, mu, noise,
                                           outliers, seed):
        # a CG solve that hits its iteration cap raises NumericalError
        inst = generate_instance(SynthConfig(n_points=n, seed=seed,
                                             outlier_fraction=outliers))
        M = oracle_cost(inst, sharpness, noise_sigma=noise, seed=seed)
        plan = sinkhorn_forward(M, mu=mu)
        assume(plan.converged)
        G = np.random.default_rng(seed).standard_normal(M.shape)
        dM = sinkhorn_vjp(M, plan, mu, G)
        assert np.all(np.isfinite(dM))
        # adding a constant to a row or column of M leaves P unchanged
        scale = np.abs(plan.P / mu * G).sum(axis=0).max()
        assert np.abs(dM.sum(axis=1)).max() <= 1e-9 * scale
        assert np.abs(dM.sum(axis=0)).max() <= 1e-9 * scale
