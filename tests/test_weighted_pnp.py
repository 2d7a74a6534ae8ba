"""The weighted pose layer: objective, solver, second-order data, and
the implicit backward pass.

Finite-difference oracles re-derive every analytic quantity; re-solve
probes (tight solves certified by their own gradient norm) provide the
oracle for the backward pass.  The closed-form Hessian and the rank-3
backward are checked against the complex-step and dense forms they
replaced.
"""

import itertools
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blindpnp import weighted_pnp
from blindpnp.errors import (NumericalError, SingularHessianError,
                             ValidationError)
from blindpnp.geometry import (_SMALL_ANGLE_SQ, Pose, exp_so3,
                               geodesic_rotation_angle, log_so3,
                               so3_exp_and_derivatives, translation_error)
from blindpnp.weighted_pnp import (PnPProblem, PnPSolverConfig, PnPSolution,
                                   SparseWeights, _collapse_weights, _hessian,
                                   _value_and_gradient, pnp_objective,
                                   pnp_second_order, pnp_solve, pnp_vjp)

from conftest import exact_bearings, random_pose

_CS_STEP = 1e-20  # complex-step size; no subtractive cancellation


def reference_hessian(w, s, points, x, active):
    """The complex-step form that `_hessian` replaced: six complex-valued
    passes of the analytic gradient, one per pose coordinate."""
    H = np.empty((6, 6))
    for k in range(6):
        xc = x.astype(np.complex128)
        xc[k] += 1j * _CS_STEP
        _, grad, _ = _value_and_gradient(w, s, points, xc, active)
        H[:, k] = np.imag(grad) / _CS_STEP
    return 0.5 * (H + H.T)


def closed_form_hessian(w, s, points, x, active):
    """`_hessian` at x, on the terms that it takes computed there."""
    return _hessian(s, points, x, _value_and_gradient(w, s, points, x,
                                                      active)[2])


def reference_vjp(problem, solution, grad_pose, hessian=reference_hessian):
    """The dense form that `pnp_vjp` replaced: (F a' - (F u') * (u . a)) / |q|,
    two (m x 3) @ (3 x n) products, with a_j = J_j inv(H) grad_pose."""
    w, s, active = _collapse_weights(problem)
    x = solution.pose.canonical().as_vector()
    H = hessian(w, s, problem.points, x, active)
    z = np.linalg.solve(H, grad_pose)
    R, dR = so3_exp_and_derivatives(x[:3])
    q = problem.points @ R.T + x[3:]
    nq = np.sqrt(np.sum(q * q, axis=1))
    u = q / nq[:, None]
    a = np.einsum("k,kab,jb->ja", z[:3], dR, problem.points) + z[3:]
    F = problem.bearings
    ua = np.sum(u * a, axis=1)
    return (F @ a.T - (F @ u.T) * ua[None, :]) / nq[None, :]


def all_pairs(m, n):
    ii, jj = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    return np.stack([ii.ravel(), jj.ravel()], axis=1)


def concentrated_problem(rng, m=10, n=10, seed_pose=None, spread=0.4):
    """Weights biased toward the true diagonal matching."""
    pose = seed_pose or random_pose(rng)
    points = rng.uniform(-0.5, 0.5, (n, 3))
    bearings = exact_bearings(pose, points)
    if m > n:
        extra = exact_bearings(pose, rng.uniform(-0.5, 0.5, (m - n, 3)))
        bearings = np.vstack([bearings, extra])
    P = rng.uniform(0, 1, (m, n)) * spread
    k = min(m, n)
    P[np.arange(k), np.arange(k)] += 1.0
    P /= P.sum()
    return PnPProblem(bearings=bearings, points=points, weights=P, init=pose), pose


TIGHT = PnPSolverConfig(gradient_tolerance=1e-10)


def converged_at_init(problem):
    """A converged solution at the problem's init, as the backward entry
    points take it."""
    return PnPSolution(pose=problem.init, objective_value=0.0, converged=True,
                       gradient_norm=0.0, iterations=0)


ENTRY_POINTS = {
    "pnp_solve": pnp_solve,
    "pnp_objective": lambda problem: pnp_objective(problem, problem.init),
    "pnp_second_order": lambda problem: pnp_second_order(
        problem, converged_at_init(problem)),
    "pnp_vjp": lambda problem: pnp_vjp(problem, converged_at_init(problem),
                                       np.ones(6)),
}


def on_every_entry_point(argnames, cases):
    """Parametrize over `cases` and the four entry points, as `enter`.
    pnp_solve runs under each case's own id ("nan-True"), the others
    under that id and their name ("nan-True-pnp_vjp")."""
    return pytest.mark.parametrize(argnames + ", enter", [
        pytest.param(*case, enter, id="-".join(map(str, case))
                     + ("" if name == "pnp_solve" else "-" + name))
        for case in cases for name, enter in ENTRY_POINTS.items()])


class TestObjective:
    def test_zero_at_perfect_alignment(self, rng):
        problem, pose = concentrated_problem(rng, spread=0.0)
        value, _ = pnp_objective(problem, pose)
        assert 0.0 <= value <= 1e-12

    def test_zero_weights_vacuous_for_any_pose(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (5, 3))
        bearings = exact_bearings(pose, points)
        problem = PnPProblem(bearings=bearings, points=points,
                             weights=np.zeros((5, 5)), init=pose)
        for _ in range(5):
            value, grad = pnp_objective(problem, random_pose(rng))
            assert value == 0.0
            np.testing.assert_array_equal(grad, np.zeros(6))
        # no points at all: the dense weights have no columns
        empty = PnPProblem(bearings=bearings, points=np.zeros((0, 3)),
                           weights=np.zeros((5, 0)), init=pose)
        assert pnp_objective(empty, pose)[0] == 0.0
        assert pnp_solve(empty).converged

    def test_value_bounded_by_twice_weight_sum(self, rng):
        problem, _ = concentrated_problem(rng)
        for _ in range(10):
            value, _ = pnp_objective(problem, random_pose(rng, max_angle=3.0))
            assert 0.0 <= value <= 2.0 + 1e-12

    def test_gradient_matches_finite_differences(self, rng):
        problem, pose = concentrated_problem(rng)
        x = pose.as_vector() + rng.standard_normal(6) * 0.1
        _, grad = pnp_objective(problem, Pose.from_vector(x))
        h = 1e-6
        fd = np.zeros(6)
        for k in range(6):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            fd[k] = (pnp_objective(problem, Pose.from_vector(xp))[0]
                     - pnp_objective(problem, Pose.from_vector(xm))[0]) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-6

    def test_appending_zero_weight_pairs_is_exact_noop(self, rng):
        problem, pose = concentrated_problem(rng, m=6, n=6)
        probe = Pose.from_vector(pose.as_vector() + 0.05)
        all_pairs = np.stack(np.divmod(np.arange(36), 6), axis=1)
        values = np.asarray(problem.weights).ravel()
        base = PnPProblem(bearings=problem.bearings, points=problem.points,
                          weights=SparseWeights(pairs=all_pairs,
                                                values=values), init=pose)
        base_value, base_grad = pnp_objective(base, probe)
        extra = np.array([[0, 0], [2, 5], [5, 1]])
        extended = PnPProblem(
            bearings=problem.bearings, points=problem.points,
            weights=SparseWeights(pairs=np.vstack([all_pairs, extra]),
                                  values=np.concatenate([values, np.zeros(3)])),
            init=pose)
        value, grad = pnp_objective(extended, probe)
        assert value == base_value
        np.testing.assert_array_equal(grad, base_grad)

    def test_weighted_point_at_camera_center_raises(self):
        pose = Pose.identity()
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        bearings = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        P = np.array([[0.5, 0.0], [0.0, 0.5]])
        problem = PnPProblem(bearings=bearings, points=points, weights=P,
                             init=pose)
        with pytest.raises(NumericalError):
            pnp_objective(problem, pose)


class TestSolve:
    def test_ground_truth_init_is_fixed_point(self, rng):
        problem, pose = concentrated_problem(rng, m=20, n=20, spread=0.0)
        solution = pnp_solve(problem)
        assert solution.converged
        assert solution.iterations == 0
        np.testing.assert_allclose(solution.pose.as_vector(),
                                   pose.as_vector(), atol=1e-12)

    def test_perturbed_init_converges_to_truth(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (50, 3))
        bearings = exact_bearings(pose, points)
        P = np.zeros((50, 50))
        P[np.arange(50), np.arange(50)] = 1.0 / 50
        init = Pose(pose.r + np.radians(5.0) / np.sqrt(3), pose.t + 0.1)
        problem = PnPProblem(bearings=bearings, points=points, weights=P,
                             init=init)
        solution = pnp_solve(problem, TIGHT)
        assert solution.converged
        assert geodesic_rotation_angle(solution.pose.matrix(),
                                       pose.matrix()) <= 1e-6
        assert translation_error(solution.pose.t, pose.t) <= 1e-6

    @pytest.mark.parametrize("degrees", [20.0, 45.0, 90.0])
    def test_far_init_converges_to_truth(self, rng, degrees):
        # far from the optimum H is indefinite: only damped steps descend
        for _ in range(5):
            pose = random_pose(rng)
            points = rng.uniform(-0.5, 0.5, (50, 3))
            P = np.eye(50) / 50
            axis = rng.standard_normal(3)
            turn = exp_so3(np.radians(degrees) * axis / np.linalg.norm(axis))
            init = Pose(log_so3(turn @ pose.matrix()), pose.t)
            problem = PnPProblem(bearings=exact_bearings(pose, points),
                                 points=points, weights=P, init=init)
            solution = pnp_solve(problem)
            assert solution.converged
            assert geodesic_rotation_angle(solution.pose.matrix(),
                                           pose.matrix()) <= 1e-6
            assert translation_error(solution.pose.t, pose.t) <= 1e-6

    def test_singular_hessian_everywhere_is_damped(self, rng):
        # one pair constrains two of the six pose coordinates
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (1, 3))
        problem = PnPProblem(bearings=exact_bearings(pose, points),
                             points=points, weights=np.array([[1.0]]),
                             init=Pose(pose.r + 0.1, pose.t + 0.1))
        solution = pnp_solve(problem)
        assert solution.converged
        assert solution.objective_value <= 1e-12

    def test_newton_polish_field_has_no_effect(self, rng):
        problem, pose = concentrated_problem(rng)
        problem = PnPProblem(bearings=problem.bearings, points=problem.points,
                             weights=problem.weights,
                             init=Pose(pose.r + 0.05, pose.t + 0.05))
        a = pnp_solve(problem)
        b = pnp_solve(problem, PnPSolverConfig(newton_polish=True))
        np.testing.assert_array_equal(a.pose.as_vector(), b.pose.as_vector())
        assert (a.objective_value, a.gradient_norm, a.iterations) == \
            (b.objective_value, b.gradient_norm, b.iterations)

    @pytest.mark.parametrize("bad", [
        {"gradient_tolerance": np.nan}, {"gradient_tolerance": 0.0},
        {"gradient_tolerance": -1e-9}, {"max_iterations": -1}])
    def test_config_validation(self, bad):
        # a NaN tolerance would otherwise skip every step and report
        # "not converged" without a word
        with pytest.raises(ValidationError, match="refine"):
            PnPSolverConfig(**bad)
        assert PnPSolverConfig(max_iterations=0).max_iterations == 0

    @pytest.mark.parametrize("start", ["far", "converged"])
    def test_nan_hessian_raises(self, rng, monkeypatch, start):
        # "far" fails in the damped steps, "converged" (|g| already below
        # the tolerance) in the full Newton steps after them; a NaN H must
        # neither raise lam forever nor be taken as a step
        problem, pose = concentrated_problem(rng)
        init = Pose(pose.r + 0.05, pose.t + 0.05)
        if start == "converged":
            init = pnp_solve(PnPProblem(problem.bearings, problem.points,
                                        problem.weights, init)).pose
            assert np.linalg.norm(pnp_objective(problem, init)[1]) <= 1e-9
        problem = PnPProblem(problem.bearings, problem.points,
                             problem.weights, init)
        monkeypatch.setattr(weighted_pnp, "_hessian",
                            lambda *args: np.full((6, 6), np.nan))

        def hung(signum, frame):
            raise AssertionError("pnp_solve did not return in 20 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(20)
        try:
            with pytest.raises(NumericalError, match="not finite"):
                pnp_solve(problem)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @settings(deadline=None, derandomize=True, database=None,
              max_examples=30)
    @given(st.data())
    def test_scaled_weights_give_the_same_pose(self, data):
        # the minimizer ignores the scale of the weights, and so does the
        # stopping rule: a power of two commutes with every fp operation
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        n = data.draw(st.integers(6, 30))
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (n, 3))
        bearings = exact_bearings(pose, points)
        outliers = rng.uniform(size=n) < data.draw(st.sampled_from([0.0, 0.3]))
        wrong = rng.standard_normal((n, 3)) + np.array([0.0, 0.0, 3.0])
        bearings[outliers] = (wrong / np.linalg.norm(wrong, axis=1)[:, None]
                              )[outliers]
        P = rng.uniform(0.0, 0.3, (n, n)) * (rng.uniform(size=(n, n)) < 0.3)
        P[np.arange(n), np.arange(n)] += 1.0
        P /= P.sum()
        pairs = np.argwhere(P > 0)
        sparse = data.draw(st.booleans())
        init = Pose(pose.r + 0.05 * rng.standard_normal(3),
                    pose.t + 0.05 * rng.standard_normal(3))

        def solve(scale):
            weights = (SparseWeights(pairs, scale * P[pairs[:, 0], pairs[:, 1]])
                       if sparse else scale * P)
            return pnp_solve(PnPProblem(bearings, points, weights, init))

        base = solve(1.0)
        twice = solve(2.0 ** data.draw(st.integers(-30, 30)))
        assert twice.pose.as_vector().tobytes() == base.pose.as_vector().tobytes()
        assert (twice.iterations, twice.converged) == (base.iterations,
                                                       base.converged)
        scaled = solve(data.draw(st.floats(1e-3, 1e3)))
        np.testing.assert_allclose(scaled.pose.as_vector(),
                                   base.pose.as_vector(), rtol=0, atol=1e-9)
        assert scaled.converged == base.converged

    @on_every_entry_point("bad, normalized", [
        (np.nan, True), (np.nan, False), (np.inf, False)])
    def test_non_finite_dense_weights_rejected(self, rng, bad, normalized,
                                               enter):
        problem, pose = concentrated_problem(rng)
        P = np.array(problem.weights) * (1.0 if normalized else 3.0)
        P[2, 3] = bad
        broken = PnPProblem(bearings=problem.bearings, points=problem.points,
                            weights=P, init=pose)
        with pytest.raises(ValidationError):
            enter(broken)

    @on_every_entry_point("where, bad, sparse", itertools.product(
        ["bearing", "point"], [np.nan, np.inf, -np.inf], [False, True]))
    def test_non_finite_bearing_or_point_rejected(self, rng, where, bad,
                                                  sparse, enter):
        problem, pose = concentrated_problem(rng)
        bearings = np.array(problem.bearings)
        points = np.array(problem.points)
        if where == "bearing":
            bearings[3, 1] = bad
        else:
            points[6, 2] = bad
        weights = problem.weights
        if sparse:
            pairs = all_pairs(10, 10)
            weights = SparseWeights(pairs=pairs,
                                    values=np.asarray(weights).ravel())
        broken = PnPProblem(bearings=bearings, points=points,
                            weights=weights, init=pose)
        with pytest.raises(ValidationError):
            enter(broken)

    @on_every_entry_point("normalized", [(True,), (False,)])
    def test_nan_sparse_weight_rejected(self, rng, normalized, enter):
        problem, pose = concentrated_problem(rng)
        values = np.full(10, 0.1 if normalized else 0.3)
        values[4] = np.nan
        sparse = SparseWeights(pairs=np.stack([np.arange(10)] * 2, axis=1),
                               values=values)
        broken = PnPProblem(bearings=problem.bearings, points=problem.points,
                            weights=sparse, init=pose)
        with pytest.raises(ValidationError):
            enter(broken)

    @on_every_entry_point("i, j", [(10, 0), (0, 10), (-1, 0), (0, -1)])
    def test_out_of_range_sparse_pair_rejected(self, rng, i, j, enter):
        # a negative index would wrap to the last bearing or point
        problem, pose = concentrated_problem(rng)
        pairs = np.vstack([np.stack([np.arange(10)] * 2, axis=1), [[i, j]]])
        broken = PnPProblem(bearings=problem.bearings, points=problem.points,
                            weights=SparseWeights(pairs, np.full(11, 1 / 11)),
                            init=pose)
        with pytest.raises(ValidationError, match="out of range"):
            enter(broken)

    def test_sparse_and_dense_agree(self, rng):
        problem, pose = concentrated_problem(rng, m=8, n=8)
        P = np.asarray(problem.weights)
        ii, jj = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
        sparse = SparseWeights(pairs=np.stack([ii.ravel(), jj.ravel()], axis=1),
                               values=P.ravel())
        sp_problem = PnPProblem(bearings=problem.bearings,
                                points=problem.points, weights=sparse,
                                init=Pose(pose.r + 0.02, pose.t + 0.02))
        dn_problem = PnPProblem(bearings=problem.bearings,
                                points=problem.points, weights=P,
                                init=Pose(pose.r + 0.02, pose.t + 0.02))
        a = pnp_solve(sp_problem, TIGHT)
        b = pnp_solve(dn_problem, TIGHT)
        np.testing.assert_allclose(a.pose.as_vector(), b.pose.as_vector(),
                                   atol=1e-12)


class TestSecondOrder:
    def test_single_pair_pose_underdetermined(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (1, 3))
        bearings = exact_bearings(pose, points)
        problem = PnPProblem(bearings=bearings, points=points,
                             weights=np.array([[1.0]]), init=pose)
        data = pnp_second_order(problem, pnp_solve(problem))
        assert data.singular

    def test_hessian_matches_fd_and_is_symmetric(self, rng):
        problem, _ = concentrated_problem(rng)
        solution = pnp_solve(problem, TIGHT)
        data = pnp_second_order(problem, solution)
        assert np.max(np.abs(data.H - data.H.T)) <= 1e-9
        x = solution.pose.as_vector()
        h = 1e-6
        Hfd = np.zeros((6, 6))
        for k in range(6):
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            Hfd[:, k] = (pnp_objective(problem, Pose.from_vector(xp))[1]
                         - pnp_objective(problem, Pose.from_vector(xm))[1]) \
                / (2 * h)
        assert np.max(np.abs(data.H - Hfd)) / np.max(np.abs(Hfd)) <= 1e-5

    def test_b_column_of_zero_weight_pair_is_pair_gradient(self, rng):
        # the objective is linear in the weights, so the mixed column of
        # any pair, weighted or not, equals that pair's own unit-weight
        # pose gradient; checked for dense and sparse weights, where pair
        # (2, 4) has weight 0
        problem, pose = concentrated_problem(rng, m=6, n=6)
        P = np.array(problem.weights)
        P[2, 4] = 0.0
        P /= P.sum()
        pairs = all_pairs(6, 6)
        rng.shuffle(pairs)
        sparse = SparseWeights(pairs=pairs, values=P[pairs[:, 0], pairs[:, 1]])
        for weights, rows in ((P, all_pairs(6, 6)), (sparse, pairs)):
            problem = PnPProblem(bearings=problem.bearings,
                                 points=problem.points, weights=weights,
                                 init=pose)
            solution = pnp_solve(problem, TIGHT)
            data = pnp_second_order(problem, solution)
            np.testing.assert_array_equal(data.pairs, rows)
            for i, j in [(2, 4), (0, 0), (3, 3), (5, 1)]:
                single = PnPProblem(bearings=problem.bearings,
                                    points=problem.points,
                                    weights=SparseWeights(pairs=[[i, j]],
                                                          values=[1.0]),
                                    init=pose)
                _, grad = pnp_objective(single, solution.pose)
                row = np.flatnonzero((rows[:, 0] == i) & (rows[:, 1] == j))
                np.testing.assert_allclose(data.B[row[0]], grad, atol=1e-12)

    def test_non_stationary_pose_rejected(self, rng):
        # a solve stopped by its step cap away from the optimum
        problem, pose = concentrated_problem(rng)
        off = PnPProblem(bearings=problem.bearings, points=problem.points,
                         weights=problem.weights,
                         init=Pose(pose.r + 0.3, pose.t + 0.3))
        stopped = pnp_solve(off, PnPSolverConfig(max_iterations=0))
        assert not stopped.converged
        with pytest.raises(ValidationError):
            pnp_second_order(off, stopped)

    def test_unconverged_solution_rejected(self, rng):
        problem, pose = concentrated_problem(rng)
        fake = PnPSolution(pose=pose, objective_value=1.0, converged=False,
                           gradient_norm=1.0, iterations=0)
        with pytest.raises(ValidationError):
            pnp_second_order(problem, fake)


def drawn_hessian_case(data):
    """A pose and a problem for the Hessian sweep.

    The rotation angle lies in the Taylor branch of the exponential map,
    in the generic range, or within 1e-3 of pi.  Some points carry no
    weight; sparse weights also list zero-valued pairs on them.  At a
    stationary pose every bearing sees its own point exactly, so the
    objective is zero; otherwise the bearings are noisy, weight spreads
    over wrong pairs and the translation is off.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    kind = data.draw(st.sampled_from(["taylor", "generic", "near_pi"]))
    stationary = data.draw(st.booleans())
    sparse = data.draw(st.booleans())
    m = data.draw(st.integers(3, 30))
    n = data.draw(st.integers(3, 30))
    angle = {"taylor": rng.uniform(0.0, 0.99 * np.sqrt(_SMALL_ANGLE_SQ)),
             "generic": rng.uniform(0.05, 3.0),
             "near_pi": np.pi - rng.uniform(0.0, 1e-3)}[kind]
    axis = rng.standard_normal(3)
    pose = Pose(angle * axis / np.linalg.norm(axis),
                rng.uniform(-0.5, 0.5, 3) + np.array([0.0, 0.0, 4.5]))
    points = rng.uniform(-0.5, 0.5, (n, 3))
    seen = rng.integers(0, n, m)   # the point each bearing sees
    bearings = exact_bearings(pose, points[seen])
    P = np.zeros((m, n))
    P[np.arange(m), seen] = rng.uniform(0.5, 1.0, m)
    if not stationary:
        bearings += 0.05 * rng.standard_normal((m, 3))
        bearings /= np.linalg.norm(bearings, axis=1, keepdims=True)
        P += rng.uniform(0.0, 0.3, (m, n)) * (rng.uniform(size=(m, n)) < 0.5)
    idle = rng.uniform(size=n) < 0.3
    idle[seen[0]] = False
    P[:, idle] = 0.0
    P /= P.sum()
    if sparse:
        pairs = np.argwhere((P > 0) | idle[None, :])
        rng.shuffle(pairs)
        weights = SparseWeights(pairs=pairs, values=P[pairs[:, 0], pairs[:, 1]])
    else:
        weights = P
    x = pose.as_vector()
    if not stationary:
        x[3:] += 0.1 * rng.standard_normal(3)
    problem = PnPProblem(bearings=bearings, points=points, weights=weights,
                         init=pose)
    return problem, x, kind, stationary


class TestClosedFormHessian:
    @settings(deadline=None, derandomize=True, database=None,
              max_examples=200)
    @given(st.data())
    def test_matches_complex_step(self, data):
        problem, x, kind, stationary = drawn_hessian_case(data)
        w, s, active = _collapse_weights(problem)
        _, g, _ = _value_and_gradient(w, s, problem.points, x, active)
        assert (np.linalg.norm(g) <= 1e-12) == stationary
        if kind == "taylor":
            assert x[:3] @ x[:3] < _SMALL_ANGLE_SQ
        want = reference_hessian(w, s, problem.points, x, active)
        got = closed_form_hessian(w, s, problem.points, x, active)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_array_equal(got, got.T)

    def test_idle_point_at_camera_center_ignored(self):
        # point 0 carries no weight and sits exactly at the camera center
        points = np.array([[0.0, 0.0, 0.0], [0.1, 0.0, 2.0],
                           [0.0, 0.2, 3.0], [-0.3, 0.1, 2.5]])
        bearings = points[1:] / np.linalg.norm(points[1:], axis=1)[:, None]
        P = np.zeros((3, 4))
        P[[0, 1, 2], [1, 2, 3]] = 1.0 / 3.0
        w, s, active = _collapse_weights(PnPProblem(bearings, points, P,
                                                    Pose.identity()))
        assert not active[0]
        x = np.array([0.01, -0.02, 0.03, 0.05, 0.0, 0.0])
        want = reference_hessian(w, s, points, x, active)
        got = closed_form_hessian(w, s, points, x, active)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_weighted_point_at_camera_center_raises(self):
        points = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
        bearings = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        P = np.array([[0.5, 0.0], [0.0, 0.5]])
        w, s, active = _collapse_weights(PnPProblem(bearings, points, P,
                                                    Pose.identity()))
        with pytest.raises(NumericalError):
            closed_form_hessian(w, s, points, np.zeros(6), active)


class TestVJP:
    def test_zero_gradient_zero_output(self, rng):
        problem, _ = concentrated_problem(rng)
        solution = pnp_solve(problem, TIGHT)
        out = pnp_vjp(problem, solution, np.zeros(6))
        np.testing.assert_array_equal(out, np.zeros(problem.shape))

    def test_linearity_in_pose_gradient(self, rng):
        problem, _ = concentrated_problem(rng)
        solution = pnp_solve(problem, TIGHT)
        g = rng.standard_normal(6)
        base = pnp_vjp(problem, solution, g)
        # binary scaling commutes exactly with every fp operation
        np.testing.assert_array_equal(pnp_vjp(problem, solution, 4.0 * g),
                                      4.0 * base)
        scale = np.max(np.abs(base))
        np.testing.assert_allclose(pnp_vjp(problem, solution, 3.0 * g),
                                   3.0 * base, rtol=1e-9, atol=1e-9 * scale)

    def test_matches_resolve_finite_differences(self, rng):
        problem, _ = concentrated_problem(rng)
        solution = pnp_solve(problem, TIGHT)
        g = rng.standard_normal(6)
        analytic = pnp_vjp(problem, solution, g)
        P = np.asarray(problem.weights)
        d = 1e-6
        worst = 0.0
        for (i, j) in [(0, 0), (3, 7), (9, 2), (5, 5), (1, 8)]:
            poses = []
            for sgn in (1.0, -1.0):
                Px = P.copy()
                Px[i, j] += sgn * d
                pr = PnPProblem(problem.bearings, problem.points, Px,
                                solution.pose)
                sol = pnp_solve(pr, TIGHT)
                assert sol.gradient_norm <= 1e-12
                poses.append(sol.pose.as_vector())
            fd = g @ (poses[0] - poses[1]) / (2 * d)
            worst = max(worst, abs(analytic[i, j] - fd) / max(abs(fd), 1e-9))
        assert worst <= 1e-4

    def test_sparse_output_aligned_with_pairs(self, rng):
        problem, pose = concentrated_problem(rng, m=6, n=6)
        P = np.asarray(problem.weights)
        ii, jj = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        pairs = np.stack([ii.ravel(), jj.ravel()], axis=1)
        sparse = PnPProblem(bearings=problem.bearings, points=problem.points,
                            weights=SparseWeights(pairs=pairs,
                                                  values=P.ravel()),
                            init=pose)
        sol_d = pnp_solve(problem, TIGHT)
        sol_s = pnp_solve(sparse, TIGHT)
        g = rng.standard_normal(6)
        dense_out = pnp_vjp(problem, sol_d, g)
        sparse_out = pnp_vjp(sparse, sol_s, g)
        np.testing.assert_allclose(sparse_out, dense_out.ravel(), atol=1e-10)

    @pytest.mark.parametrize("m, n", [(10, 10), (14, 9), (20, 12)])
    def test_dense_sparse_and_reference_agree(self, rng, m, n):
        problem, _ = concentrated_problem(rng, m=m, n=n)
        solution = pnp_solve(problem, TIGHT)
        assert solution.converged
        pairs = all_pairs(m, n)
        rng.shuffle(pairs)
        P = np.asarray(problem.weights)
        sparse = PnPProblem(bearings=problem.bearings, points=problem.points,
                            weights=SparseWeights(
                                pairs=pairs, values=P[pairs[:, 0], pairs[:, 1]]),
                            init=problem.init)
        g = rng.standard_normal(6)
        dense_out = pnp_vjp(problem, solution, g)
        sparse_out = pnp_vjp(sparse, solution, g)
        assert dense_out.shape == (m, n)
        # on the same H, the rank-3 product and the dense formula agree
        # to rounding
        same_h = reference_vjp(problem, solution, g,
                               hessian=closed_form_hessian)
        scale = np.max(np.abs(same_h))
        assert np.max(np.abs(dense_out - same_h)) <= 1e-12 * scale
        # H from the complex step, or from the sparse collapse, differs
        # from it by rounding, which inv(H) amplifies by cond(H)
        w, s, active = _collapse_weights(problem)
        cond = np.linalg.cond(closed_form_hessian(
            w, s, problem.points, solution.pose.as_vector(), active))
        want = reference_vjp(problem, solution, g)
        assert np.max(np.abs(dense_out - want)) <= 1e-14 * cond * scale
        assert np.max(np.abs(sparse_out - dense_out[pairs[:, 0], pairs[:, 1]])) \
            <= 1e-14 * cond * scale

    @pytest.mark.parametrize("sparse", [False, True])
    def test_equals_second_order_product(self, rng, sparse):
        # dL/dP = -B inv(H) dL/dx: the two public backward outputs agree
        problem, _ = concentrated_problem(rng, m=8, n=7)
        if sparse:
            pairs = all_pairs(8, 7)
            rng.shuffle(pairs)
            P = np.asarray(problem.weights)
            problem = PnPProblem(
                bearings=problem.bearings, points=problem.points,
                weights=SparseWeights(pairs=pairs,
                                      values=P[pairs[:, 0], pairs[:, 1]]),
                init=problem.init)
        solution = pnp_solve(problem, TIGHT)
        data = pnp_second_order(problem, solution)
        g = rng.standard_normal(6)
        want = -(data.B @ np.linalg.solve(data.H, g))
        got = pnp_vjp(problem, solution, g)
        if not sparse:
            want = want.reshape(8, 7)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_unpaired_point_at_camera_center_ignored(self, rng):
        # point 9 is in no pair, so the forward ignores it; moving it to
        # the camera center must not block the backward either
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (10, 3))
        bearings = exact_bearings(pose, points[:9])
        pairs = np.stack([np.arange(9)] * 2, axis=1)
        weights = SparseWeights(pairs=pairs, values=np.full(9, 1.0 / 9.0))
        solution = pnp_solve(PnPProblem(bearings, points, weights,
                                        Pose(pose.r + 0.01, pose.t + 0.01)),
                             TIGHT)
        moved = points.copy()
        moved[9] = -solution.pose.matrix().T @ solution.pose.t
        problem = PnPProblem(bearings, moved, weights, solution.pose)
        assert pnp_solve(problem, TIGHT).converged
        out = pnp_vjp(problem, solution, rng.standard_normal(6))
        assert out.shape == (9,)
        assert np.all(np.isfinite(out))
        assert pnp_second_order(problem, solution).B.shape == (9, 6)
        # a listed pair on that point has no derivative, even at weight 0
        listed = PnPProblem(bearings, moved, SparseWeights(
            pairs=np.vstack([pairs, [[0, 9]]]),
            values=np.append(weights.values, 0.0)), solution.pose)
        with pytest.raises(NumericalError):
            pnp_vjp(listed, solution, rng.standard_normal(6))

    def test_unconverged_solution_rejected(self, rng):
        problem, pose = concentrated_problem(rng)
        fake = PnPSolution(pose=pose, objective_value=1.0, converged=False,
                           gradient_norm=1.0, iterations=0)
        with pytest.raises(ValidationError):
            pnp_vjp(problem, fake, np.ones(6))

    def test_singular_hessian_raises_with_condition(self, rng):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (1, 3))
        bearings = exact_bearings(pose, points)
        problem = PnPProblem(bearings=bearings, points=points,
                             weights=np.array([[1.0]]), init=pose)
        fake = PnPSolution(pose=pose, objective_value=0.0, converged=True,
                           gradient_norm=0.0, iterations=0)
        with pytest.raises(SingularHessianError) as err:
            pnp_vjp(problem, fake, np.ones(6))
        assert err.value.condition_number > 1e12

    def test_two_points_are_singular(self, rng):
        # two bearings fix only 4 of the 6 pose coordinates, but rounding
        # can leave the Hessian's condition number below the 1e12 bound
        problem, _ = concentrated_problem(rng, m=2, n=2)
        solution = pnp_solve(problem, TIGHT)
        assert solution.converged
        with pytest.raises(SingularHessianError) as err:
            pnp_vjp(problem, solution, rng.standard_normal(6))
        assert err.value.condition_number == np.inf
        assert pnp_second_order(problem, solution).singular


class TestSolverPathIndependence:
    def test_vjp_agnostic_to_iteration_budget(self, rng):
        # the backward pass only needs a certified stationary point; two
        # different solver paths to the same optimum must agree
        problem, _ = concentrated_problem(rng, m=12, n=12)
        short = pnp_solve(problem, PnPSolverConfig(
            max_iterations=25, gradient_tolerance=1e-10))
        long = pnp_solve(problem, PnPSolverConfig(
            max_iterations=200, gradient_tolerance=1e-10))
        assert short.gradient_norm <= 1e-10
        assert long.gradient_norm <= 1e-10
        g = rng.standard_normal(6)
        a = pnp_vjp(problem, short, g)
        b = pnp_vjp(problem, long, g)
        assert np.max(np.abs(a - b)) <= 1e-6

    def test_vjp_agnostic_to_initialization(self, rng):
        # Newton takes the same path under both budgets above, so start a
        # second solve several degrees away: a different path to the
        # same optimum must give the same backward pass
        problem, _ = concentrated_problem(rng, m=12, n=12)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        off = Pose(log_so3(exp_so3(np.radians(6.0) * axis)
                           @ problem.init.matrix()),
                   problem.init.t + 0.05 * rng.standard_normal(3))
        moved = PnPProblem(bearings=problem.bearings, points=problem.points,
                           weights=problem.weights, init=off)
        near = pnp_solve(problem, TIGHT)
        far = pnp_solve(moved, TIGHT)
        assert near.gradient_norm <= 1e-10
        assert far.gradient_norm <= 1e-10
        assert (far.iterations != near.iterations
                or far.pose.as_vector().tobytes()
                != near.pose.as_vector().tobytes())
        g = rng.standard_normal(6)
        a = pnp_vjp(problem, near, g)
        b = pnp_vjp(moved, far, g)
        assert np.max(np.abs(a - b)) <= 1e-6
