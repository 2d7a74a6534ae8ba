"""The probability-weighted pose layer and its implicit backward pass.

Forward: minimize over pose (r, t) the weighted misalignment

    f(P, r, t) = sum_ij P_ij * (1 - f_i . u_ij),
    u_ij = (R(r) p_j + t) / ||R(r) p_j + t||

by damped Newton on the exact pose Hessian from a supplied
initialization.  The objective is linear in P, so it collapses to
per-point aggregates w_j = sum_i P_ij and s_j = sum_i P_ij f_i, the rows
of one product [F 1]' P that reads a dense P once: every gradient and
Hessian costs O(n) regardless of how many pairs carry weight.

The solve stops at |g| <= gradient_tolerance * sum(P): like the
minimizer, the rule ignores the scale of the weights, and weights scaled
by a power of two give the same pose bit for bit.  Every entry point
checks its problem by the same rules.

Backward: at a stationary point, the derivative of the pose with
respect to the weights is -inv(H) B, where H is the 6x6 pose Hessian
and column (i, j) of B is the pose gradient of that pair's residual.
One rank-3 factor gives both: for any 6-vector z, the pair products
B z are -f_i . C_j with one 3-vector C_j per point.  The
vector-Jacobian product takes z = inv(H) dL/dx (the dense product is
F C'); `pnp_second_order` forms B from z = e_k.  Both take a converged
`PnPSolution` and compute the directions and H once.  One camera-center
rule holds throughout: a point whose direction is used must not lie at
the camera center, and any other point is ignored.  The forward uses
the points with weight, the backward those that some listed pair
refers to (every point for dense weights).

The gradient, H and B are closed-form.  H takes one vectorized pass
over the points (one (n x 6) matrix product and the 3 x 3 moments of
the points), with the first and second derivatives of the rotation
from the closed-form kernel `so3_exp_and_derivatives`, at a cost
independent of n.  All three are checked against real central finite
differences in the test suite, and H against the complex step of the
whole gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SingularHessianError, ValidationError
from .geometry import (Pose, _dot3, _pairs_array, canonicalize_angle_axis,
                       check_bearings_and_points, check_pairs_in_range,
                       so3_exp_and_derivatives)
from .transport import _row_blocks

_EPS = np.finfo(np.float64).eps
_EYE6 = np.eye(6)
_MAX_CONDITION = 1e12  # pose Hessian condition number the backward accepts


@dataclass(frozen=True)
class SparseWeights:
    """Weights over an explicit pair list (the performance path)."""

    pairs: np.ndarray    # (k, 2) int indices (bearing, point)
    values: np.ndarray   # (k,) floats

    def __post_init__(self):
        pairs = _pairs_array(self.pairs)
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != values.shape[0]:
            raise ValidationError("pairs and values lengths differ")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class PnPProblem:
    """Bearings, points, correspondence weights, and an initial pose."""

    bearings: np.ndarray             # (m, 3) unit rows
    points: np.ndarray               # (n, 3)
    weights: object                  # (m, n) dense array or SparseWeights
    init: Pose

    def __post_init__(self):
        object.__setattr__(self, "bearings",
                           np.asarray(self.bearings, dtype=np.float64))
        object.__setattr__(self, "points",
                           np.asarray(self.points, dtype=np.float64))
        if not isinstance(self.weights, SparseWeights):
            w = np.asarray(self.weights, dtype=np.float64)
            m, n = self.bearings.shape[0], self.points.shape[0]
            if w.shape != (m, n):
                raise ValidationError(
                    f"dense weights must be ({m}, {n}), got {w.shape}")
            object.__setattr__(self, "weights", w)

    @property
    def shape(self):
        return self.bearings.shape[0], self.points.shape[0]


@dataclass(frozen=True)
class PnPSolverConfig:
    gradient_tolerance: float = 1e-9  # |g| per unit of total weight
    max_iterations: int = 200        # cap on Newton steps
    # Has no effect: every solve ends at the rounding floor that the old
    # Newton polish reached.  Kept because perfbench/run.py still sets it.
    newton_polish: bool = False

    def __post_init__(self):
        if not self.gradient_tolerance > 0:  # NaN fails too
            raise ValidationError("refine gradient_tolerance must be positive")
        if self.max_iterations < 0:
            raise ValidationError("refine max_iterations must be nonnegative")


@dataclass(frozen=True)
class PnPSolution:
    pose: Pose
    objective_value: float
    converged: bool
    gradient_norm: float
    iterations: int


@dataclass(frozen=True)
class SecondOrderData:
    """Pose Hessian H and per-pair mixed-derivative columns B."""

    H: np.ndarray                # (6, 6) symmetric
    B: np.ndarray                # (k, 6); row order matches `pairs`
    pairs: np.ndarray            # (k, 2) the pairs B rows refer to
    condition_number: float
    singular: bool


def _collapse_weights(problem: PnPProblem):
    """Per-point aggregates (w_j, s_j) that fully determine the objective,
    and the mask of active points, those with any weight.  First raises
    ValidationError on invalid bearings, points or pairs and on weights
    that are not nonnegative numbers (min() >= 0 fails on NaN, the total
    on +inf).  Dense weights P are read once, in blocks of rows."""
    m, n = problem.shape
    check_bearings_and_points(problem.bearings, problem.points)
    if isinstance(problem.weights, SparseWeights):
        pairs, values = problem.weights.pairs, problem.weights.values
        check_pairs_in_range(pairs, m, n, "weight pair")
        if values.size and not values.min() >= 0:
            raise ValidationError("weights must be nonnegative numbers")
        w = np.zeros(n)
        s = np.zeros((n, 3))
        np.add.at(w, pairs[:, 1], values)
        np.add.at(s, pairs[:, 1],
                  values[:, None] * problem.bearings[pairs[:, 0]])
    else:
        P = problem.weights
        F1 = np.hstack([problem.bearings, np.ones((m, 1))])
        sw = np.zeros((4, n))
        for rows in _row_blocks(m, n):
            if not P[rows].min() >= 0:  # checked while in cache
                raise ValidationError("weights must be nonnegative numbers")
            sw += F1[rows].T @ P[rows]  # not P.T @ F1: no transposed copy
        s, w = sw[:3].T, sw[3]
    if not np.isfinite(w.sum()):
        raise ValidationError(f"weights sum to {w.sum()}")
    return w, s, (w > 0) | (np.abs(s).sum(axis=1) > 0)


def _value_and_gradient(w, s, points, x, used):
    """Objective, 6-vector gradient and the terms `_hessian` takes at
    pose x = (r, t): dR/dr_k, d2R/dr_k dr_l, unit directions u_j and
    norms |q_j| of q_j = R(r) p_j + t, sigma_j = s_j . u_j, and G =
    sum_j g_j p_j' over the q-gradients g_j.

    Raises if a `used` point lies at the camera center, where its
    direction is undefined; any other point there gets |q_j| = 1.
    Points without weight (w_j = 0, s_j = 0) add nothing.  Complex-safe:
    norms avoid abs(), the comparison uses real parts.
    """
    R, dR, d2R = so3_exp_and_derivatives(x[:3], second=True)
    q = points @ R.T + x[3:]
    nq = np.sqrt(_dot3(q, q))
    center = np.real(nq) <= 1e-12
    if center.any():
        if np.any(center & used):
            raise NumericalError(
                f"transformed point {int(np.flatnonzero(center & used)[0])} "
                "lies at the camera center; the weighted alignment objective "
                "is singular there")
        nq = np.where(center, 1.0, nq)
    u = q / nq[:, None]
    su = _dot3(s, u)
    # g_j = d(value)/dq_j = -(s_j - (s_j . u_j) u_j) / ||q_j||
    gq = (su[:, None] * u - s) / nq[:, None]
    G = gq.T @ points
    # dq_j/dr_k = dR[k] @ p_j
    grad = np.concatenate([dR.reshape(3, 9) @ G.ravel(), np.ones(len(gq)) @ gq])
    return w.sum() - su.sum(), grad, (dR, d2R, u, nq, su, G)


def pnp_objective(problem: PnPProblem, pose: Pose):
    """Objective value and its analytic pose gradient.

    The value is nonnegative by Cauchy-Schwarz; rounding can leave it a
    few ulps below zero at perfect alignment, so it is floored at 0.
    """
    w, s, active = _collapse_weights(problem)
    x = pose.as_vector()
    value, grad, _ = _value_and_gradient(w, s, problem.points, x, active)
    return max(float(value), 0.0), grad


def _check_finite(H, g) -> None:
    if not (np.isfinite(H).all() and np.isfinite(g).all()):
        raise NumericalError("pose Hessian or gradient is not finite")


def _norm(v) -> float:
    """np.linalg.norm of a real vector, bit for bit, without its overhead."""
    return math.sqrt(v @ v)


def _positive_definite_solve(A, b):
    """A^-1 b; LinAlgError unless the symmetric A is positive definite."""
    np.linalg.cholesky(A)  # raises LinAlgError on a failed factorization
    return np.linalg.solve(A, b)


def _damped_step(w, s, points, active, x, value, g, H, noise):
    """One damped Newton step from x on the Hessian H there: (x, value,
    g, directions) after it, or None.

    Solves (H + lam I) d = g, raising lam from 0 until H + lam I has a
    Cholesky factor (is positive definite) and x - d descends: it lowers
    the objective, or it shrinks |g| while the objective rises by at
    most `noise`, the objective's own rounding, which cannot resolve a
    smaller decrease.  None once lam has shrunk d below the rounding of
    x.  A non-finite H or g raises NumericalError: the factorization
    would not fail on it, and no lam would give a descending step.
    """
    _check_finite(H, g)
    gnorm, rounding = _norm(g), _EPS * max(_norm(x), 1.0)
    lam = 0.0
    while True:
        try:
            d = _positive_definite_solve(H + lam * _EYE6 if lam else H, g)
            if _norm(d) <= rounding:
                return None
            value_new, g_new, directions = _value_and_gradient(
                w, s, points, x - d, active)
        except (np.linalg.LinAlgError, NumericalError):
            pass
        else:
            if value_new < value or (_norm(g_new) < gnorm
                                     and value_new <= value + noise):
                return x - d, value_new, g_new, directions
        lam = max(10.0 * lam, 1e-3 * np.max(np.abs(np.diag(H))),
                  np.finfo(float).tiny)


def pnp_solve(problem: PnPProblem,
              config: PnPSolverConfig | None = None) -> PnPSolution:
    """Minimize the weighted alignment objective from the stored init.

    Damped Newton steps on the exact pose Hessian (`_damped_step`) until
    |g| <= gradient_tolerance * sum(weights) or `max_iterations` steps.
    A converged solve then takes full Newton steps on the Hessian there
    while they shrink |g|, so it ends at the rounding floor of the
    stationarity condition that the implicit backward differentiates.
    The full steps share the `max_iterations` budget (without a finite
    minimizer they would shrink |g| forever); `iterations` counts the
    damped ones.
    """
    config = config or PnPSolverConfig()
    w, s, active = _collapse_weights(problem)
    tolerance = config.gradient_tolerance * w.sum()
    points = problem.points
    x = np.concatenate([canonicalize_angle_axis(problem.init.r),
                        problem.init.t])

    if not np.any(active):
        # vacuous objective: every pose is optimal, return the init
        return PnPSolution(pose=Pose.from_vector(x), objective_value=0.0,
                           converged=True, gradient_norm=0.0, iterations=0)

    # the objective is sum(w) - sum(s_j . u_j); this bounds its rounding
    noise = 64 * _EPS * np.sum(w[active])
    value, g, directions = _value_and_gradient(w, s, points, x, active)
    iterations = 0
    while _norm(g) > tolerance and iterations < config.max_iterations:
        H = _hessian(s, points, x, directions)
        step = _damped_step(w, s, points, active, x, value, g, H, noise)
        if step is None:
            break
        x, value, g, directions = step
        iterations += 1

    if _norm(g) <= tolerance:
        H = _hessian(s, points, x, directions)
        _check_finite(H, g)
        for _ in range(config.max_iterations - iterations):
            try:
                x_new = x - _positive_definite_solve(H, g)
                value_new, g_new, _ = _value_and_gradient(w, s, points, x_new,
                                                          active)
            except (np.linalg.LinAlgError, NumericalError):
                break
            if not _norm(g_new) < _norm(g):  # NaN too
                break
            x, value, g = x_new, value_new, g_new

    r = canonicalize_angle_axis(x[:3])
    if not np.array_equal(r, x[:3]):  # wrapped: re-evaluate at the new x
        x = np.concatenate([r, x[3:]])
        value, g, _ = _value_and_gradient(w, s, points, x, active)
    gnorm = _norm(g)
    return PnPSolution(pose=Pose.from_vector(x), objective_value=float(value),
                       converged=gnorm <= tolerance,
                       gradient_norm=gnorm, iterations=iterations)


def _hessian(s, points, x, directions) -> np.ndarray:
    """6x6 pose Hessian in closed form, in one pass over the points.

    `directions` are the terms that `_value_and_gradient` returns at x.

    With q_j = R p_j + t, u_j = q_j / |q_j|, sigma_j = s_j . u_j and
    J_j = dq_j/dx = [dR[k] p_j | I], the q-Hessian of -s_j . u_j is

        H_q,j = [s_j u_j' + u_j s_j' + sigma_j (I - 3 u_j u_j')] / |q_j|^2

    and H = sum_j J_j' H_q,j J_j + <d2R[k, l], G>, where G = sum_j g_j p_j'
    contracts the q-gradients g_j with the points.  The rows S_j = s_j' J_j
    and U_j = u_j' J_j turn the first two terms into one (n x 6) matrix
    product; U_j's rotation part is t' dR[k] p_j / |q_j|, as R' dR[k] is
    skew.  sum_j sigma_j J_j' J_j / |q_j|^2 takes the 3 x 3 moments of
    the points.  d2R is the closed form of `so3_exp_and_derivatives`.
    """
    dR, d2R, u, nq, sigma, G = directions
    dR9 = dR.reshape(3, 9)
    # inactive points have s_j = 0, so every term below vanishes for them
    c = 1.0 / nq**2
    d = sigma * c
    D = (points @ dR.reshape(9, 3).T).reshape(-1, 3, 3)  # D[j, k] = dR[k] p_j
    S = np.concatenate([np.einsum("jka,ja->jk", D, s), s], 1)
    U = np.concatenate([points @ (x[3:] @ dR).T / nq[:, None], u], 1)
    H = (c[:, None] * S - (1.5 * d)[:, None] * U).T @ U
    H += H.T
    # sum_j sigma_j J_j' J_j / |q_j|^2, from the moments of d_j p_j
    H[:3, :3] += (dR @ ((d[:, None] * points).T @ points)).reshape(3, 9) @ dR9.T
    cross = dR @ (d @ points)
    H[:3, 3:] += cross
    H[3:, :3] += cross.T
    H[3:, 3:] += np.sum(d) * np.eye(3)
    H[:3, :3] += (d2R.reshape(9, 9) @ G.ravel()).reshape(3, 3)
    return 0.5 * (H + H.T)


def _linearize(problem: PnPProblem, solution: PnPSolution):
    """Directions, pose Hessian H, its condition number and whether that
    is singular, at a converged solution, for both backward entry points.
    The directions cover the points that some pair refers to (all for
    dense weights); such a point without weight has s_j = 0 and adds
    exact zeros to H.  Fewer than 3 points with weight fix at most 4 of
    the 6 pose coordinates: condition number inf."""
    if not solution.converged:
        raise ValidationError(
            "solution did not converge; the implicit gradient is undefined "
            f"(gradient norm {solution.gradient_norm:.3e})")
    w, s, active = _collapse_weights(problem)
    weights, points = problem.weights, problem.points
    used = (np.bincount(weights.pairs[:, 1], minlength=len(points)) > 0
            if isinstance(weights, SparseWeights)
            else np.ones(len(points), dtype=bool))
    x = solution.pose.canonical().as_vector()
    directions = _value_and_gradient(w, s, points, x, used)[2]
    H = _hessian(s, points, x, directions)
    cond = float(np.linalg.cond(H)) if np.count_nonzero(active) >= 3 else np.inf
    return directions, H, cond, not cond <= _MAX_CONDITION


def _pair_products(problem: PnPProblem, directions, z):
    """f_i . C_j = -g_ij . z for every pair, from one 3-vector C_j per point.

    g_ij is the pose gradient of pair (i, j)'s residual 1 - f_i . u_j,
    and C_j = (a_j - (u_j . a_j) u_j) / |q_j| with a_j = J_j z =
    (sum_k z_k dR[k]) p_j + z_t, on the `_linearize` directions.  Returns
    the (m, n) product F C' for dense weights, or a (k,) array aligned
    with the sparse pair list.
    """
    dR, _, u, nq, _, _ = directions
    a = problem.points @ np.tensordot(z[:3], dR, axes=1).T + z[3:]
    C = (a - np.sum(u * a, axis=1)[:, None] * u) / nq[:, None]
    if isinstance(problem.weights, SparseWeights):
        pairs = problem.weights.pairs
        return np.sum(problem.bearings[pairs[:, 0]] * C[pairs[:, 1]], axis=1)
    return problem.bearings @ C.T


def pnp_second_order(problem: PnPProblem,
                     solution: PnPSolution) -> SecondOrderData:
    """Pose Hessian H and mixed-derivative rows B at a converged solution.

    B rows follow `pairs` order (the sparse pair list, or all m*n pairs
    row-major for dense weights: intended for small problems).  Column k
    of B is minus `_pair_products` at z = e_k, the same factor that
    `pnp_vjp` contracts.
    """
    directions, H, cond, singular = _linearize(problem, solution)
    if isinstance(problem.weights, SparseWeights):
        pairs = problem.weights.pairs
    else:
        pairs = np.indices(problem.shape).reshape(2, -1).T
    B = -np.stack([_pair_products(problem, directions, e).ravel()
                   for e in np.eye(6)], axis=1)
    return SecondOrderData(H=H, B=B, pairs=pairs, condition_number=cond,
                           singular=singular)


def pnp_vjp(problem: PnPProblem, solution: PnPSolution, grad_pose):
    """dL/dP given dL/d(r, t), via the implicit function theorem.

    Returns an (m, n) array for dense weights or a (k,) array aligned
    with the sparse pair list.  One 6x6 solve, one O(n) pass over points,
    and one pass over pairs: the dense output is the rank-3 product F C'
    of `_pair_products` at z = inv(H) dL/dx.
    """
    grad_pose = np.asarray(grad_pose, dtype=np.float64).reshape(6)
    directions, H, cond, singular = _linearize(problem, solution)
    if singular:
        raise SingularHessianError(
            f"pose Hessian condition number {cond:.3e} exceeds {_MAX_CONDITION:.0e}",
            condition_number=cond)
    return _pair_products(problem, directions, np.linalg.solve(H, grad_pose))
