"""The probability-weighted pose layer and its implicit backward pass.

Forward: minimize over pose (r, t) the weighted misalignment

    f(P, r, t) = sum_ij P_ij * (1 - f_i . u_ij),
    u_ij = (R(r) p_j + t) / ||R(r) p_j + t||

with L-BFGS (strong Wolfe line search) from a supplied initialization.
The objective is linear in P, so it collapses to per-point aggregates
w_j = sum_i P_ij and s_j = sum_i P_ij f_i: every solver iteration costs
O(n) regardless of how many pairs carry weight.

Backward: at a stationary point, the derivative of the pose with
respect to the weights is -inv(H) B, where H is the 6x6 pose Hessian
and column (i, j) of B is the pose gradient of that pair's residual.
The vector-Jacobian product contracts an upstream pose gradient against
B in a single pass over pairs, never forming B densely unless asked.

H is evaluated by complex-step differentiation of the analytic gradient
(step 1e-20, exact to machine precision); the gradient itself and all B
columns are closed-form.  Both are independently checked against real
central finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import NumericalError, SingularHessianError, ValidationError
from .geometry import (Pose, canonicalize_angle_axis, check_pairs_in_range,
                       so3_exp_and_derivatives)

_CS_STEP = 1e-20  # complex-step size; no subtractive cancellation


@dataclass(frozen=True)
class SparseWeights:
    """Weights over an explicit pair list (the performance path)."""

    pairs: np.ndarray    # (k, 2) int indices (bearing, point)
    values: np.ndarray   # (k,) floats

    def __post_init__(self):
        pairs = np.asarray(self.pairs, dtype=np.int64).reshape(-1, 2)
        values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if pairs.shape[0] != values.shape[0]:
            raise ValidationError("pairs and values lengths differ")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "values", values)

    def total(self) -> float:
        return float(self.values.sum())


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

    def weight_sum(self) -> float:
        if isinstance(self.weights, SparseWeights):
            return self.weights.total()
        return float(self.weights.sum())

    def validate(self, check_normalization: bool = True,
                 normalization_tol: float = 1e-6) -> None:
        if np.any(np.abs(np.linalg.norm(self.bearings, axis=1) - 1.0) > 1e-9):
            raise ValidationError("bearings must be unit vectors")
        if isinstance(self.weights, SparseWeights):
            check_pairs_in_range(self.weights.pairs, *self.shape, "weight pair")
            if np.any(self.weights.values < 0):
                raise ValidationError("weights must be nonnegative")
        elif np.any(np.asarray(self.weights) < 0):
            raise ValidationError("weights must be nonnegative")
        if check_normalization:
            total = self.weight_sum()
            if abs(total - 1.0) > normalization_tol:
                raise ValidationError(
                    f"weights sum to {total}, expected 1 +- {normalization_tol}")


@dataclass(frozen=True)
class PnPSolverConfig:
    history: int = 10
    gradient_tolerance: float = 1e-9
    max_iterations: int = 200
    gradient_clip: float = 100.0     # norm cap applied inside the solver
    newton_polish: bool = False      # extra Newton steps after L-BFGS
    polish_tolerance: float = 1e-13


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
    """Per-point aggregates (w_j, s_j) that fully determine the objective."""
    m, n = problem.shape
    if isinstance(problem.weights, SparseWeights):
        pairs, values = problem.weights.pairs, problem.weights.values
        w = np.zeros(n)
        s = np.zeros((n, 3))
        np.add.at(w, pairs[:, 1], values)
        np.add.at(s, pairs[:, 1],
                  values[:, None] * problem.bearings[pairs[:, 0]])
    else:
        P = problem.weights
        w = P.sum(axis=0)
        s = P.T @ problem.bearings
    return w, s


def _point_terms(points, r, t):
    """Transformed points, their norms, and unit directions (complex-safe)."""
    R, dR = so3_exp_and_derivatives(r)
    q = points @ R.T + t
    nq = np.sqrt(np.sum(q * q, axis=1))
    return R, dR, q, nq


def _value_and_gradient(w, s, points, x, active):
    """Objective and 6-vector gradient at pose x = (r, t).

    `active` marks points with any weight; only those contribute (and
    only those are checked against the camera center).  Complex-safe:
    norms avoid abs(), comparisons use real parts.
    """
    r, t = x[:3], x[3:]
    R, dR, q, nq = _point_terms(points, r, t)
    if np.any(np.real(nq[active]) <= 1e-12):
        j = int(np.flatnonzero(active & (np.real(nq) <= 1e-12))[0])
        raise NumericalError(
            f"transformed point {j} lies at the camera center; the weighted "
            "alignment objective is singular there")
    safe_nq = np.where(active, nq, 1.0)
    u = q / safe_nq[:, None]
    su = np.sum(s * u, axis=1)
    value = np.sum(w[active]) - np.sum(su[active])
    # d(value)/dq_j = -(s_j - (s_j . u_j) u_j) / ||q_j||
    gq = -(s - su[:, None] * u) / safe_nq[:, None]
    gq = np.where(active[:, None], gq, 0.0)
    grad_t = gq.sum(axis=0)
    # dq_j/dr_k = dR[k] @ p_j
    grad_r = np.einsum("ja,kab,jb->k", gq, dR, points)
    return value, np.concatenate([grad_r, grad_t])


def pnp_objective(problem: PnPProblem, pose: Pose):
    """Objective value and its analytic pose gradient (unclipped).

    The value is nonnegative by Cauchy-Schwarz; rounding can leave it a
    few ulps below zero at perfect alignment, so it is floored at 0.
    """
    w, s = _collapse_weights(problem)
    active = (w > 0) | (np.abs(s).sum(axis=1) > 0)
    x = pose.as_vector()
    value, grad = _value_and_gradient(w, s, problem.points, x, active)
    return max(float(value), 0.0), grad


def _clip_gradient(g: np.ndarray, cap: float) -> np.ndarray:
    norm = np.linalg.norm(g)
    if cap > 0 and norm > cap:
        return g * (cap / norm)
    return g


def _newton_polish(w, s, points, x, active, tol, max_steps: int = 20):
    """Newton iterations on the stationarity condition; returns (x, ||g||)."""
    value, g = _value_and_gradient(w, s, points, x, active)
    gnorm = np.linalg.norm(g)
    for _ in range(max_steps):
        if gnorm <= tol:
            break
        H = _hessian(w, s, points, x, active)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError:
            break
        accepted = False
        scale = 1.0
        for _ in range(8):
            x_new = x - scale * step
            try:
                _, g_new = _value_and_gradient(w, s, points, x_new, active)
            except NumericalError:
                scale *= 0.5
                continue
            if np.linalg.norm(g_new) < gnorm:
                x, g, gnorm = x_new, g_new, np.linalg.norm(g_new)
                accepted = True
                break
            scale *= 0.5
        if not accepted:
            break
    return x, gnorm


def pnp_solve(problem: PnPProblem, config: PnPSolverConfig | None = None,
              check_normalization: bool = True) -> PnPSolution:
    """Minimize the weighted alignment objective from the stored init.

    L-BFGS-B (strong-Wolfe MINPACK line search, unconstrained bounds)
    with the gradient-norm cap applied to what the optimizer sees.  An
    optional Newton polish tightens the stationary point afterwards.
    """
    config = config or PnPSolverConfig()
    problem.validate(check_normalization=check_normalization)
    w, s = _collapse_weights(problem)
    active = (w > 0) | (np.abs(s).sum(axis=1) > 0)
    points = problem.points
    x0 = np.concatenate([canonicalize_angle_axis(problem.init.r),
                         problem.init.t])

    if not np.any(active):
        # vacuous objective: every pose is optimal, return the init
        return PnPSolution(pose=Pose.from_vector(x0), objective_value=0.0,
                           converged=True, gradient_norm=0.0, iterations=0)

    def fun(x):
        value, grad = _value_and_gradient(w, s, points, x, active)
        return value, _clip_gradient(grad, config.gradient_clip)

    result = minimize(
        fun, x0, jac=True, method="L-BFGS-B",
        options={
            "maxcor": config.history,
            "maxiter": config.max_iterations,
            "ftol": 1e-18,
            "gtol": config.gradient_tolerance / 10.0,
        })
    x = result.x
    iterations = int(result.nit)

    _, g = _value_and_gradient(w, s, points, x, active)
    gnorm = float(np.linalg.norm(g))
    if config.newton_polish:
        x, gnorm = _newton_polish(w, s, points, x, active,
                                  config.polish_tolerance)
    x = np.concatenate([canonicalize_angle_axis(x[:3]), x[3:]])
    value, g = _value_and_gradient(w, s, points, x, active)
    gnorm = float(np.linalg.norm(g))
    return PnPSolution(pose=Pose.from_vector(x), objective_value=float(value),
                       converged=gnorm <= config.gradient_tolerance,
                       gradient_norm=gnorm, iterations=iterations)


def _hessian(w, s, points, x, active) -> np.ndarray:
    """6x6 pose Hessian by complex step of the analytic gradient."""
    H = np.empty((6, 6))
    for k in range(6):
        xc = x.astype(np.complex128)
        xc[k] += 1j * _CS_STEP
        _, grad = _value_and_gradient(w, s, points, xc, active)
        H[:, k] = np.imag(grad) / _CS_STEP
    return 0.5 * (H + H.T)


def _pair_gradients(problem: PnPProblem, pose: Pose, pairs: np.ndarray):
    """Pose gradient of each pair's unit-weight residual: rows of B."""
    r, t = pose.r, pose.t
    R, dR, q, nq = _point_terms(problem.points, r, t)
    if np.any(nq <= 1e-12):
        raise NumericalError("transformed point at the camera center")
    u = q / nq[:, None]
    f = problem.bearings[pairs[:, 0]]
    uj = u[pairs[:, 1]]
    nj = nq[pairs[:, 1]]
    # d(1 - f.u)/dq at unit weight
    gq = -(f - np.sum(f * uj, axis=1)[:, None] * uj) / nj[:, None]
    # J_r(p_j)[:, k] = dR[k] @ p_j  ->  contract with gq
    pj = problem.points[pairs[:, 1]]
    grad_r = np.einsum("pa,kab,pb->pk", gq, dR, pj)
    return np.hstack([grad_r, gq])


def _all_pairs(problem: PnPProblem) -> np.ndarray:
    if isinstance(problem.weights, SparseWeights):
        return problem.weights.pairs
    m, n = problem.shape
    ii, jj = np.meshgrid(np.arange(m), np.arange(n), indexing="ij")
    return np.stack([ii.ravel(), jj.ravel()], axis=1)


def pnp_second_order(problem: PnPProblem, pose: Pose,
                     stationarity_tol: float = 1e-6,
                     check_stationary: bool = True) -> SecondOrderData:
    """Pose Hessian H and mixed-derivative rows B at a stationary pose.

    B rows follow `pairs` order (the sparse pair list, or all m*n pairs
    row-major for dense weights: intended for small problems).
    """
    w, s = _collapse_weights(problem)
    active = (w > 0) | (np.abs(s).sum(axis=1) > 0)
    pose = pose.canonical()
    x = pose.as_vector()
    _, g = _value_and_gradient(w, s, problem.points, x, active)
    gnorm = float(np.linalg.norm(g))
    if check_stationary and gnorm > stationarity_tol:
        raise ValidationError(
            f"pose is not stationary: |grad| = {gnorm:.3e} > {stationarity_tol:.0e}")
    H = _hessian(w, s, problem.points, x, active)
    pairs = _all_pairs(problem)
    B = _pair_gradients(problem, pose, pairs)
    cond = float(np.linalg.cond(H))
    return SecondOrderData(H=H, B=B, pairs=pairs, condition_number=cond,
                           singular=not np.isfinite(cond) or cond > 1e12)


def pnp_vjp(problem: PnPProblem, solution: PnPSolution, grad_pose,
            max_condition: float = 1e12):
    """dL/dP given dL/d(r, t), via the implicit function theorem.

    Returns an (m, n) array for dense weights or a (k,) array aligned
    with the sparse pair list.  One 6x6 solve plus one pass over pairs.
    """
    grad_pose = np.asarray(grad_pose, dtype=np.float64).reshape(6)
    if not solution.converged:
        raise ValidationError(
            "solution did not converge; the implicit gradient is undefined "
            f"(gradient norm {solution.gradient_norm:.3e})")
    w, s = _collapse_weights(problem)
    active = (w > 0) | (np.abs(s).sum(axis=1) > 0)
    pose = solution.pose.canonical()
    x = pose.as_vector()
    H = _hessian(w, s, problem.points, x, active)
    cond = float(np.linalg.cond(H))
    if not np.isfinite(cond) or cond > max_condition:
        raise SingularHessianError(
            f"pose Hessian condition number {cond:.3e} exceeds {max_condition:.0e}",
            condition_number=cond)
    z = np.linalg.solve(H, grad_pose)

    r, t = pose.r, pose.t
    R, dR, q, nq = _point_terms(problem.points, r, t)
    if np.any(nq <= 1e-12):
        raise NumericalError("transformed point at the camera center")
    u = q / nq[:, None]
    # a_j = J_r(p_j) @ z_r + z_t; then dL/dP_ij = -gq_ij . a_j
    a = np.einsum("k,kab,jb->ja", z[:3], dR, problem.points) + z[3:]
    # -gq_ij . a_j = (f_i . a_j - (f_i . u_j)(u_j . a_j)) / ||q_j||
    if isinstance(problem.weights, SparseWeights):
        pairs = problem.weights.pairs
        f = problem.bearings[pairs[:, 0]]
        uj = u[pairs[:, 1]]
        aj = a[pairs[:, 1]]
        nj = nq[pairs[:, 1]]
        out = (np.sum(f * aj, axis=1)
               - np.sum(f * uj, axis=1) * np.sum(uj * aj, axis=1)) / nj
        return out
    F = problem.bearings
    ua = np.sum(u * a, axis=1)
    out = (F @ a.T - (F @ u.T) * ua[None, :]) / nq[None, :]
    return out
