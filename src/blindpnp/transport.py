"""Entropic optimal transport: Sinkhorn forward solve and analytic backward.

The forward pass solves

    minimize  sum_ij M_ij P_ij + mu * P_ij (log P_ij - 1)
    over      P > 0 with row sums r and column sums c

by Sinkhorn scaling, stabilized in the log domain: scaling factors are
absorbed into log-potentials whenever they grow large, and iterations
that would underflow fall back to an exact log-sum-exp update.  For very
small mu an optional annealing schedule warm-starts the potentials from
larger regularization values, which cuts the iteration count by orders
of magnitude.

The backward pass never materializes the (mn x mn) Jacobian.  At the
optimum the objective's Hessian in P is diagonal, diag(mu / P_ij), the
mixed second derivative with respect to M is the identity, and the
marginal constraints form a (m + n - 1)-row full-rank system A (one
redundant column constraint is dropped).  Implicit differentiation of
the optimality conditions then gives, for an upstream gradient G = dL/dP,

    dL/dM = W * (alpha_i + beta_j - G_ij),   W = P / mu,

where (alpha, beta) solve the reduced system  S [alpha; beta] = A (W*G)
with S = A diag(W) A'.  S has diagonal blocks (row/column sums of W) and
off-diagonal block W itself, so the solve reduces to a Cholesky of a
single Schur complement of size min(m, n-1): peak memory stays O(mn).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial.distance import cdist

from .errors import NumericalError, ValidationError

_ABSORB_MAX = 1e130  # scaling magnitude that triggers log-absorption


@dataclass(frozen=True)
class TransportPlan:
    """Strictly positive coupling with its convergence report."""

    P: np.ndarray
    iterations: int
    residual: float          # final max |marginal - prior|, both sides
    converged: bool

    @property
    def shape(self):
        return self.P.shape


def uniform_priors(m: int, n: int):
    return np.full(m, 1.0 / m), np.full(n, 1.0 / n)


def _validate_priors(row_prior, col_prior, m, n):
    r = np.asarray(row_prior, dtype=np.float64)
    c = np.asarray(col_prior, dtype=np.float64)
    if r.shape != (m,) or c.shape != (n,):
        raise ValidationError(
            f"prior shapes {r.shape}, {c.shape} do not match cost {m}x{n}")
    if np.any(r <= 0) or np.any(c <= 0):
        raise ValidationError("priors must be strictly positive")
    if abs(r.sum() - 1.0) > 1e-8 or abs(c.sum() - 1.0) > 1e-8:
        raise ValidationError("priors must each sum to 1")
    return r / r.sum(), c / c.sum()


def _logsumexp_rows(A):
    """log(sum(exp(A), axis=1)) without scipy overhead; A is 2-d."""
    hi = A.max(axis=1, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    return np.log(np.exp(A - hi).sum(axis=1)) + hi[:, 0]


def _scale_iterations(logK0, r, c, logr, logc, phi, psi, tol, max_iterations):
    """Stabilized scaling loop from given starting potentials.

    Returns (phi, psi, iterations, residual): the potentials are fully
    absorbed on exit, so log P = logK0 + phi[:, None] + psi[None, :].
    """
    m = r.shape[0]
    K = np.exp(logK0 + phi[:, None] + psi[None, :])
    u = np.ones(m)
    v = np.ones(c.shape[0])

    def lse_iteration():
        # exact log-domain update; unconditionally stable
        nonlocal phi, psi, K, u, v
        phi = phi + np.log(u)
        psi = psi + np.log(v)
        phi = logr - _logsumexp_rows(logK0 + psi[None, :])
        psi = logc - _logsumexp_rows((logK0 + phi[:, None]).T)
        K = np.exp(logK0 + phi[:, None] + psi[None, :])
        u[:] = 1.0
        v[:] = 1.0

    residual = np.inf
    it = 0
    Kv = K @ v
    while it < max_iterations:
        it += 1
        if np.any(Kv <= 0.0) or not np.all(np.isfinite(Kv)):
            lse_iteration()
        else:
            u = r / Kv
            KTu = K.T @ u
            if np.any(KTu <= 0.0) or not np.all(np.isfinite(KTu)):
                lse_iteration()
            else:
                v = c / KTu
                hi = max(u.max(), v.max())
                lo = min(u.min(), v.min())
                if hi > _ABSORB_MAX or lo < 1.0 / _ABSORB_MAX:
                    phi = phi + np.log(u)
                    psi = psi + np.log(v)
                    K = np.exp(logK0 + phi[:, None] + psi[None, :])
                    u[:] = 1.0
                    v[:] = 1.0
        Kv = K @ v
        # column sums match c exactly after the v-update; the row side
        # carries the whole residual, so check it every iteration (the
        # 0.5 factor absorbs summation-order noise in the final recompute)
        residual = float(np.max(np.abs(u * Kv - r)))
        if residual <= 0.5 * tol:
            break

    phi = phi + np.log(u)
    psi = psi + np.log(v)
    return phi, psi, it, residual


def sinkhorn_forward(M, row_prior=None, col_prior=None, mu: float = 0.1,
                     tol: float = 1e-9, max_iterations: int = 10000,
                     anneal: bool = False, anneal_start: float = 0.1,
                     anneal_factor: float = 3.0) -> TransportPlan:
    """Entropy-regularized transport plan with prescribed marginals.

    Runs to convergence (max marginal residual <= tol) or to the
    iteration cap; non-convergence is reported through the plan's
    `converged` flag rather than raised, so callers can skip or retry.

    With ``anneal=True`` the solve warm-starts from a geometric schedule
    of larger regularization values down to `mu`, which is dramatically
    faster when mu is small.  The fixed point is the same either way.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValidationError(f"cost must be a nonempty 2-d matrix, got {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValidationError("cost matrix has non-finite entries")
    if not (mu > 0):
        raise ValidationError(f"entropy parameter mu must be positive, got {mu}")
    m, n = M.shape
    if row_prior is None and col_prior is None:
        r, c = uniform_priors(m, n)
    else:
        r, c = _validate_priors(row_prior, col_prior, m, n)
    logr, logc = np.log(r), np.log(c)

    if anneal and anneal_start > mu:
        schedule = [anneal_start]
        while schedule[-1] > mu * anneal_factor:
            schedule.append(schedule[-1] / anneal_factor)
        schedule.append(mu)
    else:
        schedule = [mu]

    phi = np.zeros(m)
    psi = np.zeros(n)
    total_it = 0
    residual = np.inf
    prev_mu = None
    for stage_mu in schedule:
        if prev_mu is not None:
            # potentials scale inversely with the regularization strength
            ratio = prev_mu / stage_mu
            phi = phi * ratio
            psi = psi * ratio
        stage_tol = tol if stage_mu == mu else max(tol, 1e-3)
        phi, psi, it, residual = _scale_iterations(
            -M / stage_mu, r, c, logr, logc, phi, psi, stage_tol,
            max_iterations - total_it)
        total_it += it
        prev_mu = stage_mu
        if total_it >= max_iterations:
            break

    P = np.exp(-M / mu + phi[:, None] + psi[None, :])
    row_res = float(np.max(np.abs(P.sum(axis=1) - r)))
    col_res = float(np.max(np.abs(P.sum(axis=0) - c)))
    residual = max(row_res, col_res)
    return TransportPlan(P=P, iterations=total_it, residual=residual,
                         converged=residual <= tol)


def sinkhorn_vjp(M, plan: TransportPlan, mu: float, grad_P) -> np.ndarray:
    """dL/dM given dL/dP, by implicit differentiation at the optimum.

    The last column-sum constraint, redundant with the others, is
    dropped to make the constraint system full rank.  At the optimum the
    derivative depends on the cost only through the plan, so `M` may be
    None; when given it is shape-checked.
    """
    P = np.asarray(plan.P if isinstance(plan, TransportPlan) else plan,
                   dtype=np.float64)
    G = np.asarray(grad_P, dtype=np.float64)
    m, n = P.shape
    if M is not None and np.asarray(M).shape != (m, n):
        raise ValidationError(
            f"cost shape {np.asarray(M).shape} does not match plan {P.shape}")
    if G.shape != (m, n):
        raise ValidationError(f"grad_P shape {G.shape} does not match plan {P.shape}")
    if not (mu > 0):
        raise ValidationError("mu must be positive")
    if np.any(P <= 0):
        raise ValidationError("transport plan must be strictly positive")
    r = P.sum(axis=1)
    c = P.sum(axis=0)
    if isinstance(plan, TransportPlan) and plan.residual > 1e-6:
        raise ValidationError(
            f"plan violates marginal constraints (residual {plan.residual:.2e})")

    W = P / mu
    Z = W * G
    rho = Z.sum(axis=1)                      # row-constraint side of A @ z
    gam = Z.sum(axis=0)

    keep = slice(0, n - 1)
    Wk = W[:, keep]                          # view, no copy
    d1 = r / mu                              # row sums of W
    d2 = c[keep] / mu                        # kept column sums of W
    gk = gam[keep]

    nk = n - 1
    beta = np.zeros(n)
    try:
        if nk == 0:
            alpha = rho / d1
        elif m >= nk:
            # eliminate the (diagonal) row block, factor the column Schur
            S = np.diag(d2) - (Wk / d1[:, None]).T @ Wk
            rhs = gk - Wk.T @ (rho / d1)
            bk = cho_solve(cho_factor(S, lower=True), rhs)
            beta[keep] = bk
            alpha = (rho - Wk @ bk) / d1
        else:
            # eliminate the (diagonal) column block, factor the row Schur
            S = np.diag(d1) - (Wk / d2[None, :]) @ Wk.T
            rhs = rho - Wk @ (gk / d2)
            alpha = cho_solve(cho_factor(S, lower=True), rhs)
            beta[keep] = (gk - Wk.T @ alpha) / d2
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"reduced marginal system is singular (m={m}, n={n}, "
            f"min plan entry {P.min():.3e}): {exc}") from exc

    out = W * (alpha[:, None] + beta[None, :] - G)
    return out


def pairwise_cost(feat_a, feat_b) -> np.ndarray:
    """Pairwise Euclidean distance matrix between two feature sets."""
    a = np.atleast_2d(np.asarray(feat_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(feat_b, dtype=np.float64))
    if a.ndim != 2 or b.ndim != 2:
        raise ValidationError("feature sets must be 2-d arrays")
    if a.shape[1] != b.shape[1]:
        raise ValidationError(
            f"feature dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    return cdist(a, b, metric="euclidean")


def transport_cost(M, P) -> float:
    """Linear transport cost sum(M * P) of a plan."""
    return float(np.sum(np.asarray(M) * np.asarray(P)))
