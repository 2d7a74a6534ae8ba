"""Entropic optimal transport: Sinkhorn forward solve and analytic backward.

The forward pass solves

    minimize  sum_ij M_ij P_ij + mu * P_ij (log P_ij - 1)
    over      P > 0 with uniform marginals 1/m and 1/n

by over-relaxed Sinkhorn scaling (Thibault et al. 2017; Lehmann et al.,
Optim. Lett. 2022), stabilized in the log domain: an iteration whose
scaling factors leave [1e-130, 1e130], or are not finite, is replaced
by an exact log-sum-exp update, which moves them into log-potentials.
Each side moves by the plain scaling factor raised to a power omega,
which keeps the fixed point; omega follows the residual's observed
contraction rate, and falls back to 1 (plain Sinkhorn) whenever the
residual stops shrinking or the log-sum-exp update runs.  On the first
four plans of the 30 %-outlier train benchmark (n = 200, mu 0.1) it
takes 58, 60, 148 and 93 iterations where plain scaling takes 349, 290,
1214 and 683.  For very small mu an optional annealing schedule
warm-starts the potentials from larger regularization values.  The
kernel is built from M in the plan's buffer and scaled in place into
the plan, P_ij = u_i K_ij v_j: one m x n array and one exponential per
entry, each pass about 1 MB of rows at a time while they are in cache.

The backward pass never materializes the (mn x mn) Jacobian.  At the
optimum the Hessian in P is diag(mu / P_ij), so implicit
differentiation (Eisenberger et al., CVPR 2022) gives, for G = dL/dP,

    dL/dM = W * (alpha_i + beta_j - G_ij),   W = P / mu,

with diag(d1) alpha + W beta = rho and W' alpha + diag(d2) beta = gam
(d1, d2: row and column sums of W; rho, gam: those of W * G).
Eliminating alpha = (rho - W beta) / d1 leaves S beta = gam - W' (rho
/ d1), S = diag(d2) - W' diag(1/d1) W: positive semidefinite with the
single null vector 1 and a consistent right-hand side, so no
constraint is dropped.  Jacobi-preconditioned conjugate gradients solve
it without forming S, one product with W and one with W' per step, for
every m and n in O(mn) memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

_ABSORB_MAX = 1e130  # scaling magnitude past which a log-sum-exp step runs
_ANNEAL_START = 0.1  # first regularization value of an annealed solve
_ANNEAL_FACTOR = 3.0  # ratio between successive annealing stages
_CG_MAX_ITERATIONS = 1000  # cap on conjugate-gradient steps in the backward
_OMEGA_WINDOW = 10  # scaling iterations between estimates of omega
_OMEGA_MAX = 1.95  # cap on the over-relaxation factor omega
_EPILOGUE_BYTES = 1 << 20  # plan rows built, scaled and summed at a time


@dataclass(frozen=True)
class TransportPlan:
    """Strictly positive coupling with its convergence report."""

    P: np.ndarray
    iterations: int
    residual: float          # final max |marginal - 1/m or 1/n|, both sides
    converged: bool


def _logsumexp_rows(A):
    """log(sum(exp(A), axis=1)) without scipy overhead; A is 2-d."""
    hi = A.max(axis=1, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    return np.log(np.exp(A - hi).sum(axis=1)) + hi[:, 0]


def _row_blocks(m, n):
    """Slices of _EPILOGUE_BYTES of consecutive rows (at least one), or
    none when the rows are empty."""
    step = max(1, _EPILOGUE_BYTES // (8 * max(n, 1)))
    return [slice(i, i + step) for i in range(0, m, step)] if n else []


def _kernel(M, mu, phi, psi, out):
    """exp(M / -mu + phi[:, None] + psi[None, :]) built in `out` a block
    of rows at a time, each pass over a block in cache; zero potentials
    are skipped (x + 0.0 has the bits of x, and exp(-0.0) = exp(0.0))."""
    shifted = phi.any() or psi.any()
    for rows in _row_blocks(*M.shape):
        if not np.isfinite(M[rows]).all():
            raise ValidationError("cost matrix has non-finite entries")
        block = np.divide(M[rows], -mu, out=out[rows])
        if shifted:
            block += phi[rows, None]
            block += psi
        np.exp(block, out=block)
    return out


def _plan_and_sums(M, mu, K, phi, psi, u, v):
    """The plan u_i K_ij v_j, scaled into K's buffer, and its row and
    column sums, a block of rows at a time while it is in cache.  A
    block where K or the plan holds a number that is not a normal float
    takes the exp form exp(M / -mu + (phi + log u) + (psi + log v)) and
    its bits.  Each block's column sum starts from the sums so far,
    added into its first row: numpy adds the rows of a C-contiguous
    array in order, so the sums have the bits of P.sum(axis=1) and
    P.sum(axis=0) (taken whole for n = 1, which numpy sums pairwise)."""
    m, n = K.shape
    tiny = np.finfo(np.float64).tiny
    sums, cols = np.empty(m), np.zeros(n)
    for rows in _row_blocks(m, n):
        P = K[rows]
        k_min = P.min()
        with np.errstate(over="ignore"):  # such a block takes the exp form
            P *= u[rows, None]
            P *= v
            sums[rows] = P.sum(axis=1)
        # rounding is monotone, so fl(fl(k_min u_min) v_min) bounds every
        # entry from below, and finite row sums bound every entry above
        if not (k_min >= tiny
                and (k_min * u[rows].min() * v.min() >= tiny or P.min() >= tiny)
                and (np.isfinite(sums[rows]).all() or P.max() < np.inf)):
            _kernel(M[rows], mu, phi[rows] + np.log(u[rows]),
                    psi + np.log(v), P)
            sums[rows] = P.sum(axis=1)
        first = P[0].copy()
        P[0] += cols  # x + 0.0 is x for the first block
        cols = P.sum(axis=0)
        P[0] = first
    return K, sums, K.sum(axis=0) if n == 1 else cols


def _scale_iterations(M, mu, K, r, c, phi, psi, tol, max_iterations):
    """Stabilized, over-relaxed scaling loop from given potentials.

    Each side is updated as u <- u * (r / (u * Kv))**omega, which for
    omega = 1 is the plain Sinkhorn step r / Kv.  Every window of
    iterations at one omega (_OMEGA_WINDOW at first), the residual's
    rate rho over the last half window gives the plain-step rate theta
    through the SOR relation theta = (rho + omega - 1)**2 / (omega**2 *
    rho), and omega is set to its optimum 2 / (1 + sqrt(1 - theta)), at
    most _OMEGA_MAX.  An iteration forms both updates and keeps them
    when every entry lies in [1 / _ABSORB_MAX, _ABSORB_MAX]; otherwise
    the exact log-sum-exp step runs from the last v kept and moves the
    scalings into phi and psi.  A rate of 1 or more, a non-finite rate
    and a log-sum-exp step all reset omega to 1.  A window that ran at
    omega > 1 and did not contract also doubles the window for the rest
    of the call, so a plan on which over-relaxation oscillates spends
    ever longer stretches on plain steps.

    Builds the kernel in K from M; returns (phi, psi, u, v, iterations),
    after which K = exp(M / -mu + phi + psi) and P_ij = u_i K_ij v_j.
    Runs under sinkhorn_forward's np.errstate.
    """
    m = r.shape[0]
    _kernel(M, mu, phi, psi, K)
    u = np.ones(m)
    v = np.ones(c.shape[0])
    omega = 1.0
    theta = 0.0
    window = _OMEGA_WINDOW
    start = 0            # iteration at which omega last changed
    half_residual = 0.0  # residual half a window after `start`

    def lse_iteration():
        # exact log-domain update; unconditionally stable
        nonlocal phi, psi
        logK0 = np.divide(M, -mu, out=K)  # K is rebuilt below
        psi = psi + np.log(v)
        phi = np.log(r) - _logsumexp_rows(logK0 + psi[None, :])
        psi = np.log(c) - _logsumexp_rows((logK0 + phi[:, None]).T)
        _kernel(M, mu, phi, psi, K)
        u[:] = 1.0
        v[:] = 1.0
        return np.abs(K.sum(axis=0) - c).max()

    it = 0
    Kv = K @ v
    while it < max_iterations:
        it += 1
        u_new = r / Kv if omega == 1.0 else u * (r / rows) ** omega
        KTu = K.T @ u_new
        v_new = c / KTu if omega == 1.0 else v * (c / (v * KTu)) ** omega
        # a K v or K' u of 0 or inf leaves the range; NaN fails too
        lo, hi = 1.0 / _ABSORB_MAX, _ABSORB_MAX
        fallback = not (u_new.min() >= lo and v_new.min() >= lo
                        and u_new.max() <= hi and v_new.max() <= hi)
        if fallback:
            col_residual = lse_iteration()
        else:
            u, v = u_new, v_new
            col_residual = np.abs(v * KTu - c).max()
        Kv = K @ v
        rows = u * Kv  # row sums of the plan, reused by the next u-update
        # the 0.5 factor absorbs summation-order noise in the final recompute
        residual = max(np.abs(rows - r).max(), col_residual)
        if residual <= 0.5 * tol:
            break

        if fallback and omega != 1.0:
            omega, theta, start = 1.0, 0.0, it
        elif it - start == window // 2:
            half_residual = residual
        elif it - start == window:
            rate = (residual / half_residual) ** (2.0 / window)
            if not rate < 1.0:  # diverging, stalled or not finite
                if omega > 1.0:
                    window *= 2
                omega, theta = 1.0, 0.0
            else:
                estimate = (rate + omega - 1.0) ** 2 / (omega ** 2 * rate)
                theta = max(theta, estimate) if omega > 1.0 else estimate
                omega = min(2.0 / (1.0 + np.sqrt(max(1.0 - theta, 0.0))),
                            _OMEGA_MAX)
            start = it

    return phi, psi, u, v, it


# the range test and the exp-form test of the final plan catch every
# overflow, zero division and NaN that the kernel or a scaling step makes
@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def sinkhorn_forward(M, mu: float = 0.1, tol: float = 1e-9,
                     max_iterations: int = 10000,
                     anneal: bool = False) -> TransportPlan:
    """Entropy-regularized plan with uniform marginals 1/m and 1/n.

    Runs to convergence (max row and column marginal residual <= tol)
    or to the iteration cap; non-convergence is reported through the
    plan's `converged` flag rather than raised, so callers can skip or
    retry.

    The scaling steps are over-relaxed by a factor omega in [1, 1.95]
    estimated from the residual's own contraction rate, so the plan
    depends on the inputs alone.  A solve that converges within the
    first 10 iterations runs plain Sinkhorn steps throughout.

    With ``anneal=True`` the solve warm-starts from a geometric schedule
    of larger regularization values down to `mu`, which is dramatically
    faster when mu is small.  The fixed point is the same either way.
    The plan is the kernel scaled by the closing factors u and v, which
    rounds exp(-M / mu + log u + log v + potentials) more closely than
    that form; a block of rows it would leave subnormal or zero takes it.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] < 1 or M.shape[1] < 1:
        raise ValidationError(f"cost must be a nonempty 2-d matrix, got {M.shape}")
    if not (mu > 0):
        raise ValidationError(f"entropy parameter mu must be positive, got {mu}")
    if not (tol >= 0):
        raise ValidationError(f"tolerance must be nonnegative, got {tol}")
    if not (max_iterations >= 0):
        raise ValidationError(
            f"max_iterations must be nonnegative, got {max_iterations}")
    m, n = M.shape
    r, c = np.full(m, 1.0 / m), np.full(n, 1.0 / n)

    schedule = [_ANNEAL_START] if anneal and _ANNEAL_START > mu else []
    while schedule and schedule[-1] > mu * _ANNEAL_FACTOR:
        schedule.append(schedule[-1] / _ANNEAL_FACTOR)
    schedule.append(mu)

    K = np.empty((m, n))  # the kernel, then the plan: one m x n array
    phi, psi = np.zeros(m), np.zeros(n)
    u, v = np.ones(m), np.ones(n)
    total_it = 0
    prev_mu = schedule[0]
    for stage_mu in schedule:
        # potentials scale inversely with the regularization strength
        ratio = prev_mu / stage_mu
        phi, psi = (phi + np.log(u)) * ratio, (psi + np.log(v)) * ratio
        stage_tol = tol if stage_mu == mu else max(tol, 1e-3)
        phi, psi, u, v, it = _scale_iterations(
            M, stage_mu, K, r, c, phi, psi, stage_tol, max_iterations - total_it)
        total_it += it
        prev_mu = stage_mu
        if total_it >= max_iterations:
            break

    if stage_mu != mu:  # the cap stopped an annealed run before mu
        phi, psi = phi + np.log(u), psi + np.log(v)
        u, v = np.ones(m), np.ones(n)
        _kernel(M, mu, phi, psi, K)
    P, rows, cols = _plan_and_sums(M, mu, K, phi, psi, u, v)
    residual = max(float(np.max(np.abs(rows - r))),
                   float(np.max(np.abs(cols - c))))
    return TransportPlan(P=P, iterations=total_it, residual=residual,
                         converged=residual <= tol)


def sinkhorn_vjp(M, plan: TransportPlan, mu: float, grad_P,
                 out=None) -> np.ndarray:
    """dL/dM given dL/dP, by implicit differentiation at the optimum.

    `plan` must be a converged, strictly positive TransportPlan.  `M`,
    which dL/dM depends on only through the plan, is shape-checked when
    given and may be None.  dL/dM goes into `out` when given, which may
    be grad_P itself, or else into a new array.
    """
    P = np.asarray(plan.P, dtype=np.float64)
    G = np.asarray(grad_P, dtype=np.float64)
    m, n = P.shape
    if M is not None and np.asarray(M).shape != (m, n):
        raise ValidationError(
            f"cost shape {np.asarray(M).shape} does not match plan {P.shape}")
    if G.shape != (m, n):
        raise ValidationError(f"grad_P shape {G.shape} does not match plan {P.shape}")
    if not (mu > 0):
        raise ValidationError("mu must be positive")
    if not P.min() > 0:  # also fails on NaN
        raise ValidationError("transport plan must be strictly positive")
    if not plan.converged:
        raise ValidationError(
            "plan did not converge; the implicit gradient is undefined "
            f"(residual {plan.residual:.2e})")

    # W = P / mu scales S and its right-hand side alike, so solve with P
    rho = np.einsum("ij,ij->i", P, G)
    gam = np.einsum("ij,ij->j", P, G)
    if not (np.all(np.isfinite(rho)) and np.all(np.isfinite(gam))):
        raise ValidationError("grad_P has non-finite entries"
                              if not np.all(np.isfinite(G))
                              else "P * grad_P is not finite")
    r = P.sum(axis=1)
    y = P.T @ (rho / r)
    # measured against the terms that form the right-hand side, never
    # against gam - y itself: on saturated plans that is pure cancellation
    tol = 1e-12 * (np.linalg.norm(gam) + np.linalg.norm(y))
    beta = _schur_cg(P, r, P.sum(axis=0), gam - y, tol)
    alpha = (rho - P @ beta) / r
    out = np.empty((m, n)) if out is None else out
    for rows in _row_blocks(m, n):  # P * (alpha + beta - G) / mu, in order
        block = np.subtract(alpha[rows, None] + beta, G[rows], out=out[rows])
        block *= P[rows]
        block /= mu
    return out


def _schur_cg(P, r, c, b, tol):
    """x with |(diag(c) - P' diag(1/r) P) x - b| <= tol, by Jacobi-
    preconditioned conjugate gradients from x = 0."""
    # c_j minus a sum of at most c_j: below eps * c_j it is rounding
    diag = c - np.einsum("ij,ij,i->j", P, P, 1.0 / r)
    inv = 1.0 / np.maximum(diag, np.finfo(np.float64).eps * c)
    x = np.zeros_like(b)
    res = b.copy()
    p = z = inv * res
    rz = res @ z
    it = 0
    while not (norm := np.linalg.norm(res)) <= tol:
        if it == _CG_MAX_ITERATIONS or not np.isfinite(norm):
            raise NumericalError(
                f"transport backward: CG stopped after {it} iterations at "
                f"residual {norm:.3e} > {tol:.3e}, min plan entry {P.min():.3e}")
        it += 1
        Sp = c * p - P.T @ ((P @ p) / r)
        step = rz / (p @ Sp)
        x += step * p
        res -= step * Sp
        z = inv * res
        rz, rz_prev = res @ z, rz
        p = z + (rz / rz_prev) * p
    return x


def transport_cost(M, P) -> float:
    """Linear transport cost sum(M * P) of a plan."""
    return float(np.sum(np.asarray(M) * np.asarray(P)))
