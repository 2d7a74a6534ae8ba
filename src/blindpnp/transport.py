"""Entropic optimal transport: Sinkhorn forward solve and analytic backward.

The forward pass solves

    minimize  sum_ij M_ij P_ij + mu * P_ij (log P_ij - 1)
    over      P > 0 with uniform marginals 1/m and 1/n

by Sinkhorn scaling with Anderson mixing (Walker and Ni, SIAM J.
Numer. Anal. 2011), stabilized in the log domain: an iteration whose
scaling factors leave [1e-130, 1e130], or are not finite, is replaced
by an exact log-sum-exp update, which moves them into log-potentials.
Each log v is the plain step's, minus a least-squares combination of
the last 16 steps' differences, which keeps the fixed point; a mixed v
outside the range falls back to the plain step.  On the first four
plans of the 30 %-outlier train benchmark (n = 200, mu 0.1) it takes
35, 39, 51 and 53 iterations where plain scaling takes 349, 290, 1214
and 683.  For very small mu an optional annealing schedule
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
_ANDERSON_DEPTH = 16  # past iterations that a mixing step combines
_EPILOGUE_BYTES = 1 << 20  # plan rows built, scaled and summed at a time
_SUM_BYTES = 1 << 15  # alpha_i + beta_j built at a time in the backward


@dataclass(frozen=True)
class TransportPlan:
    """Strictly positive coupling with its convergence report."""

    P: np.ndarray
    iterations: int
    residual: float          # final max |marginal - 1/m or 1/n|, both sides
    converged: bool


def _logsumexp_rows(A):
    """log(sum(exp(A), axis=1)) without scipy overhead, in the 2-d A."""
    hi = A.max(axis=1, keepdims=True)
    hi = np.where(np.isfinite(hi), hi, 0.0)
    A -= hi
    return np.log(np.exp(A, out=A).sum(axis=1)) + hi[:, 0]


def _row_blocks(m, n, size=_EPILOGUE_BYTES):
    """Slices of `size` bytes of consecutive rows (at least one), or none
    when the rows are empty."""
    step = max(1, size // (8 * max(n, 1)))
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
    """Stabilized scaling loop from given potentials, Anderson-mixed.

    The plain step is u = r / Kv, then v = c / K'u.  From the third
    iteration on, log v is mixed (type II; Walker and Ni, SIAM J. Numer.
    Anal. 2011): with g = log(c / K'u) and f = g - log v, it becomes
    g - gamma dG, where the rows of dF and dG are the differences of f
    and g over the last _ANDERSON_DEPTH iterations and gamma solves the
    normal equations of min |f - gamma dF|, whose Gram matrix gains one
    row per iteration and 1e-10 of itself on the diagonal.  A singular
    solve keeps the plain step, and so does a mixed v outside
    [1 / _ABSORB_MAX, _ABSORB_MAX], which also clears the history.  A
    plain step outside that range runs the exact log-sum-exp step from
    the last v kept, which moves the scalings into phi and psi and
    clears the history too.  From the third iteration on, the loop also
    stops when the half step (r / Kv, last v), whose rows are exact, is
    within half the tolerance, as (u, v) must be after a full step.

    Builds the kernel in K from M; returns (phi, psi, u, v, iterations),
    after which K = exp(M / -mu + phi + psi) and P_ij = u_i K_ij v_j.
    Runs under sinkhorn_forward's np.errstate.
    """
    m, n = K.shape
    _kernel(M, mu, phi, psi, K)
    u, v, log_v = np.ones(m), np.ones(n), np.zeros(n)
    dF, dG = np.empty((2, _ANDERSON_DEPTH, n))
    gram = np.empty((_ANDERSON_DEPTH, _ANDERSON_DEPTH))
    held = 0       # differences stored in dF and dG since the last reset
    prev = None    # f and g of the last iteration since the last reset

    def lse_iteration():
        # exact log-domain update, a block of rows at a time in K's buffer
        nonlocal phi, psi
        blocks = _row_blocks(m, n)
        psi = psi + log_v
        phi = np.log(r)
        top = np.full(n, -np.inf)  # the maxima of the columns
        for rows in blocks:
            block = np.divide(M[rows], -mu, out=K[rows])
            block += psi
            phi[rows] -= _logsumexp_rows(block)
            block = np.divide(M[rows], -mu, out=K[rows])
            block += phi[rows, None]
            np.maximum(top, block.max(axis=0), out=top)
        top[~np.isfinite(top)] = 0.0
        sums = np.zeros(n)
        for rows in blocks:
            block = K[rows]
            block -= top
            np.exp(block, out=block)
            block[0] += sums  # adds the rows in order, as one sum would
            sums = block.sum(axis=0)
        psi = np.log(c) - (np.log(sums) + top)
        _kernel(M, mu, phi, psi, K)
        return np.abs(K.sum(axis=0) - c).max()

    lo, hi = 1.0 / _ABSORB_MAX, _ABSORB_MAX
    it = 0
    Kv = K @ v
    while it < max_iterations:
        it += 1
        u_new = r / Kv
        KTu = K.T @ u_new
        v_new = c / KTu
        # a K v or K' u of 0 or inf leaves the range; NaN fails too
        if not (u_new.min() >= lo and v_new.min() >= lo
                and u_new.max() <= hi and v_new.max() <= hi):
            col_residual = lse_iteration()
            u, v, log_v = np.ones(m), np.ones(n), np.zeros(n)
            held, prev = 0, None
        else:
            u = u_new
            if it > 2 and np.abs(v * KTu - c).max() <= 0.5 * tol:
                break  # the half step (r / Kv, v) has converged
            g = np.log(v_new)
            f = g - log_v
            v, log_v = v_new, g
            if prev is not None:
                slot = held % _ANDERSON_DEPTH
                np.subtract(f, prev[0], out=dF[slot])
                np.subtract(g, prev[1], out=dG[slot])
                held += 1
                size = min(held, _ANDERSON_DEPTH)
                gram[slot, :size] = gram[:size, slot] = dF[:size] @ dF[slot]
                gram[slot, slot] *= 1.0 + 1e-10  # Tikhonov regularization
                try:
                    gamma = np.linalg.solve(gram[:size, :size], dF[:size] @ f)
                except np.linalg.LinAlgError:
                    pass  # singular: keep the plain step
                else:
                    mixed = g - gamma @ dG[:size]
                    v_mix = np.exp(mixed)
                    if v_mix.min() >= lo and v_mix.max() <= hi:
                        v, log_v = v_mix, mixed
                    else:
                        held = 0
            # recorded from iteration 2, so the first two iterations are
            # the plain loop's
            prev = (f, g) if it > 1 else None
            col_residual = np.abs(v * KTu - c).max()
        Kv = K @ v
        # the 0.5 factor absorbs summation-order noise in the final recompute
        residual = max(np.abs(u * Kv - r).max(), col_residual)
        if residual <= 0.5 * tol:
            break

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

    From the third iteration on, the scaling steps are Anderson-mixed
    over the last 16 iterations, so the plan depends on the inputs
    alone.  A solve that converges within two iterations runs plain
    Sinkhorn steps throughout.

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
    # P * (alpha + beta - G) / mu, in order, from one small temporary
    for rows in _row_blocks(m, n, _SUM_BYTES):
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
