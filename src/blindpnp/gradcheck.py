"""Finite-difference verification suites for every gradient path.

Each check builds random problems from seeds, compares an analytic
quantity against central finite differences (or a re-solve probe), and
reports the worst relative error.  Per-entry relative error uses the
usual mixed normalization

    |a - b| / max(|b|, 0.01 * max|b|)

so that entries far below the gradient's scale cannot dominate through
their denominators.  The `corrupt` hook flips the sign of the analytic
quantity under test; it exists so the harness can prove that each check
actually fails when its subject is wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularHessianError
from .geometry import Pose
from .losses import correspondence_loss, pose_loss
from .pipeline import PipelineConfig, backward, solve
from .pose_solvers import RansacConfig
from .synth import SynthConfig, generate_instance, oracle_cost
from .transport import sinkhorn_forward, sinkhorn_vjp
from .weighted_pnp import (PnPProblem, PnPSolverConfig, pnp_objective,
                           pnp_second_order, pnp_solve, pnp_vjp)

_FLOOR_FRACTION = 0.01


def relative_errors(analytic, reference) -> np.ndarray:
    a = np.asarray(analytic, dtype=np.float64).ravel()
    b = np.asarray(reference, dtype=np.float64).ravel()
    scale = np.max(np.abs(b)) if b.size else 0.0
    denom = np.maximum(np.abs(b), max(_FLOOR_FRACTION * scale, 1e-300))
    return np.abs(a - b) / denom


@dataclass
class CheckResult:
    name: str
    max_relative_error: float
    tolerance: float
    passed: bool
    cases: int
    failures: list = field(default_factory=list)   # (seed, error) pairs
    notes: list = field(default_factory=list)      # e.g. expected-singular

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"; {'; '.join(self.notes)}" if self.notes else ""
        return (f"[{status}] {self.name}: max rel err {self.max_relative_error:.3e}"
                f" (tol {self.tolerance:.0e}, {self.cases} cases{extra})")


def _central(f, x, index, step):
    """Central difference of f at x along entry `index` of x."""
    xp = x.copy()
    xp[index] += step
    xm = x.copy()
    xm[index] -= step
    return (f(xp) - f(xm)) / (2 * step)


def _per_seed(name, seeds, tol, corrupt, compare) -> CheckResult:
    """Worst relative error of the (analytic, reference) pairs that
    `compare(seed)` returns, analytic negated under `corrupt`; a string
    return notes the seed as expected-singular with that condition.  No
    seeds, no pass."""
    seeds = list(seeds)
    sign = -1.0 if corrupt else 1.0
    worst = 0.0
    failures = []
    notes = []
    for seed in seeds:
        pairs = compare(seed)
        if isinstance(pairs, str):
            notes.append(f"seed {seed}: expected-singular ({pairs})")
            continue
        err = max(float(np.max(relative_errors(sign * a, b)))
                  for a, b in pairs)
        worst = max(worst, err)
        if err > tol:
            failures.append((seed, err))
    return CheckResult(name, worst, tol, bool(seeds) and worst <= tol,
                       len(seeds), failures, notes)


def _random_stationary_problem(seed: int, n: int = 10):
    """A weighted n x n problem solved to a tight stationary point."""
    rng = np.random.default_rng(seed)
    inst = generate_instance(SynthConfig(
        n_points=n, seed=seed, pixel_noise_sigma=1.0))
    P = rng.uniform(0.0, 1.0, (n, n)) * 0.4
    P[inst.gt_pairs[:, 0], inst.gt_pairs[:, 1]] += 1.0
    P = P / P.sum()
    problem = PnPProblem(bearings=inst.bearings, points=inst.points,
                         weights=P, init=inst.gt_pose)
    config = PnPSolverConfig(gradient_tolerance=1e-10)
    solution = pnp_solve(problem, config)
    return problem, solution, P


def check_sinkhorn_vjp(seeds=range(20), m: int = 8, n: int = 10,
                       mu: float = 0.1, tol: float = 1e-5,
                       fd_step: float = 1e-6, corrupt: bool = False
                       ) -> CheckResult:
    """Transport backward against finite differences of the forward."""
    def compare(seed):
        rng = np.random.default_rng(seed)
        M = rng.uniform(0.05, 2.0, (m, n))
        G = rng.standard_normal((m, n))
        plan = sinkhorn_forward(M, mu=mu, tol=1e-12)

        def loss(Mx):
            return np.sum(G * sinkhorn_forward(
                Mx, mu=mu, tol=1e-12, max_iterations=50000).P)

        fd = [_central(loss, M, ij, fd_step) for ij in np.ndindex(m, n)]
        return [(sinkhorn_vjp(M, plan, mu, G), fd)]

    return _per_seed("sinkhorn-vjp-vs-fd", seeds, tol, corrupt, compare)


def check_pnp_gradient(seeds=range(10), tol: float = 1e-5,
                       fd_step: float = 1e-5, corrupt: bool = False
                       ) -> CheckResult:
    """Analytic pose gradient of the weighted objective against FD.

    The probe pose sits a healthy distance from the optimum so gradient
    components stay well above the FD oracle's rounding noise.
    """
    def compare(seed):
        problem, solution, _ = _random_stationary_problem(seed)
        rng = np.random.default_rng(seed + 1)
        x = solution.pose.as_vector() + rng.standard_normal(6) * 0.3

        def objective(y):
            return pnp_objective(problem, Pose.from_vector(y))[0]

        fd = [_central(objective, x, k, fd_step) for k in range(6)]
        return [(pnp_objective(problem, Pose.from_vector(x))[1], fd)]

    return _per_seed("pnp-objective-gradient-vs-fd", seeds, tol, corrupt,
                     compare)


def check_pnp_second_order(seeds=range(10), tol: float = 1e-5,
                           fd_step: float = 1e-6, n: int = 10,
                           corrupt: bool = False) -> CheckResult:
    """Pose Hessian and mixed-derivative columns against FD of the gradient.

    Underdetermined cases (a singular Hessian, e.g. a single pair) are
    reported as expected-singular and skipped, not failed.
    """
    def compare(seed):
        problem, solution, P = _random_stationary_problem(seed, n=n)
        pose = solution.pose
        data = pnp_second_order(problem, solution)
        if data.singular:
            return f"cond {data.condition_number:.1e}"

        def gradient(y):
            return pnp_objective(problem, Pose.from_vector(y))[1]

        # B rows: FD of the pose gradient over a few weight entries
        def gradient_at_weights(Px):
            return pnp_objective(PnPProblem(problem.bearings, problem.points,
                                            Px, pose), pose)[1]

        x = pose.as_vector()
        Hfd = np.stack([_central(gradient, x, k, fd_step) for k in range(6)],
                       axis=1)
        picks = np.random.default_rng(seed + 2).choice(
            P.size, size=6, replace=False)
        return [(data.H, Hfd)] + [
            (data.B[flat], _central(gradient_at_weights, P,
                                    np.unravel_index(flat, P.shape), fd_step))
            for flat in picks]

    return _per_seed("pnp-second-order-vs-fd", seeds, tol, corrupt, compare)


def check_pnp_vjp(seeds=range(10), tol: float = 1e-4, fd_step: float = 1e-6,
                  probes_per_case: int = 8, n: int = 10,
                  corrupt: bool = False) -> CheckResult:
    """Implicit pose-layer backward against re-solve finite differences."""
    tight = PnPSolverConfig(gradient_tolerance=1e-10)

    def compare(seed):
        problem, solution, P = _random_stationary_problem(seed, n=n)
        rng = np.random.default_rng(seed + 3)
        grad_pose = rng.standard_normal(6)
        try:
            analytic = pnp_vjp(problem, solution, grad_pose)
        except SingularHessianError as exc:
            return f"cond {exc.condition_number:.1e}"

        def pose_at_weights(Px):
            pr = PnPProblem(problem.bearings, problem.points, Px,
                            solution.pose)
            return pnp_solve(pr, tight).pose.as_vector()

        picks = np.unravel_index(
            rng.choice(P.size, size=min(probes_per_case, P.size),
                       replace=False), P.shape)
        fd = [grad_pose @ _central(pose_at_weights, P, ij, fd_step)
              for ij in zip(*picks)]
        return [(analytic[picks], fd)]

    return _per_seed("pnp-vjp-vs-resolve-fd", seeds, tol, corrupt, compare)


def check_loss_gradients(seeds=range(10), tol: float = 1e-6,
                         fd_step: float = 1e-6, corrupt: bool = False
                         ) -> CheckResult:
    """Pose-loss derivative against FD (away from 0 and 180 degrees)."""
    def compare(seed):
        rng = np.random.default_rng(seed)
        axis = rng.standard_normal(3)
        axis /= np.linalg.norm(axis)
        gt = Pose(axis * rng.uniform(0.2, 0.6), rng.uniform(-1, 1, 3))
        est = Pose(gt.r + rng.standard_normal(3) * 0.2,
                   gt.t + rng.standard_normal(3) * 0.2)

        def loss(y):
            return pose_loss(Pose.from_vector(y), gt).total

        fd = [_central(loss, est.as_vector(), k, fd_step) for k in range(6)]
        return [(pose_loss(est, gt).grad, fd)]

    return _per_seed("pose-loss-gradient-vs-fd", seeds, tol, corrupt, compare)


def _end_to_end_case(seed: int):
    inst = generate_instance(SynthConfig(n_points=8, seed=seed,
                                         pixel_noise_sigma=0.5))
    M = oracle_cost(inst, sharpness=0.8, noise_sigma=0.2, seed=seed + 100)
    config = PipelineConfig(sinkhorn_tol=1e-13,
                            ransac=RansacConfig(seed=seed + 7))
    return inst, M, config


class _CandidatesChanged(Exception):
    """A probe moved the top-k candidate list; its difference is skipped."""


def check_end_to_end(seeds=range(3), gammas=(0.0, 1.0), tol: float = 1e-3,
                     fd_step: float = 1e-5, probes_per_case: int = 10,
                     min_pass_fraction: float = 0.9, corrupt: bool = False
                     ) -> CheckResult:
    """Full-chain dL/dM against FD of the whole forward pass.

    Probes whose perturbation changes the top-k candidate list are
    excluded (they cross a legitimate discontinuity of the robust
    initializer) and logged as skips.  Passes when at least
    `min_pass_fraction` of the stable probes meet the tolerance.
    """
    from .assignment import candidate_count, top_k_select

    worst = 0.0
    failures = []
    total_checked = 0
    total_passed = 0
    total_skipped = 0
    for seed in seeds:
        inst, M, config = _end_to_end_case(seed)
        base = solve(M, inst, config)
        theta = config.loss.theta

        def losses_of(result):
            lc, dlc = correspondence_loss(
                result.plan.P, inst.bearings, inst.points, inst.gt_pose,
                theta, gt_pairs=inst.gt_pairs)
            pl = pose_loss(result.refined_pose, inst.gt_pose)
            return lc, dlc, pl

        _, dlc, pl = losses_of(base)
        k = candidate_count(inst.m, inst.n)
        base_sel = top_k_select(base.plan.P, k)[:2]
        rng = np.random.default_rng(seed + 5)
        picks = rng.choice(inst.m * inst.n, size=probes_per_case, replace=False)
        for gamma in gammas:
            dM = backward(base, inst, config, dlc, gamma * pl.grad)
            if corrupt:
                dM = -dM
            scale = np.max(np.abs(dM))

            def loss(Mx):
                r = solve(Mx, inst, config)
                sel = top_k_select(r.plan.P, k)[:2]
                if not (np.array_equal(sel[0], base_sel[0])
                        and np.array_equal(sel[1], base_sel[1])):
                    raise _CandidatesChanged
                lcx, _, plx = losses_of(r)
                return lcx + gamma * plx.total

            for flat in picks:
                i, j = divmod(int(flat), inst.n)
                try:
                    fd = _central(loss, M, (i, j), fd_step)
                except _CandidatesChanged:
                    total_skipped += 1
                    continue
                err = abs(dM[i, j] - fd) / max(abs(fd), _FLOOR_FRACTION * scale)
                worst = max(worst, err)
                total_checked += 1
                if err <= tol:
                    total_passed += 1
                else:
                    failures.append((seed, gamma, (i, j), err))
    frac = total_passed / total_checked if total_checked else 0.0
    passed = total_checked > 0 and frac >= min_pass_fraction
    result = CheckResult("end-to-end-vs-fd", worst, tol, passed,
                         total_checked, failures)
    result.failures.append(("skipped", total_skipped))
    return result


ALL_CHECKS = {
    "sinkhorn_vjp": check_sinkhorn_vjp,
    "pnp_gradient": check_pnp_gradient,
    "pnp_second_order": check_pnp_second_order,
    "pnp_vjp": check_pnp_vjp,
    "loss_gradients": check_loss_gradients,
    "end_to_end": check_end_to_end,
}


def run_all(names=None, inject_bug: str | None = None,
            seeds_per_check: int | None = None) -> list[CheckResult]:
    """Run the named checks (all by default); `inject_bug` corrupts one
    check's analytic quantity to prove the harness catches sign errors."""
    results = []
    for name, fn in ALL_CHECKS.items():
        if names and name not in names:
            continue
        kwargs = {}
        if inject_bug == name:
            kwargs["corrupt"] = True
        if seeds_per_check is not None:
            kwargs["seeds"] = range(seeds_per_check)
        results.append(fn(**kwargs))
    return results
