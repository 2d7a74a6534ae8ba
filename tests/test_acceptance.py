"""Acceptance suite: every exit criterion at its stated tolerance.

One pass/fail line prints per criterion (run with `pytest -s` to see
them all).  Desk-scale geometric targets use the synthetic generator;
gradient criteria use the finite-difference suites.  Rotation recovery
is measured with the exact geodesic angle: the clamped arccos form
cannot represent values below ~0.026 degrees, which criteria 7 and 9
require resolving.
"""

import itertools
import time
import tracemalloc

import numpy as np

from blindpnp.assignment import hungarian
from blindpnp.cli import main as cli_main
from blindpnp.geometry import geodesic_rotation_angle, translation_error
from blindpnp.gradcheck import (check_end_to_end, check_pnp_gradient,
                                check_pnp_second_order, check_pnp_vjp,
                                check_sinkhorn_vjp)
from blindpnp.losses import correspondence_loss, pose_loss
from blindpnp.pipeline import PipelineConfig, solve
from blindpnp.pose_solvers import CandidateSet, RansacConfig, ransac_p3p
from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
from blindpnp.transport import sinkhorn_forward, sinkhorn_vjp
from blindpnp.weighted_pnp import (PnPProblem, PnPSolverConfig, SparseWeights,
                                   pnp_solve, pnp_vjp)

from conftest import exact_bearings, random_pose, transport_cost

try:
    from threadpoolctl import threadpool_limits
except ImportError:  # pragma: no cover
    threadpool_limits = None


def report(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] criterion-{number:02d} {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def test_criterion_01_sinkhorn_feasibility():
    rng = np.random.default_rng(10)
    sinkhorn_forward(rng.uniform(0, 3, (200, 300)), mu=0.1)  # warm-up
    worst_residual = 0.0
    worst_ms = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 201))
        n = int(rng.integers(2, 301))
        M = rng.uniform(0, 3, (m, n))
        start = time.perf_counter()
        plan = sinkhorn_forward(M, mu=0.1, tol=1e-9)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        res = max(np.max(np.abs(plan.P.sum(axis=1) - 1.0 / m)),
                  np.max(np.abs(plan.P.sum(axis=0) - 1.0 / n)))
        worst_residual = max(worst_residual, res)
        worst_ms = max(worst_ms, elapsed_ms)
    report(1, "transport forward feasibility and speed",
           worst_residual <= 1e-8 and worst_ms < 50.0,
           f"max residual {worst_residual:.2e}, max {worst_ms:.1f} ms")


def test_criterion_02_sinkhorn_vjp_finite_differences():
    result = check_sinkhorn_vjp(seeds=range(20), m=8, n=10, mu=0.1,
                                tol=1e-5, fd_step=1e-6)
    report(2, "transport backward vs finite differences", result.passed,
           f"max rel err {result.max_relative_error:.2e}")


def test_criterion_03_entropic_limit_reaches_assignment():
    rng = np.random.default_rng(30)
    worst_gap = 0.0
    for _ in range(10):
        M = rng.uniform(0, 1, (5, 5))
        pairs = hungarian(M)
        optimal = M[pairs[:, 0], pairs[:, 1]].sum()
        brute = min(sum(M[i, p[i]] for i in range(5))
                    for p in itertools.permutations(range(5)))
        assert abs(optimal - brute) <= 1e-12, "assignment oracle mismatch"
        plan = sinkhorn_forward(M, mu=0.001, tol=1e-9, max_iterations=20000,
                                anneal=True)
        gap = abs(transport_cost(M, plan.P) - optimal / 5.0) / (optimal / 5.0)
        worst_gap = max(worst_gap, gap)
    report(3, "small-regularization transport cost near assignment optimum",
           worst_gap <= 0.02, f"max relative gap {worst_gap:.2e}")


def test_criterion_04_pose_layer_gradients():
    grad = check_pnp_gradient(seeds=range(20), tol=1e-5)
    second = check_pnp_second_order(seeds=range(20), tol=1e-5)
    vjp = check_pnp_vjp(seeds=range(20), tol=1e-4)
    report(4, "pose layer gradient, Hessian, mixed columns, backward",
           grad.passed and second.passed and vjp.passed,
           f"grad {grad.max_relative_error:.2e}, "
           f"H/B {second.max_relative_error:.2e}, "
           f"vjp {vjp.max_relative_error:.2e}")


def test_criterion_05_solver_path_independence():
    rng = np.random.default_rng(50)
    worst = 0.0
    ok = True
    for seed in range(10):
        inst = generate_instance(SynthConfig(n_points=12, seed=seed,
                                             pixel_noise_sigma=1.0))
        r = np.random.default_rng(seed)
        P = r.uniform(0, 1, (12, 12)) * 0.4
        P[inst.gt_pairs[:, 0], inst.gt_pairs[:, 1]] += 1.0
        P /= P.sum()
        problem = PnPProblem(bearings=inst.bearings, points=inst.points,
                             weights=P, init=inst.gt_pose)
        short = pnp_solve(problem, PnPSolverConfig(
            max_iterations=25, gradient_tolerance=1e-10))
        long = pnp_solve(problem, PnPSolverConfig(
            max_iterations=200, gradient_tolerance=1e-10))
        ok &= short.gradient_norm <= 1e-10 and long.gradient_norm <= 1e-10
        g = rng.standard_normal(6)
        diff = np.max(np.abs(pnp_vjp(problem, short, g)
                             - pnp_vjp(problem, long, g)))
        worst = max(worst, diff)
    report(5, "backward pass agnostic to solver budget",
           ok and worst <= 1e-6, f"max disagreement {worst:.2e}")


def test_criterion_06_end_to_end_chain():
    result = check_end_to_end(seeds=range(3), gammas=(0.0, 1.0), tol=1e-3,
                              probes_per_case=10, min_pass_fraction=0.9)
    skipped = [f for f in result.failures if f[0] == "skipped"]
    report(6, "full-chain cost gradient vs finite differences",
           result.passed,
           f"max rel err {result.max_relative_error:.2e}, "
           f"{result.cases} probes, skipped {skipped[0][1]}")


def _recovery_config(seed: int) -> PipelineConfig:
    return PipelineConfig(ransac=RansacConfig(seed=seed))


def test_criterion_07_noiseless_recovery():
    failures = []
    for n in (50, 1000):
        for seed in range(50):
            inst = generate_instance(SynthConfig(
                n_points=n, seed=seed, pixel_noise_sigma=0.0))
            result = solve(oracle_cost(inst, 5.0), inst,
                           _recovery_config(seed))
            rot_deg = np.degrees(geodesic_rotation_angle(
                result.refined_pose.matrix(), inst.gt_pose.matrix()))
            trans = translation_error(result.refined_pose.t, inst.gt_pose.t)
            if rot_deg > 1e-3 or trans > 1e-5:
                failures.append((n, seed, rot_deg, trans))
    report(7, "noiseless recovery at both scales", not failures,
           f"{len(failures)} failures" + (f", first {failures[0]}"
                                          if failures else ""))


def test_criterion_08_noisy_recovery():
    hits = 0
    seeds = 100
    for seed in range(seeds):
        inst = generate_instance(SynthConfig(n_points=1000, seed=seed,
                                             pixel_noise_sigma=2.0))
        result = solve(oracle_cost(inst, 5.0), inst, _recovery_config(seed))
        rot_deg = np.degrees(geodesic_rotation_angle(
            result.refined_pose.matrix(), inst.gt_pose.matrix()))
        trans = translation_error(result.refined_pose.t, inst.gt_pose.t)
        if rot_deg <= 1.0 and trans <= 0.05:
            hits += 1
    report(8, "noisy recovery (sigma = 2 px, 1000 points)",
           hits >= 95, f"{hits}/{seeds} within 1 deg / 0.05")


def test_criterion_09_robustness_to_candidate_outliers():
    hits = 0
    seeds = 100
    rng = np.random.default_rng(90)
    for seed in range(seeds):
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (100, 3))
        bearings = exact_bearings(pose, points)
        true_pairs = np.stack([np.arange(75), np.arange(75)], axis=1)
        wrong = np.stack([rng.integers(0, 100, 75),
                          rng.integers(0, 100, 75)], axis=1)
        cand = CandidateSet(pairs=np.vstack([true_pairs, wrong]),
                            weights=np.ones(150), bearings=bearings,
                            points=points)
        est = ransac_p3p(cand, RansacConfig(seed=seed))  # stock defaults
        weights = SparseWeights(
            pairs=est.inliers,
            values=np.full(est.inliers.shape[0],
                           1.0 / max(est.inliers.shape[0], 1)))
        problem = PnPProblem(bearings=bearings, points=points,
                             weights=weights, init=est.pose)
        refined = pnp_solve(problem)
        rot = geodesic_rotation_angle(refined.pose.matrix(), pose.matrix())
        trans = translation_error(refined.pose.t, pose.t)
        if rot <= 1e-3 and trans <= 1e-3:
            hits += 1
    report(9, "robust initializer with half the candidates wrong",
           hits >= 99, f"{hits}/{seeds} within 1e-3")


def test_criterion_10_performance_and_memory():
    inst = generate_instance(SynthConfig(n_points=1000, seed=77,
                                         pixel_noise_sigma=2.0))
    M = oracle_cost(inst, 5.0)
    config = _recovery_config(77)
    solve(M, inst, config)  # warm-up (BLAS initialization, caches)

    def timed_solve():
        start = time.perf_counter()
        solve(M, inst, config)
        return time.perf_counter() - start

    if threadpool_limits is not None:
        with threadpool_limits(limits=1):
            elapsed = timed_solve()
    else:  # pragma: no cover
        elapsed = timed_solve()

    peaks = {}
    rng = np.random.default_rng(0)
    for size in (500, 1000):
        Ms = rng.uniform(0, 1, (size, size))
        plan = sinkhorn_forward(Ms, mu=0.1)
        G = rng.standard_normal((size, size))
        sinkhorn_vjp(Ms, plan, 0.1, G)  # warm-up
        tracemalloc.start()
        tracemalloc.reset_peak()
        sinkhorn_vjp(Ms, plan, 0.1, G)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks[size] = peak
    memory_ok = all(peak <= 64 * s * s for s, peak in peaks.items())
    report(10, "single-thread pipeline speed and linear backward memory",
           elapsed <= 5.0 and memory_ok,
           f"{elapsed:.2f} s; peaks "
           + ", ".join(f"{s}: {p / (s * s):.1f} B/entry"
                       for s, p in peaks.items()))


def test_criterion_11_loss_contracts():
    rng = np.random.default_rng(110)
    ok = True
    for trial in range(1000):
        m = int(rng.integers(2, 8))
        n = int(rng.integers(2, 8))
        pose = random_pose(rng)
        points = rng.uniform(-0.5, 0.5, (n, 3))
        k = int(rng.integers(1, min(m, n) + 1))
        bearings = exact_bearings(pose, points)[:n][
            rng.permutation(n)[:m] if m <= n else np.arange(n)]
        if bearings.shape[0] < m:
            extra = exact_bearings(pose, rng.uniform(-0.5, 0.5,
                                                     (m - bearings.shape[0], 3)))
            bearings = np.vstack([bearings, extra])
        rows = rng.permutation(m)[:k]
        cols = rng.permutation(n)[:k]
        pairs = np.stack([rows, cols], axis=1)
        plan = sinkhorn_forward(rng.uniform(0, 2, (m, n)), mu=0.1)
        value, grad = correspondence_loss(plan.P, bearings, points, pose,
                                          0.01, gt_pairs=pairs)
        ok &= -1.0 <= value < 1.0
        ok &= set(np.unique(grad).tolist()) <= {-1.0, 1.0}
        a = random_pose(rng, max_angle=3.0)
        b = random_pose(rng, max_angle=3.0)
        ok &= 0.0 <= pose_loss(a, b).rotation <= np.pi
        if not ok:
            break
    report(11, "loss bounds and exact unit derivatives", ok,
           f"{trial + 1} trials")


def test_criterion_12_benchmark_determinism(tmp_path):
    dataset = tmp_path / "ds"
    code = cli_main(["generate", "--count", "20", "--seed", "500",
                     "--n-points", "25", "--out", str(dataset)])
    assert code == 0
    outputs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        code = cli_main(["benchmark", "--dataset", str(dataset),
                         "--out", str(out)])
        assert code == 0
        outputs.append(((out / "benchmark.csv").read_bytes(),
                        (out / "recall.csv").read_bytes()))
    report(12, "benchmark tables byte-identical across reruns",
           outputs[0] == outputs[1],
           f"{len(outputs[0][0])} + {len(outputs[0][1])} bytes compared")
