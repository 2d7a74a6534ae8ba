"""Closed-loop benchmark of the blindpnp forward pass and train step.

One client in one process: each op starts when the previous one has
ended.  Run it from the repository root:

    python3 perfbench/run.py --workload noisy_train_n1000 --seed 1 \
        --seconds 30 --trace 0

The library receives only arrays made from the seed by
`synth.generate_instance` and `synth.oracle_cost`.  Instance `i` of a
run is built from `SeedSequence([seed, i])`, so a seed fixes every input.

`--trace 0` times the public entry points `pipeline.solve` and
`pipeline.backward` and reports the end-to-end metrics.  `--trace 1`
runs each instance twice, untraced and through a recomposition of the
same chain from each layer's public function with a span around every
layer, and reports the per-layer metrics.  Spans stay in memory until
the run ends.

Every op is checked (convergence, finite poses, the zero row and column
sums of dL/dM, bit-identical traced and untraced outputs, repeatable
outputs across runs); a failing op is counted with its stage and the
run goes on.  The last line of stdout is the result JSON, the line
before it the run record with provenance and failures by stage; both
are also written under perfbench/out/.  See perfbench/README.md.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pin BLAS/OpenMP before numpy is imported

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(SRC))

try:
    import numpy as np
    import scipy
    import blindpnp
    from blindpnp.assignment import candidate_count, top_k_select
    from blindpnp.errors import ValidationError
    from blindpnp.losses import correspondence_loss, pose_loss
    from blindpnp.pipeline import PipelineConfig, backward, pose_errors, solve
    from blindpnp.pose_solvers import CandidateSet, ransac_p3p
    from blindpnp.synth import SynthConfig, generate_instance, oracle_cost
    from blindpnp.transport import sinkhorn_forward, sinkhorn_vjp
    from blindpnp.weighted_pnp import (PnPProblem, PnPSolverConfig,
                                       pnp_solve, pnp_vjp)
except ImportError as exc:
    sys.exit(f"perfbench: cannot import blindpnp from {SRC}: {exc}")
if Path(blindpnp.__file__).resolve().parent != SRC / "blindpnp":
    sys.exit(f"perfbench: blindpnp imported from {blindpnp.__file__}, "
             f"not from {SRC}")
IMPORT_S = time.perf_counter() - _START

PIXEL_NOISE = 2.0
SETUP_REPEATS = 3
SMOKE_N = 40
SMOKE_INSTANCES = 2


@dataclass(frozen=True)
class Workload:
    n: int
    sharpness: float
    cost_noise: float
    outlier_fraction: float
    train: bool  # solve + losses + backward, else solve only
    prefix: int  # instances the traced run's counts and accuracy cover


WORKLOADS = {
    # forward only: the backward raises StageError on near-permutation
    # plans (ROADMAP item 2)
    "sharp_forward_n2000": Workload(
        n=2000, sharpness=5.0, cost_noise=0.0, outlier_fraction=0.0,
        train=False, prefix=12),
    "noisy_train_n1000": Workload(
        n=1000, sharpness=1.0, cost_noise=0.3, outlier_fraction=0.0,
        train=True, prefix=12),
    "outlier_train_n200": Workload(
        n=200, sharpness=1.0, cost_noise=0.3, outlier_fraction=0.3,
        train=True, prefix=24),
}

# Every workload runs the README's `solve --newton-polish` setting: with
# plain L-BFGS, about 1 in 4 sharp plans and 1 in 150 outlier_train
# instances stop at |g| of 1.0e-9 to 3.5e-9, above the 1e-9 tolerance
# (ROADMAP item 2b), and would fail the convergence check.
CONFIG = PipelineConfig(mu=0.1, solver=PnPSolverConfig(newton_polish=True))

# per-layer span names; `op` is the root span of one traced op
LAYERS = ("transport.sinkhorn_forward", "assignment.top_k_select",
          "pose_solvers.ransac_p3p", "weighted_pnp.pnp_solve",
          "losses.correspondence_loss", "losses.pose_loss",
          "weighted_pnp.pnp_vjp", "transport.sinkhorn_vjp")


@dataclass
class Outputs:
    plan: object
    estimate: object
    refined: object
    dM: object  # dL/dM on train workloads, else None
    k: int

    def summary(self) -> dict:
        """Work counts and convergence reports, without the arrays:
        they must repeat exactly for the same inputs."""
        return {"sinkhorn_iterations": self.plan.iterations,
                "sinkhorn_converged": bool(self.plan.converged),
                "sinkhorn_residual": self.plan.residual, "k": self.k,
                "hypotheses": self.estimate.iterations_used,
                "inliers": int(self.estimate.inliers.shape[0]),
                "found": bool(self.estimate.found_pose),
                "refine_iterations": self.refined.iterations,
                "refine_converged": bool(self.refined.converged),
                "grad_norm": self.refined.gradient_norm}

    def digest(self) -> str:
        h = hashlib.blake2b(digest_size=16)
        arrays = [self.plan.P, self.estimate.pose.r, self.estimate.pose.t,
                  self.refined.pose.r, self.refined.pose.t]
        if self.dM is not None:
            arrays.append(self.dM)
        for a in arrays:
            h.update(np.ascontiguousarray(a).tobytes())
        h.update(json.dumps(self.summary(), sort_keys=True).encode())
        return h.hexdigest()


class Tracer:
    """Spans (name, start, end, parent index, op id), kept in memory."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self.failed_in = None
        self._open = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._open[-1] if self._open else None
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        except Exception:
            if self.failed_in is None:
                self.failed_in = name  # innermost span sees it first
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, self.op_id)

    def self_times(self, first: int) -> dict:
        """Self time by span name over spans[first:], which is one op."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child[parent - first] += end - start
        out = {}
        for (name, start, end, _, _), c in zip(spans, child):
            out[name] = out.get(name, 0.0) + (end - start - c)
        out["op.total"] = spans[0][2] - spans[0][1]
        return out


def make_inputs(wl: Workload, n: int, seed: int, index: int):
    inst_seed, cost_seed = (int(s) for s in
                            np.random.SeedSequence([seed, index])
                            .generate_state(2))
    inst = generate_instance(SynthConfig(
        n_points=n, pixel_noise_sigma=PIXEL_NOISE,
        outlier_fraction=wl.outlier_fraction, seed=inst_seed))
    M = oracle_cost(inst, wl.sharpness, noise_sigma=wl.cost_noise,
                    seed=cost_seed)
    return inst, M


def untraced_op(wl, cfg, inst, M):
    """The public entry points; returns (outputs, solve_s, op_s)."""
    t0 = time.perf_counter()
    result = solve(M, inst, cfg)
    t1 = time.perf_counter()
    dM = None
    if wl.train:
        _, dlc = correspondence_loss(result.plan.P, inst.bearings,
                                     inst.points, inst.gt_pose,
                                     cfg.loss.theta, gt_pairs=inst.gt_pairs)
        pl = pose_loss(result.refined_pose, inst.gt_pose)
        dM = backward(result, inst, cfg, dlc, pl.grad)
    t2 = time.perf_counter()
    k = candidate_count(inst.m, inst.n, cfg.k_factor)
    return Outputs(result.plan, result.ransac_estimate, result.refined,
                   dM, k), t1 - t0, t2 - t0


def traced_op(tracer, wl, cfg, inst, M):
    """`solve` and `backward` rebuilt from each layer's public function,
    the same calls in the same order, with a span around each layer."""
    with tracer.span("op"):
        with tracer.span("pipeline.solve"):
            M = np.asarray(M, dtype=np.float64)
            if M.shape != (inst.m, inst.n):
                raise ValidationError(f"cost matrix shape {M.shape}")
            with tracer.span("transport.sinkhorn_forward"):
                plan = sinkhorn_forward(
                    M, mu=cfg.mu, tol=cfg.sinkhorn_tol,
                    max_iterations=cfg.sinkhorn_max_iterations,
                    anneal=cfg.sinkhorn_anneal)
            k = candidate_count(inst.m, inst.n, cfg.k_factor)
            with tracer.span("assignment.top_k_select"):
                rows, cols, values = top_k_select(plan.P, k)
            candidates = CandidateSet(
                pairs=np.stack([rows, cols], axis=1), weights=values,
                bearings=inst.bearings, points=inst.points)
            with tracer.span("pose_solvers.ransac_p3p"):
                estimate = ransac_p3p(candidates, cfg.ransac)
            problem = PnPProblem(bearings=inst.bearings, points=inst.points,
                                 weights=plan.P, init=estimate.pose)
            with tracer.span("weighted_pnp.pnp_solve"):
                refined = pnp_solve(problem, cfg.solver)
        dM = None
        if wl.train:
            with tracer.span("losses.correspondence_loss"):
                _, dlc = correspondence_loss(
                    plan.P, inst.bearings, inst.points, inst.gt_pose,
                    cfg.loss.theta, gt_pairs=inst.gt_pairs)
            with tracer.span("losses.pose_loss"):
                pl = pose_loss(refined.pose, inst.gt_pose)
            with tracer.span("pipeline.backward"):
                grad_P = np.asarray(dlc, dtype=np.float64)
                grad_pose = np.asarray(pl.grad, dtype=np.float64).reshape(6)
                total = grad_P.copy()
                if np.any(grad_pose != 0.0):
                    problem = PnPProblem(
                        bearings=inst.bearings, points=inst.points,
                        weights=plan.P, init=estimate.pose)
                    with tracer.span("weighted_pnp.pnp_vjp"):
                        total = total + pnp_vjp(problem, refined, grad_pose)
                with tracer.span("transport.sinkhorn_vjp"):
                    dM = sinkhorn_vjp(None, plan, cfg.mu, total)
    return Outputs(plan, estimate, refined, dM, k)


def failed_checks(out: Outputs) -> list:
    """Names of the output checks this op fails."""
    bad = []
    if not out.plan.converged:
        bad.append("check.sinkhorn_converged")
    if not out.refined.converged:
        bad.append("check.refine_converged")
    poses = (out.estimate.pose, out.refined.pose)
    if not all(np.all(np.isfinite(p.r)) and np.all(np.isfinite(p.t))
               for p in poses):
        bad.append("check.finite_pose")
    if out.dM is not None:
        # adding a constant to a row or column of M leaves P unchanged,
        # so every row and column sum of dL/dM is zero
        A = np.abs(out.dM)
        scale = max(float(A.sum(axis=1).max()), float(A.sum(axis=0).max()),
                    np.finfo(float).tiny)
        worst = max(float(np.abs(out.dM.sum(axis=1)).max()),
                    float(np.abs(out.dM.sum(axis=0)).max()))
        if not np.all(np.isfinite(out.dM)) or worst > 1e-9 * scale:
            bad.append("check.dLdM_marginals")
    return bad


def pool_size(P, k: int) -> int:
    """Entries of P at or above its k-th largest value: what
    top_k_select sorts."""
    flat = P.ravel()
    if k >= flat.size:
        return flat.size
    kth = np.partition(flat, flat.size - k)[flat.size - k]
    return int(np.count_nonzero(flat >= kth))


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def tail(values):
    """The highest percentile with at least ten samples beyond it."""
    if len(values) < 20:
        return None
    q = 1.0 - 10.0 / len(values)
    return {"percentile": 100.0 * q, "value": float(np.quantile(values, q))}


def file_digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def provenance(args) -> dict:
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha,
        "src_sha256": file_digest(SRC.glob("blindpnp/*.py")),
        "bench_sha256": file_digest([Path(__file__).resolve()]),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(), "cpu_model": cpu,
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "smoke": args.smoke,
    }


def check_ledger(name: str, digests: dict) -> int:
    """Compare per-instance digests with earlier runs of the same code
    and seed (traced or not), then record them.  Returns mismatches."""
    path = OUT / "ledger" / f"{name}.json"
    old = json.loads(path.read_text()) if path.exists() else {}
    new = {str(i): d for i, d in digests.items()}
    mismatches = sum(1 for i, d in new.items() if old.get(i, d) != d)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({**old, **new}, sort_keys=True))
    return mismatches


def run(args) -> tuple:
    wl = WORKLOADS[args.workload]
    n = SMOKE_N if args.smoke else wl.n
    prefix = SMOKE_INSTANCES if args.smoke else wl.prefix
    prov = provenance(args)
    failures = Counter()  # by stage or check name
    failed = 0            # ops that raised or failed a check
    attempted = 0
    busy = 0.0            # seconds inside untraced ops
    digests = {}          # instance index -> (digest, traced)

    def attempt(op, *op_args):
        """Run and check one op; returns its result, or None when it
        fails, after counting the failing stage or check."""
        nonlocal attempted, failed, busy
        attempted += 1
        traced = isinstance(op_args[0], Tracer)
        t0 = time.perf_counter()
        try:
            done = op(*op_args)
        except Exception as exc:  # a failing op must not end the run
            stage = getattr(exc, "stage", None) or (
                op_args[0].failed_in if traced else None)
            failures[stage or type(exc).__name__] += 1
            failed += 1
            return None
        finally:
            if not traced:
                busy += time.perf_counter() - t0
        out = done[0]
        bad = failed_checks(out)
        digest = out.digest()
        first, first_traced = digests.setdefault(index, (digest, traced))
        if first != digest:
            bad.append("check.trace_mismatch" if first_traced != traced
                       else "check.determinism")
        failures.update(bad)
        failed += bool(bad)
        return None if bad else done

    def traced(tracer, *op_args):
        first = len(tracer.spans)
        return traced_op(tracer, *op_args), tracer.self_times(first)

    # set-up: build inputs and run one warm-up op, several times
    index = 0
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inst, M = make_inputs(wl, n, args.seed, index)
        attempt(untraced_op, wl, CONFIG, inst, M)
        setup_times.append(time.perf_counter() - t0)
    setup_s = IMPORT_S + median(setup_times)

    tracer = Tracer()
    ok = []  # one entry per instance whose ops all passed
    attempted_before, busy = attempted, 0.0
    minimum = prefix if args.trace else 0
    deadline = time.perf_counter() + args.seconds
    while index < minimum or time.perf_counter() < deadline:
        inst, M = make_inputs(wl, n, args.seed, index)
        tracer.op_id, tracer.failed_in = index, None
        if args.trace and index % 2:  # alternate the order of the two
            done_traced = attempt(traced, tracer, wl, CONFIG, inst, M)
            done = attempt(untraced_op, wl, CONFIG, inst, M)
        else:
            done = attempt(untraced_op, wl, CONFIG, inst, M)
            done_traced = (attempt(traced, tracer, wl, CONFIG, inst, M)
                           if args.trace else True)
        if done and done_traced:
            out, solve_s, op_s = done
            entry = {"index": index, "solve_s": solve_s, "op_s": op_s,
                     **out.summary()}
            if args.trace:
                entry["self"] = done_traced[1]
                entry["pool_size"] = pool_size(out.plan.P, out.k)
                entry.update(pose_errors(out.refined.pose, inst))
            ok.append(entry)
        index += 1
    measured = attempted - attempted_before

    OUT.mkdir(parents=True, exist_ok=True)
    key = prov["src_sha256"][:12] + prov["bench_sha256"][:12]
    mismatches = check_ledger(f"{run_base(args)}-{key}",
                              {i: d for i, (d, _) in digests.items()})
    if mismatches:
        failures["check.determinism"] += mismatches
        failed += mismatches
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = layer_metrics(ok, prefix)
        spans_path = OUT / f"{run_base(args)}-spans.jsonl"
        with open(spans_path, "w") as f:
            for name, start, end, parent, op in tracer.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "solve_p50_s": (median([e["solve_s"] for e in ok]), "s"),
            "train_step_p50_s": (median([e["op_s"] for e in ok]), "s"),
            "ops_per_s": (len(ok) / busy if busy else 0.0, "1/s"),
            "ok_ratio": (len(ok) / measured, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    op_times = [e["op_s"] for e in ok]
    record_line = {
        "provenance": prov, "workload_params": asdict(wl), "n": n,
        "instances": index, "ok_instances": len(ok),
        "attempted": attempted, "failed": failed,
        "failures_by_stage": dict(failures),
        "samples": {"setup": len(setup_times), "ops": len(ok),
                    "prefix": min(prefix, len(ok)) if args.trace else 0},
        "setup": {"import_s": IMPORT_S, "repeats_s": setup_times},
        "op_s": op_times, "op_s_tail": tail(op_times),
    }
    result = {"correct": failed == 0 and len(ok) > 0,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(v), "unit": u}
                          for k, (v, u) in metrics.items()}}
    return record_line, result


def layer_metrics(ok: list, prefix: int) -> dict:
    """Per-layer metrics from the traced ops.  Times are medians over
    every traced op; counts, ratios and accuracy cover the first
    `prefix` instances, so they repeat exactly for a seed."""
    fixed = [e for e in ok if e["index"] < prefix]

    def self_s(name):
        return median([e["self"].get(name, 0.0) for e in ok])

    def per_unit(name, count):
        return median([e["self"][name] / max(e[count], 1) for e in ok])

    def of(key):
        return [e[key] for e in fixed]

    def ratio(key):
        return sum(of(key)) / len(fixed) if fixed else 0.0

    m = {f"{name}.self_s": (self_s(name), "s") for name in LAYERS}
    m.update({
        "assignment.top_k_select.pool_size":
            (median(of("pool_size")), "count"),
        "assignment.top_k_select.k": (median(of("k")), "count"),
        "transport.sinkhorn_forward.iterations":
            (median(of("sinkhorn_iterations")), "count"),
        "transport.sinkhorn_forward.s_per_iteration":
            (per_unit("transport.sinkhorn_forward", "sinkhorn_iterations"),
             "s"),
        "transport.sinkhorn_forward.converged_ratio":
            (ratio("sinkhorn_converged"), "ratio"),
        "transport.sinkhorn_forward.residual_max":
            (max(of("sinkhorn_residual"), default=0.0), "1"),
        "pose_solvers.ransac_p3p.hypotheses":
            (median(of("hypotheses")), "count"),
        "pose_solvers.ransac_p3p.s_per_hypothesis":
            (per_unit("pose_solvers.ransac_p3p", "hypotheses"), "s"),
        "pose_solvers.ransac_p3p.inlier_ratio":
            (median([e["inliers"] / e["k"] for e in fixed]), "ratio"),
        "pose_solvers.ransac_p3p.found_ratio": (ratio("found"), "ratio"),
        "weighted_pnp.pnp_solve.iterations":
            (median(of("refine_iterations")), "count"),
        "weighted_pnp.pnp_solve.s_per_iteration":
            (per_unit("weighted_pnp.pnp_solve", "refine_iterations"), "s"),
        "weighted_pnp.pnp_solve.converged_ratio":
            (ratio("refine_converged"), "ratio"),
        "weighted_pnp.pnp_solve.grad_norm_max":
            (max(of("grad_norm"), default=0.0), "1"),
        "pipeline.solve.glue_s": (self_s("pipeline.solve"), "s"),
        "pipeline.backward.glue_s": (self_s("pipeline.backward"), "s"),
        "rot_err_p50_deg": (median(of("rotation_deg")), "deg"),
        "trans_err_p50": (median(of("translation")), "scene_unit"),
        "trace.overhead_s":
            (median([e["self"]["op.total"] for e in ok])
             - median([e["op_s"] for e in ok]), "s"),
    })
    return m


def run_base(args) -> str:
    return (f"{args.workload}{'-smoke' if args.smoke else ''}"
            f"-seed{args.seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help=f"tiny instances (n={SMOKE_N}) for the "
                             "benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    record_line, result = run(args)
    (OUT / f"{run_base(args)}-trace{args.trace}.json").write_text(
        json.dumps({"record": record_line, "result": result}, indent=1))
    print(json.dumps(record_line))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
