"""Command-line interface: generate data, solve instances, benchmark,
and run the gradient-check suites.

Commands are deterministic given their manifest (fixed seeds): result
columns are bit-reproducible across reruns.  Wall-clock measurements
are the one exception; they live in dedicated runtime columns (solve)
or a separate timings file (benchmark) so the metric tables stay
byte-identical.

`solve` and `benchmark` set `--mu`, `--ransac-iterations`,
`--refine-iterations` and `--refine-tolerance`; their defaults, and
every other pipeline setting, are the library's.  Settings the library
rejects, `--jobs` below 1 and `--theta` outside (0, pi) are usage errors.

Exit codes: 0 success, 1 usage error, 2 runtime or numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np

from . import __version__
from .errors import BlindPnpError, ValidationError
from .geometry import (INLIER_THRESHOLD, Pose, check_angle_threshold,
                       exp_so3, log_so3)
from .gradcheck import ALL_CHECKS, run_all
from .pipeline import (PipelineConfig, alternation_baseline, pose_errors,
                       quartiles, recall, solve)
from .pose_solvers import RansacConfig
from .synth import PointSets, SynthConfig, check_oracle_settings, \
    generate_instance, load_instance, oracle_cost, save_instance
from .weighted_pnp import PnPSolverConfig

SOLVE_SCHEMA = "blindpnp-solve-v1"
BENCHMARK_SCHEMA = "blindpnp-benchmark-v1"
RECALL_SCHEMA = "blindpnp-recall-v1"
TIMING_SCHEMA = "blindpnp-timing-v1"

_USAGE_EXIT = 1
_FAILURE_EXIT = 2

# the alternation baseline starts at the true pose, turned this many degrees
# about a random axis and shifted by Gaussian noise of this sigma
_BASELINE_INIT_DEG = 10.0
_BASELINE_INIT_TRANS = 0.1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _default_out() -> str:
    return os.environ.get("BLINDPNP_OUTPUT_DIR", ".")


def _write_manifest(out_dir: str, payload: dict) -> None:
    payload = dict(payload)
    payload["library_version"] = __version__
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pipeline_config(args) -> PipelineConfig | None:
    """The run's pipeline config, built and its other settings checked
    before any instance is solved; None after reporting a rejection."""
    try:
        if args.jobs < 1:
            raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
        check_oracle_settings(args.sharpness, args.cost_noise)
        if args.command == "benchmark":
            check_angle_threshold(args.theta, "--theta")
        return PipelineConfig(
            mu=args.mu,
            ransac=RansacConfig(max_iterations=args.ransac_iterations),
            solver=PnPSolverConfig(max_iterations=args.refine_iterations,
                                   gradient_tolerance=args.refine_tolerance))
    except ValidationError as exc:
        print(f"error: invalid pipeline setting: {exc}", file=sys.stderr)
        return None


def _add_pipeline_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=float, default=PipelineConfig.mu,
                   help="entropy regularization of the transport layer")
    p.add_argument("--ransac-iterations", type=int,
                   default=RansacConfig.max_iterations)
    p.add_argument("--refine-iterations", type=int,
                   default=PnPSolverConfig.max_iterations,
                   help="cap on damped Newton steps of the pose refinement")
    p.add_argument("--refine-tolerance", type=float,
                   default=PnPSolverConfig.gradient_tolerance,
                   help="gradient norm per unit weight at which the refine converges")


def _add_cost_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cost", choices=("oracle", "file"), default="oracle",
                   help="cost matrix source; file reads <instance path>.cost")
    p.add_argument("--sharpness", type=float, default=5.0,
                   help="oracle cost on non-matching pairs")
    p.add_argument("--cost-noise", type=float, default=0.0,
                   help="additive Gaussian noise on the oracle cost")


def _collect_instances(paths) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            entries = sorted(os.listdir(path))
            files.extend(os.path.join(path, e) for e in entries
                         if e.startswith("instance_") and e.endswith(".txt"))
        else:
            files.append(path)
    return files


def _instance_id(path: str) -> str:
    return os.path.splitext(os.path.basename(path))[0]


def _cost_for(instance: PointSets, path: str, args) -> np.ndarray:
    if args.cost == "oracle":
        return oracle_cost(instance, args.sharpness,
                           noise_sigma=args.cost_noise)
    cost_path = path + ".cost"
    M = np.loadtxt(cost_path, ndmin=2)
    if M.shape != (instance.m, instance.n):
        raise BlindPnpError(
            f"cost file {cost_path} has shape {M.shape}, instance needs "
            f"({instance.m}, {instance.n})")
    return M


# --------------------------------------------------------------------------
# generate


def cmd_generate(args) -> int:
    out_dir = args.out
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write-probe")
        with open(probe, "w"):
            pass
        os.remove(probe)
    except OSError as exc:
        print(f"error: output directory {out_dir!r} is not writable: {exc}",
              file=sys.stderr)
        return _FAILURE_EXIT

    names = []
    for offset in range(args.count):
        seed = args.seed + offset
        config = SynthConfig(n_points=args.n_points, seed=seed,
                             pixel_noise_sigma=args.sigma,
                             outlier_fraction=args.outlier_fraction)
        instance = generate_instance(config)
        name = f"instance_{seed:07d}.txt"
        save_instance(instance, os.path.join(out_dir, name))
        names.append(name)
    _write_manifest(out_dir, {
        "command": "generate",
        "config": {"count": args.count, "seed": args.seed,
                   "n_points": args.n_points, "sigma": args.sigma,
                   "outlier_fraction": args.outlier_fraction},
        "instances": names,
    })
    print(f"wrote {len(names)} instance(s) to {out_dir}")
    return 0


# --------------------------------------------------------------------------
# solve and benchmark: one row per instance, the solve.csv columns


_SOLVE_COLUMNS = ["instance", "m", "n",
                  "ransac_rotation_deg", "ransac_translation",
                  "ransac_reprojection_deg", "refined_rotation_deg",
                  "refined_translation", "refined_reprojection_deg",
                  "sinkhorn_converged", "refine_converged", "low_inlier",
                  "runtime_seconds", "error"]
_METHODS = ("refined", "ransac", "alternation")
_METRICS = ("rotation_deg", "translation", "reprojection_deg")


def _add_errors(row: dict, method: str, pose: Pose, instance) -> None:
    for metric, value in pose_errors(pose, instance).items():
        row[f"{method}_{metric}"] = value


def _solve_instance(row: dict, path: str, config: PipelineConfig, args):
    """Solve one instance into its solve.csv row; m and n go in first, so
    an error row keeps them.  Returns the instance."""
    instance = load_instance(path)
    row["m"], row["n"] = instance.m, instance.n
    M = _cost_for(instance, path, args)
    result = solve(M, instance, config)
    _add_errors(row, "ransac", result.ransac_pose, instance)
    _add_errors(row, "refined", result.refined_pose, instance)
    row["sinkhorn_converged"] = result.plan.converged
    row["refine_converged"] = result.refined.converged
    row["low_inlier"] = result.ransac_estimate.low_inlier
    row["runtime_seconds"] = result.seconds.total
    return instance


def _benchmark_one(row: dict, instance: PointSets, config: PipelineConfig,
                   args) -> None:
    """Add the pose-prior alternation baseline's errors to the row."""
    # deterministic perturbed initialization for the pose-prior baseline
    rng = np.random.default_rng(int(instance.metadata.get("seed", 0)) + 991)
    axis = rng.standard_normal(3)
    axis /= np.linalg.norm(axis)
    dr = log_so3(exp_so3(axis * np.radians(_BASELINE_INIT_DEG))
                 @ instance.gt_pose.matrix())
    init = Pose(dr, instance.gt_pose.t
                + rng.standard_normal(3) * _BASELINE_INIT_TRANS)
    alt = alternation_baseline(instance, init, theta=args.theta,
                               solver=config.solver)
    _add_errors(row, "alternation", alt.pose, instance)


def _instance_row(path: str, config: PipelineConfig, args, extend) -> dict:
    """Worker: one instance's row; a failure fills the `error` column."""
    row = {"instance": _instance_id(path)}
    try:
        instance = _solve_instance(row, path, config, args)
        if extend is not None:
            extend(row, instance, config, args)
        row["error"] = ""
    except (BlindPnpError, OSError, ValueError) as exc:
        row["error"] = str(exc).replace("\n", " ")
    return row


def _map_instances(paths, config: PipelineConfig, args,
                   extend=None) -> list[dict]:
    """Rows of the instance files in order, each solved and then passed
    to `extend(row, instance, config, args)`; --jobs N runs min(N,
    instances) worker processes, or none when that is 1."""
    work = partial(_instance_row, config=config, args=args, extend=extend)
    workers = min(args.jobs, len(paths))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(work, paths))
    return [work(path) for path in paths]


def _write_table(path: str, schema: str, header, rows) -> None:
    """A CSV under a `# schema:` line; non-string values go through _fmt."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        fh.write(f"# schema: {schema}\n")
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([v if isinstance(v, str) else _fmt(v) for v in row])


def cmd_solve(args) -> int:
    config = _pipeline_config(args)
    if config is None:
        return _USAGE_EXIT
    files = _collect_instances(args.instances)
    if not files:
        print("error: no instance files found", file=sys.stderr)
        return _USAGE_EXIT
    missing = [f for f in files if not os.path.exists(f)]
    if missing:
        print(f"error: missing instance file(s): {missing}", file=sys.stderr)
        return _FAILURE_EXIT
    os.makedirs(args.out, exist_ok=True)

    rows = _map_instances(files, config, args)
    csv_path = os.path.join(args.out, "solve.csv")
    _write_table(csv_path, SOLVE_SCHEMA, _SOLVE_COLUMNS,
                 [[row.get(key, "") for key in _SOLVE_COLUMNS] for row in rows])

    failures = [r for r in rows if r["error"]]
    ok_rows = [r for r in rows if not r["error"]]
    summary = {}
    if ok_rows:
        for key in ("refined_rotation_deg", "refined_translation"):
            summary[key + "_quartiles"] = quartiles([r[key] for r in ok_rows])
    _write_manifest(args.out, {
        "command": "solve",
        "config": {k: v for k, v in vars(args).items()
                   if k not in ("func", "instances")},
        "instances": [_instance_id(f) for f in files],
        "failed_instances": [r["instance"] for r in failures],
        "summary": summary,
    })
    print(f"wrote {csv_path} ({len(ok_rows)} solved, {len(failures)} failed)")
    for row in failures:
        print(f"  {row['instance']}: {row['error']}", file=sys.stderr)
    return _FAILURE_EXIT if failures else 0


def cmd_benchmark(args) -> int:
    try:
        thresholds = [float(t) for t in args.thresholds.split(",")]
    except ValueError:
        thresholds = [np.nan]
    if not all(0.0 < t < np.inf for t in thresholds):  # NaN fails it too
        print(f"error: --thresholds takes positive finite degrees, got "
              f"{args.thresholds!r}", file=sys.stderr)
        return _USAGE_EXIT
    config = _pipeline_config(args)
    if config is None:
        return _USAGE_EXIT
    files = _collect_instances([args.dataset])
    if not files:
        print(f"error: no instances in dataset {args.dataset!r}",
              file=sys.stderr)
        return _USAGE_EXIT
    os.makedirs(args.out, exist_ok=True)

    rows = _map_instances(files, config, args, _benchmark_one)
    failures = [r for r in rows if r["error"]]
    for row in failures:
        print(f"error: {row['instance']}: {row['error']}", file=sys.stderr)
    if failures:
        return _FAILURE_EXIT

    def column(method, metric):
        return [row[f"{method}_{metric}"] for row in rows]

    bench_path = os.path.join(args.out, "benchmark.csv")
    _write_table(bench_path, BENCHMARK_SCHEMA,
                 ["method"] + [f"{m}_q{q}" for m in _METRICS for q in (1, 2, 3)],
                 [[method] + [q for metric in _METRICS
                              for q in quartiles(column(method, metric))]
                  for method in _METHODS])
    recall_path = os.path.join(args.out, "recall.csv")
    _write_table(recall_path, RECALL_SCHEMA,
                 ["method"] + [f"rot_recall_{_fmt(t)}deg" for t in thresholds],
                 [[method] + recall(column(method, "rotation_deg"), thresholds)
                  for method in _METHODS])
    # wall-clock measurements are not reproducible; they live here only
    timing_path = os.path.join(args.out, "timings.csv")
    _write_table(timing_path, TIMING_SCHEMA, ["mean_pipeline_seconds"],
                 [[float(np.mean([r["runtime_seconds"] for r in rows]))]])

    _write_manifest(args.out, {
        "command": "benchmark",
        "config": {k: v for k, v in vars(args).items() if k != "func"},
        "instances": [_instance_id(f) for f in files],
        "thresholds_deg": thresholds,
        "flag_counts": {key: sum(bool(r[key]) for r in rows) for key in
                        ("sinkhorn_converged", "refine_converged", "low_inlier")},
    })
    print(f"wrote {bench_path}, {recall_path}, {timing_path}")
    return 0


# --------------------------------------------------------------------------
# gradcheck


def cmd_gradcheck(args) -> int:
    if args.seeds is not None and args.seeds < 1:
        print(f"error: --seeds takes a positive number of cases, got "
              f"{args.seeds}", file=sys.stderr)
        return _USAGE_EXIT
    names = args.checks.split(",") if args.checks else None
    if names:
        unknown = [n for n in names if n not in ALL_CHECKS]
        if unknown:
            print(f"error: unknown check(s) {unknown}; available: "
                  f"{sorted(ALL_CHECKS)}", file=sys.stderr)
            return _USAGE_EXIT
    results = run_all(names=names, inject_bug=args.inject_bug,
                      seeds_per_check=args.seeds)
    failed = False
    for result in results:
        print(result.line())
        if not result.passed:
            failed = True
            for failure in result.failures:
                print(f"    reproduce: {failure}")
    return _FAILURE_EXIT if failed else 0


# --------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="blindpnp",
                     description="correspondence-free camera pose toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write synthetic instance files")
    g.add_argument("--count", type=int, default=1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--n-points", type=int, default=1000)
    g.add_argument("--sigma", type=float, default=2.0,
                   help="pixel noise standard deviation")
    g.add_argument("--outlier-fraction", type=float, default=0.0)
    g.add_argument("--out", default=_default_out())
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("solve", help="solve instance files, write a CSV")
    s.add_argument("instances", nargs="+",
                   help="instance files or directories")
    s.add_argument("--out", default=_default_out())
    s.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per instance")
    _add_cost_flags(s)
    _add_pipeline_flags(s)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("benchmark",
                       help="quartile/recall tables over a dataset")
    b.add_argument("--dataset", required=True)
    b.add_argument("--out", default=_default_out())
    b.add_argument("--jobs", type=int, default=1,
                   help="worker processes, at most one per instance")
    b.add_argument("--thresholds", default="5,10,15",
                   help="rotation recall thresholds in degrees")
    b.add_argument("--theta", type=float, default=INLIER_THRESHOLD,
                   help="angular inlier threshold of the alternation baseline")
    _add_cost_flags(b)
    _add_pipeline_flags(b)
    b.set_defaults(func=cmd_benchmark)

    c = sub.add_parser("gradcheck", help="finite-difference check suites")
    c.add_argument("--checks", default=None,
                   help="comma-separated subset of checks")
    c.add_argument("--seeds", type=int, default=None,
                   help="cases per check (default: each check's own)")
    c.add_argument("--inject-bug", default=None, metavar="CHECK",
                   help="corrupt one check's analytic value (harness self-test)")
    c.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BlindPnpError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _FAILURE_EXIT


if __name__ == "__main__":
    sys.exit(main())
