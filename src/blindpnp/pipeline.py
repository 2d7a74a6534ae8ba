"""End-to-end composition: cost -> transport -> top-k -> RANSAC -> refine.

Forward (`solve`): a cost matrix is turned into a correspondence
probability matrix by the transport layer; the most probable candidate
pairs seed a RANSAC + P3P robust initializer; damped Newton on
the exact pose Hessian then refines the probability-weighted alignment
objective from that pose.  The result keeps each layer's own record
(`result.plan`, `result.ransac_estimate`, `result.refined`) and the
stage wall times `result.seconds`, which `result.seconds.total` sums;
`result.ransac_estimate.low_inlier` flags a robust start with fewer
than four inlier pairs.

Backward (`backward`): gradients flow through the two declarative
stages only: the pose layer's implicit derivative maps a pose-loss
gradient to the probability matrix, the direct correspondence-loss
gradient is added, and the transport layer's implicit derivative maps
the sum to the cost matrix.  The robust initializer contributes no
gradient path; it only chooses the basin of attraction.

Also here: a pose-prior alternation baseline (RANSAC's inlier refit
loop over all pairs from a given pose) and the error metrics and
summary statistics that the command line reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .assignment import candidate_count, top_k_select
from .errors import StageError, ValidationError
from .geometry import (Pose, angular_reprojection_error,
                       geodesic_rotation_angle, translation_error)
from .losses import LossConfig
from .pose_solvers import (CandidateSet, RansacConfig, RobustEstimate,
                           ransac_p3p, refit_to_inliers)
from .synth import PointSets
from .transport import TransportPlan, sinkhorn_forward, sinkhorn_vjp
from .weighted_pnp import (PnPProblem, PnPSolution, PnPSolverConfig,
                           pnp_solve, pnp_vjp)

_ALTERNATION_ROUNDS = 50  # cap on refits of the alternation baseline


@dataclass(frozen=True)
class PipelineConfig:
    mu: float = 0.1
    k_factor: float = 1.5
    sinkhorn_tol: float = 1e-9
    sinkhorn_max_iterations: int = 10000
    sinkhorn_anneal: bool = False
    ransac: RansacConfig = field(default_factory=RansacConfig)
    solver: PnPSolverConfig = field(default_factory=PnPSolverConfig)
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        for name, rule, ok in (
                ("mu", "positive", self.mu > 0),
                ("k_factor", "positive and finite", 0 < self.k_factor < np.inf),
                ("sinkhorn_tol", "nonnegative", self.sinkhorn_tol >= 0),
                ("sinkhorn_max_iterations", "nonnegative",
                 self.sinkhorn_max_iterations >= 0)):
            if not ok:  # NaN fails every test
                raise ValidationError(
                    f"{name} must be {rule}, got {getattr(self, name)}")


@dataclass(frozen=True)
class StageSeconds:
    """Wall time of each forward stage.  The values are differences of
    consecutive `perf_counter` stamps, so the stages tile the call."""

    transport: float
    top_k: float
    ransac: float
    refine: float

    @property
    def total(self) -> float:
        return self.transport + self.top_k + self.ransac + self.refine


@dataclass(frozen=True)
class PipelineResult:
    plan: TransportPlan
    ransac_estimate: RobustEstimate
    refined: PnPSolution
    seconds: StageSeconds

    @property
    def ransac_pose(self) -> Pose:
        return self.ransac_estimate.pose

    @property
    def refined_pose(self) -> Pose:
        return self.refined.pose


@contextmanager
def _stage(name: str):
    """Re-raise any error of the enclosed stage as StageError(name)."""
    try:
        yield
    except Exception as exc:
        raise StageError(name, exc) from exc


def solve(M, instance: PointSets, config: PipelineConfig | None = None
          ) -> PipelineResult:
    """Full forward pass from a cost matrix to both pose estimates.

    Deterministic given (M, instance, config) including the RANSAC seed.
    Stage failures re-raise wrapped in StageError naming the stage:
    `transport`, `ransac` (top-k selection included) or `refine`.
    """
    config = config or PipelineConfig()
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (instance.m, instance.n):
        raise ValidationError(
            f"cost matrix shape {M.shape} does not match instance "
            f"({instance.m}, {instance.n})")
    stamps = [time.perf_counter()]
    with _stage("transport"):
        plan = sinkhorn_forward(M, mu=config.mu, tol=config.sinkhorn_tol,
                                max_iterations=config.sinkhorn_max_iterations,
                                anneal=config.sinkhorn_anneal)
    stamps.append(time.perf_counter())
    with _stage("ransac"):
        k = candidate_count(instance.m, instance.n, config.k_factor)
        rows, cols, values = top_k_select(plan.P, k)
        stamps.append(time.perf_counter())
        candidates = CandidateSet(
            pairs=np.stack([rows, cols], axis=1), weights=values,
            bearings=instance.bearings, points=instance.points)
        estimate = ransac_p3p(candidates, config.ransac)
    stamps.append(time.perf_counter())
    with _stage("refine"):
        refined = pnp_solve(PnPProblem(instance.bearings, instance.points,
                                       plan.P, estimate.pose), config.solver)
    stamps.append(time.perf_counter())
    seconds = StageSeconds(*(b - a for a, b in zip(stamps, stamps[1:])))
    return PipelineResult(plan=plan, ransac_estimate=estimate, refined=refined,
                          seconds=seconds)


def backward(result: PipelineResult, instance: PointSets,
             config: PipelineConfig, grad_P, grad_pose) -> np.ndarray:
    """dL/dM from loss gradients dL/dP (direct) and dL/d(r, t).

    The pose path goes through the refined solution's implicit
    derivative; a zero pose gradient skips it, and the transport layer
    then receives only the direct term.  Failures re-raise as
    StageError `refine-backward` or `transport-backward`.
    """
    grad_P = np.asarray(grad_P, dtype=np.float64)
    grad_pose = np.asarray(grad_pose, dtype=np.float64).reshape(6)
    total, out = grad_P, None  # never write into the caller's grad_P
    if np.any(grad_pose != 0.0):
        problem = PnPProblem(instance.bearings, instance.points,
                             result.plan.P, result.ransac_estimate.pose)
        with _stage("refine-backward"):
            total = out = pnp_vjp(problem, result.refined, grad_pose)
            total += grad_P  # fresh; the bits of grad_P + pnp_vjp(...)
    with _stage("transport-backward"):
        return sinkhorn_vjp(None, result.plan, config.mu, total, out=out)


@dataclass(frozen=True)
class AlternationResult:
    pose: Pose
    correspondences: np.ndarray   # the pair set the pose was fit to
    rounds: int                   # refits run


def alternation_baseline(instance: PointSets, init: Pose, theta: float,
                         solver: PnPSolverConfig | None = None
                         ) -> AlternationResult:
    """Pose-prior local method: `refit_to_inliers` over all pairs from
    `init`, at most 50 refits.  No accuracy contract outside its basin."""
    return AlternationResult(*refit_to_inliers(
        instance.bearings, instance.points, init, theta, _ALTERNATION_ROUNDS,
        solver=solver))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, Q2, Q3) with linear interpolation between order statistics."""
    v = np.asarray(values, dtype=np.float64)
    q = np.percentile(v, [25.0, 50.0, 75.0])
    return float(q[0]), float(q[1]), float(q[2])


def recall(values, thresholds) -> list[float]:
    """Fraction of values strictly below each threshold."""
    v = np.asarray(values, dtype=np.float64)
    return [float(np.mean(v < t)) for t in thresholds]


def pose_errors(pose: Pose, instance: PointSets) -> dict:
    """Rotation (degrees, exact geodesic), translation, and per-match
    angular reprojection (degrees) errors against the ground truth."""
    if instance.gt_pose is None:
        raise ValidationError("instance has no ground-truth pose")
    rot = geodesic_rotation_angle(pose.matrix(), instance.gt_pose.matrix())
    trans = translation_error(pose.t, instance.gt_pose.t)
    if instance.gt_pairs is not None and instance.gt_pairs.size:
        reproj = angular_reprojection_error(
            instance.bearings, instance.points, instance.gt_pairs, pose)
    else:
        reproj = float("nan")
    return {"rotation_deg": float(np.degrees(rot)),
            "translation": trans,
            "reprojection_deg": float(np.degrees(reproj))}
