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

Also here: a pose-prior alternation baseline (estimate correspondences
from the pose, refit the pose, repeat) and the error metrics and
summary statistics that the command line reports.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .assignment import candidate_count, correspondences_from_pose, top_k_select
from .errors import StageError, ValidationError
from .geometry import (Pose, angular_reprojection_error,
                       geodesic_rotation_angle, translation_error)
from .losses import LossConfig
from .pose_solvers import CandidateSet, RansacConfig, RobustEstimate, ransac_p3p
from .synth import PointSets
from .transport import TransportPlan, sinkhorn_forward, sinkhorn_vjp
from .weighted_pnp import (PnPProblem, PnPSolution, PnPSolverConfig,
                           SparseWeights, pnp_solve, pnp_vjp)

_ALTERNATION_ROUNDS = 50  # cap on rounds of the alternation baseline


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
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points, weights=plan.P,
                             init=estimate.pose)
        refined = pnp_solve(problem, config.solver)
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
    total = grad_P  # sinkhorn_vjp does not write to its upstream gradient
    if np.any(grad_pose != 0.0):
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points, weights=result.plan.P,
                             init=result.ransac_estimate.pose)
        with _stage("refine-backward"):
            total = grad_P + pnp_vjp(problem, result.refined, grad_pose)
    with _stage("transport-backward"):
        return sinkhorn_vjp(None, result.plan, config.mu, total)


@dataclass(frozen=True)
class AlternationResult:
    pose: Pose
    rounds: int
    stalled: bool                 # True when no correspondences were found
    correspondences: np.ndarray   # final pair set


def alternation_baseline(instance: PointSets, init: Pose, theta: float,
                         solver: PnPSolverConfig | None = None
                         ) -> AlternationResult:
    """Pose-prior local method: alternate correspondence extraction and
    pose refitting until the pair set stabilizes, for at most 50 rounds.

    Each round thresholds the angular error at the current pose, makes
    the pairs one-to-one, then refits the pose to them with uniform
    weights by `pnp_solve`, starting from the current pose.  No accuracy
    contract far from the basin of attraction.
    """
    solver = solver or PnPSolverConfig()
    pose = init
    prev_pairs = None
    for round_no in range(1, _ALTERNATION_ROUNDS + 1):
        pairs = correspondences_from_pose(instance.bearings, instance.points,
                                          pose, theta)
        if pairs.shape[0] < 4:
            return AlternationResult(pose=pose, rounds=round_no, stalled=True,
                                     correspondences=pairs)
        if prev_pairs is not None and np.array_equal(pairs, prev_pairs):
            return AlternationResult(pose=pose, rounds=round_no, stalled=False,
                                     correspondences=pairs)
        prev_pairs = pairs
        values = np.full(pairs.shape[0], 1.0 / pairs.shape[0])
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points,
                             weights=SparseWeights(pairs=pairs, values=values),
                             init=pose)
        pose = pnp_solve(problem, solver).pose
    return AlternationResult(pose=pose, rounds=_ALTERNATION_ROUNDS,
                             stalled=False, correspondences=prev_pairs)


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
