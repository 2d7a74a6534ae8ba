"""End-to-end composition: cost -> transport -> top-k -> RANSAC -> refine.

Forward (`solve`): a cost matrix is turned into a correspondence
probability matrix by the transport layer; the most probable candidate
pairs seed a RANSAC + P3P + EPnP robust initializer; L-BFGS then
refines the probability-weighted alignment objective from that pose.

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
from dataclasses import dataclass, field

import numpy as np

from .assignment import candidate_count, correspondences_from_pose, top_k_select
from .errors import StageError, ValidationError
from .geometry import (Pose, angular_reprojection_error,
                       geodesic_rotation_angle, translation_error)
from .losses import LossConfig
from .pose_solvers import CandidateSet, RansacConfig, RobustEstimate, ransac_p3p, epnp
from .synth import PointSets
from .transport import TransportPlan, sinkhorn_forward, sinkhorn_vjp
from .weighted_pnp import (PnPProblem, PnPSolution, PnPSolverConfig,
                           SparseWeights, pnp_solve, pnp_vjp)


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
class PipelineResult:
    plan: TransportPlan
    ransac_estimate: RobustEstimate
    refined: PnPSolution
    diagnostics: dict

    @property
    def ransac_pose(self) -> Pose:
        return self.ransac_estimate.pose

    @property
    def refined_pose(self) -> Pose:
        return self.refined.pose


def solve(M, instance: PointSets, config: PipelineConfig | None = None
          ) -> PipelineResult:
    """Full forward pass from a cost matrix to both pose estimates.

    Deterministic given (M, instance, config) including the RANSAC seed.
    Stage failures re-raise wrapped in StageError naming the stage.
    """
    config = config or PipelineConfig()
    M = np.asarray(M, dtype=np.float64)
    if M.shape != (instance.m, instance.n):
        raise ValidationError(
            f"cost matrix shape {M.shape} does not match instance "
            f"({instance.m}, {instance.n})")
    diag: dict = {}

    t0 = time.perf_counter()
    try:
        plan = sinkhorn_forward(M, mu=config.mu, tol=config.sinkhorn_tol,
                                max_iterations=config.sinkhorn_max_iterations,
                                anneal=config.sinkhorn_anneal)
    except Exception as exc:
        raise StageError("transport", exc) from exc
    diag["sinkhorn_seconds"] = time.perf_counter() - t0
    diag["sinkhorn_iterations"] = plan.iterations
    diag["sinkhorn_converged"] = plan.converged

    t0 = time.perf_counter()
    try:
        k = candidate_count(instance.m, instance.n, config.k_factor)
        rows, cols, values = top_k_select(plan.P, k)
        candidates = CandidateSet(
            pairs=np.stack([rows, cols], axis=1), weights=values,
            bearings=instance.bearings, points=instance.points)
        estimate = ransac_p3p(candidates, config.ransac)
    except Exception as exc:
        raise StageError("ransac", exc) from exc
    diag["ransac_seconds"] = time.perf_counter() - t0
    diag["ransac_iterations"] = estimate.iterations_used
    diag["ransac_inliers"] = int(estimate.inliers.shape[0])
    diag["low_inlier"] = estimate.inliers.shape[0] < 4 or not estimate.found_pose

    t0 = time.perf_counter()
    try:
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points, weights=plan.P,
                             init=estimate.pose)
        refined = pnp_solve(problem, config.solver)
    except Exception as exc:
        raise StageError("refine", exc) from exc
    diag["refine_seconds"] = time.perf_counter() - t0
    diag["refine_iterations"] = refined.iterations
    diag["refine_converged"] = refined.converged
    diag["total_seconds"] = (diag["sinkhorn_seconds"] + diag["ransac_seconds"]
                             + diag["refine_seconds"])
    return PipelineResult(plan=plan, ransac_estimate=estimate, refined=refined,
                          diagnostics=diag)


def backward(result: PipelineResult, instance: PointSets,
             config: PipelineConfig, grad_P, grad_pose) -> np.ndarray:
    """dL/dM from loss gradients dL/dP (direct) and dL/d(r, t).

    The pose path goes through the refined solution's implicit
    derivative; a zero pose gradient skips it, and the transport layer
    then receives only the direct term.
    """
    grad_P = np.asarray(grad_P, dtype=np.float64)
    grad_pose = np.asarray(grad_pose, dtype=np.float64).reshape(6)
    total = grad_P.copy()
    if np.any(grad_pose != 0.0):
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points, weights=result.plan.P,
                             init=result.ransac_estimate.pose)
        try:
            total = total + pnp_vjp(problem, result.refined, grad_pose)
        except Exception as exc:
            raise StageError("refine-backward", exc) from exc
    try:
        return sinkhorn_vjp(None, result.plan, config.mu, total)
    except Exception as exc:
        raise StageError("transport-backward", exc) from exc


@dataclass(frozen=True)
class AlternationResult:
    pose: Pose
    rounds: int
    stalled: bool                 # True when no correspondences were found
    correspondences: np.ndarray   # final pair set


def alternation_baseline(instance: PointSets, init: Pose, theta: float,
                         max_rounds: int = 50,
                         solver: PnPSolverConfig | None = None,
                         time_limit: float | None = None) -> AlternationResult:
    """Pose-prior local method: alternate correspondence extraction and
    pose refitting until the pair set stabilizes.

    Each round thresholds the angular error at the current pose, makes
    the pairs one-to-one, then refits with EPnP followed by uniform-
    weight nonlinear refinement.  No accuracy contract far from the
    basin of attraction.
    """
    solver = solver or PnPSolverConfig()
    pose = init
    prev_pairs = None
    started = time.perf_counter()
    for round_no in range(1, max_rounds + 1):
        pairs = correspondences_from_pose(instance.bearings, instance.points,
                                          pose, theta)
        if pairs.shape[0] < 4:
            return AlternationResult(pose=pose, rounds=round_no, stalled=True,
                                     correspondences=pairs)
        if prev_pairs is not None and np.array_equal(pairs, prev_pairs):
            return AlternationResult(pose=pose, rounds=round_no, stalled=False,
                                     correspondences=pairs)
        prev_pairs = pairs
        try:
            pose = epnp(instance.bearings[pairs[:, 0]],
                        instance.points[pairs[:, 1]])
        except Exception:
            pass  # keep the previous pose as the nonlinear starting point
        values = np.full(pairs.shape[0], 1.0 / pairs.shape[0])
        problem = PnPProblem(bearings=instance.bearings,
                             points=instance.points,
                             weights=SparseWeights(pairs=pairs, values=values),
                             init=pose)
        pose = pnp_solve(problem, solver).pose
        if time_limit is not None and time.perf_counter() - started > time_limit:
            break
    return AlternationResult(pose=pose, rounds=max_rounds, stalled=False,
                             correspondences=prev_pairs if prev_pairs is not None
                             else np.zeros((0, 2), dtype=np.int64))


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
            instance.bearings, instance.points, instance.gt_pairs, pose,
            normalize="matches")
    else:
        reproj = float("nan")
    return {"rotation_deg": float(np.degrees(rot)),
            "translation": trans,
            "reprojection_deg": float(np.degrees(reproj))}
