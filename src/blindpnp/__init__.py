"""Correspondence-free camera pose estimation with differentiable
optimization layers: entropic matching, robust initialization, weighted
nonlinear refinement, and implicit backward passes for all of it."""

__version__ = "0.1.0"

from .errors import (BlindPnpError, DegenerateGeometryError,
                     InstanceFormatError, NumericalError,
                     SingularHessianError, StageError, ValidationError)
from .geometry import (Pose, angle_between, angular_reprojection_error,
                       bearing_from_pixel, exp_so3, geodesic_rotation_angle,
                       inlier_objective, log_so3, make_intrinsics,
                       rotation_error, translation_error)
from .assignment import correspondences_from_pose, hungarian, top_k_select
from .transport import (TransportPlan, pairwise_cost, sinkhorn_forward,
                        sinkhorn_vjp)
from .pose_solvers import (CandidateSet, RansacConfig, RobustEstimate, epnp,
                           p3p, ransac_p3p)
from .weighted_pnp import (PnPProblem, PnPSolution, PnPSolverConfig,
                           SecondOrderData, SparseWeights, pnp_objective,
                           pnp_second_order, pnp_solve, pnp_vjp)
from .losses import LossConfig, correspondence_loss, pose_loss, total_loss
from .synth import (PointSets, SynthConfig, generate_instance, load_instance,
                    oracle_cost, oracle_probability, save_instance)
from .pipeline import (AlternationResult, PipelineConfig, PipelineResult,
                       alternation_baseline, backward, solve)

__all__ = [
    "__version__",
    # errors
    "BlindPnpError", "ValidationError", "DegenerateGeometryError",
    "NumericalError", "SingularHessianError", "InstanceFormatError",
    "StageError",
    # geometry
    "Pose", "exp_so3", "log_so3", "bearing_from_pixel", "make_intrinsics",
    "angle_between", "angular_reprojection_error", "inlier_objective",
    "rotation_error", "geodesic_rotation_angle", "translation_error",
    # assignment
    "hungarian", "correspondences_from_pose", "top_k_select",
    # transport
    "TransportPlan", "sinkhorn_forward", "sinkhorn_vjp", "pairwise_cost",
    # pose solvers
    "p3p", "epnp", "ransac_p3p", "CandidateSet", "RansacConfig",
    "RobustEstimate",
    # weighted pose layer
    "PnPProblem", "PnPSolution", "PnPSolverConfig", "SecondOrderData",
    "SparseWeights", "pnp_objective", "pnp_solve", "pnp_second_order",
    "pnp_vjp",
    # losses
    "LossConfig", "correspondence_loss", "pose_loss", "total_loss",
    # synthetic data
    "PointSets", "SynthConfig", "generate_instance", "save_instance",
    "load_instance", "oracle_cost", "oracle_probability",
    # pipeline
    "PipelineConfig", "PipelineResult", "solve", "backward",
    "alternation_baseline", "AlternationResult",
]
