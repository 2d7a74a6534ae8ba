"""Correspondence-free camera pose estimation with differentiable
optimization layers: entropic matching, robust initialization, weighted
nonlinear refinement, and implicit backward passes for all of it."""

__version__ = "0.1.0"

from .errors import (BlindPnpError, DegenerateGeometryError,
                     InstanceFormatError, NumericalError,
                     SingularHessianError, StageError, ValidationError)
from .geometry import (Pose, angular_reprojection_error, exp_so3,
                       geodesic_rotation_angle, log_so3, make_intrinsics,
                       translation_error)
from .assignment import (correspondences_from_pose, hungarian, one_to_one,
                         top_k_select)
from .transport import TransportPlan, sinkhorn_forward, sinkhorn_vjp
from .pose_solvers import (CandidateSet, RansacConfig, RobustEstimate, p3p,
                           ransac_p3p, refit_to_inliers)
from .weighted_pnp import (PnPProblem, PnPSolution, PnPSolverConfig,
                           SecondOrderData, SparseWeights, pnp_objective,
                           pnp_second_order, pnp_solve, pnp_vjp)
from .losses import LossConfig, correspondence_loss, pose_loss
from .synth import (PointSets, SynthConfig, generate_instance, load_instance,
                    oracle_cost, save_instance)
from .pipeline import (AlternationResult, PipelineConfig, PipelineResult,
                       StageSeconds, alternation_baseline, backward, solve)

__all__ = [
    "__version__",
    # errors
    "BlindPnpError", "ValidationError", "DegenerateGeometryError",
    "NumericalError", "SingularHessianError", "InstanceFormatError",
    "StageError",
    # geometry
    "Pose", "exp_so3", "log_so3", "make_intrinsics",
    "angular_reprojection_error", "geodesic_rotation_angle",
    "translation_error",
    # assignment
    "hungarian", "one_to_one", "correspondences_from_pose", "top_k_select",
    # transport
    "TransportPlan", "sinkhorn_forward", "sinkhorn_vjp",
    # pose solvers
    "p3p", "ransac_p3p", "CandidateSet", "RansacConfig",
    "RobustEstimate", "refit_to_inliers",
    # weighted pose layer
    "PnPProblem", "PnPSolution", "PnPSolverConfig", "SecondOrderData",
    "SparseWeights", "pnp_objective", "pnp_solve", "pnp_second_order",
    "pnp_vjp",
    # losses
    "LossConfig", "correspondence_loss", "pose_loss",
    # synthetic data
    "PointSets", "SynthConfig", "generate_instance", "save_instance",
    "load_instance", "oracle_cost",
    # pipeline
    "PipelineConfig", "PipelineResult", "StageSeconds", "solve", "backward",
    "alternation_baseline", "AlternationResult",
]
