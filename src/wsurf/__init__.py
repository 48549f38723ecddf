"""Minimal surfaces from second-order linear complex ODEs.

The pipeline: a cataloged (or user-supplied) ODE determines a
holomorphic Weierstrass pair (eta^2, chi) through its coefficient
ratios; contour integration of that pair yields a conformally immersed
minimal surface in Euclidean, quaternionic and Sym-Tafel form, with
every construction step verifiable numerically.
"""

from .catalog import (DEFAULT_PARAMS, EQUATION_IDS, GridSpec, LinearODE,
                      coefficient_ratios, get_equation, get_fixture,
                      load_user_ode, parse_user_ode, reference_surface)
from .contour import ContourPath, contour_quad, holo_derivative, straight_path
from .errors import (BranchCutViolation, DomainError, EmptyMesh,
                     EvaluationFailure, IoFailure, PathPlanningFailure,
                     SingularPoint, SolutionOverflow, StepSizeUnderflow,
                     ToleranceNotReached, UnknownEquation, WsurfError)
from .immersion import (GeometryReport, ew_integrals, geometry_report,
                        pauli_decompose, sym_tafel)
from .linearproblem import (Wavefunction, integrate_wavefunction, lp_residual,
                            potential_matrix)
from .mesh import (ImmersionSample, SurfaceMesh, build_mesh, ew_cache,
                   export_mesh, immersion_at)
from .pathplan import plan_path
from .special import EULER_GAMMA, ei
from .weierstrass import (WeierstrassData, build_numeric_data,
                          closed_form_data, make_data, verify_weierstrass)

__all__ = [
    "BranchCutViolation", "ContourPath", "DEFAULT_PARAMS", "DomainError",
    "EmptyMesh", "EQUATION_IDS", "EULER_GAMMA", "EvaluationFailure",
    "GeometryReport", "GridSpec", "ImmersionSample", "IoFailure",
    "LinearODE", "PathPlanningFailure", "SingularPoint", "SolutionOverflow",
    "StepSizeUnderflow", "SurfaceMesh", "ToleranceNotReached", "UnknownEquation", "Wavefunction",
    "WeierstrassData", "WsurfError", "build_mesh", "build_numeric_data",
    "closed_form_data", "coefficient_ratios",
    "contour_quad", "ei", "ew_cache", "ew_integrals", "export_mesh",
    "geometry_report", "get_equation", "get_fixture", "holo_derivative",
    "immersion_at", "integrate_wavefunction", "load_user_ode",
    "lp_residual", "make_data", "parse_user_ode", "pauli_decompose",
    "plan_path", "potential_matrix", "reference_surface", "straight_path",
    "sym_tafel", "verify_weierstrass",
]

__version__ = "0.1.0"
