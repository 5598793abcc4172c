"""Maximum hands-off control: synthesis, certification, L1 comparison.

The package solves fixed-endpoint steering tasks for linear plants with
bounded inputs while keeping the control at exactly zero for as long as
possible, certifies candidate solutions against the nonsmooth maximum
principle, and contrasts the sparse optimum with the L1-relaxed solution
computed by an exact-discretization linear program.
"""

__version__ = "0.1.0"

from .certificate import (
    CertificateReport,
    certify,
    check_adjoint,
    check_hamiltonian_max,
    dual_bound,
    recover_adjoint,
)
from .control_law import (
    AdjointParams,
    adjoint_at,
    argmax_hamiltonian_bruteforce,
    bang_off_bang,
    candidates_at,
    pointwise_hamiltonian,
    switching_function,
)
from .linalg import SingularMatrixError, mat_exp, solve_linear
from .lp import LpProblem, LpSolution, LpStatus, build_l1_lp, l1_solve, linf_feasibility, simplex_solve
from .model import (
    Ball,
    Box,
    PiecewiseConstantControl,
    Problem,
    Trajectory,
    ValidationError,
    l0_cost,
    l1_cost,
    load_control,
    load_problem,
    save_control,
    save_problem,
)
from .problems import example_1, example_2, nonsparse_l1_witness
from .sim import (
    BlowUpError,
    NonlinearDynamics,
    endpoint_residual,
    hamiltonian_profile,
    linear_dynamics,
    propagate_exact,
    propagate_rk4,
    save_trajectory,
)
from .synth import (
    InfeasibleProblemError,
    NoFeasibleStructureError,
    Structure,
    SynthResult,
    enumerate_structures,
    min_time,
    synth_l0,
)

__all__ = [
    "AdjointParams",
    "Ball",
    "BlowUpError",
    "Box",
    "CertificateReport",
    "InfeasibleProblemError",
    "LpProblem",
    "LpSolution",
    "LpStatus",
    "NoFeasibleStructureError",
    "NonlinearDynamics",
    "PiecewiseConstantControl",
    "Problem",
    "SingularMatrixError",
    "Structure",
    "SynthResult",
    "Trajectory",
    "ValidationError",
    "adjoint_at",
    "argmax_hamiltonian_bruteforce",
    "bang_off_bang",
    "build_l1_lp",
    "candidates_at",
    "certify",
    "check_adjoint",
    "check_hamiltonian_max",
    "dual_bound",
    "endpoint_residual",
    "enumerate_structures",
    "example_1",
    "example_2",
    "hamiltonian_profile",
    "l0_cost",
    "l1_cost",
    "l1_solve",
    "linear_dynamics",
    "linf_feasibility",
    "load_control",
    "load_problem",
    "mat_exp",
    "min_time",
    "nonsparse_l1_witness",
    "propagate_exact",
    "propagate_rk4",
    "recover_adjoint",
    "save_control",
    "save_problem",
    "save_trajectory",
    "simplex_solve",
    "solve_linear",
    "switching_function",
    "synth_l0",
]
