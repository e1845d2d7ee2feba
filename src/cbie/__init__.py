"""Boundary-integral solver for the equation u_x2x2 + i u_x1x2 = 0 on plane
domains convex in the x2 direction, with coupled boundary data
du/dx2 + alpha_k u = phi_k on the lower and upper boundary curves."""

from .assembly import (
    BCSpec,
    DecayReport,
    FredholmSystem,
    assemble,
    compactness_probe,
    du_from_bc,
    dump_system,
    load_system,
)
from .conditions import (
    BoundaryTrace,
    ResidualReport,
    condition_report,
    eq7_boundary_residuals,
    eq8_residuals,
    nc_residuals,
    singular_factor,
)
from .geometry import (
    CurveDescriptor,
    PlaneDomain,
    ValidationReport,
    eval_curve,
    lens_domain,
    validate_domain,
)
from .kernel import (
    KernelPoint,
    boundary_log_kernel,
    dU_dx1,
    dU_dx2,
    fund_solution,
    fund_solution_oracle,
    heaviside_sym,
    is_singular_config,
)
from .manufactured import (
    SolutionSpec,
    canonical_solutions,
    eval_solution,
    make_bc,
    make_trace,
    pde_residual_check,
)
from .quadrature import (
    QuadratureRule,
    build_rule,
    integrate,
    log_weight_matrix,
    pv_integrate,
    pv_weight_matrix,
)
from .solver import (
    ConvergenceTable,
    SolveReport,
    convergence_sweep,
    default_interior_grid,
    reconstruct_interior,
    solve_problem,
    solve_system,
)

__version__ = "0.1.0"
