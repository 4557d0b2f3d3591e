"""Numerical solvers for backward doubly stochastic differential equations
under volatility uncertainty: exact trees and least-squares Monte Carlo for
the classical equations, a lattice dynamic program for the second-order
extension, a noise-removing flow transform, reflected variants, and
independent finite-difference / closed-form oracles.
"""

__version__ = "0.1.0"

from .classical import (
    BdsdeProblem,
    BdsdeSolution,
    check_comparison,
    solve_regression,
    solve_tree,
)
from .doss import (
    FlowCoefficient,
    FlowField,
    build_y_lattice,
    derivative_identity_report,
    growth_check,
    invert_flow,
    solve_flow,
    transform_solution,
    transformed_generator,
    untransform_solution,
)
from .generators import (
    GeneratorConstants,
    HamiltonianSpec,
    fenchel_conjugate,
    make_conjugate_map,
    stratonovich_correction,
    validate_assumptions,
)
from .grids import (
    BackwardPath,
    BrownianTree,
    PathEnsemble,
    TimeGrid,
    VolatilityGrid,
    build_time_grid,
    build_tree,
    build_volatility_grid,
    sample_backward_bridge,
    sample_backward_path,
    sample_forward_ensemble,
    subsample_path,
)
from .norms import NormReport, compute_norms
from .oracles import (
    ItoProcess,
    RandomPdeProblem,
    bsb_closed_form,
    fd_random_pde,
    heat_semigroup,
    ito_product_check,
    linear_spde_closed_form,
)
from .reflected import (
    Barrier,
    ReflectedSolution,
    skorokhod_diagnostic,
    snell_envelope,
    solve_penalized,
    solve_reflected,
)
from .second_order import (
    DpOptions,
    TbdsdeProblem,
    TbdsdeSolution,
    extract_k,
    feynman_kac_residual,
    hamiltonian,
    minimality_gap,
    solve_dp,
)
