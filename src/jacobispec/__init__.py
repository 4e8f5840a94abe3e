"""Numerical spectral analysis of matrix-valued Jacobi operators.

Core objects: operator families (models), solution tracks and cocycles
(recurrence), truncated norms and the cutoff equation (truncnorm), Weyl
m-functions and subordinacy bounds (weyl), and the Cesaro multiplicity
classifier with its Floquet oracle (classify).
"""

from . import classify, errors, matblock, models, recurrence, scaling, truncnorm, weyl
from .classify import (
    CesaroProfile,
    ScanParams,
    ScanRecord,
    cesaro_profile,
    classify_multiplicity,
    constancy_experiment,
    floquet_multiplicity,
    scan_energy_grid,
)
from .matblock import frobenius_norm, invert, operator_norm, singular_values
from .models import (
    DynamicalSpec,
    ExplicitSpec,
    PeriodicSpec,
    free_model,
    limit_point_partial_sum,
    reflect,
    validate_model,
)
from .recurrence import (
    SolutionTrack,
    cocycle_product,
    dirichlet_neumann,
    green_formula_residual,
    jl_identity_residual,
    jost_assemble,
    transfer_step,
    wronskian,
)
from .truncnorm import solve_l_of_y, truncated_norm, truncated_singular
from .weyl import (
    JLBoundReport,
    WeylM,
    green_block,
    herglotz_identity_residual,
    im_m_boundary,
    jl_bounds,
    m_resolvent,
    m_riccati,
)

__version__ = "0.1.0"
