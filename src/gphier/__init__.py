"""Spectral verification lab for truncated Gross-Pitaevskii hierarchies.

Coefficient-space simulator for deterministic, dependently randomized,
and independently randomized collision hierarchies on a truncated
frequency lattice, with Duhamel-expansion solvers, exact ODE evolution,
randomized-norm estimation, symbolic collision-chain expansion, and a
Galerkin cubic NLS companion.
"""

from .lattice import FrequencyLattice, LatticeError
from .tensor import (
    DensityMatrix,
    HierarchyState,
    MemoryGuardError,
    factorized,
    h_alpha_norm,
    project,
    random_density_matrix,
    random_state,
    sobolev_apply,
)
from .dynamics import (
    HierarchyMode,
    Trajectory,
    collision,
    continuity_defect,
    evolve_truncated,
    free_evolve,
    full_collision,
    phase_inequality_scan,
)
from .randomization import (
    OmegaNormEstimate,
    SignField,
    all_plus,
    collision_omega_operator_norm,
    omega_l2_h_alpha,
    randomize_function,
    sample_field,
)
from .duhamel import (
    DuhamelEvaluator,
    QuadratureSpec,
    cauchy_diagnostic,
    decay_profile,
    integral_residual,
    simplex_check,
    solution_time_modulus,
)
from .expansion import (
    OperatorChainSpec,
    SymbolicExpansion,
    direct_composition,
    evaluate_expansion,
    example1_chain,
    expand_chain,
    expand_difference,
    nonresonant_check,
    nonresonant_sample,
)
from .nls import (
    factorized_residual,
    mass,
    nls_evolve,
)

__version__ = "0.1.0"
