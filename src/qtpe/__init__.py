"""Quantum tensor product expanders: construction and numerical certification.

Builds degree-s unitary ensembles (Haar-random and via zigzag-style
products), measures their second largest singular value against the Haar
projector, and checks the fixed-space geometry, design quality, and
measurement-goodness diagnostics that the constructions' guarantees rest on.
"""

from .ensemble import (
    UnitaryEnsemble,
    ValidationReport,
    hermitian_double,
    load,
    sample_random_qtpe,
    save,
    square_compose,
    tensor_ensemble,
    validate,
)
from .epsgood import (
    ConditionedOutcome,
    GoodnessDecision,
    dprime_threshold,
    epsgood_failure_bound,
    is_good_for_set,
    is_good_for_vector,
    is_tuple_good,
    measure_first_factor,
)
from .errors import EnsembleFormatError, PreconditionError, QtpeError, SizeLimitError
from .linalg import (
    LinearMap,
    SeededRng,
    SpectralEstimate,
    haar_unitary,
    kron,
    max_principal_sine,
    orthonormalize,
    spectral_norm,
)
from .moments import (
    ClosenessReport,
    FixedSpaceBasis,
    MomentOperator,
    SpectralReport,
    alpha_prime_sigma,
    alpha_sigma,
    design_error_monomial,
    design_errors,
    design_iterations_needed,
    fixed_space_basis,
    lambda_report,
    sector_lambda,
    shuffle_operator,
    subspace_closeness_report,
)
from .perms import (
    Permutation,
    all_permutations,
    cycle_count,
    cycle_gram_matrix,
    distinct_fraction_deficit,
    falling_factorial,
    fixed_point_count,
    fixed_point_matrix,
    partitions,
    stirling_first,
    symmetric_irrep_dim,
    unitary_irrep_dim,
)
from .zigzag import (
    BoundValue,
    GenZigzagBound,
    bound_genzigzag,
    bound_zigzag,
    bound_zigzag_derandomised,
    bound_zigzag_improved,
    g_dot,
    g_dot_general,
    zigzag,
    zigzag_derandomised,
    zigzag_generalised,
)

__version__ = "0.1.0"
