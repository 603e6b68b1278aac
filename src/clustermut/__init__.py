"""Exact engine for cluster-algebra seeds, mutations, and exchange graphs.

Everything is computed symbolically over arbitrary-precision integers:
cluster variables are Laurent polynomials in the initial extended cluster,
coefficients live in a tropical semifield (rank 0 is coefficient-free) or
the subtraction-free one, and exchange graphs are enumerated as quotients
of the n-regular tree with canonical deduplication.  Compatible closed
2-forms and machine checks of the structural theorems sit on top.
"""

from .errors import (
    BadDirection,
    BudgetExceeded,
    ClusterMutError,
    ContextMismatch,
    DegenerateSeed,
    DivisionByZero,
    NondegenerateRequired,
    NotCompatible,
    NotDivisible,
    NotSkewSymmetrizable,
    ParseError,
    ZeroRowUnsupported,
)
from .forms import FormBasis, FormCoefficientMatrix, compatible_form_space, mutate_form, verify_compatibility
from .graph import ExchangeGraph, canonicalize_seed, compare_by_paths, enumerate_graph, reduced_paths
from .laurent import (
    LaurentFraction,
    LaurentPolynomial,
    ambient_vars,
    lp_arith,
    lp_compare,
    lp_exact_div,
    lp_substitute,
    parse_poly,
    render_poly,
)
from .seeds import (
    ExchangeMatrix,
    Seed,
    Skewsymmetrizer,
    coefficient_free_seed,
    coefficients_from_extended,
    compute_toric_weights,
    compute_yhat,
    matrix_mutate,
    mutate_coefficients,
    principal_extension,
    principal_seed,
    seed_mutate_general,
    seed_mutate_geometric,
    validate_and_symmetrize,
    y_pattern_tuple,
)
from .semifield import (
    SubtractionFreeRational,
    SubtractionFreeSemifield,
    TrivialElement,
    TrivialSemifield,
    TropicalElement,
    TropicalSemifield,
    evaluate_y_pattern,
    sf_inv,
    sf_mul,
    sf_oplus,
)
from .verify import (
    VerificationReport,
    check_adjacency,
    check_cluster_determines_seed,
    check_g_specialization,
    check_graph_coincidence,
    check_laurent,
    check_pipeline_agreement,
    check_toric_invariance,
    check_yhat_propagation,
    merge_reports,
    random_nondegenerate,
    random_skew_symmetrizable,
)

__version__ = "0.1.0"
