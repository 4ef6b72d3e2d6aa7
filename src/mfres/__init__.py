"""Exact pairings on matrix factorizations of isolated hypersurface
singularities: Groebner machinery over Q, the Euler pairing through Hom
complex homology, the Grothendieck residue through the transformation law,
the index identity tying the two together, stable Tor differences, and
monodromy style weight filtrations.

All arithmetic is exact (Fraction at the interface, ints in the cores); nothing floats.
"""

from __future__ import annotations

from .errors import (
    BudgetError,
    ContainmentError,
    CorpusError,
    FactorizationError,
    InfiniteQuotientError,
    InternalCheckError,
    MfresError,
    NormalizationError,
    ParityError,
    PolynomialSyntaxError,
    RingMismatchError,
    SingularityError,
    UnknownVariableError,
)
from .polyring import (
    Polynomial,
    PolyMatrix,
    SparseColumns,
    differentiate,
    hessian_determinant,
    jacobian_generators,
    parse_polynomial,
    to_string,
)
from .groebner import (
    DEGREVLEX,
    LEX,
    FiniteQuotientBasis,
    FreeModuleElement,
    GroebnerBasis,
    MonomialOrder,
    express_in_terms,
    get_order,
    groebner_basis,
    normal_form,
    origin_support_check,
    quotient_dimension,
    subquotient_dimension,
    syzygy_basis,
)
from .forms import (
    DifferentialForm,
    FormMatrix,
    chern_character_form,
    d_polynomial,
    euler_lemma_check,
    exterior_derivative,
    matrix_form_product_trace,
    wedge,
)
from .mf import (
    MatrixFactorization,
    ModulePresentation,
    TwoPeriodicComplex,
    cokernel_presentation,
    dual,
    hom_complex,
    homology_dimensions,
    periodic_homology,
    shift,
    tor_lengths,
    validate_mf,
)
from .pairings import (
    GramMatrix,
    HrrReport,
    MilnorAlgebra,
    PsdReport,
    ResidueFunctional,
    chern_milnor_class,
    combination_class,
    combination_pairing,
    euler_pairing,
    gram_matrix,
    herbrand_difference,
    hochster_theta,
    hrr_check,
    is_positive_semidefinite,
    milnor_algebra,
    residue_functional,
    residue_pairing,
)
from .hodge import (
    NilpotentOperator,
    WeightAxiomReport,
    WeightFiltration,
    graded_dimensions,
    primitive_subspace,
    verify_weight_axioms,
    weight_filtration,
)
from .corpus import CorpusFile, load_corpus

__all__ = [
    "BudgetError", "ContainmentError", "CorpusError", "FactorizationError",
    "InfiniteQuotientError", "InternalCheckError", "MfresError",
    "NormalizationError", "ParityError", "PolynomialSyntaxError",
    "RingMismatchError", "SingularityError", "UnknownVariableError",
    "Polynomial", "PolyMatrix", "SparseColumns", "differentiate", "hessian_determinant",
    "jacobian_generators", "parse_polynomial", "to_string",
    "DEGREVLEX", "LEX", "FiniteQuotientBasis", "FreeModuleElement",
    "GroebnerBasis", "MonomialOrder", "express_in_terms", "get_order",
    "groebner_basis", "normal_form", "origin_support_check",
    "quotient_dimension", "subquotient_dimension", "syzygy_basis",
    "DifferentialForm", "FormMatrix", "chern_character_form", "d_polynomial",
    "euler_lemma_check", "exterior_derivative", "matrix_form_product_trace",
    "wedge",
    "MatrixFactorization", "ModulePresentation", "TwoPeriodicComplex",
    "cokernel_presentation", "dual", "hom_complex", "homology_dimensions",
    "periodic_homology", "shift", "tor_lengths", "validate_mf",
    "GramMatrix", "HrrReport", "MilnorAlgebra", "PsdReport",
    "ResidueFunctional", "chern_milnor_class", "combination_class",
    "combination_pairing", "euler_pairing", "gram_matrix",
    "herbrand_difference", "hochster_theta", "hrr_check",
    "is_positive_semidefinite", "milnor_algebra", "residue_functional",
    "residue_pairing",
    "NilpotentOperator", "WeightAxiomReport", "WeightFiltration",
    "graded_dimensions", "primitive_subspace", "verify_weight_axioms",
    "weight_filtration",
    "CorpusFile", "load_corpus",
]
