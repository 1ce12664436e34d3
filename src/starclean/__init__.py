"""Exhaustive laboratory for finite rings with involution.

Build finite rings from compositional recipes, equip them with validated
involutions, classify elements (clean, star-clean, power-factorization
conditions) with checkable certificates, decide ring-level properties and
stable-range conditions, replay equivalence suites over a corpus, and decide
the matrix criterion numerically through the Drazin inverse.
"""

from .corpus import default_corpus, warmup
from .elements import (
    CLEAN_MODES,
    CleanCertificate,
    PiStarCertificate,
    SpsrVerdict,
    clean_certificates,
    is_clean_elem,
    spsr_conditions,
    strongly_pi_regular_witness,
    strongly_star_regular_witness,
    unit_sasr_decomposition,
)
from .errors import (
    AxiomViolation,
    CorpusError,
    IdentityOnNoncommutative,
    IllConditioned,
    InputError,
    MalformedSpec,
    NotAProjection,
    NotIdempotent,
    NotStarInvariant,
    ParseError,
    SpecTooLarge,
    StarCleanError,
    SwapShapeMismatch,
    UnknownProperty,
    ValidationError,
)
from .fixtures import FIXTURES, run_fixture
from .involutions import (
    INVOLUTION_KINDS,
    Involution,
    StarRing,
    corner_star_ring,
    group_ring_involution,
    identity_involution,
    induce_quotient_involution,
    product_involution,
    swap_involution,
    table_involution,
    transpose_involution,
    truncated_poly_involution,
    verify_involution,
)
from .matrixops import (
    DenseMatrix,
    DrazinResult,
    drazin_inverse,
    is_spsr_matrix,
    load_matrix,
    matrix_index,
    numerical_rank,
    parse_complex,
)
from .properties import (
    PROPERTIES,
    STABLE_RANGE_PROPERTIES,
    Verdict,
    Witness,
    check_stable_range_pair,
    check_witness,
    lifting_checks,
    psr_onesided_equiv,
    ring_property,
)
from .report import (
    PropertyReport,
    corpus_matrix,
    json_dumps,
    matrix_to_csv,
    matrix_to_text,
    suites_to_text,
)
from .rings import (
    Cyclic,
    FiniteGroup,
    FiniteRing,
    GroupProduct,
    GroupRingSpec,
    MatrixSpec,
    ProductSpec,
    QuotientSpec,
    TruncatedPolySpec,
    Zmod,
    build_ring,
    generated_ideal,
    spec_string,
)
from .specparse import (
    build_star_ring,
    involution_spec_string,
    make_involution,
    parse_involution_spec,
    parse_ring_spec,
)
from .suites import SUITE_TAGS, SuiteResult, SuiteRow, run_suite, run_suites

__all__ = [name for name in dir() if not name.startswith("_")]
