"""morphcert: morphism growth analysis and non-morphicity certification."""

from .errors import (
    DomainError,
    MorphcertError,
    NonConvergence,
    ParseError,
    ResourceError,
    UnknownSource,
    UnknownSymbol,
    ValidationError,
)
from .words import (
    Alphabet,
    MorphicSystem,
    Morphism,
    Word,
    count_in_prefix,
    fixed_point_stream,
    is_prolongable,
    iterate,
    parse_morphism_file,
    parse_morphism_spec,
)
from .spectral import (
    ComponentDag,
    GrowthClass,
    IncidenceMatrix,
    LetterGrowthClass,
    cyclicity,
    growth_class,
    incidence_matrix,
    letter_growth_class,
    matrix_power_count,
    perron_value,
    scc_dag,
    symbol_growth_class,
)
from .numtheory import (
    CountSeries,
    LrEstimate,
    SieveTable,
    count_s2_additive,
    count_s2_nonzero,
    count_series,
    diff_bound_check,
    lr_estimate_sieve,
    lr_euler_product,
    multiplicativity_check,
    sieve_s2_additive,
    sieve_s2_multiplicative,
    sieve_s2_nonzero,
)
from .certify import (
    CaseVerdict,
    CertificateReport,
    CertifyConfig,
    Decision,
    DensityProfile,
    PolyExpProfile,
    certify_nonmorphic,
    decide,
    fit_logdamped,
    fit_polyexp,
    gamma_confidence,
    geometric_checkpoints,
    theorem1_verdict,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
