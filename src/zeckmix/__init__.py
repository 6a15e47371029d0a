"""Zeckendorf-style numeration, random-substitution subshift languages, and
semi-mixing verification."""

from .numeration import (
    DigitString,
    LinearRecurrence,
    NumerationScheme,
    append_digit,
    custom_scheme,
    decode,
    digit_string_from_text,
    encode_greedy,
    enumerate_valid,
    fibonacci_scheme,
    is_complete,
    is_valid,
    kbonacci_scheme,
    metallic_pisa_scheme,
    metallic_scheme,
    term,
    tribonacci_scheme,
)
from .substitution import (
    InflationDag,
    RandomSubstitution,
    apply,
    build_dag,
    format_rules,
    inflation_words,
    is_pisot,
    is_primitive,
    make_substitution,
    metallic_pisa,
    parse_rules,
    pf_eigenvalue,
    random_fibonacci,
    random_kbonacci,
    random_metallic,
    random_tribonacci,
    substitution_matrix,
)
from .language import (
    LegalityVerdict,
    is_legal,
    is_subword,
    language_of_length,
    pattern_witness,
)
from .semimixing import (
    Certificate,
    Family,
    SeedSet,
    WitnessTable,
    certificate_report,
    certify,
    check_empirical,
    derive_witness,
    make_seed_set,
    parse_certificate,
    seed_sets,
    verify_certificate,
    witness_for_length,
)

__version__ = "0.1.0"
