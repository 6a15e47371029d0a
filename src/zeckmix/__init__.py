"""Zeckendorf-style numeration, random-substitution subshift languages, and
semi-mixing verification.

Each public name below is loaded from its layer module on first access
(PEP 562), so `import zeckmix` loads no layer and a caller pays only for
the layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_LAYERS = {
    "numeration": (
        "DigitString", "LinearRecurrence", "NumerationScheme", "append_digit",
        "custom_scheme", "decode", "digit_string_from_text", "encode_greedy",
        "enumerate_valid", "fibonacci_scheme", "is_complete", "is_valid",
        "kbonacci_scheme", "metallic_pisa_scheme", "metallic_scheme", "term",
        "tribonacci_scheme",
    ),
    "substitution": (
        "InflationDag", "RandomSubstitution", "apply", "build_dag",
        "format_rules", "inflation_words", "is_pisot", "is_primitive",
        "make_substitution", "metallic_pisa", "parse_rules", "pf_eigenvalue",
        "random_fibonacci", "random_kbonacci", "random_metallic",
        "random_tribonacci", "substitution_matrix",
    ),
    "language": (
        "LegalityVerdict", "is_legal", "is_subword", "language_of_length",
        "pattern_witness",
    ),
    "families": ("Family",),
    "semimixing": (
        "Certificate", "SeedSet", "WitnessTable", "certificate_report",
        "certify", "check_empirical", "derive_witness", "make_seed_set",
        "parse_certificate", "seed_sets", "verify_certificate",
        "witness_for_length",
    ),
}
_HOME = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    """Load `name` from its layer and keep it here for later lookups."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value
