"""The record contract: every value type compares, hashes, prints, copies
and refuses mutation as a frozen record of its fields."""

import copy
import pickle

import pytest

from zeckmix.families import Family
from zeckmix.language import is_legal
from zeckmix.numeration import (
    LinearRecurrence,
    encode_greedy,
    fibonacci_scheme,
    tribonacci_scheme,
)
from zeckmix.semimixing import (
    certify,
    check_empirical,
    derive_witness,
    make_seed_set,
    seed_sets,
    verify_certificate,
)
from zeckmix.substitution import build_dag, random_fibonacci, random_tribonacci


def _table(horizon):
    fib = random_fibonacci()
    return check_empirical(fib, seed_sets(Family("fibonacci"), fib), "a", horizon)


def _certificate(word="a"):
    return certify(random_fibonacci(), Family("fibonacci"), word)


def _outcome(span):
    cert = _certificate()
    return verify_certificate(cert, range(cert.threshold, cert.threshold + span))


def _warm_recurrence():
    rec = LinearRecurrence(2, (1, 1), (1, 2), "fib")
    rec.term(30)
    return rec


def _certificate_with_other_tables():
    return _certificate()._replace(letter_images={"a": "b"}, base_table={},
                                   step_table={})


# name: (make, make a value unequal to make(), hashable)
RECORDS = {
    "LinearRecurrence": (
        lambda: LinearRecurrence(2, (1, 1), (1, 2), "fib"),
        lambda: LinearRecurrence(2, (1, 1), (1, 2), "other"), True),
    "NumerationScheme": (fibonacci_scheme, tribonacci_scheme, True),
    "DigitString": (lambda: encode_greedy(fibonacci_scheme(), 10),
                    lambda: encode_greedy(fibonacci_scheme(), 11), True),
    "Family": (lambda: Family("metallic", (3,)),
               lambda: Family("metallic", (2,)), True),
    "RandomSubstitution": (random_fibonacci, random_tribonacci, False),
    "InflationDag": (lambda: build_dag(random_fibonacci(), 6),
                     lambda: build_dag(random_fibonacci(), 5), False),
    "LegalityVerdict": (lambda: is_legal(random_fibonacci(), "aab"),
                        lambda: is_legal(random_fibonacci(), "bb"), True),
    "SeedSet": (lambda: seed_sets(Family("fibonacci")),
                lambda: make_seed_set(random_fibonacci(), ["ab"]), True),
    "WitnessEntry": (lambda: _table(4).entries[1],
                     lambda: _table(4).entries[2], True),
    "WitnessTable": (lambda: _table(4), lambda: _table(3), True),
    "DerivationStep": (lambda: derive_witness(_certificate(), 40)[2][-1],
                       lambda: derive_witness(_certificate(), 40)[2][0], True),
    "Certificate": (_certificate, lambda: _certificate("aa"), True),
    "VerificationOutcome": (lambda: _outcome(3), lambda: _outcome(4), True),
}

# name: the fields `repr` shows, in order
_FIELDS = {
    "LinearRecurrence": ("order", "coefficients", "initial_terms", "label"),
    "NumerationScheme": ("recurrence", "family", "params", "base_index"),
    "DigitString": ("digits", "scheme"),
    "Family": ("name", "params"),
    "RandomSubstitution": ("alphabet", "rule", "uniform_length",
                           "abelian_compatible"),
    "InflationDag": ("substitution", "max_level"),
    "LegalityVerdict": ("legal", "witness", "levels_examined", "stabilized"),
    "SeedSet": ("words", "length", "proper"),
    "WitnessEntry": ("u", "s", "evidence"),
    "WitnessTable": ("source", "horizon", "seeds", "entries", "threshold"),
    "DerivationStep": ("digit", "word", "seed", "element", "level"),
    "Certificate": ("family", "source", "level", "w_prime", "x", "y",
                    "lead_position", "n0", "threshold", "seeds", "seed_length",
                    "letter_images", "base_table", "step_table"),
    "VerificationOutcome": ("ok", "checked", "counterexample"),
}

# name: make a value equal to RECORDS[name][0]() that differs from it only
# in fields left out of comparison
_SAME_BUT_EXCLUDED = {
    "LinearRecurrence": _warm_recurrence,
    "Certificate": _certificate_with_other_tables,
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_equality_and_hashing(name):
    make, make_other, hashable = RECORDS[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert a != other and not a == other
    assert a != (name, a) and (a == object()) is False
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b, other}) == 2
    else:
        with pytest.raises(TypeError):
            hash(a)
    if name in _SAME_BUT_EXCLUDED:
        same = _SAME_BUT_EXCLUDED[name]()
        assert same == a
        if hashable:
            assert hash(same) == hash(a)


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_assignment(name):
    value = RECORDS[name][0]()
    for field in _FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert value == RECORDS[name][0]()


@pytest.mark.parametrize("name", RECORDS)
def test_record_refuses_new_attributes(name):
    # a frozen dataclass with slots raised TypeError here, not AttributeError
    value = RECORDS[name][0]()
    with pytest.raises(AttributeError):
        value.no_such_field = None
    with pytest.raises(AttributeError):
        del value.no_such_field


@pytest.mark.parametrize("name", RECORDS)
def test_record_repr(name):
    value = RECORDS[name][0]()
    shown = ", ".join(f"{f}={getattr(value, f)!r}" for f in _FIELDS[name])
    assert repr(value) == f"{name}({shown})"


@pytest.mark.parametrize("name", RECORDS)
def test_record_pickle_and_copy_round_trip(name):
    value = RECORDS[name][0]()
    for again in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(again) is type(value) and again == value
        assert repr(again) == repr(value)


@pytest.mark.parametrize("name", RECORDS)
def test_record_replace(name):
    value = RECORDS[name][0]()
    assert value._replace() == value
    with pytest.raises(TypeError):
        value._replace(no_such_field=1)
    first = _FIELDS[name][0]
    again = value._replace(**{first: getattr(value, first)})
    assert again == value and again is not value


def test_replace_revalidates():
    with pytest.raises(ValueError, match="order must be >= 1"):
        LinearRecurrence(2, (1, 1), (1, 2))._replace(order=0)
    with pytest.raises(ValueError, match="needs m >= 1"):
        Family("metallic", (3,))._replace(params=(0,))
