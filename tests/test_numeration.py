import itertools
import os
import subprocess
import sys
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zeckmix.errors import DigitRuleError, GuardExceededError
from zeckmix.numeration import (
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

# Hand-checked sequence prefixes used as fixed oracles.
FIB = [1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]
TRIB = [0, 1, 1, 2, 4, 7, 13, 24, 44, 81, 149, 274, 504]
MET2 = [1, 1, 3, 7, 17, 41, 99, 239, 577]
MET3 = [1, 1, 4, 13, 43, 142, 469, 1549, 5116]


def hand_rule_ok(scheme, digits):
    """Digit rules exactly as the classical theorems state them."""
    fam = scheme.family
    if digits and digits[0] == 0:
        return False
    if fam in ("fibonacci", "tribonacci", "kbonacci"):
        k = {"fibonacci": 2, "tribonacci": 3}.get(fam, scheme.params[0] if scheme.params else 2)
        if any(d not in (0, 1) for d in digits):
            return False
        for i in range(len(digits) - k + 1):
            if all(digits[i + j] == 1 for j in range(k)):
                return False
        return True
    if fam == "metallic":
        m = scheme.params[0]
        if any(not 0 <= d <= m for d in digits):
            return False
        # most-significant first: digits[i] is one index above digits[i+1]
        for i in range(len(digits) - 1):
            if digits[i] == m and digits[i + 1] != 0:
                return False
        return True
    raise NotImplementedError(fam)


def greedy_suffix_ok(scheme, digits):
    """Valid exactly when there is no leading zero and every tail value
    stays below the next term: the greedy criterion, with no windows."""
    if digits and digits[0] == 0:
        return False
    base, tail = scheme.base_index, 0
    for i, x in enumerate(reversed(digits)):
        tail += x * term(scheme, base + i)
        if tail >= term(scheme, base + i + 1):
            return False
    return True


def natural_scheme(coeffs):
    """A custom scheme on `coeffs` whose terms start naturally at index 0:
    t_0 = 1 and t_i = c_1 t_{i-1} + ... + c_i t_0 + 1 below the order."""
    init = [1]
    for _ in range(1, len(coeffs)):
        init.append(1 + sum(c * t for c, t in zip(coeffs, reversed(init))))
    return custom_scheme(LinearRecurrence(len(coeffs), coeffs, tuple(init)), 0)


# schemes with no hand rule, checked against greedy_suffix_ok instead, with
# the longest string length the exhaustive checks below run to
GREEDY_ORACLE_SCHEMES = [
    (metallic_pisa_scheme(3, 2), 6),
    (natural_scheme((2, 2, 1)), 6),
    (natural_scheme((3, 2, 1)), 5),
    (natural_scheme((2, 1, 1, 1)), 6),
    (natural_scheme((3, 3, 2, 2)), 5),
    (natural_scheme((4, 2)), 5),
    (natural_scheme((10,)), 5),
]


def brute_valid_strings(scheme, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        for digits in itertools.product(range(scheme.max_digit + 1), repeat=length):
            if hand_rule_ok(scheme, digits):
                out.append(digits)
    return out


def test_term_paper_values():
    assert term(fibonacci_scheme(), 0) == 1
    assert term(fibonacci_scheme(), 1) == 1
    assert term(tribonacci_scheme(), 0) == 0
    assert term(metallic_scheme(3), 6) == 469
    fib = fibonacci_scheme()
    assert [term(fib, i) for i in range(len(FIB))] == FIB
    trib = tribonacci_scheme()
    assert [term(trib, i) for i in range(len(TRIB))] == TRIB
    m2 = metallic_scheme(2)
    assert [term(m2, i) for i in range(len(MET2))] == MET2
    m3 = metallic_scheme(3)
    assert [term(m3, i) for i in range(len(MET3))] == MET3


def test_kbonacci_matches_named_families():
    k2 = kbonacci_scheme(2)
    assert [term(k2, i) for i in range(10)] == FIB[:10]
    k3 = kbonacci_scheme(3)
    assert [term(k3, i) for i in range(10)] == TRIB[:10]
    assert k3.base_index == 2
    k4 = kbonacci_scheme(4)
    assert [term(k4, i) for i in range(9)] == [0, 0, 1, 1, 2, 4, 8, 15, 29]


def test_metallic_pisa_recurrence_values():
    s = metallic_pisa_scheme(3, 2)
    assert [term(s, i) for i in range(7)] == [0, 1, 1, 3, 8, 20, 51]
    assert s.base_index == 2
    assert metallic_pisa_scheme(2, 3).recurrence.coefficients == (3, 1)


def test_cached_terms_satisfy_recurrence():
    for scheme in (fibonacci_scheme(), tribonacci_scheme(), metallic_scheme(3),
                   metallic_pisa_scheme(3, 2)):
        rec = scheme.recurrence
        term(scheme, 20)
        for i in range(rec.order, 21):
            expect = sum(c * rec.term(i - 1 - j)
                         for j, c in enumerate(rec.coefficients))
            assert rec.term(i) == expect


def test_term_cache_concurrent_extension():
    # more threads than cores race to grow the same fresh term caches,
    # through term() and through the encoder, with thread switches forced
    # often; a lost or doubled append breaks the recurrence check below
    makers = (fibonacci_scheme, tribonacci_scheme, lambda: metallic_scheme(3))
    schemes = [makers[i % 3]() for i in range(300)]
    n_threads = 2 * (os.cpu_count() or 2) + 2
    start = threading.Barrier(n_threads, timeout=60)
    errors = []

    def work(k):
        try:
            start.wait()
            for scheme in schemes:
                if k % 2:
                    scheme.term(30)
                else:
                    encode_greedy(scheme, 10**15)
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    # daemon threads, so that a thread stuck on a corrupted cache cannot keep
    # the test process alive after the join timeout fails the test
    threads = [threading.Thread(target=work, args=(k,), daemon=True)
               for k in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for scheme in schemes:
        rec = scheme.recurrence
        cached = rec._terms
        assert cached[:rec.order] == list(rec.initial_terms)
        for i in range(rec.order, len(cached)):
            assert cached[i] == sum(c * cached[i - 1 - j]
                                    for j, c in enumerate(rec.coefficients))


def test_term_overflow_guard():
    fib = fibonacci_scheme()
    with pytest.raises(OverflowError):
        term(fib, 100)


def test_encode_greedy_examples():
    fib = fibonacci_scheme()
    assert encode_greedy(fib, 0).digits == ()
    assert encode_greedy(fib, 10).to_text() == "10010"  # 8 + 2
    m2 = metallic_scheme(2)
    assert encode_greedy(m2, 6).to_text() == "20"  # 2 * 3
    trib = tribonacci_scheme()
    six = encode_greedy(trib, 6)
    assert six.to_text() == "110"  # t4 + t3 = 4 + 2
    assert six.position(0) == 4 and six.position(2) == 2


def test_encode_unique_against_exhaustive_oracle():
    # the value 10 has exactly one valid Fibonacci string of length <= 6
    fib = fibonacci_scheme()
    hits = [d for d in brute_valid_strings(fib, 6)
            if sum(x * FIB[fib.base_index + len(d) - 1 - i] for i, x in enumerate(d)) == 10]
    assert hits == [(1, 0, 0, 1, 0)]
    m2 = metallic_scheme(2)
    hits = [d for d in brute_valid_strings(m2, 4)
            if sum(x * MET2[m2.base_index + len(d) - 1 - i] for i, x in enumerate(d)) == 6]
    assert hits == [(2, 0)]
    trib = tribonacci_scheme()
    hits = [d for d in brute_valid_strings(trib, 5)
            if sum(x * TRIB[trib.base_index + len(d) - 1 - i] for i, x in enumerate(d)) == 6]
    assert hits == [(1, 1, 0)]


def test_decode_examples():
    fib = fibonacci_scheme()
    assert decode(DigitString((), fib)) == 0
    assert decode(digit_string_from_text(fib, "101")) == 4  # 3 + 1
    m2 = metallic_scheme(2)
    assert decode(digit_string_from_text(m2, "110")) == 10  # 7 + 3


def test_is_valid_examples():
    fib = fibonacci_scheme()
    assert not is_valid(digit_string_from_text(fib, "11"))
    assert is_valid(digit_string_from_text(fib, "10"))
    m2 = metallic_scheme(2)
    assert not is_valid(digit_string_from_text(m2, "21"))
    assert is_valid(digit_string_from_text(m2, "20"))
    trib = tribonacci_scheme()
    assert not is_valid(digit_string_from_text(trib, "111"))
    assert is_valid(digit_string_from_text(trib, "110"))
    assert not is_valid(digit_string_from_text(fib, "01"))
    assert is_valid(DigitString((), fib))


@pytest.mark.parametrize("scheme", [
    fibonacci_scheme(),
    tribonacci_scheme(),
    metallic_scheme(2),
    metallic_scheme(3),
])
def test_is_valid_matches_hand_rule(scheme):
    for length in range(0, 6):
        for digits in itertools.product(range(scheme.max_digit + 1), repeat=length):
            got = is_valid(DigitString(digits, scheme))
            assert got == hand_rule_ok(scheme, digits), digits


@pytest.mark.parametrize("scheme", [
    fibonacci_scheme(),
    tribonacci_scheme(),
    metallic_scheme(2),
] + [scheme for scheme, _ in GREEDY_ORACLE_SCHEMES])
def test_is_valid_iff_greedy_suffix_criterion(scheme):
    # a string is valid exactly when every tail value stays below the next term
    for length in range(0, 6 if scheme.max_digit < 4 else 5):
        for digits in itertools.product(range(scheme.max_digit + 2), repeat=length):
            assert is_valid(DigitString(digits, scheme)) == \
                greedy_suffix_ok(scheme, digits), digits


def test_enumerate_valid_examples():
    fib = fibonacci_scheme()
    strings = [d.to_text() for d in enumerate_valid(fib, 2)]
    assert strings == ["", "1", "10"]  # "11" excluded by the rule
    assert [d.to_text() for d in enumerate_valid(fib, 0)] == [""]
    m2 = metallic_scheme(2)
    assert [d.to_text() for d in enumerate_valid(m2, 1)] == ["", "1", "2"]


def test_enumerate_valid_matches_bruteforce():
    for scheme in (fibonacci_scheme(), tribonacci_scheme(), metallic_scheme(2),
                   metallic_scheme(3)):
        got = [d.digits for d in enumerate_valid(scheme, 5)]
        assert got == brute_valid_strings(scheme, 5)


@pytest.mark.parametrize("scheme,max_len", GREEDY_ORACLE_SCHEMES)
def test_enumerate_valid_matches_greedy_suffix_oracle(scheme, max_len):
    got = [d.digits for d in enumerate_valid(scheme, max_len)]
    expect = [digits for length in range(max_len + 1)
              for digits in itertools.product(range(scheme.max_digit + 1),
                                              repeat=length)
              if greedy_suffix_ok(scheme, digits)]
    assert got == expect


@given(coeffs=st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                       max_size=4).map(lambda cs: tuple(sorted(cs, reverse=True)))
       .filter(lambda cs: len(cs) > 1 or cs[0] >= 2))
@settings(max_examples=40, deadline=None)
def test_natural_schemes_enumerate_onto_initial_segment(coeffs):
    scheme = natural_scheme(coeffs)
    values = [decode(d) for d in enumerate_valid(scheme, 5)]
    assert values == list(range(len(values)))


def test_scheme_rejects_terms_not_starting_naturally():
    # on 1, 2, 6, ... both "2" and "10" would be valid strings for 2
    rec = LinearRecurrence(2, (2, 2), (0, 1))
    with pytest.raises(ValueError, match="must start as"):
        custom_scheme(rec, 1)
    with pytest.raises(ValueError, match="must start as"):
        NumerationScheme(LinearRecurrence(3, (1, 1, 1), (1, 2, 3)), "x", (), 0)


def test_enumerate_valid_streams_in_constant_memory():
    scheme = kbonacci_scheme(4)
    tracemalloc.start()
    try:
        count = sum(1 for _ in enumerate_valid(scheme, 14))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == 10_671
    assert peak < 64 * 1024


def test_enumerate_valid_order_length_then_lex():
    m2 = metallic_scheme(2)
    out = [d.digits for d in enumerate_valid(m2, 3)]
    assert out == sorted(out, key=lambda t: (len(t), t))


def test_enumerate_valid_guard():
    with pytest.raises(GuardExceededError):
        list(enumerate_valid(fibonacci_scheme(), 20, guard=10))


def test_enumerate_valid_guard_counts_strings():
    fib = fibonacci_scheme()
    guarded = enumerate_valid(fib, 20, guard=10)
    first = [next(guarded).digits for _ in range(10)]
    assert first == [d.digits for d in itertools.islice(enumerate_valid(fib, 20), 10)]
    with pytest.raises(GuardExceededError):
        next(guarded)


def test_is_complete_examples():
    assert is_complete(fibonacci_scheme().recurrence, 20)
    powers3 = LinearRecurrence(1, (3,), (1,), "powers-of-3")
    assert not is_complete(powers3, 10)
    ones = LinearRecurrence(1, (1,), (1,), "ones")
    assert is_complete(ones, 5)
    assert is_complete(tribonacci_scheme().recurrence, 15)


def test_is_complete_rejects_nonmonotone():
    seesaw = LinearRecurrence(2, (1, 0), (5, 1), "decreasing-start")
    with pytest.raises(ValueError):
        is_complete(seesaw, 5)


def test_append_digit():
    fib = fibonacci_scheme()
    one = digit_string_from_text(fib, "1")
    ten = append_digit(one, 0)
    assert ten.to_text() == "10" and decode(ten) == 2
    back = append_digit(ten, 1)
    assert back.to_text() == "101" and decode(back) == 4
    with pytest.raises(DigitRuleError):
        append_digit(one, 1)  # "11"
    m2 = metallic_scheme(2)
    with pytest.raises(DigitRuleError):
        append_digit(digit_string_from_text(m2, "2"), 1)
    with pytest.raises(DigitRuleError):
        append_digit(DigitString((), fib), 0)  # leading zero


@pytest.mark.parametrize("scheme", [
    fibonacci_scheme(),
    tribonacci_scheme(),
    kbonacci_scheme(4),
    metallic_scheme(1),
    metallic_scheme(4),
    metallic_pisa_scheme(3, 2),
])
@given(n=st.integers(min_value=0, max_value=200000))
@settings(max_examples=60, deadline=None)
def test_round_trip_random(scheme, n):
    d = encode_greedy(scheme, n)
    assert decode(d) == n
    assert is_valid(d)


@given(n=st.integers(min_value=1, max_value=100000), m=st.integers(min_value=1, max_value=6))
@settings(max_examples=60, deadline=None)
def test_greedy_multiplicity_equals_capped_floor_division(n, m):
    # repeated subtraction picks floor(remainder / term) at every position
    scheme = metallic_scheme(m)
    d = encode_greedy(scheme, n)
    rem = n
    for idx, digit in enumerate(d.digits):
        t = term(scheme, d.position(idx))
        assert digit == rem // t
        rem -= digit * t
    assert rem == 0


def test_uniqueness_and_initial_segment_small():
    for scheme in (fibonacci_scheme(), tribonacci_scheme(), metallic_scheme(2)):
        values = [decode(d) for d in enumerate_valid(scheme, 7)]
        assert len(set(values)) == len(values)
        assert sorted(values) == list(range(len(values)))


def test_order_isomorphism():
    for scheme in (fibonacci_scheme(), metallic_scheme(3)):
        strings = list(enumerate_valid(scheme, 6))
        width = 6
        padded = [((0,) * (width - len(d.digits)) + d.digits, decode(d)) for d in strings]
        padded.sort()
        values = [v for _, v in padded]
        assert values == sorted(values)


def test_monotone_growth():
    for scheme in (fibonacci_scheme(), tribonacci_scheme(), metallic_scheme(2),
                   metallic_scheme(5)):
        for i in range(2, 24):
            assert term(scheme, i + 1) > term(scheme, i)


def test_text_round_trip_wide_digits():
    wide = metallic_scheme(12)
    d = encode_greedy(wide, 5000)
    assert "," in d.to_text()
    again = digit_string_from_text(wide, d.to_text())
    assert again.digits == d.digits
    assert decode(again) == 5000


def test_scheme_descriptors():
    assert fibonacci_scheme().descriptor() == "family=fibonacci base_index=1"
    assert kbonacci_scheme(4).descriptor() == "family=kbonacci k=4 base_index=3"
    assert metallic_scheme(3).descriptor() == "family=metallic m=3 base_index=1"
    assert metallic_pisa_scheme(3, 2).descriptor() == \
        "family=metallic-pisa k=3 m=2 base_index=2"


def test_custom_scheme_base10():
    base10 = custom_scheme(LinearRecurrence(1, (10,), (1,), "powers-of-10"), 0)
    assert encode_greedy(base10, 2026).to_text() == "2026"
    assert decode(digit_string_from_text(base10, "907")) == 907


@pytest.mark.parametrize("rec,base", [
    (LinearRecurrence(1, (1,), (1,)), 0),          # 1, 1, 1, ...
    (LinearRecurrence(2, (1, 1), (0, 1)), 1),      # t1 = t2 = 1
    (LinearRecurrence(2, (1, 1), (-1, 1)), 1),     # t2 = 0
    (LinearRecurrence(3, (1, 1, 1), (2, -1, 1)), 2),  # t3 = t4 = 2
])
def test_scheme_rejects_terms_not_increasing_from_base(rec, base):
    with pytest.raises(ValueError, match="increase strictly"):
        NumerationScheme(rec, "x", (), base)
    with pytest.raises(ValueError, match="increase strictly"):
        custom_scheme(rec, base)


def test_scheme_window_check_edges():
    # the same recurrence is fine one index higher: 1, 2, 3, 5, ...
    shifted = NumerationScheme(LinearRecurrence(2, (1, 1), (0, 1)), "x", (), 2)
    fib = fibonacci_scheme()
    for n in range(200):
        assert encode_greedy(shifted, n).digits == encode_greedy(fib, n).digits
    # a term past the 64-bit guard ends the check instead of failing it
    huge = NumerationScheme(LinearRecurrence(1, (2**63,), (1,)), "x", (), 0)
    assert huge.term(0) == 1


def test_nonincreasing_scheme_fails_instead_of_hanging():
    # encode_greedy once searched forever for a term above n on 1, 1, 1, ...;
    # the child process turns a hang into a test failure
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = (
        "from zeckmix.numeration import LinearRecurrence, NumerationScheme, "
        "encode_greedy\n"
        "try:\n"
        "    encode_greedy(NumerationScheme(LinearRecurrence(1, (1,), (1,)), "
        "'x', (), 0), 2)\n"
        "except ValueError:\n"
        "    print('ValueError')\n"
    )
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=30)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ValueError"


def test_decode_rejects_negative_digits():
    with pytest.raises(ValueError, match="nonnegative"):
        decode(DigitString((1, -1, 0), fibonacci_scheme()))


def test_adjudicated_1404_expansion():
    # the greedy degree-3 expansion of 1404; a nearby transcription 302301
    # fails to decode to 1404 (it is 1533), so 230301 is the valid string
    m3 = metallic_scheme(3)
    d = encode_greedy(m3, 1404)
    assert d.to_text() == "230301"
    assert is_valid(d) and decode(d) == 1404
    other = digit_string_from_text(m3, "302301")
    assert is_valid(other)
    assert decode(other) == 1533
    hits = [t for t in brute_valid_strings(m3, 6)
            if sum(x * MET3[1 + len(t) - 1 - i] for i, x in enumerate(t)) == 1404]
    assert hits == [(2, 3, 0, 3, 0, 1)]
