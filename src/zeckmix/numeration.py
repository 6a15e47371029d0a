"""Generalized Zeckendorf numeration over linear recurrence sequences.

A scheme pairs an integer recurrence with a digit rule.  For the built-in
families the rule is the classical one (no two adjacent ones for Fibonacci,
no three in a row for tribonacci, digit m forces a zero below it for the
metallic sequences).  All of these are instances of one criterion: every
window of `order` consecutive digits, read most-significant first and padded
with zeros past either end, must be lexicographically smaller than the
coefficient vector.  For nonincreasing positive coefficients, on terms that
start as NumerationScheme requires, this is exactly the condition "each tail
of the expansion stays below the next term", so the greedy expansion is the
unique valid one.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

from .errors import DigitRuleError, GuardExceededError, Record, _setattr

INT64_MAX = 2**63 - 1
# Guards every append to a recurrence's term cache.  It is taken only when a
# cache must grow, so one lock for all recurrences costs nothing on warm
# paths and keeps instances picklable.
_EXTEND_LOCK = threading.Lock()


class LinearRecurrence(Record):
    """term(i) = sum(coefficients[j] * term(i-1-j)) once i >= order.

    `_terms`, the shared term cache, is left out of equality and repr."""

    __slots__ = ("order", "coefficients", "initial_terms", "label", "_terms")
    _fields = _compared = __slots__[:4]

    def __init__(self, order: int, coefficients: tuple[int, ...],
                 initial_terms: tuple[int, ...], label: str = ""):
        if order < 1:
            raise ValueError("order must be >= 1")
        if len(coefficients) != order:
            raise ValueError("need exactly `order` coefficients")
        if len(initial_terms) != order:
            raise ValueError("need exactly `order` initial terms")
        if any(c < 0 for c in coefficients) or coefficients[0] < 1:
            raise ValueError("coefficients must be nonnegative with c1 >= 1")
        _setattr(self, "order", order)
        _setattr(self, "coefficients", coefficients)
        _setattr(self, "initial_terms", initial_terms)
        _setattr(self, "label", label)
        _setattr(self, "_terms", list(initial_terms))

    def term(self, i: int) -> int:
        """i-th sequence element; cached, with checked 64-bit arithmetic."""
        if i < 0:
            raise ValueError("index must be nonnegative")
        terms = self._terms
        if len(terms) <= i:
            self._extend(i)
        return terms[i]

    def _extend(self, i: int) -> None:
        """Grow the shared term cache through index i.

        Appends happen only under the lock, after re-reading the length, so
        concurrent callers never append a term twice or out of order;
        readers index only entries already appended, so they need no lock.
        """
        terms = self._terms
        with _EXTEND_LOCK:
            while len(terms) <= i:
                nxt = 0
                for j, c in enumerate(self.coefficients):
                    nxt += c * terms[-1 - j]
                if nxt > INT64_MAX:
                    raise OverflowError(
                        f"term {len(terms)} of {self.label or 'recurrence'} "
                        "exceeds the 64-bit guard"
                    )
                terms.append(nxt)


def metallic_pisa_recurrence(k: int, m: int) -> LinearRecurrence:
    return _metallic_pisa_recurrence(k, m, f"metallic-pisa-{k}-{m}")


def _metallic_pisa_recurrence(k: int, m: int, label: str) -> LinearRecurrence:
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    init = (0,) * (k - 2) + (1, 1)
    return LinearRecurrence(k, (m,) + (1,) * (k - 1), init, label)


class NumerationScheme(Record):
    """A recurrence plus the digit-validity rule of its Zeckendorf theorem.

    `base_index` is the smallest term index a digit may sit on (1 for
    Fibonacci and the metallic family, k-1 for the k-term families, so 2 for
    tribonacci).  Digits below the base are implicitly zero.

    The terms from the base index on must increase strictly.  Checking the
    window t_b < t_{b+1} < ... < t_{b+order} is enough: every coefficient is
    at least 1, so past the window each term exceeds its predecessor by at
    least a positive earlier term (for order 1 the window forces c1 >= 2).
    A term past the 64-bit guard ends the check.

    The window rule is the greedy rule only when the terms start naturally:
    t_{b+i} = c_1 t_{b+i-1} + ... + c_i t_b + 1 for 1 <= i < order, as in
    every built-in family.  Otherwise two valid strings can share a value
    (coefficients (2, 2) on 1, 2, 6, ... make "2" and "10" both valid), so
    such schemes are rejected too.
    """

    __slots__ = _fields = _compared = ("recurrence", "family", "params",
                                       "base_index")

    def __init__(self, recurrence: LinearRecurrence, family: str,
                 params: tuple[int, ...] = (), base_index: int = 1):
        coeffs = recurrence.coefficients
        if any(c < 1 for c in coeffs):
            raise ValueError("scheme coefficients must all be >= 1")
        if any(a < b for a, b in zip(coeffs, coeffs[1:])):
            raise ValueError("scheme coefficients must be nonincreasing")
        rec, base = recurrence, base_index
        if rec.term(base) != 1:
            raise ValueError("term at base_index must equal 1")
        try:
            rec.term(base + rec.order)
        except OverflowError:
            pass
        window = rec._terms[base:base + rec.order + 1]
        if any(a >= b for a, b in zip(window, window[1:])):
            raise ValueError("terms must increase strictly above the base index")
        natural = [1]
        for _ in range(1, rec.order):
            natural.append(1 + sum(c * t for c, t in zip(coeffs, reversed(natural))))
        if window[:rec.order] != natural[:len(window)]:
            raise ValueError("terms above the base index must start as "
                             "t_{b+i} = c_1 t_{b+i-1} + ... + c_i t_b + 1")
        _setattr(self, "recurrence", recurrence)
        _setattr(self, "family", family)
        _setattr(self, "params", params)
        _setattr(self, "base_index", base_index)

    @property
    def max_digit(self) -> int:
        c1 = self.recurrence.coefficients[0]
        return c1 if self.recurrence.order >= 2 else c1 - 1

    def term(self, i: int) -> int:
        return self.recurrence.term(i)

    def descriptor(self) -> str:
        from .families import _label  # its family table names the parameters

        return f"family={_label(self.family, self.params)} base_index={self.base_index}"


def fibonacci_scheme() -> NumerationScheme:
    return _family_scheme(_metallic_pisa_recurrence(2, 1, "fibonacci"), "fibonacci")


def tribonacci_scheme() -> NumerationScheme:
    return _family_scheme(_metallic_pisa_recurrence(3, 1, "tribonacci"), "tribonacci")


def kbonacci_scheme(k: int) -> NumerationScheme:
    return _family_scheme(_metallic_pisa_recurrence(k, 1, f"{k}-bonacci"), "kbonacci", k)


def metallic_scheme(m: int) -> NumerationScheme:
    return _family_scheme(_metallic_pisa_recurrence(2, m, f"metallic-{m}"), "metallic", m)


def metallic_pisa_scheme(k: int, m: int) -> NumerationScheme:
    return _family_scheme(metallic_pisa_recurrence(k, m), "metallic-pisa", k, m)


def _family_scheme(rec: LinearRecurrence, family: str, *params: int) -> NumerationScheme:
    """Digits of a built-in family start at term k-1, the first equal to 1."""
    return NumerationScheme(rec, family, params, rec.order - 1)


def custom_scheme(recurrence: LinearRecurrence, base_index: int) -> NumerationScheme:
    """Wrap a user recurrence; coefficients must be nonincreasing and >= 1."""
    return NumerationScheme(recurrence, "custom", (), base_index)


class DigitString(Record):
    """Digits of a natural number, most-significant first; empty means 0."""

    __slots__ = _fields = _compared = ("digits", "scheme")

    def __init__(self, digits: tuple[int, ...], scheme: NumerationScheme):
        _setattr(self, "digits", digits)
        _setattr(self, "scheme", scheme)

    def __len__(self) -> int:
        return len(self.digits)

    def position(self, idx: int) -> int:
        """Term index carried by digits[idx]."""
        return self.scheme.base_index + len(self.digits) - 1 - idx

    def to_text(self) -> str:
        if self.scheme.max_digit <= 9:
            return "".join(str(d) for d in self.digits)
        return ",".join(str(d) for d in self.digits)

    def __str__(self) -> str:
        return self.to_text()


_new_object = object.__new__
_set_digits = DigitString.digits.__set__
_set_scheme = DigitString.scheme.__set__


def _digit_string(digits: tuple[int, ...], scheme: NumerationScheme) -> DigitString:
    """DigitString(digits, scheme) through the slot setters, skipping
    __init__'s `_setattr` calls on the encoding hot path."""
    out = _new_object(DigitString)
    _set_digits(out, digits)
    _set_scheme(out, scheme)
    return out


def digit_string_from_text(scheme: NumerationScheme, text: str) -> DigitString:
    text = text.strip()
    if not text:
        return DigitString((), scheme)
    if "," in text:
        digits = tuple(int(part) for part in text.split(","))
    else:
        digits = tuple(int(ch) for ch in text)
    if any(d < 0 for d in digits):
        raise ValueError("digits must be nonnegative")
    return DigitString(digits, scheme)


def term(scheme: NumerationScheme, i: int) -> int:
    return scheme.term(i)


def _terms_past(scheme: NumerationScheme, bound: int) -> list[int]:
    """The shared term cache, extended until the last entry exceeds bound."""
    rec = scheme.recurrence
    terms = rec._terms
    while terms[-1] <= bound:
        rec._extend(len(terms))
    return terms


def encode_greedy(scheme: NumerationScheme, n: int) -> DigitString:
    """Greedy expansion: repeatedly subtract the largest term <= remainder.

    Terms increase strictly from the base index, so bisection finds each
    next nonzero digit directly and zero digits cost nothing.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return _digit_string((), scheme)
    base = scheme.base_index
    terms = _terms_past(scheme, n)
    top = bisect_right(terms, n, base) - 1
    digits = [0] * (top - base + 1)
    pos = top
    while True:
        digits[top - pos], n = divmod(n, terms[pos])
        if not n:
            return _digit_string(tuple(digits), scheme)
        pos = bisect_right(terms, n, base, pos) - 1


def decode(d: DigitString) -> int:
    """Sum of digit * term(position), aligned to the scheme's base index."""
    digits = d.digits
    if not digits:
        return 0
    if min(digits) < 0:
        raise ValueError("digits must be nonnegative")
    scheme = d.scheme
    pos = scheme.base_index + len(digits) - 1
    scheme.term(pos)
    terms = scheme.recurrence._terms
    total = 0
    for x in digits:
        if x:
            total += x * terms[pos]
        pos -= 1
    return total


def is_valid(d: DigitString) -> bool:
    """Digit-rule check: every window valid and no leading zero (empty ok)."""
    digits = d.digits
    if not digits:
        return True
    if digits[0] == 0:
        return False
    coeffs = d.scheme.recurrence.coefficients
    c1 = coeffs[0]
    top = max(digits)
    if top != c1:
        return top < c1
    # a window led by a digit below c1 is smaller, so only windows led by c1
    # can fail.  A window cut short by the end compares as if padded with
    # zeros, since every coefficient is at least 1; windows above the top
    # start with a padded zero and pass.
    order = len(coeffs)
    start = -1
    for _ in range(digits.count(c1)):
        start = digits.index(c1, start + 1)
        if digits[start:start + order] >= coeffs:
            return False
    return True


def enumerate_valid(scheme, max_len: int, guard: int = 10**7):
    """Yield every valid digit string of length <= max_len, once each,
    in length-then-lexicographic order.  The empty string (zero) comes first.

    Each length is walked as an odometer.  Dropping the last digit lowers or
    keeps every window and appending a zero keeps a string valid, so the
    next string raises the last digit still below its bound and zeros the
    rest.  A digit's bound depends only on the longest suffix before it equal
    to c_1..c_j: it is cap[j], and follow[j][x] is that j after digit x.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    coeffs = scheme.recurrence.coefficients
    order = len(coeffs)
    cap = list(coeffs)
    cap[-1] -= 1  # equal windows are fine until the whole vector is matched
    follow = [[max(k for k in range(min(j + 1, order - 1) + 1)
                   if (coeffs[:j] + (x,))[j + 1 - k:] == coeffs[:k])
               for x in range(cap[j] + 1)] for j in range(order)]
    left = guard - 1
    yield _digit_string((), scheme)
    for length in range(1, max_len + 1):
        digits = [1] + [0] * (length - 1)
        suffix = [0] * length  # j before each position; 0 after any zero
        i = 0
        while True:
            if i + 1 < length:
                suffix[i + 1] = follow[suffix[i]][digits[i]]
            if left <= 0:
                raise GuardExceededError(
                    f"enumerate_valid guard of {guard} strings exceeded"
                )
            left -= 1
            yield _digit_string(tuple(digits), scheme)
            # zero the digits at their bound from the right; once all are
            # zero, index -1 reads a zero below cap[0] >= 1 and stops the scan
            i = length - 1
            while digits[i] == cap[suffix[i]]:
                digits[i] = suffix[i] = 0
                i -= 1
            if i < 0:
                break
            digits[i] += 1


def is_complete(seq: LinearRecurrence, horizon: int) -> bool:
    """Every natural number is a sum of distinct terms, checked on a horizon:
    the first positive term must be 1 and each term may exceed the running
    sum of its predecessors by at most 1.  (Criterion from the classical
    completeness literature; not restated in the sources this library models.)
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    values = [seq.term(i) for i in range(horizon + 1)]
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("sequence must be nondecreasing on the horizon")
    first_positive = next((v for v in values if v > 0), None)
    if first_positive != 1:
        return False
    running = 0
    for i in range(horizon):
        running += values[i]
        if values[i + 1] > 1 + running:
            return False
    return True


def append_digit(d: DigitString, digit: int) -> DigitString:
    """Append a new least-significant digit, shifting the rest up one index."""
    if digit < 0:
        raise DigitRuleError("digit must be nonnegative")
    out = DigitString(d.digits + (digit,), d.scheme)
    if not is_valid(out):
        raise DigitRuleError(
            f"appending {digit} to '{d.to_text()}' violates the digit rule"
        )
    return out
