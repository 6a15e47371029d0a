"""Random substitutions: set-valued rewriting, inflation words, the
compressed inflation DAG, substitution matrices and spectral diagnostics.

Words are plain strings over single-character letters.  Applying a rule to a
word concatenates the image sets letter by letter; iterating from a single
letter produces the level-n inflation word sets.  Enumerating operations are
guarded because those sets grow super-exponentially; the DAG answers length,
counting and membership queries without enumeration, level by level from
the bottom, and a membership query stops once the word's spans die out or
repeat, however deep the level.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import accumulate, zip_longest

from .errors import (
    DEFAULT_SET_GUARD,
    GuardExceededError,
    NonPrimitiveMatrixError,
    Record,
    StructureError,
    _setattr,
)


class RandomSubstitution(Record):
    """A validated rule; see `make_substitution`.  Unhashable, as its rule
    is a dict.  The `__dict__` slot holds two tables built on first use,
    `first_images` and `_extraction_store`; neither is compared, pickled,
    copied or carried over by `_replace`."""

    __slots__ = ("alphabet", "rule", "uniform_length", "abelian_compatible",
                 "__dict__")
    _fields = _compared = __slots__[:4]
    __hash__ = None

    @cached_property
    def first_images(self) -> dict[str, str]:
        """{letter: first image}, the morphism that `spell_first` iterates
        and `in_image` trims by; built on first use."""
        return {a: images[0] for a, images in self.rule.items()}

    @cached_property
    def _extraction_store(self) -> dict:
        """The witness pieces that no source word enters, kept for the
        life of the substitution; `language._Extractor` fills it inside a
        `_shared_extraction` block and says what it holds."""
        return {}

    def __str__(self) -> str:
        return format_rules(self)


def make_substitution(rule, alphabet=None) -> RandomSubstitution:
    """Validate and canonicalize a letter -> iterable-of-words mapping."""
    if alphabet is None:
        alphabet = tuple(rule.keys())
    else:
        alphabet = tuple(alphabet)
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    if len(set(alphabet)) != len(alphabet):
        raise ValueError("alphabet letters must be distinct")
    for a in alphabet:
        if len(a) != 1 or a == "?":
            raise ValueError(f"letters must be single non-'?' characters: {a!r}")
    letters = set(alphabet)
    canonical: dict[str, tuple[str, ...]] = {}
    for a in alphabet:
        images = tuple(sorted(set(rule.get(a, ()))))
        if not images:
            raise ValueError(f"image set of {a!r} must be non-empty")
        for w in images:
            if not w:
                raise ValueError(f"images of {a!r} must be non-empty words")
            if not set(w) <= letters:
                raise ValueError(f"image {w!r} of {a!r} leaves the alphabet")
        canonical[a] = images
    uniform = all(len({len(w) for w in canonical[a]}) == 1 for a in alphabet)
    abelian = all(
        len({tuple(w.count(b) for b in alphabet) for w in canonical[a]}) == 1
        for a in alphabet
    )
    return RandomSubstitution(alphabet, canonical, uniform, abelian)


def random_fibonacci() -> RandomSubstitution:
    return metallic_pisa(2, 1)


def random_tribonacci() -> RandomSubstitution:
    return metallic_pisa(3, 1)


def random_kbonacci(k: int) -> RandomSubstitution:
    return metallic_pisa(k, 1)


def random_metallic(m: int) -> RandomSubstitution:
    return metallic_pisa(2, m)


def metallic_pisa(k: int, m: int) -> RandomSubstitution:
    """a_i -> {a_1^j a_{i+1} a_1^(m-j)} for i < k and a_k -> a_1; every
    built-in family is an instance (fibonacci is k=2, m=1)."""
    if not 2 <= k <= 26 or m < 1:
        raise ValueError("need 2 <= k <= 26 and m >= 1")
    letters = "abcdefghijklmnopqrstuvwxyz"[:k]
    a1 = letters[0]
    rule = {}
    for i in range(k - 1):
        rule[letters[i]] = tuple(
            a1 * j + letters[i + 1] + a1 * (m - j) for j in range(m + 1)
        )
    rule[letters[-1]] = (a1,)
    return make_substitution(rule, letters)


def apply(sub: RandomSubstitution, w: str, guard: int = DEFAULT_SET_GUARD) -> set[str]:
    """Set concatenation of the letter images of w, deduplicated."""
    if not w:
        raise ValueError("word must be non-empty")
    out = {""}
    for letter in w:
        images = sub.rule[letter]
        nxt = {prefix + img for prefix in out for img in images}
        if len(nxt) > guard:
            raise GuardExceededError(
                f"apply would exceed the {guard}-word guard at letter {letter!r}"
            )
        out = nxt
    return out


# words shorter than this take the plain match, which beats the trim there
# (certificate step words, best of 15 interleaved timings, 2-vCPU Xeon,
# CPython 3.11: 2 letters 1.5 us plain against 2.0 us trimmed, 4 letters
# about even, 5 letters 4.6 us against 3.8 us)
_TRIM_FROM = 4


def in_image(sub: RandomSubstitution, word: str, image: str) -> bool:
    """Whether `image` is in apply(sub, word), decided without enumeration.

    Letter images are matched left to right against `image`, keeping the set
    of end positions some choice of images for the letters read so far can
    reach.  The set never holds more than len(image) + 1 positions, so the
    match is exact for rules whose images differ in length; a rule that is
    not `uniform_length` takes it over the whole word.

    When each letter's images share one length, `word` alone fixes the slot
    each letter's image fills, whichever images are chosen.  The first-image
    spelling of `word` then rejects a wrong length at once, and a leading or
    trailing run of letters whose first images fill their slots needs no
    match; bisection finds the longest such runs, and the match runs on the
    letters between them.  Where images of one letter differ in length the
    slots move with the choices (with a -> {a, aa}, aaa is an image of aa),
    so this trim is only exact for uniform lengths.  It pays from
    `_TRIM_FROM` letters on: a shorter word is matched letter by letter
    faster than it is spelled and bisected.  Every letter of `word` is
    looked up, so an unknown letter raises KeyError as in apply.
    """
    if not word:
        raise ValueError("word must be non-empty")
    if sub.uniform_length and len(word) >= _TRIM_FROM:
        chunks = list(map(sub.first_images.__getitem__, word))
        starts = [0, *accumulate(map(len, chunks))]
        if starts[-1] != len(image):
            return False
        spelled = "".join(chunks)
        if spelled == image:
            return True
        m = len(word)
        head = _longest(m - 1, lambda k: image.startswith(spelled[:starts[k]]))
        tail = _longest(m - 1 - head,
                        lambda k: image.endswith(spelled[starts[m - k]:]))
        word, image = word[head:m - tail], image[starts[head]:starts[m - tail]]
    ends = {0}
    for letter in word:
        images = sub.rule[letter]
        ends = {
            end + len(img)
            for end in ends for img in images if image.startswith(img, end)
        }
    return len(image) in ends


def _longest(most: int, holds) -> int:
    """The largest k in 0..most with holds(k), by bisection; holds(0) is
    true, and holds(k) is true for every k below one where it holds."""
    k = 0
    while k < most:
        mid = (k + most + 1) // 2
        if holds(mid):
            k = mid
        else:
            most = mid - 1
    return k


def apply_to_set(sub, words, guard: int = DEFAULT_SET_GUARD) -> set[str]:
    out: set[str] = set()
    for w in words:
        out |= apply(sub, w, guard)
        if len(out) > guard:
            raise GuardExceededError(f"apply_to_set exceeds the {guard}-word guard")
    return out


def inflation_words(sub, letter: str, n: int, guard: int = DEFAULT_SET_GUARD) -> set[str]:
    """The level-n inflation word set of `letter`, fully enumerated."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    current = {letter}
    for _ in range(n):
        current = apply_to_set(sub, current, guard)
    return current


def spell_first(sub: RandomSubstitution, letter: str, level: int,
                cache: dict) -> str:
    """The level-`level` inflation word of `letter` that takes the first
    image everywhere: sigma^level(letter) for the morphism sigma sending
    each letter to its first image, spelled by translating `level` times.
    `cache` holds the words spelled so far, keyed by (letter, level)."""
    key = (letter, level)
    word = cache.get(key)
    if word is None:
        first = str.maketrans(sub.first_images)
        word = letter
        for _ in range(level):
            word = word.translate(first)
        cache[key] = word
    return word


class InflationDag(Record):
    """Compressed view of all level-n inflation word sets up to max_level.

    Node (letter, n) stands for the set of level-n inflation words of
    `letter`; its alternatives are the rule images, each read as a sequence
    of level-(n-1) child nodes.  Lengths and realisation-path counts are
    folded bottom-up without enumeration, up to the level asked for;
    membership walks the word's (length, starts) span bitsets up the levels
    through `_next_spans`, the composition the legality kernel uses;
    `spell_any` spells one element by `spell_first`.  The per-level table
    is the only state, and it only ever stores a value under its key equal
    to itself, so threads that fill one DAG at once agree; it is left out
    of equality and repr.  Unhashable, like its substitution.
    """

    __slots__ = ("substitution", "max_level", "_table")
    _fields = _compared = __slots__[:2]
    __hash__ = None

    def __init__(self, substitution: RandomSubstitution, max_level: int):
        _setattr(self, "substitution", substitution)
        _setattr(self, "max_level", max_level)
        _setattr(self, "_table", {})

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise ValueError(f"level must lie in 0..{self.max_level}, "
                             f"the levels the dag was built to")

    def _fold(self, step, level: int) -> dict:
        """{letter: value} at `level`, where a level-0 node's value is 1 and
        `step` gives a node's value from its images and the values of the
        level below.  Each level is computed once and stored under (step,
        level)."""
        self._check_level(level)
        table, rule = self._table, self.substitution.rule
        known = level
        while known and (step, known) not in table:
            known -= 1
        values = table.get((step, known)) or dict.fromkeys(rule, 1)
        for lvl in range(known + 1, level + 1):
            values = {a: step(values, images) for a, images in rule.items()}
            table[(step, lvl)] = values
        return values

    def element_length(self, letter: str, level: int) -> int:
        """Common length of the node's words; StructureError if non-uniform."""
        value = self._fold(_common_length, level)[letter]
        if value is None:
            raise StructureError(
                f"node ({letter}, {level}) has words of several lengths"
            )
        return value

    def path_count(self, letter: str, level: int) -> int:
        """Number of realisation paths (counts repeated words separately).

        The counts are exact big integers whose size explodes with the
        level, so only the levels up to the one asked for are computed.
        """
        return self._fold(_path_count, level)[letter]

    def spell_any(self, letter: str, level: int) -> str:
        """One concrete element of the node (first image everywhere)."""
        self._check_level(level)
        return spell_first(self.substitution, letter, level, {})

    def contains(self, word: str, letter: str, level: int) -> bool:
        """Exact membership of `word` in the node's word set, bottom-up.

        Level l holds each letter's spans as (L, starts) pairs, bit i of
        starts saying that word[i:i+L] is a level-l word of the letter; the
        spans one level up are `_next_spans` of them, the composition the
        legality kernel runs on its match profiles.  The word is a member
        when the letter has a span of length len(word) at bit 0.  Level 0
        marks each position with its own letter only, so '?' and letters
        outside the alphabet match nothing.  A level's spans are a function
        of the level below, so the walk answers False once no span is left
        and skips ahead by whole periods once they repeat, however deep
        `level` is."""
        self._check_level(level)
        rule = self.substitution.rule
        if letter not in rule:
            raise KeyError(letter)
        if not word:
            return False
        spelled = word[::-1]
        zeros = dict.fromkeys(map(ord, set(word)), "0")
        spans = {}
        for a in rule:
            starts = int(spelled.translate({**zeros, ord(a): "1"}), 2)
            spans[a] = ((1, starts),) if starts else ()
        history, seen = [], {}
        while len(history) < level:
            vector = tuple(spans.values())
            if not any(vector):
                return False
            first = seen.setdefault(vector, len(history))
            if first < len(history):
                spans = history[first + (level - first) % (len(history) - first)]
                break
            history.append(spans)
            spans = _next_spans(rule, spans)
        return bool(dict(spans[letter]).get(len(word), 0) & 1)


def _common_length(values: dict, images) -> int | None:
    """The length all words of a node share, or None when they differ."""
    lengths = {None if None in parts else sum(parts)
               for parts in ([values[c] for c in image] for image in images)}
    return lengths.pop() if len(lengths) == 1 else None


def _path_count(values: dict, images) -> int:
    return sum(math.prod([values[c] for c in image]) for image in images)


def _chain(image: str, spans_of) -> dict:
    """{L: starts} for the words u[i:i+L] that split into consecutive
    elements of the image's letters, one bit i per start, given each
    letter's (L, starts) elements in `spans_of`: an element of length L1
    at i followed by one of length L2 at i + L1 spans u[i:i+L1+L2]."""
    spans = dict(spans_of[image[0]])
    for c in image[1:]:
        if not spans:
            break
        new: dict = {}
        for l1, s1 in spans.items():
            for l2, s2 in spans_of[c]:
                got = s1 & (s2 >> l1)
                if got:
                    new[l1 + l2] = new.get(l1 + l2, 0) | got
        spans = new
    return spans


def _next_spans(rule: dict, spans_of) -> dict:
    """{letter: ((L, starts), ...)} one level up, ascending in L: the
    `_chain` of each of the letter's images, ORed by length."""
    out = {}
    for a, images in rule.items():
        spans = _chain(images[0], spans_of)
        for image in images[1:]:
            for length, starts in _chain(image, spans_of).items():
                spans[length] = spans.get(length, 0) | starts
        out[a] = tuple(sorted(spans.items()))
    return out


def build_dag(sub: RandomSubstitution, max_level: int) -> InflationDag:
    """A DAG over levels 0..max_level; nothing is computed until asked."""
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    return InflationDag(sub, max_level)


def substitution_matrix(sub: RandomSubstitution) -> list[list[int]]:
    """Entry (i, j) counts letter i in any image of letter j; columns hold
    the image abelianisations, so length vectors evolve by left
    multiplication with row vectors.
    """
    if not sub.abelian_compatible:
        raise StructureError(
            "images of some letter disagree on letter counts; no matrix exists"
        )
    alpha = sub.alphabet
    return [
        [sub.rule[col][0].count(row) for col in alpha]
        for row in alpha
    ]


def _integer_rows(matrix) -> list[list[int]]:
    """The matrix as rows of ints; ValueError unless square, integral and
    nonnegative."""
    try:
        rows = [list(row) for row in matrix]
    except TypeError:
        raise ValueError("matrix must be square") from None
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("matrix must be square")
    out = [[int(x) for x in row] for row in rows]
    if any(x != y for row, orig in zip(out, rows) for x, y in zip(row, orig)):
        raise ValueError("matrix entries must be integers")
    if any(x < 0 for row in out for x in row):
        raise ValueError("matrix must be nonnegative")
    return out


def is_primitive(matrix) -> bool:
    """Some power of the (nonnegative integer) matrix is strictly positive.

    Rows are bitsets.  Squaring until the exponent reaches Wielandt's bound
    (n-1)^2 + 1 decides it: a primitive matrix is positive from that power
    on, and no power of an imprimitive one is positive.
    """
    rows = _integer_rows(matrix)
    size = len(rows)
    full = (1 << size) - 1
    power = [sum(1 << j for j, x in enumerate(row) if x) for row in rows]
    exponent = 1
    while exponent < (size - 1) ** 2 + 1 and any(row != full for row in power):
        squared = []
        for row in power:
            acc = 0
            while row:
                low = row & -row
                acc |= power[low.bit_length() - 1]
                row ^= low
            squared.append(acc)
        power = squared
        exponent *= 2
    return all(row == full for row in power)


# Exact polynomial helpers.  Polynomials are lists of ints, highest degree
# first and with a nonzero leading coefficient, as characteristic_polynomial
# returns them.


def _reduce(p: list[int]) -> list[int]:
    """Divide out the (positive) content; signs are kept."""
    content = math.gcd(*p)
    return [c // content for c in p] if content > 1 else p


def _remainder(a: list[int], b: list[int]) -> list[int]:
    """r with c*a = q*b + r for some integer c > 0 and deg r < deg b."""
    scale, sign = abs(b[0]), (1 if b[0] > 0 else -1)
    r = a
    while r and len(r) >= len(b):
        f = r[0] * sign
        r = [scale * x - f * y for x, y in zip_longest(r, b, fillvalue=0)][1:]
        while r and r[0] == 0:
            r = r[1:]
        if r:
            r = _reduce(r)
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """Greatest common divisor, primitive with a positive leading coefficient."""
    while b:
        a, b = b, _remainder(a, b)
    a = _reduce(a)
    return a if a[0] > 0 else [-c for c in a]


def _exact_quotient(a: list[int], b: list[int]) -> list[int]:
    """a / b for a monic b that divides a."""
    r, q = list(a), []
    for i in range(len(a) - len(b) + 1):
        f = r[i]
        q.append(f)
        for j, y in enumerate(b):
            r[i + j] -= f * y
    return q


def _derivative(p: list[int]) -> list[int]:
    deg = len(p) - 1
    return [c * (deg - i) for i, c in enumerate(p[:-1])]


def _sign_variations(values) -> int:
    signs = [v > 0 for v in values if v]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _value(p: list[int], num: int, den: int) -> int:
    """p(num/den) * den^deg p, an integer of the same sign for den > 0."""
    acc, scale = p[0], 1
    for c in p[1:]:
        scale *= den
        acc = acc * num + c * scale
    return acc


def pf_eigenvalue(matrix) -> float:
    """Perron-Frobenius eigenvalue: the float nearest the exact root.

    The root is the largest real root of the characteristic polynomial, and
    it lies between the smallest and largest column sums.  Bisection on
    dyadic rationals lo/2^s < root <= hi/2^s decides each midpoint by a
    Sturm count of the distinct real roots above it, until both ends round
    to the same float.  Once the root is the only one above lo, the sign of
    the square-free part alone decides.  The root is an algebraic integer,
    so it is never a tie between two floats unless it is an integer, and
    the power-of-two width of the start interval makes bisection hit an
    integer root exactly.
    """
    if not is_primitive(matrix):
        raise NonPrimitiveMatrixError("matrix is not primitive")
    p = characteristic_polynomial(matrix)
    square_free = _exact_quotient(p, _gcd(p, _derivative(p)))
    chain = [square_free, _derivative(square_free)]
    while len(chain[-1]) > 1:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    at_infinity = _sign_variations(q[0] for q in chain)
    col_sums = [sum(col) for col in zip(*_integer_rows(matrix))]
    lo = min(col_sums) - 1
    hi = lo + (1 << (max(col_sums) - lo - 1).bit_length())
    den = 1
    isolated = False
    while lo / den != hi / den:
        lo, hi, den = 2 * lo, 2 * hi, 2 * den
        mid = (lo + hi) // 2
        if isolated:
            above = _value(square_free, mid, den) < 0
        else:
            values = [_value(q, mid, den) for q in chain]
            roots_above = _sign_variations(values) - at_infinity
            above = roots_above > 0
            isolated = roots_above == 1
        if above:
            lo = mid
        else:
            hi = mid
    return hi / den


def characteristic_polynomial(matrix) -> list[int]:
    """Exact integer coefficients, leading 1, by the trace recursion."""
    arr = [[int(x) for x in row] for row in matrix]
    size = len(arr)
    coeffs = [1]
    work = [row[:] for row in arr]
    for k in range(1, size + 1):
        trace = sum(work[i][i] for i in range(size))
        assert trace % k == 0
        ck = -trace // k
        coeffs.append(ck)
        if k == size:
            break
        for i in range(size):
            work[i][i] += ck
        work = [
            [sum(arr[i][t] * work[t][j] for t in range(size)) for j in range(size)]
            for i in range(size)
        ]
    return coeffs


def _roots_inside_disk(f: list[int]) -> int:
    """Roots of f strictly inside the unit disk, with multiplicity, for f
    coprime to its reciprocal polynomial.

    The Schur-Cohn form C = B^T B - A^T A, with A and B the lower triangular
    Toeplitz matrices on (a_0, ..., a_{d-1}) and (a_d, ..., a_1), is then
    nonsingular, and its positive eigenvalues count the roots inside
    (Marden, Geometry of Polynomials, 1966).  C is symmetric, so its
    characteristic polynomial is real-rooted and Descartes' rule of signs
    counts those eigenvalues exactly.
    """
    a = f[::-1]
    deg = len(a) - 1
    if deg == 0:
        return 0
    lower = [a[deg - t] for t in range(deg)]
    upper = a[:deg]
    form = [
        [
            sum(lower[i - j] * lower[i - k] - upper[i - j] * upper[i - k]
                for i in range(max(j, k), deg))
            for k in range(deg)
        ]
        for j in range(deg)
    ]
    return _sign_variations(characteristic_polynomial(form))


def is_pisot(matrix) -> bool:
    """True when exactly one characteristic root, counted with multiplicity,
    has modulus >= 1 (the dominant one); an exact decision.

    p = g * h with g = gcd(p, reversed p).  The roots of g lie on the unit
    circle or come in pairs (z, 1/z), so g alone has at least deg(g) / 2
    roots of modulus >= 1, and exactly one only when it is linear or a
    real reciprocal pair x^2 + bx + 1 with |b| > 2.  h is coprime to its
    reciprocal, and the Schur-Cohn form counts its roots inside the disk.
    """
    if not is_primitive(matrix):
        raise NonPrimitiveMatrixError("matrix is not primitive")
    p = characteristic_polynomial(matrix)
    reversed_p = p[::-1]
    while reversed_p[0] == 0:
        reversed_p = reversed_p[1:]
    g = _gcd(p, reversed_p)
    if len(g) > 3 or (len(g) == 3 and not (g[2] == 1 and abs(g[1]) > 2)):
        return False
    outside_g = min(len(g) - 1, 1)
    h = _exact_quotient(p, g)
    return outside_g + len(h) - 1 - _roots_inside_disk(h) == 1


def format_rules(sub: RandomSubstitution) -> str:
    """`letter -> {image1, image2}` lines, the custom rule file format."""
    lines = [
        f"{a} -> {{{', '.join(sub.rule[a])}}}"
        for a in sub.alphabet
    ]
    return "\n".join(lines)


def parse_rules(text: str) -> RandomSubstitution:
    rule: dict[str, tuple[str, ...]] = {}
    order = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "->" not in line:
            raise ValueError(f"cannot parse rule line: {raw!r}")
        head, _, body = line.partition("->")
        letter = head.strip()
        body = body.strip()
        if not (body.startswith("{") and body.endswith("}")):
            raise ValueError(f"image set must be brace-delimited: {raw!r}")
        images = tuple(
            part.strip() for part in body[1:-1].split(",") if part.strip()
        )
        if letter in rule:
            raise ValueError(f"duplicate rule for letter {letter!r}")
        rule[letter] = images
        order.append(letter)
    if not rule:
        raise ValueError("no rules found")
    return make_substitution(rule, order)
