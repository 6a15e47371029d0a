"""Semi-mixing verification for random substitution subshifts.

Two independent routes are provided.  The empirical checker asks, for a
legal word w and each gap length n up to a horizon, whether some word u of
length n and some seed word s make w u s legal; the query runs through the
exact legality engine on the gap pattern `w ?^n s` and every witness found
is replayed as a concrete word.  The constructive route mechanizes the
inductive arguments for the Fibonacci, tribonacci and metallic families: a
certificate records an embedding of w into an inflation word, a numeration
threshold, and the realisation choices that extend a base witness digit by
digit; witnesses for every length above the threshold are then derived
(never searched), and verification replays every recorded choice against
the substitution and the independent legality engine.

Derivations keep one invariant: the running word z followed by the current
seed s is a prefix of a concrete level-L inflation word e of the letter a.
Consuming a digit d replaces e by a realisation of its image in which the
image of s is the recorded word R: the invariant survives with z' =
image(z) + R[:d] and s' = R[d : d + seed length], and |z'| tracks the
numeration value of the digits consumed so far.  The embedding supplies the
left context that turns the prefix invariant into legality of w u s.

Deep verification follows the same structure instead of deciding DAG
membership afresh for every n.  The base element is checked once as a
level-2 inflation word of a; each derivation step is then one rule
application, checked by matching the step's element against the letter
images of the previous element (linear in its length for constant-length
rules).  Since the image of a level-k inflation word of a consists of
level-(k+1) inflation words of a, an unbroken chain from a verified base
proves that the final element is an inflation word of a at its level.

A prefix of a greedy expansion is the greedy expansion of a smaller value,
and a step depends only on the digits consumed so far, so the derivations
of many gap lengths form a trie of digit prefixes.  One replay derives and
checks each distinct prefix once, depth first, so that only the steps on
one root-to-node path are alive at a time: over a fibonacci span of 61 gap
lengths that is 61 steps instead of 416.
"""

from __future__ import annotations

from .errors import (
    HORIZON_GUARD,
    GuardExceededError,
    IllegalWordError,
    Record,
    UnsupportedFamilyError,
    _setattr,
)
from .families import _FAMILIES, Family, _spec
from .language import (
    _BATCH_CHARS,
    LegalityVerdict,
    _shared_extraction,
    is_legal,
    language_of_length,
    pattern_witness,
)
from .numeration import DigitString, decode, encode_greedy
from .substitution import RandomSubstitution, build_dag, in_image

_WITNESS_LENGTH_GUARD = 10**6


def _key_values(field: str, parts, keys: tuple[str, ...]) -> dict[str, str]:
    """The `key=value` parts of a certificate field, which must be `keys`."""
    kv = dict(part.partition("=")[::2] for part in parts)
    if set(kv) != set(keys) or len(kv) != len(parts):
        raise ValueError(f"{field}: expected {' '.join(k + '=' for k in keys)}")
    return kv


def _integer(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{field}: {text!r} is not an integer") from None


def parse_family(text: str) -> Family:
    """Inverse of `Family.label`."""
    if not text.split():
        raise ValueError("family: no family name")
    name, *parts = text.split()
    names = _spec(name).params
    kv = _key_values(f"family {name}", parts, names)
    return Family(name, tuple(_integer(f"family {name} {n}", kv[n]) for n in names))


class SeedSet(Record):
    __slots__ = _fields = _compared = ("words", "length", "proper")

    def __init__(self, words: tuple[str, ...], length: int, proper: bool):
        _setattr(self, "words", words)
        _setattr(self, "length", length)
        _setattr(self, "proper", proper)


def make_seed_set(sub: RandomSubstitution, words) -> SeedSet:
    """Validate seed words: non-empty, equal length, legal, and a proper
    subset of the length-l language."""
    words = tuple(sorted(set(words)))
    if not words:
        raise ValueError("seed set must be non-empty")
    lengths = {len(w) for w in words}
    if lengths == {0} or len(lengths) != 1:
        raise ValueError("seed words must share one positive length")
    length = lengths.pop()
    for w in words:
        if not is_legal(sub, w, want_witness=False).legal:
            raise IllegalWordError(f"seed word {w!r} is not legal")
    full = set(language_of_length(sub, length))
    if not set(words) < full:
        raise ValueError(
            f"seed set must be a proper subset of the {len(full)} legal "
            f"length-{length} words"
        )
    return SeedSet(words, length, True)


def seed_sets(family: Family, sub: RandomSubstitution | None = None) -> SeedSet:
    """The family's distinguished seed set, properness verified."""
    if sub is None:
        sub = family.substitution()
    return make_seed_set(sub, family.seed_words())


# ---------------------------------------------------------------------------
# empirical checker


class WitnessEntry(Record):
    __slots__ = _fields = _compared = ("u", "s", "evidence")

    def __init__(self, u: str, s: str, evidence: LegalityVerdict):
        _setattr(self, "u", u)
        _setattr(self, "s", s)
        _setattr(self, "evidence", evidence)


class WitnessTable(Record):
    __slots__ = _fields = _compared = ("source", "horizon", "seeds", "entries",
                                       "threshold")

    def __init__(self, source: str, horizon: int, seeds: tuple[str, ...],
                 entries: tuple[WitnessEntry | None, ...], threshold: int | None):
        _setattr(self, "source", source)
        _setattr(self, "horizon", horizon)
        _setattr(self, "seeds", seeds)
        _setattr(self, "entries", entries)
        _setattr(self, "threshold", threshold)

    def to_report(self) -> str:
        lines = [
            "# zeckmix witness-table v1",
            f"source: {self.source}",
            f"horizon: {self.horizon}",
            f"seeds: {' '.join(self.seeds)}",
            "threshold_on_horizon: "
            + ("none" if self.threshold is None else str(self.threshold)),
        ]
        for n, entry in enumerate(self.entries):
            if entry is None:
                lines.append(f"n={n} witnessed=no")
            else:
                lines.append(
                    f"n={n} u={entry.u} s={entry.s} verified=yes"
                )
        return "\n".join(lines)


def check_empirical(sub: RandomSubstitution, seeds: SeedSet, w: str,
                    n_max: int, horizon_guard: int = HORIZON_GUARD) -> WitnessTable:
    """For each n in [0, n_max], find u with |u| = n and a seed s making
    w u s legal, via exact gap-pattern queries; replay every witness."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    if n_max > horizon_guard:
        raise GuardExceededError(
            f"horizon {n_max} exceeds the work guard {horizon_guard}"
        )
    if not seeds.proper:
        raise ValueError("seed set must be validated as a proper subset")
    # the gap patterns share their w- and s-side pieces: the w-side ones go
    # in one memo, owned by this call, and the ones no source word enters
    # in the substitution's extraction store, kept for later calls; the
    # legality checks, the gap patterns of the first seed and the replays
    # of the witnesses are each searched as one batch
    with _shared_extraction(sub) as block:
        block.search((*seeds.words, w))
        for s in seeds.words:
            if not is_legal(sub, s, want_witness=False).legal:
                raise IllegalWordError(f"seed word {s!r} is not legal")
        if not is_legal(sub, w, want_witness=False).legal:
            raise IllegalWordError(f"source word {w!r} is not legal")
        block.search([w + "?" * n + seeds.words[0] for n in range(n_max + 1)])
        found: list[tuple[str, str] | None] = []
        for n in range(n_max + 1):
            for s in seeds.words:
                hit = pattern_witness(sub, w + "?" * n + s)
                if hit is not None:
                    found.append((hit[0][len(w):len(w) + n], s))
                    break
            else:
                found.append(None)
        block.search([w + u + s for u, s in filter(None, found)])
        entries: list[WitnessEntry | None] = []
        for hit in found:
            entry = None
            if hit is not None:
                u, s = hit
                evidence = is_legal(sub, w + u + s, want_witness=False)
                if not evidence.legal:
                    raise AssertionError(
                        "extracted witness failed independent replay"
                    )
                entry = WitnessEntry(u, s, evidence)
            entries.append(entry)
    threshold = None
    for n in range(n_max, -1, -1):
        if entries[n] is None:
            break
        threshold = n
    return WitnessTable(w, n_max, seeds.words, tuple(entries), threshold)


# ---------------------------------------------------------------------------
# constructive certificates


class DerivationStep(Record):
    """One digit's step: `word` is z, `seed` is s and `element` is e after
    it, and e lives in the level-`level` inflation words of a."""

    __slots__ = _fields = _compared = ("digit", "word", "seed", "element",
                                       "level")

    def __init__(self, digit: int, word: str, seed: str, element: str,
                 level: int):
        _setattr(self, "digit", digit)
        _setattr(self, "word", word)
        _setattr(self, "seed", seed)
        _setattr(self, "element", element)
        _setattr(self, "level", level)


class Certificate(Record):
    """w = `source` occurs inside a level-`level` word `w_prime` = x w y of
    a; `lead_position` is the digit index carrying the minimal leading 1,
    and `threshold` is |y| + n0.  The three tables are left out of
    equality."""

    __slots__ = _fields = (
        "family", "source", "level", "w_prime", "x", "y", "lead_position", "n0",
        "threshold", "seeds", "seed_length", "letter_images", "base_table",
        "step_table")
    _compared = _fields[:11]

    def __init__(self, family: Family, source: str, level: int, w_prime: str,
                 x: str, y: str, lead_position: int, n0: int, threshold: int,
                 seeds: tuple[str, ...], seed_length: int,
                 letter_images: dict[str, str],
                 base_table: dict[int, tuple[str, str, str]],
                 step_table: dict[tuple[str, int], str]):
        _setattr(self, "family", family)
        _setattr(self, "source", source)
        _setattr(self, "level", level)
        _setattr(self, "w_prime", w_prime)
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "lead_position", lead_position)
        _setattr(self, "n0", n0)
        _setattr(self, "threshold", threshold)
        _setattr(self, "seeds", seeds)
        _setattr(self, "seed_length", seed_length)
        _setattr(self, "letter_images", letter_images)
        _setattr(self, "base_table", base_table)
        _setattr(self, "step_table", step_table)


def certify(sub: RandomSubstitution, family: Family, w: str) -> Certificate:
    """Build the constructive semi-mixing certificate for a legal word."""
    normalized = _FAMILIES[family.name].alias(*family.params) or family
    if _FAMILIES[normalized.name].tables is None:
        raise UnsupportedFamilyError(
            f"constructive certificates cover fibonacci, tribonacci and "
            f"metallic families only; {family.label()} has the empirical "
            "checker"
        )
    expected = normalized.substitution()
    if sub.rule != expected.rule or sub.alphabet != expected.alphabet:
        raise UnsupportedFamilyError(
            f"substitution does not match family {family.label()}"
        )
    if not is_legal(sub, w, want_witness=False).legal:
        raise IllegalWordError(f"{w!r} is not legal for {family.label()}")
    hit = pattern_witness(sub, w, stop_letters=("a",), min_level=2)
    if hit is None:
        raise AssertionError("legal word has no level >= 2 embedding")
    _, level, _, element, start = hit
    x, y = element[:start], element[start + len(w):]
    scheme = normalized.scheme()
    lead_position = scheme.base_index + level - 2
    n0 = scheme.term(lead_position)
    imgs, base_table, step_table = _FAMILIES[normalized.name].tables(
        *normalized.params)
    seeds = normalized.seed_words()
    return Certificate(
        family=normalized,
        source=w,
        level=level,
        w_prime=element,
        x=x,
        y=y,
        lead_position=lead_position,
        n0=n0,
        threshold=len(y) + n0,
        seeds=seeds,
        seed_length=len(seeds[0]),
        letter_images=imgs,
        base_table=base_table,
        step_table=step_table,
    )


def _expand(images: dict[str, str], word: str) -> str:
    """`word` with each letter replaced by its image; KeyError names the
    first letter `images` lacks."""
    return "".join(map(images.__getitem__, word))


def derive_witness(cert: Certificate, n: int) -> tuple[str, str, list[DerivationStep]]:
    """Replay the digit-driven construction for gap length n (n >= threshold),
    using only the certificate's recorded choices."""
    steps = []
    for digit in _gap_digits(cert, n, cert.family.scheme()):
        steps.append(_next_step(cert, steps[-1] if steps else None, digit))
    return cert.y + steps[-1].word, steps[-1].seed, steps


def _gap_digits(cert, n, scheme) -> tuple[int, ...]:
    """The greedy digits of n - |y|, which drive the derivation for gap
    length n."""
    if n < cert.threshold:
        raise ValueError(f"n must be at least the threshold {cert.threshold}")
    if n > _WITNESS_LENGTH_GUARD:
        raise GuardExceededError("witness length exceeds the work guard")
    return encode_greedy(scheme, n - len(cert.y)).digits


def _next_step(cert, prev, digit):
    """The base step for a leading digit, or prev extended by one digit."""
    if prev is None:
        if digit not in cert.base_table:
            raise ValueError(f"no base-case entry for leading digit {digit}")
        z, s, e = cert.base_table[digit]
        return DerivationStep(digit, z, s, e, 2)
    z, s, e = prev.word, prev.seed, prev.element
    r = cert.step_table[(s, digit)]
    zx = _expand(cert.letter_images, z)
    rho = e[len(z) + len(s):]
    return DerivationStep(
        digit, zx + r[:digit], r[digit:digit + cert.seed_length],
        zx + r + _expand(cert.letter_images, rho), prev.level + 1)


def witness_for_length(cert: Certificate, n: int) -> tuple[str, str]:
    u, s, _ = derive_witness(cert, n)
    return u, s


def _links(sub, base_alternatives, prev, step) -> bool:
    """Whether `step` continues an inflation chain of a: with no step before
    it, it is the level-2 base element of its leading digit; otherwise its
    element realises the image of prev's, one level up."""
    if prev is None:
        return step.level == 2 and base_alternatives.get(step.digit) == step.element
    return step.level == prev.level + 1 and in_image(sub, prev.element, step.element)


class VerificationOutcome(Record):
    __slots__ = _fields = _compared = ("ok", "checked", "counterexample")

    def __init__(self, ok: bool, checked: int,
                 counterexample: tuple[int, str] | None):
        _setattr(self, "ok", ok)
        _setattr(self, "checked", checked)
        _setattr(self, "counterexample", counterexample)

    def __bool__(self) -> bool:
        return self.ok


def _decide(sub, batch, stop) -> None:
    """Decide the contexts of `batch` before position stop[0] in a block of
    their own, lowering `stop` to the first illegal one; empties `batch`."""
    with _shared_extraction(sub) as block:
        block.search([context for pos, context in batch if pos < stop[0]])
        for pos, context in batch:
            if pos < stop[0] and not is_legal(
                    sub, context, want_witness=False).legal:
                stop[:] = pos, f"context {context!r} is not legal"
    batch.clear()


def verify_certificate(cert: Certificate, ns, deep: bool = True) -> VerificationOutcome:
    """Replay the certificate over the given gap lengths with an engine
    independent of the construction; returns a counterexample on failure.

    With `deep`, each derivation's final element is also shown to be a
    level-L inflation word of a by induction along its steps: the first is
    a base element, which the preamble checks against the level-2 DAG, and
    each later one lies in the image of the one before, one level up
    (`_links`); a word in the image of a level-k word of a is a
    level-(k+1) word of a.

    A step is a function of its digit prefix alone, so the replay walks
    the trie of the gap lengths' digit strings depth first, deriving and
    checking each node once against its parent and keeping only the steps
    on the current path.  Each n fails, in this order, on a failed
    derivation on its path, its final length, its final seed, the path's
    first bookkeeping fault, when deep its first failed link, or an illegal
    context w u s; contexts are decided in batches of at most _BATCH_CHARS
    characters (the split of `_Block.search`), each in a block of its own.
    The outcome is that of checking each n alone, in the order of `ns`, so
    a guard error is raised once every n before it passes.
    """
    sub = cert.family.substitution()
    scheme = cert.family.scheme()
    seeds = set(cert.seeds)

    def fail(n, reason, checked=0):
        return VerificationOutcome(False, checked, (n, reason))

    if cert.w_prime != cert.x + cert.source + cert.y:
        return fail(-1, "embedding split does not reassemble w_prime")
    if not build_dag(sub, cert.level).contains(cert.w_prime, "a", cert.level):
        return fail(-1, f"w_prime is not a level-{cert.level} inflation word of a")
    if cert.threshold != len(cert.y) + cert.n0:
        return fail(-1, "threshold does not equal |y| + n0")
    if cert.n0 != scheme.term(cert.lead_position):
        return fail(-1, "n0 is not the recorded sequence term")
    for letter, image in cert.letter_images.items():
        if image not in sub.rule.get(letter, ()):
            return fail(-1, f"letter image {letter}->{image} is not a rule image")
    base_alternatives = {}
    for lead, (z0, s0, e0) in cert.base_table.items():
        if s0 not in seeds:
            return fail(-1, f"base seed {s0!r} is not in the seed set")
        if not e0.startswith(z0 + s0):
            return fail(-1, f"base word for digit {lead} is not a prefix of e0")
        if len(z0) != lead * scheme.term(scheme.base_index):
            return fail(-1, f"base word for digit {lead} has the wrong length")
        base_alternatives[lead] = e0
    base_dag = build_dag(sub, 2)
    for lead, e0 in base_alternatives.items():
        if not base_dag.contains(e0, "a", 2):
            return fail(-1, f"base element for digit {lead} is not level-2")
    for (s, digit), r in cert.step_table.items():
        if s not in seeds:
            return fail(-1, f"step seed {s!r} is not in the seed set")
        if not set(s) <= set(sub.rule) or not in_image(sub, s, r):
            return fail(-1, f"step word {r!r} is not an image of {s!r}")
        if len(r) < digit + cert.seed_length:
            return fail(-1, f"step word {r!r} too short for digit {digit}")
        if r[digit:digit + cert.seed_length] not in seeds:
            return fail(-1, f"step ({s!r}, {digit}) yields a non-seed follower")

    # order: ns up to the first n whose digits fail (a span far past the
    # guard is never held); stop: the earliest failing position and its
    # reason, the walk skipping all at or after it; trie: digit ->
    # [children, position of the n ending here or None, earliest below]
    order, stop, trie = [], [float("inf"), None], {}
    for pos, n in enumerate(ns):
        order.append(n)
        try:
            digits = _gap_digits(cert, n, scheme)
        except GuardExceededError as exc:   # raised if every n before it passes
            stop[:] = pos, exc
            break
        except ValueError as exc:
            stop[:] = pos, f"derivation failed: {exc}"
            break
        children = trie
        for digit in digits:
            node = children.setdefault(digit, [{}, None, pos])
            children = node[0]
        if node[1] is None:
            node[1] = pos

    # the trie walked depth first on a stack of (children left to visit,
    # digit prefix, step, the path's first bookkeeping fault, whether a
    # link on the path failed), one frame per step on the current path
    batch, size = [], 0   # the (position, context) pairs not decided yet
    stack = [(iter(trie.items()), (), None, "", False)]
    while stack:
        children, prefix, prev, fault, unlinked = stack[-1]
        for digit, (below, pos, earliest) in children:
            if earliest >= stop[0]:
                continue
            digits = prefix + (digit,)
            try:
                step = _next_step(cert, prev, digit)
            except (KeyError, ValueError) as exc:
                stop[:] = earliest, f"derivation failed: {exc}"
                continue
            here, cut = fault, unlinked
            if not here:
                if not step.element.startswith(step.word + step.seed):
                    here = f"prefix invariant broken at level {step.level}"
                elif len(step.word) != decode(DigitString(digits, scheme)):
                    here = f"digit bookkeeping broken at level {step.level}"
                elif deep and not cut:
                    cut = not _links(sub, base_alternatives, prev, step)
            if pos is not None and pos < stop[0]:
                n, length = order[pos], len(cert.y) + len(step.word)
                if length != n:
                    stop[:] = pos, f"witness has length {length}, expected {n}"
                elif step.seed not in seeds:
                    stop[:] = pos, f"witness seed {step.seed!r} is not in the seed set"
                elif here or cut:
                    stop[:] = pos, here or "final element is not an inflation word of a"
                else:
                    context = cert.source + cert.y + step.word + step.seed
                    if size + len(context) > _BATCH_CHARS:
                        _decide(sub, batch, stop)
                        size = 0
                    batch.append((pos, context))
                    size += len(context)
            stack.append((iter(below.items()), digits, step, here, cut))
            break
        else:
            stack.pop()
    _decide(sub, batch, stop)
    pos, reason = stop
    if isinstance(reason, GuardExceededError):
        raise reason
    if reason is not None:
        return fail(order[pos], reason, pos)
    return VerificationOutcome(True, len(order), None)


# ---------------------------------------------------------------------------
# report formats


def certificate_report(cert: Certificate) -> str:
    lines = [
        "# zeckmix certificate v1",
        f"family: {cert.family.label()}",
        f"source: {cert.source}",
        f"level: {cert.level}",
        f"w_prime: {cert.w_prime}",
        f"x: {cert.x}",
        f"y: {cert.y}",
        f"lead_position: {cert.lead_position}",
        f"n0: {cert.n0}",
        f"threshold: {cert.threshold}",
        f"seeds: {' '.join(cert.seeds)}",
    ]
    for letter in sorted(cert.letter_images):
        lines.append(f"letter_image: {letter} -> {cert.letter_images[letter]}")
    for lead in sorted(cert.base_table):
        z0, s0, e0 = cert.base_table[lead]
        lines.append(f"base: digit={lead} u={z0} s={s0} e={e0}")
    for (s, digit) in sorted(cert.step_table):
        lines.append(f"step: seed={s} digit={digit} word={cert.step_table[(s, digit)]}")
    return "\n".join(lines)


def parse_certificate(text: str) -> Certificate:
    """Inverse of `certificate_report`; ValueError names the first missing
    or malformed field."""
    fields: dict[str, str] = {}
    letter_images: dict[str, str] = {}
    base_table: dict[int, tuple[str, str, str]] = {}
    step_table: dict[tuple[str, int], str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if key == "letter_image":
            letter, _, image = value.partition("->")
            letter_images[letter.strip()] = image.strip()
        elif key == "base":
            kv = _key_values(key, value.split(), ("digit", "u", "s", "e"))
            base_table[_integer("base digit", kv["digit"])] = (
                kv["u"], kv["s"], kv["e"])
        elif key == "step":
            kv = _key_values(key, value.split(), ("seed", "digit", "word"))
            step_table[(kv["seed"], _integer("step digit", kv["digit"]))] = kv["word"]
        else:
            fields[key] = value
    for key in ("family", "source", "level", "w_prime", "lead_position", "n0",
                "threshold", "seeds"):
        if not fields.get(key):
            raise ValueError(f"certificate has no {key}: value")
    family = parse_family(fields["family"])
    seeds = tuple(fields["seeds"].split())
    return Certificate(
        family=family,
        source=fields["source"],
        level=_integer("level", fields["level"]),
        w_prime=fields["w_prime"],
        x=fields.get("x", ""),
        y=fields.get("y", ""),
        lead_position=_integer("lead_position", fields["lead_position"]),
        n0=_integer("n0", fields["n0"]),
        threshold=_integer("threshold", fields["threshold"]),
        seeds=seeds,
        seed_length=len(seeds[0]),
        letter_images=letter_images,
        base_table=base_table,
        step_table=step_table,
    )


def corrupt_step(cert: Certificate, seed: str, digit: int, word: str) -> Certificate:
    """A copy of the certificate with one step realisation overridden."""
    table = dict(cert.step_table)
    table[(seed, digit)] = word
    return cert._replace(step_table=table)
