"""Independent test-side oracles, kept free of the library's DP machinery.

`window_closure` tracks, level by level, the set of all subwords of length
<= bound of the inflation words.  A window of a realisation of theta(w)
always sits inside the image of a window of w no longer than itself (every
image has length >= 1), so expanding each tracked short word by literal set
concatenation and collecting literal subwords reproduces exactly the
bounded-window content of the fully enumerated level sets.  This keeps the
brute-force legality oracle usable at levels where full enumeration blows
up; `test_window_closure_matches_full_enumeration` pins the equivalence on
ranges where both are feasible.

`is_legal_bruteforce` decides legality by enumerating every inflation word
set up to a level.

`member_levels_top_down` decides inflation-word membership by matching each
node's images against the word from the top level down, independently of
the DAG's bottom-up walk over the word's spans.

`first_image_word` rewrites every letter to its first image, one level at
a time, as the reference for `spell_first`.

`replay_each` replays a certificate one gap length at a time, sharing
nothing between gap lengths, as the reference for `verify_certificate`.

`first_reached`, `back_chain` and `walk_plan` are the extractor's walks
over the children of a realisation written with dicts and recursion, as
the references for its bitset walks: `first_reached` records, per child,
each reachable progress and the progress that first reached it, in the
order of first reaching; `back_chain` follows those records backwards;
`walk_plan` searches depth first for the least plan.
"""

import functools
import itertools

from zeckmix.errors import GuardExceededError
from zeckmix.language import is_legal
from zeckmix.numeration import DigitString, decode, encode_greedy
from zeckmix.semimixing import derive_witness
from zeckmix.substitution import (
    DEFAULT_SET_GUARD,
    apply,
    apply_to_set,
    build_dag,
)


def short_subwords(word, bound):
    out = set()
    for i in range(len(word)):
        for j in range(i + 1, min(i + bound, len(word)) + 1):
            out.add(word[i:j])
    return out


def is_legal_bruteforce(sub, u, max_level, guard=DEFAULT_SET_GUARD):
    """Oracle by full enumeration of every inflation word set up to max_level."""
    if not u:
        raise ValueError("word must be non-empty")
    current = {a: {a} for a in sub.alphabet}
    for a in sub.alphabet:
        if u in a:
            return True
    for _ in range(max_level):
        for a in sub.alphabet:
            current[a] = apply_to_set(sub, current[a], guard)
            if any(u in w for w in current[a]):
                return True
    return False


def member_levels_top_down(sub, word, letter, max_level):
    """The levels <= max_level at which `word` is an inflation word of
    `letter`: the ends reachable from each start are matched through each
    image of each node, one recursion per level, memoised by (start,
    letter, level) across all the levels asked for."""
    @functools.lru_cache(maxsize=None)
    def ends(start, a, lvl):
        if lvl == 0:
            return frozenset({start + 1} if word[start:start + 1] == a else ())
        found = set()
        for image in sub.rule[a]:
            positions = {start}
            for c in image:
                positions = {e for p in positions for e in ends(p, c, lvl - 1)}
            found |= positions
        return frozenset(found)

    return {level for level in range(max_level + 1)
            if len(word) in ends(0, letter, level)}


def first_image_word(sub, letter, level):
    """The level-`level` inflation word of `letter` that takes the first
    image of every letter, rewritten letter by letter, level by level."""
    word = letter
    for _ in range(level):
        word = "".join(sub.rule[c][0] for c in word)
    return word


def window_closure(sub, bound, max_level):
    """Cumulative per-level sets of inflation-word subwords of length <= bound."""
    current = set(sub.alphabet)
    cumulative = [set(current)]
    expand_memo = {}
    for _ in range(max_level):
        nxt = set()
        for v in current:
            got = expand_memo.get(v)
            if got is None:
                got = set()
                for realisation in apply(sub, v):
                    got |= short_subwords(realisation, bound)
                expand_memo[v] = got
            nxt |= got
        cumulative.append(cumulative[-1] | nxt)
        current = nxt
    return cumulative


def legal_by_closure(sub, u, max_level, closure=None):
    if closure is None:
        closure = window_closure(sub, len(u), max_level)
    level = min(max_level, len(closure) - 1)
    return u in closure[level]


def stable_language(sub, bound):
    """All legal words of length <= bound: iterate the window closure until
    the per-level set revisits a state (the evolution is deterministic, so
    nothing new can appear afterwards)."""
    current = frozenset(sub.alphabet)
    cumulative = set(current)
    seen = {current}
    expand_memo = {}
    while True:
        nxt = set()
        for v in current:
            got = expand_memo.get(v)
            if got is None:
                got = set()
                for realisation in apply(sub, v):
                    got |= short_subwords(realisation, bound)
                expand_memo[v] = got
            nxt |= got
        cumulative |= nxt
        current = frozenset(nxt)
        if current in seen:
            return cumulative
        seen.add(current)


def all_words(alphabet, max_len):
    for length in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            yield "".join(tup)


def occurrence_levels(sub, u, letters, max_level):
    """hits[k] says u sits inside some level-k inflation word of one of
    `letters`.  Per letter this tracks the exact set of subwords of length
    <= |u| level by level, by the same window argument as window_closure."""
    bound = len(u)
    current = {a: {a} for a in letters}
    expand_memo = {}
    hits = [any(u in ws for ws in current.values())]
    for _ in range(max_level):
        nxt = {}
        for a, windows in current.items():
            out = set()
            for v in windows:
                got = expand_memo.get(v)
                if got is None:
                    got = set()
                    for realisation in apply(sub, v):
                        got |= short_subwords(realisation, bound)
                    expand_memo[v] = got
                out |= got
            nxt[a] = out
        current = nxt
        hits.append(any(u in ws for ws in current.values()))
    return hits


def _fits(pattern, offset, word):
    """pattern[offset:offset+len(word)] accepts word, '?' accepting any letter."""
    return offset + len(word) <= len(pattern) and all(
        p in ("?", c) for p, c in zip(pattern[offset:], word))


def enumerated_profile(sub, pattern, letter, level, guard=2000):
    """The match profile of node (letter, level), read off its element set:
    (occurs, suffix-prefix bits, prefix-suffix bits, ((length, starts), ...))
    with one sorted entry per element length that matches somewhere.
    Raises GuardExceededError once the element set holds more than `guard`
    characters."""
    elements = {letter}
    for _ in range(level):
        elements = apply_to_set(sub, elements, guard)
        if sum(map(len, elements)) > guard:
            raise GuardExceededError(f"element set exceeds {guard} characters")
    size = len(pattern)
    occurs = any(_fits(pattern, 0, e[i:i + size])
                 for e in elements for i in range(len(e) - size + 1))
    sp = ps = 0
    spans = {}
    for e in elements:
        for t in range(1, min(size - 1, len(e)) + 1):
            if _fits(pattern, 0, e[-t:]):
                sp |= 1 << t
        for p in range(size + 1):
            if size - p <= len(e) and _fits(pattern, p, e[:size - p]):
                ps |= 1 << p
        for i in range(size - len(e) + 1):
            if _fits(pattern, i, e):
                spans[len(e)] = spans.get(len(e), 0) | 1 << i
    return occurs, sp, ps, tuple(sorted(spans.items()))


def single_positive_root_decimals(coeffs, lo, hi, places):
    """The positive root of an integer polynomial (highest degree first)
    with exactly one positive root, which lies in the integer interval
    (lo, hi), correctly rounded to `places` decimals, as text.

    Plain sign bisection suffices here because the root is the only sign
    change on (0, inf): find F = floor(root * 2 * 10^places) over the
    integers, then round half up.
    """
    scale = 2 * 10**places
    deg = len(coeffs) - 1

    def sign_at(num):
        # sign of p(num / scale), scaled by the positive scale^deg
        return sum(c * num**(deg - i) * scale**i for i, c in enumerate(coeffs))

    below = sign_at(lo * scale)
    a, b = lo * scale, hi * scale
    while b - a > 1:
        mid = (a + b) // 2
        if (sign_at(mid) > 0) == (below > 0):
            a = mid
        else:
            b = mid
    rounded = (a + 1) // 2
    whole, frac = divmod(rounded, 10**places)
    return f"{whole}.{frac:0{places}d}"


def _table_fault(cert, sub, scheme):
    """The first reason the certificate's fields or tables are unsound, in
    verify_certificate's order and words, or None.  Step words are checked
    against the enumerated image set of their seed."""
    seeds = set(cert.seeds)
    if cert.w_prime != cert.x + cert.source + cert.y:
        return "embedding split does not reassemble w_prime"
    if not build_dag(sub, cert.level).contains(cert.w_prime, "a", cert.level):
        return f"w_prime is not a level-{cert.level} inflation word of a"
    if cert.threshold != len(cert.y) + cert.n0:
        return "threshold does not equal |y| + n0"
    if cert.n0 != scheme.term(cert.lead_position):
        return "n0 is not the recorded sequence term"
    for letter, image in cert.letter_images.items():
        if image not in sub.rule.get(letter, ()):
            return f"letter image {letter}->{image} is not a rule image"
    for lead, (z0, s0, e0) in cert.base_table.items():
        if s0 not in seeds:
            return f"base seed {s0!r} is not in the seed set"
        if not e0.startswith(z0 + s0):
            return f"base word for digit {lead} is not a prefix of e0"
        if len(z0) != lead * scheme.term(scheme.base_index):
            return f"base word for digit {lead} has the wrong length"
    for lead, (_, _, e0) in cert.base_table.items():
        if not build_dag(sub, 2).contains(e0, "a", 2):
            return f"base element for digit {lead} is not level-2"
    for (s, digit), r in cert.step_table.items():
        if s not in seeds:
            return f"step seed {s!r} is not in the seed set"
        try:
            images = apply(sub, s)
        except KeyError:        # a letter the substitution lacks
            images = set()
        if r not in images:
            return f"step word {r!r} is not an image of {s!r}"
        if len(r) < digit + cert.seed_length:
            return f"step word {r!r} too short for digit {digit}"
        if r[digit:digit + cert.seed_length] not in seeds:
            return f"step ({s!r}, {digit}) yields a non-seed follower"
    return None


def replay_each(cert, ns, deep):
    """(ok, checked, counterexample) of verify_certificate(cert, ns, deep),
    one n at a time: a fresh derive_witness per n, its bookkeeping checked
    step by step, the final element (when deep) decided by DAG membership at
    its level, then the context w u s by is_legal."""
    sub = cert.family.substitution()
    scheme = cert.family.scheme()
    fault = _table_fault(cert, sub, scheme)
    if fault is not None:
        return False, 0, (-1, fault)
    checked = 0
    for n in ns:
        try:
            u, s, steps = derive_witness(cert, n)
        except (KeyError, ValueError) as exc:
            return False, checked, (n, f"derivation failed: {exc}")
        fault = None
        if len(u) != n:
            fault = f"witness has length {len(u)}, expected {n}"
        elif s not in cert.seeds:
            fault = f"witness seed {s!r} is not in the seed set"
        else:
            for k, step in enumerate(steps, 1):
                if not step.element.startswith(step.word + step.seed):
                    fault = f"prefix invariant broken at level {step.level}"
                    break
                digits = tuple(step.digit for step in steps[:k])
                if len(step.word) != decode(DigitString(digits, scheme)):
                    fault = f"digit bookkeeping broken at level {step.level}"
                    break
        if fault is None:
            digits = tuple(step.digit for step in steps)
            final = steps[-1]
            if digits != encode_greedy(scheme, n - len(cert.y)).digits:
                fault = "derivation consumed the wrong digit string"
            elif deep and not build_dag(sub, final.level).contains(
                    final.element, "a", final.level):
                fault = "final element is not an inflation word of a"
        if fault is not None:
            return False, checked, (n, fault)
        context = cert.source + u + s
        if not is_legal(sub, context, want_witness=False).legal:
            return False, checked, (n, f"context {context!r} is not legal")
        checked += 1
    return True, checked, None


def _ends(spans, q):
    """Bitset of the end positions j with pattern[q:j] a full element."""
    out = 0
    for length, starts in spans:
        if starts >> q & 1:
            out |= 1 << (q + length)
    return out


def _advance(reach, profile, limit):
    """Progress positions <= limit after one more child with `profile`, from
    the positions `reach` before it, each mapped to how it was first
    reached: None for progress 0 and for a restart (a suffix of the child
    matches a prefix of the pattern), or the progress q that the child
    continues (it spans pattern[q:end]).  The dict order is the order of
    first reaching, and a later way of reaching a position never replaces
    the first."""
    upto = (2 << limit) - 1
    _, sp_c, _, spans_c = profile
    cur = {0: None}
    m = sp_c & upto
    while m:
        low = m & -m
        m ^= low
        cur[low.bit_length() - 1] = None
    for q in reach:
        m = _ends(spans_c, q) & upto
        while m:
            low = m & -m
            m ^= low
            cur.setdefault(low.bit_length() - 1, q)
    return cur


def first_reached(image, prev, limit):
    """steps[k]: the `_advance` dict of the progresses <= limit before child
    k of `image`, at the level whose profiles are `prev`."""
    steps = [{0: None}]
    for c in image:
        steps.append(_advance(steps[-1], prev[c], limit))
    return steps


def back_chain(steps, idx, q):
    """The (child, predecessor) pairs that backtracking from progress q > 0
    before child idx passes, right to left, through the records of
    `first_reached`; the last pair is the restart (predecessor None)."""
    chain = []
    while q:
        idx -= 1
        q = steps[idx + 1][q]
        chain.append((idx, q))
        if q is None:
            return chain
    raise AssertionError("progress chain reached 0 without a restart")


def walk_plan(image, i, j, prev, heads):
    """The first (q, end) per leading child of `image`, depth first over
    element ends ascending, with each child spanning pattern[q:end] and the
    children together pattern[i:j].  Without `heads` every child takes
    part; with it the plan may stop at j, or at a child with an element
    starting with pattern[q:] (end None).  None if none fits."""
    upto = (2 << j) - 1     # element ends past j never come back
    dead = set()            # (child, progress) pairs from which none fits

    def walk(idx, q):
        if q == j and (heads or idx == len(image)):
            return []
        if idx == len(image) or (idx, q) in dead:
            return None
        _, _, ps_c, spans_c = prev[image[idx]]
        if heads and ps_c >> q & 1:
            return [(q, None)]
        m = _ends(spans_c, q) & upto
        while m:
            low = m & -m
            m ^= low
            end = low.bit_length() - 1
            rest = walk(idx + 1, end)
            if rest is not None:
                return [(q, end), *rest]
        dead.add((idx, q))
        return None

    return walk(0, i)
