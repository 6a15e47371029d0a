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
"""

import itertools

from zeckmix.errors import GuardExceededError
from zeckmix.substitution import apply, apply_to_set


def short_subwords(word, bound):
    out = set()
    for i in range(len(word)):
        for j in range(i + 1, min(i + bound, len(word)) + 1):
            out.add(word[i:j])
    return out


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
