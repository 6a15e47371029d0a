"""Deciding legality and enumerating the language of a random substitution.

A word u is legal when it occurs inside some level-k inflation word of some
letter.  The existential over k is unbounded, but for a fixed u each node
(letter, level) carries only a bounded amount of u-relevant information, its
match profile:

  * occurs           -- u sits inside some element of the node
  * suffix_prefixes  -- lengths t with u[:t] a suffix of some element
  * prefix_suffixes  -- positions p with u[p:] a prefix of some element
  * full_spans       -- (L, starts) per element length L <= |u|: the start
                        positions i with u[i:i+L] equal to a full element

Profiles at level n+1 are a function of the profiles at level n alone, so
the per-level profile vector walks a finite state space.  Iterating levels
until either some node's `occurs` fires or the vector repeats therefore
decides legality exactly: once the vector revisits a state, the evolution is
periodic and `occurs` can never fire later.  Straddle matches across the
concatenation inside a realisation propagate a set of reachable match
positions left to right.  Every field is a bitset over positions of u, and
`full_spans` holds one start bitset per distinct element length of the
node, so composing a child costs a shift and an AND per length; that
composition is `substitution._next_spans`, the one `InflationDag.contains`
walks.  A constant-length rule has one length per node, so its state is
linear in |u|.

One search decides a whole batch of patterns, in the bit-parallel manner
of shift-and string matching (Baeza-Yates and Gonnet, CACM 1992).  Each
pattern owns a lane of every bitset: size + 1 bits for its positions
0..size, then one guard bit, which stays zero everywhere but in `occurs`,
where it carries the lane's verdict.  The constants of a one-pattern kernel
(the full bit and the suffix-prefix mask of bits 1..size-1) become masks
with one copy per lane.  The lanes never mix, because every shift stays
inside its lane: a start bit i for an element of length L exists only when
i + L <= size, so shifting it left by L ends at the full bit at most, and a
right shift by L is always ANDed with start bits of length L, which pick
bits of their own lane.  A lane is nonzero exactly when adding its all-ones
data mask carries into its guard bit; that is how a straddle match sets
`occurs` lane by lane.  Each lane therefore holds the bits a search of its
pattern alone computes, and a search of one pattern is the one-lane case.
A batch iterates levels until every lane has fired or the vector of the
lanes still searching repeats; each lane reports the level at which it
fired, or at which a search of it alone would have stopped.

Patterns may contain '?' wildcards (each matching any single letter); the
same machinery then decides whether any concrete completion of the pattern
is legal, and a witness occurrence is reconstructed from the profiles.

`language_of_length` runs on the same kernel, one letter at a time: the
language is factor-closed, so a word w c is legal only if w and w[1:] c are.

The empty word is treated as legal by convention; it never appears in
reported languages.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from functools import lru_cache

from .errors import GuardExceededError, Record, _setattr
from .substitution import (
    DEFAULT_SET_GUARD,
    RandomSubstitution,
    _next_spans,
    spell_first,
)

WILDCARD = "?"
_LEVEL_SAFETY_CAP = 4096
# the most pattern characters `_Block.search` puts in one batch, which bounds
# the width of a level's bitsets however many patterns a block searches
_BATCH_CHARS = 20_000

# the `_Block` of the `_shared_extraction` block running in this thread or
# task; None outside one
_SHARED_MEMO: ContextVar = ContextVar("zeckmix_shared_memo", default=None)


def is_subword(u: str, w: str) -> bool:
    """Contiguous subword relation; the empty word is a subword of anything."""
    return u in w


def _matches(pattern: str, word: str) -> bool:
    """Does `word` match `pattern` position-wise?"""
    return len(word) == len(pattern) and all(
        p == WILDCARD or p == c for p, c in zip(pattern, word))


# ---------------------------------------------------------------------------
# match profiles, one lane per pattern


class _Bits(dict):
    """A translation table that spells every character it lacks as '0'."""

    __slots__ = ()

    def __missing__(self, key):
        return "0"


@lru_cache(maxsize=64)
def _bit_tables(alphabet):
    """Per letter x, the table spelling x and '?' as '1', all else as '0'."""
    zeros = dict.fromkeys(map(ord, alphabet), "0")
    return tuple(
        _Bits({**zeros, ord(x): "1", ord(WILDCARD): "1"})
        for x in alphabet
    )


def _leaf_profiles(sub, text, ones, full, single):
    """Level-0 profiles: each node is the single-letter word itself.

    `text` spells every lane most significant bit first: two '?' for the
    guard and full bits, then the pattern reversed.  `ones` holds the lowest
    bit of every lane, `single` that of every lane of a one-letter pattern,
    and `full` the full bit of every lane."""
    body = full - ones                  # the bits of pattern positions
    multi = ones ^ single
    last = full >> 1
    out = {}
    for x, table in zip(sub.alphabet, _bit_tables(sub.alphabet)):
        starts = int(text.translate(table), 2) & body
        out[x] = ((starts & single) << 2, (starts & multi) << 1,
                  full | (starts & last), ((1, starts),) if starts else ())
    return out


def _succ(spans, bits):
    """The ends q + L of the elements (L, starts) that start at a bit q."""
    out = 0
    for length, starts in spans:
        out |= (bits & starts) << length
    return out


def _pred(spans, bits):
    """The starts q of the elements (L, starts) that end at a bit q + L."""
    out = 0
    for length, starts in spans:
        out |= starts & (bits >> length)
    return out


def _compose_alternative(masks, image, prev):
    """(occurs, sp, ps) of one realisation, a concatenation of level-(n-1)
    nodes; its full spans are composed by `substitution._next_spans`."""
    full, sp_mask, data, guards = masks
    occurs = 0

    # forward reachable-progress pass: bit q says the last q characters of
    # the concatenation so far equal pattern[:q]; a child element of length
    # L starting at q moves progress q to q + L.  Progress 0 needs no bit: a
    # child that starts the pattern and ends at q < size holds q in its sp,
    # and one that holds the whole pattern has its own `occurs` set
    reach = 0
    for c in image:
        occ_c, sp_c, ps_c, spans_c = prev[c]
        if occ_c:
            occurs |= occ_c
        if not reach:
            reach = sp_c
            continue
        hit = reach & ps_c
        if hit:
            occurs |= (hit + data) & guards
        cont = _succ(spans_c, reach)
        done = cont & full
        if done:
            occurs |= done << 1
        reach = (cont ^ done) | sp_c
    sp = reach & sp_mask

    # backward pass: bit p says pattern[p:] is a prefix of the remaining
    # concatenation; a child element of length L starting at p extends
    # p + L to p
    back = full
    for c in reversed(image):
        _, _, ps_c, spans_c = prev[c]
        back = ps_c | _pred(spans_c, back)
    return occurs, sp, back


def _next_profiles(sub, masks, prev):
    spans = _next_spans(sub.rule, {a: p[3] for a, p in prev.items()})
    out = {}
    for a, images in sub.rule.items():
        occurs = sp = ps = 0
        for image in images:
            o, s, p = _compose_alternative(masks, image, prev)
            occurs |= o
            sp |= s
            ps |= p
        out[a] = (occurs, sp, ps, spans[a])
    return out


def _profile_state(profiles):
    """The profiles in alphabet order, the order every profile dict has."""
    return tuple(profiles.values())


def _project(profiles, shift, mask):
    """The profiles with every bitset read as `bits >> shift & mask`, and
    the spans whose starts come out empty dropped."""
    return {
        a: (occ >> shift & mask, sp >> shift & mask, ps >> shift & mask,
            tuple([(length, kept) for length, s in spans
                   if (kept := s >> shift & mask)]))
        for a, (occ, sp, ps, spans) in profiles.items()
    }


class _LaneHistory(dict):
    """The per-level profiles of one lane of a batched search, each level
    projected out of the packed one into a plain dict when first read.
    `_Extractor` reads `packed` at `shift` in place instead."""

    __slots__ = ("packed", "shift", "mask")

    def __init__(self, packed, shift, mask):
        self.packed, self.shift, self.mask = packed, shift, mask

    def __missing__(self, level):
        got = self[level] = _project(self.packed[level], self.shift,
                                     self.mask)
        return got


def _last_level(history, min_level):
    """The level at which a search of this lane's pattern alone stops with
    no match: its profile vector first repeats at some level, and one full
    period at or above min_level is checked."""
    first_seen = {}
    level = 0
    while True:
        start = first_seen.setdefault(_profile_state(history[level]), level)
        if start < level:
            return max(level, min_level + level - 1 - start)
        level += 1


def _pattern_search(sub, patterns, stop_letters=None, min_level=0):
    """Search every pattern of the batch at once, one lane each.

    Levels are iterated until every lane's `occurs` has fired at a stop
    letter at some level >= min_level, or every state of the (eventually
    periodic) vector of the lanes still searching has been checked at a
    level >= min_level.  That vector repeats only where the vector of each
    of its lanes repeats, with a period that is a multiple of the lane's,
    so each lane has been checked at least as far as a search of its
    pattern alone would check it.  Returns one (found, level, letter,
    history) per pattern, equal to what that search returns: a lane that
    never fired gets its stopping level from `_last_level`, and the history
    of a lane of a larger batch is a `_LaneHistory`.  Lanes whose periods
    together outrun the level cap are searched alone.
    """
    if not all(patterns):
        raise ValueError("pattern must be non-empty")
    if stop_letters is None:
        stop_letters = sub.alphabet
    foreign = set(stop_letters) - set(sub.alphabet)
    if foreign:
        raise ValueError(f"stop letter {min(foreign)!r} is not in the alphabet")
    lane_start = {}     # guard bit position + 1 -> the lane's lowest bit
    ones = full = single = offset = 0
    for pattern in patterns:
        size = len(pattern)
        lane_start[offset + size + 2] = offset
        ones |= 1 << offset
        full |= 1 << offset + size
        if size == 1:
            single |= 1 << offset
        offset += size + 2
    guards = full << 1
    masks = (full, full - (ones << 1), guards - ones, guards)
    text = "".join(["??" + pattern[::-1] for pattern in reversed(patterns)])

    profiles = _leaf_profiles(sub, text, ones, full, single)
    history = [profiles]
    first_seen = {_profile_state(profiles): 0}
    last_level = None   # known once the vector revisits a state
    live = guards       # the guard bit of every lane still searching
    fired = {}          # guard bit position + 1 -> (level, letter)
    level = 0
    while True:
        if level >= min_level:
            dead = 0
            for a in stop_letters:
                hit = profiles[a][0] & live
                if hit:
                    live ^= hit
                    while hit:
                        low = hit & -hit
                        hit ^= low
                        key = low.bit_length()
                        fired[key] = (level, a)
                        dead |= (low << 1) - (1 << lane_start[key])
            if not live or last_level is not None and level >= last_level:
                break
            if dead:
                # the lanes that fired are cleared and stay zero, so the
                # repeat test below watches the searching lanes only
                masks = tuple(m & ~dead for m in masks)
                profiles = _project(profiles, 0, ~dead)
                first_seen.setdefault(_profile_state(profiles), level)
        nxt = _next_profiles(sub, masks, profiles)
        if last_level is None:
            start = first_seen.setdefault(_profile_state(nxt), level + 1)
            if start <= level:
                # levels start..level repeat with period level + 1 - start:
                # one full period checked at or above min_level settles it
                last_level = max(level + 1, min_level + level - start)
        profiles = nxt
        history.append(profiles)
        level += 1
        if level > _LEVEL_SAFETY_CAP:
            if len(patterns) == 1:
                raise GuardExceededError("profile iteration exceeded the level cap")
            break

    if len(patterns) == 1:
        got = fired.get(len(patterns[0]) + 2)
        return [(True, *got, history) if got else (False, level, None, history)]
    results = []
    for (key, shift), pattern in zip(lane_start.items(), patterns):
        got = fired.get(key)
        lane = _LaneHistory(history, shift, (4 << len(pattern)) - 1)
        if got is not None:
            results.append((True, *got, lane))
        elif level > _LEVEL_SAFETY_CAP:
            # lanes of different periods can make the batch's vector repeat
            # later than any lane's own; such a lane is searched alone
            results.append(_pattern_search(sub, [pattern], stop_letters,
                                           min_level)[0])
        else:
            results.append((False, _last_level(lane, min_level), None, lane))
    return results


# ---------------------------------------------------------------------------
# witness extraction: reconstruct concrete inflation words realising a
# recorded profile fact, by replaying the same transitions


def _reaches(image, prev, zero, upto):
    """reach[k]: the progresses q (bits of `upto`) at which the children
    before child k end with pattern[:q]: 0 (the bit `zero`), the restarts
    (sp bits) of child k - 1 and the ends of its elements that start at a
    bit of reach[k-1]."""
    reach = [zero]
    for c in image:
        _, sp_c, _, spans_c = prev[c]
        reach.append((zero | sp_c | _succ(spans_c, reach[-1])) & upto)
    return reach


class _Extractor:
    """Rebuild concrete inflation words realising the facts that a profile
    search recorded for one pattern.

    The walks over the children of a realisation run on bitsets of
    progresses, through the kernel's own transitions `_succ` and `_pred`:

      * `_plan` finds the least plan from progress i.  A backward pass marks
        the progresses before each child from which a plan fits, and each
        child takes the least element end still marked.  For `exact` each
        child spans its piece of pattern[i:j] and the last one ends at j;
        a `head` plan ends at a child whose ps bit holds the rest of the
        pattern.
      * `_back` walks a chain of `_reaches` progresses backwards from q: a
        restart gives a `tail` chunk and ends the walk, and a continuation
        gives an `exact` chunk from the progress that `_first` says
        reached it first.

    `exact` and `head` use `_plan`, `tail` and the straddle case of
    `occurrence` use `_back`, and `_spelled` spells every child that no walk
    claimed with the first image everywhere.

    `exact`, `tail` and `head` chunks are memoised, keyed by the slice of
    the pattern that each answer depends on:

      * exact(i, j, c, k) by ("exact", pattern[i:j], c, k)
      * tail(t, c, k)     by ("tail", pattern[:t], c, k)
      * head(p, c, k)     by ("head", pattern[p:], c, k)

    A profile bit at a level is a fact about the pattern slice it names:
    span bit (L, i) says pattern[i:i+L] is an element, sp bit t says
    pattern[:t] is a suffix of one, ps bit p says pattern[p:] is a prefix
    of one.  `exact` reads only span bits inside [i, j] (a path of element
    ends is cut off once it passes j), `tail` only sp and span bits at
    positions <= t, and `head` only ps and span bits at positions >= p.
    The search order that picks the first realisation (images in rule
    order, children left to right, a child's ps bit before its spans,
    element ends ascending, the first way a progress was reached) is fixed
    by those same bits, and so are the lower-level chunks an answer joins.
    Each answer is therefore a function of its key alone: `exact` gives the
    same element for its slice at any offset of any pattern, `tail` for
    every pattern with that prefix, and `head` for every pattern with that
    suffix.  One key thus covers an all-'?' run wherever it sits, and the
    pieces w ?^k and ?^k s are shared by all gap patterns w ?^n s with the
    same w or s.  The pattern-independent spellings are keyed by (letter,
    level).

    A memo may therefore serve many patterns, but only of one substitution.
    The pieces split between two dicts by key.  `store` holds the
    spellings and every chunk whose slice starts with '?'; `memo` holds
    the rest, the chunks whose slice starts with a letter.  A call outside
    a `_shared_extraction` block passes one fresh dict as both, which goes
    with the call.  Inside a block on the substitution, `memo` is the
    block's and goes with it, and `store` is the substitution's
    `_extraction_store`, which outlives the call.  In a gap pattern
    w ?^n s a slice that starts with '?' holds no letter of w, so no
    source word enters the store: it holds the ?^j s heads, the ?^m runs
    and the ?^j s[:x] pieces (j >= 1, x <= |s|).  Per child (letter,
    level) that is at most |seeds| * n_max heads and, as an exact chunk
    spans a whole element, at most lengths * (|seeds| * |s| + 1) exact
    pieces, where n_max is the largest horizon `check_empirical` has
    searched on the substitution, |seeds| the number of seed words it has
    used, |s| their longest length and lengths the number of distinct
    element lengths of (letter, level), one for a constant-length rule;
    there, |seeds| * (n_max + |s| + 1) in all.  Threads that fill the
    store at once agree, since each value is a function of its key alone
    and dict stores are atomic; a thread sees a piece either whole or not
    at all, and then builds it itself.

    No step takes a Python frame per level.  `_build` keeps the chunks
    still to be built on one explicit stack: a chunk is pushed as (key,
    offset), and once realised its frame becomes (key, parts), one part
    per child, with the parts not built yet pushed above it; it is
    joined once they are built.  A chunk already built costs its key
    and one lookup, and allocates no frame.  `occurrence` descends its
    chain of occurring children in a loop.  The walks are methods, not
    closures, so an extraction leaves no reference cycle behind for the
    cyclic garbage collector.

    `history` is the pattern's lane of a profile search: the list of
    levels a one-lane search keeps, or a `_LaneHistory` of a batch, whose
    packed levels are read in place, with no copy of the lane.  The lane's
    bits start at `offset` (0 for one lane), and the walks run on those
    absolute bits: progress q is bit offset + q, while chunk keys and
    offsets are read back relative to the pattern.  Every shift of the
    kernel stays inside its lane (see the module docstring), so a walk
    started from lane bits reads only the bits a search of the pattern
    alone computes.  `_locate` reads a child's `occurs` whole, so it ANDs
    it with `lane`, and a `head` plan does the same to the ps bits it adds
    to `alive`; an extraction thus builds the same witness from either.
    """

    def __init__(self, sub, pattern, history, memo, store):
        self.sub, self.pattern = sub, pattern
        self.memo, self.store = memo, store
        self.history = getattr(history, "packed", history)
        self.offset = getattr(history, "shift", 0)
        self.lane = (4 << len(pattern)) - 1 << self.offset

    def _home(self, key):
        """The dict that holds the chunk `key`: `store` if its slice starts
        with '?', else `memo`."""
        return self.store if key[1][0] == WILDCARD else self.memo

    def _piece(self, key, q):
        """The memoised element for the chunk `key` (never empty), or (key,
        q) if it is not built yet; q is the offset in the pattern where its
        slice starts."""
        return self._home(key).get(key) or (key, q)

    def _element(self, part):
        """A part's element: the part itself, or its built chunk's."""
        return self._home(part[0])[part[0]] if type(part) is tuple else part

    def _spelled(self, image, level, parts):
        """`parts`, one per child of `image` at level - 1, with each None
        replaced by the child's first-image spelling."""
        for k, part in enumerate(parts):
            if part is None:
                parts[k] = spell_first(self.sub, image[k], level - 1,
                                       self.store)
        return parts

    def _build(self, pieces):
        """Put every (key, offset) chunk of the list `pieces` into its dict,
        with the chunks one level down that each rests on.  The list is the
        stack of pending frames (see the class docstring), and is emptied."""
        stack = pieces
        while stack:
            key, arg = stack[-1]
            home = self._home(key)
            if type(arg) is int:
                if key in home:     # built meanwhile below another parent
                    stack.pop()
                    continue
                if not key[3]:
                    assert _matches(key[1], key[2])
                    home[key] = key[2]
                    stack.pop()
                    continue
                parts = self._realise(key, arg)
                pending = [part for part in parts if type(part) is tuple]
                if pending:
                    stack[-1] = key, parts
                    stack += pending
                    continue
            else:
                parts = [self._element(part) for part in arg]
            home[key] = "".join(parts)
            stack.pop()

    def _realise(self, key, i):
        """The parts of the first realisation of the chunk `key`, whose
        slice starts at offset i of the pattern, one per child: the child's
        element if it is known (a memoised chunk or the first-image
        spelling), else the (key, offset) chunk it spells."""
        mode, text, letter, level = key
        o = self.offset
        j = o + i + len(text)
        prev = self.history[level - 1]
        if mode == "tail":
            for image in self.sub.rule[letter]:
                reach = _reaches(image, prev, 1 << o, (2 << j) - (1 << o))
                if reach[-1] >> j & 1:
                    parts = [None] * len(image)
                    self._back(image, prev, reach, len(image), j, level, parts)
                    return self._spelled(image, level, parts)
            raise AssertionError("no realisation for recorded suffix-prefix")
        pattern = self.pattern
        for image in self.sub.rule[letter]:
            plan = self._plan(image, o + i, j, prev, mode == "head")
            if plan is not None:
                parts = [None] * len(image)
                for k, (q, end) in enumerate(plan):
                    q -= o
                    parts[k] = self._piece(
                        ("head", pattern[q:], image[k], level - 1)
                        if end is None else
                        ("exact", pattern[q:end - o], image[k], level - 1), q)
                return self._spelled(image, level, parts)
        raise AssertionError("no realisation for recorded span or prefix")

    def _plan(self, image, i, j, prev, heads):
        """The first (q, end) per leading child of `image`, over element
        ends ascending, with each child spanning pattern[q:end] and the
        children together pattern[i:j].  Without `heads` every child takes
        part; with it j is the pattern's end, and the plan stops at a child
        with an element starting with pattern[q:] (end None).  It never
        stops at j: an element ending there starts at a ps bit.  None if
        none fits."""
        # alive[k]: the progresses before child k from which a plan fits
        alive = [1 << j]
        for c in reversed(image):
            _, _, ps_c, spans_c = prev[c]
            fits = _pred(spans_c, alive[0])
            alive.insert(0, fits | ps_c & self.lane if heads else fits)
        if not alive[0] >> i & 1:
            return None
        plan, q = [], i
        for k, c in enumerate(image):
            _, _, ps_c, spans_c = prev[c]
            if heads and ps_c >> q & 1:
                return plan + [(q, None)]
            ends = _succ(spans_c, 1 << q) & alive[k + 1]
            end = (ends & -ends).bit_length() - 1
            plan.append((q, end))
            q = end
        return plan

    def _first(self, image, prev, reach, idx, mask):
        """The member of `mask` (within reach[idx]) reached first: 0, then
        child idx - 1's restarts, then its continuations by the rank one
        child back of the progress each continues first; ties ascending."""
        if mask >> self.offset & 1:
            return self.offset
        _, sp_c, _, spans_c = prev[image[idx - 1]]
        got = mask & sp_c
        if not got:
            q = self._first(image, prev, reach, idx - 1,
                            _pred(spans_c, mask) & reach[idx - 1])
            got = _succ(spans_c, 1 << q) & mask
        return (got & -got).bit_length() - 1

    def _back(self, image, prev, reach, idx, q, level, parts):
        """Backtrack the progress chain that reaches q > 0 before child idx,
        putting the chunk of each child it passes into `parts`; return the
        child where the match begins and the progress it restarts with
        there.  The chain never continues from progress 0: a span from 0
        that ends inside the pattern ends at an sp bit, so it is a restart."""
        pattern, o = self.pattern, self.offset
        while q != o:
            idx -= 1
            _, sp_c, _, spans_c = prev[image[idx]]
            if sp_c >> q & 1:   # a restart: the match begins in this child
                parts[idx] = self._piece(
                    ("tail", pattern[:q - o], image[idx], level - 1), 0)
                return idx, q - o
            p = self._first(image, prev, reach, idx,
                            _pred(spans_c, 1 << q) & reach[idx])
            parts[idx] = self._piece(
                ("exact", pattern[p - o:q - o], image[idx], level - 1), p - o)
            q = p
        raise AssertionError("progress chain reached 0 without a restart")

    def occurrence(self, letter, level):
        """(element, start) with the pattern matching inside the element.

        The loop descends the chain of children whose `occurs` bit holds,
        down to the level where the match straddles children or is the
        letter itself, and the elements are then spelled back up."""
        path = []           # (image, child, level) of each level descended
        while level:
            image, idx, found = self._locate(letter, level)
            if found is not None:
                element, start = found
                break
            path.append((image, idx, level))
            letter, level = image[idx], level - 1
        else:
            assert _matches(self.pattern, letter)
            element, start = letter, 0
        for image, idx, level in reversed(path):
            parts = [None] * len(image)
            parts[idx] = element
            parts = self._spelled(image, level, parts)
            start += sum(map(len, parts[:idx]))
            element = "".join(parts)
        return element, start

    def _locate(self, letter, level):
        """(image, child, None) for the first image of `letter` with a child
        whose `occurs` bit holds, or (image, None, (element, start)) for the
        first whose children a match straddles, whichever comes first in
        rule order."""
        prev = self.history[level - 1]
        for image in self.sub.rule[letter]:
            for idx, c in enumerate(image):
                if prev[c][0] & self.lane:
                    return image, idx, None
            found = self._straddle(image, prev, level)
            if found is not None:
                return image, None, found
        raise AssertionError("no realisation for recorded occurrence")

    def _straddle(self, image, prev, level):
        """(element, start) of the first match completing inside a child,
        scanning children left to right, by a prefix of the child (progress
        q in its ps); None if no match straddles the children.  A child
        that spans the rest of the pattern exactly also holds q in its ps,
        so progress len(pattern) is never needed, and q is never 0: ps bit
        0 would be an occurrence in the child."""
        pattern, o = self.pattern, self.offset
        reach = _reaches(image, prev, 1 << o, (1 << len(pattern)) - 1 << o)
        for idx, c in enumerate(image):
            hit = reach[idx] & prev[c][2]
            if hit:
                q = self._first(image, prev, reach, idx, hit)
                parts = [None] * len(image)
                parts[idx] = self._piece(
                    ("head", pattern[q - o:], c, level - 1), q - o)
                begin, restart = self._back(image, prev, reach, idx, q, level,
                                            parts)
                parts = self._spelled(image, level, parts)
                self._build([part for part in parts if type(part) is tuple])
                parts = [self._element(part) for part in parts]
                start = sum(map(len, parts[:begin + 1])) - restart
                return "".join(parts), start
        return None


# ---------------------------------------------------------------------------
# public operations


class LegalityVerdict(Record):
    __slots__ = _fields = _compared = ("legal", "witness", "levels_examined",
                                       "stabilized")

    def __init__(self, legal: bool, witness: tuple[int, str, str] | None,
                 levels_examined: int, stabilized: bool):
        _setattr(self, "legal", legal)
        _setattr(self, "witness", witness)
        _setattr(self, "levels_examined", levels_examined)
        _setattr(self, "stabilized", stabilized)

    def __bool__(self) -> bool:
        return self.legal


def _search(sub, pattern, stop_letters=None, min_level=0):
    """(found, level, letter, history) for one pattern: its lane of the
    enclosing `_shared_extraction` block's batches, else a one-lane search."""
    shared = _SHARED_MEMO.get()
    if (shared is not None and shared.sub is sub and stop_letters is None
            and min_level == 0):
        got = shared.searched.get(pattern)
        if got is not None:
            return got
    return _pattern_search(sub, [pattern], stop_letters, min_level)[0]


def is_legal(sub: RandomSubstitution, u: str, want_witness: bool = True) -> LegalityVerdict:
    """Exact legality of a concrete word (no wildcards)."""
    if not u:
        raise ValueError("word must be non-empty")
    if WILDCARD in u:
        raise ValueError("wildcards are not allowed here")
    if not set(u) <= set(sub.alphabet):
        return LegalityVerdict(False, None, 0, True)
    found, level, letter, history = _search(sub, u)
    if not found:
        return LegalityVerdict(False, None, level, True)
    witness = None
    if want_witness:
        memo = {}
        extractor = _Extractor(sub, u, history, memo, memo)
        element, start = extractor.occurrence(letter, level)
        assert element[start:start + len(u)] == u
        witness = (level, letter, element)
    return LegalityVerdict(True, witness, level, False)


def pattern_witness(sub: RandomSubstitution, pattern: str,
                    stop_letters=None, min_level: int = 0):
    """Decide whether some concrete completion of `pattern` is legal and, if
    so, extract (matched_word, level, letter, element, start).
    """
    found, level, letter, history = _search(sub, pattern, stop_letters, min_level)
    if not found:
        return None
    shared = _SHARED_MEMO.get()
    if shared is not None and shared.sub is sub:
        memo, store = shared.memo, sub._extraction_store
    else:
        memo = store = {}
    extractor = _Extractor(sub, pattern, history, memo, store)
    element, start = extractor.occurrence(letter, level)
    matched = element[start:start + len(pattern)]
    assert _matches(pattern, matched)
    return matched, level, letter, element, start


class _Block:
    """One `_shared_extraction` block: its extraction memo and the lanes of
    the batches searched in it, by pattern."""

    __slots__ = ("sub", "memo", "searched")

    def __init__(self, sub):
        self.sub = sub
        self.memo = {}
        self.searched = {}

    def search(self, patterns):
        """Search the patterns not searched in this block yet, in consecutive
        batches of at most _BATCH_CHARS characters (a longer pattern alone)."""
        new = [p for p in dict.fromkeys(patterns) if p and p not in self.searched]
        start = 0
        while start < len(new):
            end, size = start + 1, len(new[start])
            while end < len(new) and size + len(new[end]) <= _BATCH_CHARS:
                size += len(new[end])
                end += 1
            batch = new[start:end]
            self.searched.update(zip(batch, _pattern_search(self.sub, batch)))
            start = end


@contextmanager
def _shared_extraction(sub: RandomSubstitution):
    """A block in which `pattern_witness` and `is_legal` calls on `sub` made
    by this thread share work.

    The witness extractions share one memo, dropped when the block exits,
    and read and fill `sub`'s extraction store, which is kept; the
    witnesses are the same as without either (see `_Extractor`).  `search`
    on the yielded `_Block` decides a list of patterns in lane-parallel
    searches of bounded width, one lane per pattern; a later call with
    default keywords on one of those patterns reads its lane, in place in
    the batch's packed levels, instead of searching again.  A lane's
    verdict, level, letter and history are those of a search of its
    pattern alone (see the module docstring), so every answer is the same
    as without the block.  Other threads, and calls on other
    substitutions, keep a fresh memo and search per call."""
    token = _SHARED_MEMO.set(_Block(sub))
    try:
        yield _SHARED_MEMO.get()
    finally:
        _SHARED_MEMO.reset(token)


def language_of_length(sub: RandomSubstitution, n: int,
                       guard: int = DEFAULT_SET_GUARD) -> tuple[str, ...]:
    """All legal words of length n, sorted.

    From the alphabet up, each length keeps the candidates w c with w and
    w[1:] c legal, decides them with `_Block.search` and keeps those whose
    lane fired.  A candidate that needs more than _LEVEL_SAFETY_CAP levels
    raises the level-cap GuardExceededError, as `is_legal` does on that
    word.  More than `guard` words of length n >= 2 raise
    GuardExceededError; shorter lengths are not guarded, and n = 1 gives
    the letters whatever the guard.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    words = letters = sorted(sub.alphabet)
    for _ in range(n - 1):
        legal = set(words)
        candidates = [w + c for w in words for c in letters
                      if w[1:] + c in legal]
        block = _Block(sub)
        block.search(candidates)
        words = [w for w in candidates if block.searched[w][0]]
    if n > 1 and len(words) > guard:
        raise GuardExceededError(
            f"language_of_length exceeds the {guard}-word guard")
    return tuple(words)
