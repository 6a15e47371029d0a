import copy
import gc
import hashlib
import itertools
import pickle
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import is_legal_bruteforce

from zeckmix import language
from zeckmix.errors import GuardExceededError
from zeckmix.language import (
    _Extractor,
    _pattern_search,
    _reaches,
    _shared_extraction,
    is_legal,
    is_subword,
    language_of_length,
    pattern_witness,
)
from zeckmix.semimixing import Family, check_empirical, make_seed_set, seed_sets
from zeckmix.substitution import (
    build_dag,
    inflation_words,
    make_substitution,
    random_fibonacci,
    random_kbonacci,
    random_metallic,
    random_tribonacci,
    spell_first,
)


def brute_language(sub, n, levels):
    """Independent oracle: collect length-n subwords of enumerated sets."""
    out = set()
    for a in sub.alphabet:
        for k in range(levels + 1):
            for w in inflation_words(sub, a, k, guard=10**5):
                for i in range(len(w) - n + 1):
                    out.add(w[i:i + n])
    return out


def closure_language(sub, n):
    from oracles import stable_language

    return {w for w in stable_language(sub, n) if len(w) == n}


def test_is_subword():
    assert is_subword("aa", "baa")
    assert is_subword("", "anything")
    assert not is_subword("ab", "ba")


def test_is_legal_examples():
    fib = random_fibonacci()
    assert is_legal(fib, "bb").legal
    verdict = is_legal(fib, "bbb")
    assert not verdict.legal
    assert verdict.stabilized
    assert is_legal(random_tribonacci(), "ac").legal


def test_is_legal_witness_replays():
    fib = random_fibonacci()
    for word in ("bb", "aab", "abaab", "baab"):
        verdict = is_legal(fib, word)
        assert verdict.legal
        level, letter, element = verdict.witness
        assert word in element
        dag = build_dag(fib, level)
        assert dag.contains(element, letter, level)


def test_is_legal_rejects_foreign_letters():
    assert not is_legal(random_fibonacci(), "abx").legal


def test_is_legal_bruteforce_examples():
    fib = random_fibonacci()
    assert is_legal_bruteforce(fib, "aab", 2)
    assert is_legal_bruteforce(fib, "a", 0)
    # regression pin: bb occurs for the metallic-2 rule by level 2
    assert is_legal_bruteforce(random_metallic(2), "bb", 3)
    assert not is_legal_bruteforce(fib, "bbb", 6)


@pytest.mark.parametrize("sub,max_len", [
    (random_fibonacci(), 6),       # stabilization stays <= 5: 318 words to scan
    (random_tribonacci(), 3),      # longer words stabilize past feasible levels
    (random_metallic(2), 4),
])
def test_legality_oracle_agreement_short_words(sub, max_len):
    alphabet = "".join(sub.alphabet)
    for length in range(1, max_len + 1):
        for tup in itertools.product(alphabet, repeat=length):
            u = "".join(tup)
            verdict = is_legal(sub, u, want_witness=False)
            brute = is_legal_bruteforce(sub, u, verdict.levels_examined)
            assert verdict.legal == brute, u


def test_window_closure_matches_full_enumeration():
    from oracles import legal_by_closure, window_closure

    cases = [(random_fibonacci(), 6, 5), (random_tribonacci(), 6, 4),
             (random_metallic(2), 6, 3)]
    for sub, bound, levels in cases:
        closure = window_closure(sub, bound, levels)
        alphabet = "".join(sub.alphabet)
        for length in range(1, bound + 1):
            for tup in itertools.product(alphabet, repeat=length):
                u = "".join(tup)
                for k in (levels - 1, levels):
                    assert legal_by_closure(sub, u, k, closure) == \
                        is_legal_bruteforce(sub, u, k), (u, k)


def test_legality_monotone_in_level():
    fib = random_fibonacci()
    for u in ("ab", "bb", "aab", "abba"):
        verdict = is_legal(fib, u)
        level = verdict.levels_examined
        for extra in (0, 1, 2):
            words = inflation_words(fib, "a", level + extra, guard=10**5) | \
                inflation_words(fib, "b", level + extra, guard=10**5)
            assert any(u in w for w in words)


def test_language_of_length_examples():
    fib = random_fibonacci()
    assert language_of_length(fib, 1) == ("a", "b")
    assert language_of_length(fib, 2) == ("aa", "ab", "ba", "bb")
    assert language_of_length(random_tribonacci(), 1) == ("a", "b", "c")
    # the guard bounds the words found, and a language of exactly the
    # guard's size still comes back whole
    words = language_of_length(fib, 12)
    assert len(words) == 851
    assert language_of_length(fib, 12, guard=851) == words
    with pytest.raises(GuardExceededError, match="850-word guard"):
        language_of_length(fib, 12, guard=850)
    # only the length asked for is guarded: this language has 4 words of
    # length 2 and none of length 3
    dying = make_substitution({"a": ["bb", "bc", "cb", "cc"], "b": ["b"],
                               "c": ["c"]})
    assert len(language_of_length(dying, 2)) == 4
    assert language_of_length(dying, 3, guard=2) == ()
    with pytest.raises(GuardExceededError, match="3-word guard"):
        language_of_length(dying, 2, guard=3)


@pytest.mark.parametrize("sub,levels", [
    (random_fibonacci(), 6),
    (random_tribonacci(), 4),
    (random_metallic(2), 3),
])
def test_language_contains_bruteforce_collection(sub, levels):
    # enumeration to a feasible level under-approximates the language
    for n in range(2, 6):
        got = set(language_of_length(sub, n))
        assert got >= brute_language(sub, n, levels), n


@pytest.mark.parametrize("sub", [random_fibonacci(), random_tribonacci(), random_metallic(2)])
def test_language_matches_stable_closure(sub):
    for n in range(2, 7):
        assert set(language_of_length(sub, n)) == closure_language(sub, n), n


@pytest.mark.parametrize("sub", [random_fibonacci(), random_tribonacci()])
def test_language_matches_per_word_legality(sub):
    alphabet = "".join(sub.alphabet)
    for n in range(2, 5):
        got = set(language_of_length(sub, n))
        expect = {
            "".join(t) for t in itertools.product(alphabet, repeat=n)
            if is_legal(sub, "".join(t), want_witness=False).legal
        }
        assert got == expect


def test_factor_closure():
    fib = random_fibonacci()
    lang5 = language_of_length(fib, 5)
    lang4 = set(language_of_length(fib, 4))
    lang3 = set(language_of_length(fib, 3))
    for w in lang5:
        for i in range(2):
            assert w[i:i + 4] in lang4
        for i in range(3):
            assert w[i:i + 3] in lang3


def test_shift_extension():
    for sub in (random_fibonacci(), random_tribonacci()):
        for n in range(1, 5):
            lang_next = set(language_of_length(sub, n + 1))
            for w in language_of_length(sub, n):
                assert any(w + a in lang_next for a in sub.alphabet), w


def test_pattern_witness_gap_queries():
    fib = random_fibonacci()
    hit = pattern_witness(fib, "a??b")
    assert hit is not None
    matched, level, letter, element, start = hit
    assert len(matched) == 4 and matched[0] == "a" and matched[3] == "b"
    assert element[start:start + 4] == matched
    assert build_dag(fib, level).contains(element, letter, level)
    assert is_legal(fib, matched).legal
    # bbb is illegal, so no completion of b?b with a b in the gap may exist;
    # but b?b itself can complete with 'a'
    hit = pattern_witness(fib, "b?b")
    assert hit is not None and hit[0] == "bab"
    assert pattern_witness(fib, "bb?bb") is None  # forces bbabb or worse


def test_pattern_witness_exhaustive_cross_check():
    fib = random_fibonacci()
    for gap in range(0, 4):
        for prefix in ("a", "bb", "ab"):
            for suffix in ("ab", "ba"):
                pattern = prefix + "?" * gap + suffix
                expect = any(
                    is_legal(fib, prefix + "".join(mid) + suffix,
                             want_witness=False).legal
                    for mid in itertools.product("ab", repeat=gap)
                )
                got = pattern_witness(fib, pattern)
                assert (got is not None) == expect, pattern
                if got is not None:
                    assert is_legal(fib, got[0], want_witness=False).legal


def test_pattern_witness_min_level_and_stop_letters():
    fib = random_fibonacci()
    hit = pattern_witness(fib, "b", stop_letters=("a",), min_level=2)
    matched, level, letter, element, start = hit
    assert letter == "a" and level >= 2
    assert element[start] == "b"
    dag = build_dag(fib, level)
    assert dag.contains(element, "a", level)
    # a -> b -> a: the profile vector cycles from level 0 with period 2, so
    # every min_level must still find the next even level
    swap = make_substitution({"a": ("b",), "b": ("a",)})
    for min_level in range(7):
        hit = pattern_witness(swap, "a", stop_letters=("a",),
                              min_level=min_level)
        assert hit is not None and hit[1] == min_level + min_level % 2
    # no stop letter: nothing can fire, so the search runs to its repeat;
    # a letter outside the alphabet is named, not a bare KeyError
    assert pattern_witness(fib, "a", stop_letters=()) is None
    assert pattern_witness(fib, "?", stop_letters="", min_level=3) is None
    for stop in (("z",), ("a", "z"), "bz"):
        with pytest.raises(ValueError, match="stop letter 'z'"):
            pattern_witness(fib, "a", stop_letters=stop)
    with pytest.raises(ValueError, match="stop letter 'z'"):
        _pattern_search(fib, ["a", "bb"], ("z",))


small_rules = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.sets(st.text(alphabet=alpha, min_size=1, max_size=2),
                   min_size=1, max_size=2)
        for a in alpha
    })
)


@given(rule=small_rules, u=st.text(alphabet="abc", min_size=1, max_size=3),
       stop=st.sets(st.sampled_from("abc"), min_size=1),
       min_level=st.integers(min_value=0, max_value=5))
@settings(max_examples=500, deadline=None)
def test_pattern_witness_min_level_matches_bruteforce(rule, u, stop, min_level):
    from oracles import occurrence_levels

    sub = make_substitution(rule)
    stop = tuple(sorted(stop & set(sub.alphabet)))
    assume(stop and set(u) <= set(sub.alphabet))
    max_level = min_level + 8
    hits = occurrence_levels(sub, u, stop, max_level)
    every = occurrence_levels(sub, u, sub.alphabet, 4)
    for level in range(5):
        assert any(every[:level + 1]) == is_legal_bruteforce(sub, u, level)
    expect = next((lvl for lvl in range(min_level, max_level + 1) if hits[lvl]),
                  None)
    got = pattern_witness(sub, u, stop_letters=stop, min_level=min_level)
    if got is None:
        assert expect is None
        return
    matched, level, letter, element, start = got
    assert matched == u and letter in stop and level >= min_level
    assert level == expect or (expect is None and level > max_level)
    assert build_dag(sub, level).contains(element, letter, level)
    assert element[start:start + len(u)] == u


def test_custom_substitution_legality():
    # a one-letter deterministic rule: only a^n words exist
    sub = make_substitution({"a": ("aa",)})
    assert is_legal(sub, "aaaa").legal
    assert language_of_length(sub, 3) == ("aaa",)
    # two-letter deterministic period doubling style rule
    pd = make_substitution({"a": ("ab",), "b": ("aa",)})
    assert is_legal(pd, "abaa").legal
    assert not is_legal(pd, "bb").legal


mixed_rules = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.sets(st.text(alphabet=alpha, min_size=1, max_size=3),
                   min_size=1, max_size=3)
        for a in alpha
    })
)


@given(rule=mixed_rules, data=st.data(),
       min_level=st.integers(min_value=0, max_value=5))
@settings(max_examples=300, deadline=None)
def test_profiles_match_enumeration(rule, data, min_level):
    # every level the search records, against the element sets themselves;
    # min_level only makes the recorded history longer
    from oracles import enumerated_profile

    sub = make_substitution(rule)
    pattern = data.draw(st.text(alphabet="".join(sub.alphabet) + "?",
                                min_size=1, max_size=6))
    _, _, _, history = _pattern_search(sub, [pattern], min_level=min_level)[0]
    for level, profiles in enumerate(history):
        for letter in sub.alphabet:
            try:
                occurs, *bits = enumerated_profile(sub, pattern, letter, level)
            except GuardExceededError:
                return
            # a one-lane search keeps `occurs` in the guard bit above the lane
            expect = (2 << len(pattern) if occurs else 0, *bits)
            assert profiles[letter] == expect, (pattern, letter, level)


@given(rule=mixed_rules, data=st.data(),
       n_max=st.integers(min_value=0, max_value=8))
@settings(max_examples=200, deadline=None)
def test_shared_extraction_memo_matches_fresh(rule, data, n_max):
    # the gap patterns w ?^n s of one check_empirical call, in its order,
    # extracted through one shared memo: every answer must be the one a
    # fresh extraction gives for that pattern alone
    sub = make_substitution(rule)
    words = language_of_length(sub, data.draw(st.integers(1, 3)))
    assume(words)
    w = data.draw(st.sampled_from(words))
    seed_words = language_of_length(sub, data.draw(st.integers(1, 2)))
    assume(seed_words)
    seeds = sorted(data.draw(st.sets(st.sampled_from(seed_words), min_size=1)))
    patterns = [w + "?" * n + s for n in range(n_max + 1) for s in seeds]
    with _shared_extraction(sub):
        shared = [pattern_witness(sub, p) for p in patterns]
    for pattern, got in zip(patterns, shared):
        assert got == pattern_witness(sub, pattern), pattern


BUILT_IN_RULES = [sub.rule for sub in (
    random_fibonacci(), random_tribonacci(), random_metallic(2),
    random_kbonacci(4),
    make_substitution({"a": ("ab", "ba"), "b": ("ac", "ca"), "c": ("a", "aa")}),
)]


@st.composite
def lane_batches(draw):
    """A rule and a batch of patterns for it: wildcard patterns, factors of
    an inflation word with some letters blanked or changed, and words that
    leave the language or the alphabet."""
    sub = make_substitution(draw(st.one_of(mixed_rules,
                                           st.sampled_from(BUILT_IN_RULES))))
    letters = "".join(sub.alphabet)
    element = "a"
    for _ in range(12):
        if len(element) >= 120:
            break
        element = "".join(sub.rule[c][0] for c in element)
    patterns = []
    for _ in range(draw(st.integers(1, 6))):
        size = draw(st.integers(1, 60))
        if draw(st.booleans()):
            pattern = draw(st.text(alphabet=letters + "?", min_size=size,
                                   max_size=size))
        else:
            start = draw(st.integers(0, max(0, len(element) - size)))
            chars = list(element[start:start + size])
            for _ in range(draw(st.integers(0, 3))):
                i = draw(st.integers(0, len(chars) - 1))
                chars[i] = draw(st.sampled_from(letters + "?x"))
            pattern = "".join(chars)
        patterns.append(pattern)
    stop = draw(st.one_of(st.none(), st.lists(st.sampled_from(letters),
                                              min_size=1, unique=True)))
    return sub, patterns, stop, draw(st.integers(0, 4))


@given(lane_batches())
@settings(max_examples=300, deadline=None)
def test_lanes_match_one_lane_searches(batch):
    # every lane of a batched search answers as the search of its pattern
    # alone: verdict, level, letter, and the history projected out of the
    # packed one; the one-lane history is a plain list of levels
    sub, patterns, stop, min_level = batch
    try:
        alone = [_pattern_search(sub, [p], stop, min_level)[0] for p in patterns]
    except GuardExceededError:
        return
    lanes = _pattern_search(sub, patterns, stop, min_level)
    assert len(lanes) == len(patterns)
    for pattern, lane, one in zip(patterns, lanes, alone):
        assert lane[:3] == one[:3], pattern
        assert isinstance(one[3], list)
        assert [lane[3][level] for level in range(len(one[3]))] == one[3], pattern


def test_lanes_of_different_periods_finish():
    # four letter cycles of lengths 7, 8, 9 and 11: the pattern xx never
    # occurs, and its lane repeats with the period of x's cycle, so the
    # batch's vector repeats only after 5,544 levels, past the level cap,
    # while each pattern alone stops after one period
    cycles = ["0123456", "789ABCDE", "FGHIJKLMN", "OPQRSTUVWXY"]
    sub = make_substitution({x: (c[(i + 1) % len(c)],)
                             for c in cycles for i, x in enumerate(c)})
    patterns = [c[0] * 2 for c in cycles] + ["4", "5?"]
    alone = [_pattern_search(sub, [p])[0] for p in patterns]
    assert [one[:3] for one in alone] == [
        (False, 7, None), (False, 8, None), (False, 9, None),
        (False, 11, None), (True, 0, "4"), (False, 7, None)]
    lanes = _pattern_search(sub, patterns)
    for lane, one in zip(lanes, alone):
        assert lane[:3] == one[:3]
        assert [lane[3][level] for level in range(len(one[3]))] == one[3]
    # negative lanes of equal period share the batch's repeat
    lanes = _pattern_search(sub, ["00", "11", "6?", "0"])
    assert [lane[:3] for lane in lanes] == [
        (False, 7, None), (False, 7, None), (False, 7, None), (True, 0, "0")]


@given(rule=st.one_of(mixed_rules, st.sampled_from(BUILT_IN_RULES)),
       data=st.data(), n_max=st.integers(min_value=0, max_value=8))
@settings(max_examples=200, deadline=None)
def test_batched_lane_witnesses_match_one_lane_witnesses(rule, data, n_max):
    # gap patterns w ?^n s and wildcard patterns, shuffled so that lanes sit
    # at every offset of a batch, searched by the block and extracted in
    # place from its packed levels through one shared memo: every witness
    # must be the one a fresh one-lane search and extraction gives
    sub = make_substitution(rule)
    letters = "".join(sub.alphabet)
    words = language_of_length(sub, data.draw(st.integers(1, 3)))
    assume(words)
    w, s = data.draw(st.sampled_from(words)), data.draw(st.sampled_from(words))
    patterns = data.draw(st.permutations(
        [w + "?" * n + s for n in range(n_max + 1)]
        + data.draw(st.lists(st.text(alphabet=letters + "?", min_size=1,
                                     max_size=8), max_size=6))))
    with _shared_extraction(sub) as block:
        block.search(patterns)
        assert set(block.searched) == set(patterns)
        shared = [pattern_witness(sub, p) for p in patterns]
    for pattern, got in zip(patterns, shared):
        assert got == pattern_witness(sub, pattern), pattern


def _gap_block(w, seeds, n_max):
    """The gap patterns of a `check_empirical` call, in its order."""
    return [w + "?" * n + s for n in range(n_max + 1) for s in seeds]


@pytest.mark.parametrize("min_level, stop_letters", [
    (0, None), (3, None), (0, ("b",)), (3, ("b",)), (0, ("a",))])
@pytest.mark.parametrize("rule", BUILT_IN_RULES)
def test_pattern_witness_keywords_inside_a_block(rule, min_level,
                                                 stop_letters):
    # keywords other than the defaults search the pattern alone, but share
    # the block's memo, whose chunks the batched lanes built: the answers
    # must be those of the same call outside any block
    sub = make_substitution(rule)
    patterns = _gap_block("a", ("ab", "ba"), 12) + ["b?a", "?", "a??b"]
    calls = [dict(stop_letters=stop_letters, min_level=min_level), {}]
    with _shared_extraction(sub) as block:
        block.search(patterns)
        inside = [pattern_witness(sub, p, **kw) for p in patterns for kw in calls]
    outside = [pattern_witness(sub, p, **kw) for p in patterns for kw in calls]
    assert inside == outside
    assert any(outside)


@pytest.mark.parametrize("rule, w", [(BUILT_IN_RULES[0], "a"),
                                     (BUILT_IN_RULES[-1], "ab")])
def test_extraction_projects_no_lane(monkeypatch, rule, w):
    # extraction reads a batched lane in place: the extraction loop of a
    # check_empirical-shaped block projects no level of any lane, while
    # reading a lane's history level does
    sub = make_substitution(rule)
    patterns = _gap_block(w, ("ab",), 20)
    projected = []
    real = language._project
    monkeypatch.setattr(language, "_project",
                        lambda *args: projected.append(args) or real(*args))
    with _shared_extraction(sub) as block:
        block.search(patterns)
        projected.clear()
        hits = [pattern_witness(sub, p) for p in patterns]
        assert all(hits) and projected == []
        assert block.searched[patterns[-1]][3][0] and len(projected) == 1


@given(rule=st.one_of(mixed_rules, st.sampled_from(BUILT_IN_RULES)),
       data=st.data(), n_max=st.integers(min_value=0, max_value=8))
@settings(max_examples=100, deadline=None)
def test_warm_store_gives_fresh_witnesses(rule, data, n_max):
    # check_empirical calls on one substitution, in shuffled source order,
    # keep the pieces no source word enters in its store: every table, and
    # every pattern_witness with other keywords inside a later block, must
    # be the one an equal, fresh substitution gives
    sub = make_substitution(rule)
    seed_words = language_of_length(sub, data.draw(st.integers(1, 2)))
    assume(len(seed_words) > 1)
    seeds = make_seed_set(sub, data.draw(st.sets(
        st.sampled_from(seed_words), min_size=1,
        max_size=len(seed_words) - 1)))
    words = [w for n in (1, 2, 3) for w in language_of_length(sub, n)]
    sources = data.draw(st.permutations(words))[:6]
    for w in sources:
        table = check_empirical(sub, seeds, w, n_max)
        assert table == check_empirical(make_substitution(rule), seeds, w,
                                         n_max), w
    patterns = [p for w in sources for p in _gap_block(w, seeds.words, n_max)]
    calls = [{}, dict(min_level=3),
             dict(stop_letters=(data.draw(st.sampled_from(sub.alphabet)),))]
    with _shared_extraction(sub) as block:
        block.search(patterns)
        inside = [pattern_witness(sub, p, **kw) for p in patterns for kw in calls]
    fresh = make_substitution(rule)
    assert inside == [pattern_witness(fresh, p, **kw)
                      for p in patterns for kw in calls]


def _element_lengths(sub, level):
    """{letter: the lengths of its level-`level` inflation words}."""
    lengths = {a: {1} for a in sub.alphabet}
    for _ in range(level):
        nxt = {}
        for a, images in sub.rule.items():
            nxt[a] = set()
            for image in images:
                got = {0}
                for c in image:
                    got = {x + y for x in got for y in lengths[c]}
                nxt[a] |= got
        lengths = nxt
    return lengths


# (family or None for the custom rule, longest source word, horizon): the
# inputs of a survey pass (scripts/semimixing_survey.py)
_SURVEY = ((Family("fibonacci"), 3, 40), (Family("tribonacci"), 2, 30),
           (Family("metallic", (2,)), 3, 30), (Family("kbonacci", (4,)), 2, 20),
           (None, 2, 30))


@pytest.mark.parametrize("family, max_len, horizon", _SURVEY, ids=[
    family.label() if family else "custom" for family, _, _ in _SURVEY])
def test_extraction_store_keeps_only_seed_side_pieces(family, max_len,
                                                      horizon):
    # a survey pass fills the store with spellings and chunks whose slice
    # starts with '?' only, within the bound of `_Extractor`'s docstring;
    # a second pass adds nothing, and calls outside a block leave it as is
    if family is None:
        sub = make_substitution(BUILT_IN_RULES[-1])
        seeds = make_seed_set(sub, ("ab", "ba"))
    else:
        sub = family.substitution()
        seeds = seed_sets(family, sub)
    sources = [w for n in range(1, max_len + 1)
               for w in language_of_length(sub, n)]
    is_legal(sub, sources[-1])
    pattern_witness(sub, sources[-1] + "??" + seeds.words[0])
    assert "_extraction_store" not in vars(sub)
    for w in sources:
        check_empirical(sub, seeds, w, horizon)
    store = sub._extraction_store
    kept = dict(store)
    for w in sources:
        check_empirical(sub, seeds, w, horizon)
    assert store == kept
    per_node = {}
    for key, element in store.items():
        if len(key) == 2:           # a spelling
            letter, level = key
            assert element == spell_first(sub, letter, level, {})
        else:
            mode, text, letter, level = key
            assert mode in ("exact", "head") and text[0] == "?", key
            per_node.setdefault((letter, level), []).append(key)
    size = max(map(len, seeds.words))
    for (letter, level), keys in per_node.items():
        lengths = len(_element_lengths(sub, level)[letter])
        heads = sum(key[0] == "head" for key in keys)
        assert heads <= len(seeds.words) * horizon
        assert len(keys) - heads <= lengths * (len(seeds.words) * size + 1)
        if sub.uniform_length:
            assert len(keys) <= len(seeds.words) * (horizon + size + 1)
    for w in sources:
        is_legal(sub, w + seeds.words[0])
        pattern_witness(sub, w + "?" * horizon + seeds.words[-1])
    with _shared_extraction(random_fibonacci()):
        pattern_witness(sub, sources[0] + "?" * 3 + seeds.words[0])
    assert store == kept
    # a copy, an unpickled one and `_replace` each build a new record, whose
    # store starts cold
    for other in (copy.copy(sub), pickle.loads(pickle.dumps(sub)),
                  sub._replace(rule=dict(sub.rule))):
        assert other == sub and "_extraction_store" not in vars(other)


@given(rule=st.one_of(mixed_rules, st.sampled_from(BUILT_IN_RULES)),
       data=st.data())
@settings(max_examples=300, deadline=None)
def test_profiles_hold_the_facts_extraction_relies_on(rule, data):
    # `_Extractor` builds a straddling match through a child's ps bit and
    # ends its back-walk at a restart, relying on these facts of every
    # profile instead of handling their failure:
    #   (L1)  a span that ends at the pattern's end starts at a ps bit;
    #   (L2)  ps bit 0 is an occurrence;
    #   (L2') a span of the whole pattern is an occurrence;
    #   (L3)  a span from 0 that ends inside the pattern ends at an sp bit.
    # Checked on every letter at every level up to each lane's stop, of
    # one-lane and batched searches
    sub = make_substitution(rule)
    letters = "".join(sub.alphabet)
    patterns = data.draw(st.lists(
        st.text(alphabet=letters + "?", min_size=1, max_size=10),
        min_size=1, max_size=4))
    stop = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(letters), min_size=1, unique=True)))
    min_level = data.draw(st.integers(0, 3))
    try:
        lanes = [*_pattern_search(sub, patterns, stop, min_level),
                 *(_pattern_search(sub, [p], stop, min_level)[0]
                   for p in patterns)]
    except GuardExceededError:
        return
    for pattern, (_, last, _, history) in zip(patterns * 2, lanes):
        size = len(pattern)
        for level in range(last + 1):
            for letter in sub.alphabet:
                occurs, sp, ps, spans = history[level][letter]
                where = (pattern, letter, level)
                assert occurs or not ps & 1, where                      # L2
                for length, starts in spans:
                    if starts >> size - length & 1:
                        assert ps >> size - length & 1, where           # L1
                    if starts & 1 and length == size:
                        assert occurs, where                            # L2'
                    elif starts & 1:
                        assert sp >> length & 1, where                  # L3


@given(rule=mixed_rules, data=st.data())
@settings(max_examples=200, deadline=None)
def test_extraction_walks_match_reference_walks(rule, data):
    # the extractor's bitset walks against the dict-and-recursion references
    # of tests/oracles.py, on every image at every level up to each lane's
    # stop: the progresses reached before each child under every limit, the
    # order of first reaching that `_first` reads off them, every back-walk
    # from a reachable progress inside the pattern, and every plan.  Each
    # lane is walked twice: in place, on the batch's packed levels at the
    # lane's bit offset o (o = 0 for a one-lane search), and on the levels
    # projected out of it, at offset 0.  The references read the projected
    # levels, so every in-place position is its reference position plus o,
    # and no walk may leave a bit outside the lane
    sub = make_substitution(rule)
    letters = "".join(sub.alphabet)
    patterns = data.draw(st.lists(
        st.text(alphabet=letters + "?", min_size=1, max_size=6),
        min_size=1, max_size=3))
    stop = data.draw(st.one_of(st.none(), st.lists(
        st.sampled_from(letters), min_size=1, unique=True)))
    lanes = _pattern_search(sub, patterns, stop, data.draw(st.integers(0, 3)))
    images = {image for images in sub.rule.values() for image in images}
    for pattern, (_, last, _, history) in zip(patterns, lanes):
        projected = [history[level] for level in range(last + 1)]
        for lane, memo in ((history, {}), (projected, {})):
            extractor = _Extractor(sub, pattern, lane, memo, memo)
            _check_walks(extractor, images, projected, last)


def _check_walks(extractor, images, projected, last):
    from oracles import back_chain, first_reached, walk_plan

    pattern, o = extractor.pattern, extractor.offset
    size = len(pattern)
    for level, image in itertools.product(range(1, last + 1), images):
        prev, down = projected[level - 1], level - 1
        packed = extractor.history[level - 1]
        for limit in range(size + 1):
            steps = first_reached(image, prev, limit)
            ref = [sum(1 << q for q in step) for step in steps]
            reach = _reaches(image, packed, 1 << o, (2 << limit) - 1 << o)
            assert reach == [bits << o for bits in ref]
            for k, step in enumerate(steps):
                order = list(step)
                masks = [(ref[k], order[0])] + [
                    (1 << x | 1 << y, x)
                    for x, y in itertools.combinations(order, 2)]
                if k < len(image):
                    hit = ref[k] & prev[image[k]][2]
                    if hit:
                        masks.append((hit, next(
                            q for q in order if hit >> q & 1)))
                for mask, first in masks:
                    assert extractor._first(image, packed, reach, k,
                                            mask << o) == first + o
                for q in order:
                    if not 0 < q < size:
                        continue
                    parts = [None] * len(image)
                    got = extractor._back(image, packed, reach, k, q + o,
                                          level, parts)
                    expect, end = [None] * len(image), q
                    for child, p in back_chain(steps, k, q):
                        key = ("tail", pattern[:end]) if p is None else (
                            "exact", pattern[p:end])
                        expect[child] = (*key, image[child], down), p or 0
                        restart, end = end, p
                    assert parts == expect and got == (child, restart)
        for i, j in itertools.combinations(range(size + 1), 2):
            for heads in (False, True) if j == size else (False,):
                plan = extractor._plan(image, i + o, j + o, packed, heads)
                if plan is not None:
                    plan = [(q - o, end if end is None else end - o)
                            for q, end in plan]
                assert plan == walk_plan(image, i, j, prev, heads), \
                    (i, j, heads)


@given(rule=mixed_rules, n=st.integers(min_value=1, max_value=4))
@settings(max_examples=150, deadline=None)
def test_language_matches_per_word_legality_mixed_rules(rule, n):
    # rules with images of different lengths, not necessarily primitive:
    # the one-letter extensions must find every legal word, checked against
    # per-word legality and against the window closure, which shares no
    # code with the profile kernel
    sub = make_substitution(rule)
    alphabet = "".join(sub.alphabet)
    expect = tuple(sorted(
        word for word in map("".join, itertools.product(alphabet, repeat=n))
        if is_legal(sub, word, want_witness=False).legal
    ))
    got = language_of_length(sub, n)
    assert got == expect
    assert set(got) == closure_language(sub, n)


@given(st.text(alphabet="ab", min_size=1, max_size=7))
@settings(max_examples=80, deadline=None)
def test_random_words_dp_equals_bruteforce(u):
    fib = random_fibonacci()
    verdict = is_legal(fib, u, want_witness=False)
    assert verdict.legal == is_legal_bruteforce(fib, u, verdict.levels_examined)


@pytest.mark.parametrize("sub", [random_tribonacci(), random_metallic(2)])
def test_pattern_equivalence_exhaustive_small(sub):
    alpha = "".join(sub.alphabet)
    for size in range(1, 4):
        for tup in itertools.product(alpha + "?", repeat=size):
            pattern = "".join(tup)
            gaps = pattern.count("?")
            expect = any(
                is_legal(sub, pattern.replace("?", "{}").format(*fill),
                         want_witness=False).legal
                for fill in itertools.product(alpha, repeat=gaps)
            )
            assert (pattern_witness(sub, pattern) is not None) == expect, pattern


@given(st.text(alphabet="ab?", min_size=1, max_size=10))
@settings(max_examples=80, deadline=None)
def test_random_pattern_witnesses_replay(pattern):
    fib = random_fibonacci()
    hit = pattern_witness(fib, pattern)
    if hit is None:
        return
    matched, level, letter, element, start = hit
    assert element[start:start + len(pattern)] == matched
    assert is_legal(fib, matched, want_witness=False).legal
    assert build_dag(fib, level).contains(element, letter, level)


def _witness_table_text(source, horizon, us):
    lines = ["# zeckmix witness-table v1", f"source: {source}",
             f"horizon: {horizon}", "seeds: ab ba", "threshold_on_horizon: 0"]
    lines += [f"n={n} u={u} s=ab verified=yes" for n, u in enumerate(us)]
    return "\n".join(lines)


def test_witnesses_pinned():
    # exact outputs of the profile engine and the witness extractor, pinned
    # so that a change of the profile representation cannot move them
    fib = random_fibonacci()
    custom = make_substitution(
        {"a": ("ab", "ba"), "b": ("ac", "ca"), "c": ("a", "aa")})
    seeds = make_seed_set(fib, ("ab", "ba"))
    fib_us = ["", "a", "ba", "aba", "aaba", "baaba", "abaaba", "babaaba",
              "ababaaba", "aababaaba", "baababaaba", "abaababaaba",
              "aabaababaaba", "baabaababaaba", "abaabaababaaba",
              "babaabaababaaba", "ababaabaababaaba", "aababaabaababaaba",
              "baababaabaababaaba", "abaababaabaababaaba",
              "babaababaabaababaaba"]
    assert check_empirical(fib, seeds, "a", 20).to_report() == \
        _witness_table_text("a", 20, fib_us)
    custom_us = ["", "a", "aa", "aaa", "acaa", "aacab", "abacab", "aabacab",
                 "aaabacab", "aaaabacab", "abaaabacab", "aabaaabacab",
                 "acabaaabacab"]
    assert check_empirical(
        custom, make_seed_set(custom, ("ab", "ba")), "ab", 12
    ).to_report() == _witness_table_text("ab", 12, custom_us)

    tri = random_tribonacci()
    patterns = [
        (fib, "a??b", {}, ("aaab", 3, "a", "baaab", 1)),
        (fib, "b?b", {}, ("bab", 3, "a", "aabab", 2)),
        (fib, "ab???ba", {}, ("abababa", 4, "a", "aabababa", 1)),
        (fib, "b", {"stop_letters": ("a",), "min_level": 2},
         ("b", 2, "a", "aba", 1)),
        (fib, "a?a", {"min_level": 3}, ("aba", 3, "a", "abaab", 0)),
        (fib, "?b?", {"stop_letters": ("a",)}, ("aba", 2, "a", "aba", 0)),
        (tri, "c??c", {}, ("cabc", 4, "a", "abaabacabcaab", 6)),
        (custom, "c?c", {}, ("cac", 3, "c", "abacacab", 3)),
        (custom, "aa??aa", {"min_level": 3},
         ("aacbaa", 3, "a", "baacbaa", 1)),
    ]
    for sub, pattern, kwargs, expect in patterns:
        assert pattern_witness(sub, pattern, **kwargs) == expect, pattern

    verdicts = [
        (fib, "a", True, 0, (0, "a", "a")),
        (fib, "bb", True, 3, (3, "a", "aabba")),
        (fib, "abaab", True, 3, (3, "a", "abaab")),
        (fib, "abba", True, 3, (3, "a", "aabba")),
        (fib, "bbb", False, 3, None),
        (tri, "acab", True, 2, (2, "a", "acab")),
        (tri, "cc", True, 4, (4, "a", "abaabaccaabab")),
        (custom, "caac", True, 3, (3, "c", "abcaacab")),
        (custom, "ccc", False, 4, None),
    ]
    for sub, word, legal, levels, witness in verdicts:
        verdict = is_legal(sub, word)
        assert (verdict.legal, verdict.levels_examined, verdict.witness) == \
            (legal, levels, witness), word


def _pinning_rules():
    """The built-in rules and 40 seeded random rules with images of several
    lengths."""
    rng = random.Random(2019)
    subs = [make_substitution(rule) for rule in BUILT_IN_RULES]
    while len(subs) < len(BUILT_IN_RULES) + 40:
        alpha = rng.choice(("ab", "abc"))
        sub = make_substitution({
            a: {"".join(rng.choices(alpha, k=rng.randint(1, 3)))
                for _ in range(rng.randint(1, 3))}
            for a in alpha})
        if not sub.uniform_length:
            subs.append(sub)
    return subs


def _pinned_answers(sub, rng):
    """pattern_witness on 150 patterns (random, or factors of an element
    with letters blanked, some with min_level or stop_letters), is_legal on
    each default match, and the gap patterns w ?^n s of one shared block."""
    letters = "".join(sub.alphabet)
    element = letters[0]
    for _ in range(12):
        if len(element) >= 60:
            break
        element = "".join(sub.rule[c][-1] for c in element)
    answers = []
    for _ in range(150):
        size = rng.randint(1, 14)
        if rng.random() < 0.5 or len(element) < size:
            pattern = "".join(rng.choices(letters + "?", k=size))
        else:
            start = rng.randint(0, len(element) - size)
            chars = list(element[start:start + size])
            for _ in range(rng.randint(0, size // 2 + 1)):
                chars[rng.randrange(size)] = "?"
            pattern = "".join(chars)
        kwargs = {}
        if rng.random() < 0.25:
            kwargs["min_level"] = rng.randint(1, 4)
        if rng.random() < 0.25:
            kwargs["stop_letters"] = tuple(rng.sample(sub.alphabet, 1))
        hit = pattern_witness(sub, pattern, **kwargs)
        answers.append((pattern, sorted(kwargs.items()), hit))
        if hit is not None and not kwargs:
            answers.append(is_legal(sub, hit[0]).witness)
    words = language_of_length(sub, rng.randint(1, 3))
    seeds = language_of_length(sub, 2)
    if words and seeds:
        w = rng.choice(words)
        seeds = sorted(rng.sample(seeds, min(2, len(seeds))))
        patterns = [w + "?" * n + s for n in range(13) for s in seeds]
        with _shared_extraction(sub) as block:
            block.search(patterns)
            answers += [pattern_witness(sub, p) for p in patterns]
    return answers


# sha256 prefixes of each rule's `_pinned_answers`, recorded before the
# extractor was rewritten around one plan walk and one backtrack
PINNED_ANSWER_DIGESTS = {
    "a -> {ab, ba}; b -> {a}":
        "9e4c79ef5e6b74a9",
    "a -> {ab, ba}; b -> {ac, ca}; c -> {a}":
        "f3b0cbc571a8a330",
    "a -> {aab, aba, baa}; b -> {a}":
        "37a9bb87cd577d95",
    "a -> {ab, ba}; b -> {ac, ca}; c -> {ad, da}; d -> {a}":
        "382014712d432b76",
    "a -> {ab, ba}; b -> {ac, ca}; c -> {a, aa}":
        "01961a6a75e25d97",
    "a -> {ab}; b -> {aba, bb, bba}":
        "eba3610beafc9b2b",
    "a -> {aa, b, ba}; b -> {ba}; c -> {a}":
        "a825102b0fd9fa86",
    "a -> {ab}; b -> {aa, aaa, abb}":
        "413caa35d514408b",
    "a -> {ab}; b -> {a, ab}":
        "0bf62cedaf51ba43",
    "a -> {a, bab}; b -> {aa, b}":
        "d93a252e77942c1c",
    "a -> {bc}; b -> {a, aba, bcc}; c -> {b}":
        "96f22cc05d722755",
    "a -> {aa, aab}; b -> {aaa}":
        "fdd84e4c2fba837b",
    "a -> {ba, bba}; b -> {ac, b}; c -> {c}":
        "45e3360dd018eea8",
    "a -> {ab, bba}; b -> {ab, b, bba}":
        "2f8046e0d56ecf39",
    "a -> {a, ba}; b -> {a, ab, baa}":
        "9ca1f65f1e6a6016",
    "a -> {b, ba, bba}; b -> {aba, bb}":
        "ceef36c08d263c2f",
    "a -> {bca, ca}; b -> {cc}; c -> {ab, ac}":
        "c130e5548c536cde",
    "a -> {ab, aba}; b -> {a, ab}":
        "c2dd2cd6ce2a0898",
    "a -> {a, aa, aab}; b -> {b, bb}":
        "3cde1cfb51812cc9",
    "a -> {aba, bba}; b -> {b, bba}":
        "915121ade7bff47a",
    "a -> {aaa}; b -> {a, bba}":
        "b9b16b49faca77c1",
    "a -> {cb}; b -> {bba, bcc, c}; c -> {cc}":
        "c1966b8b0512152a",
    "a -> {b, bba, bcc}; b -> {a, b, cab}; c -> {ac, ca, cba}":
        "56f0abf80446d41c",
    "a -> {bc}; b -> {a, aa}; c -> {a}":
        "017c8e491f18f11b",
    "a -> {ab, baa}; b -> {a, aab}":
        "f197609b5aa23bd5",
    "a -> {a, aab, ba}; b -> {ab, ba, baa}":
        "591ec4c54efb4a0b",
    "a -> {ca}; b -> {b, baa, c}; c -> {a, bc, cab}":
        "262dee65d098cac8",
    "a -> {ab, bbb, cac}; b -> {bc}; c -> {ccb}":
        "f5bd8ab2953d36f5",
    "a -> {abb, bb}; b -> {aa, baa}":
        "623e1926a2fe173a",
    "a -> {aab}; b -> {a, ba, bbb}":
        "c896f9a3f3361746",
    "a -> {b}; b -> {b, c}; c -> {a, aa, cc}":
        "0a0fbba2eff1ce80",
    "a -> {bba}; b -> {ba, cc}; c -> {bca, ca}":
        "b0d15b34113a5c9a",
    "a -> {b}; b -> {aa, aab, ab}":
        "9e5d66aa8d3a14b5",
    "a -> {bc}; b -> {ab, acb, bb}; c -> {bbb, cb, cbc}":
        "f09a1dee246d5803",
    "a -> {ac, bc, caa}; b -> {bc}; c -> {a, bba}":
        "6919cc5e2f72f6a6",
    "a -> {bc, c}; b -> {ac, c, cc}; c -> {aa, abc, cca}":
        "def753bcc0811ae6",
    "a -> {aba, bba}; b -> {a, ab}":
        "57bfe58441b4a2e2",
    "a -> {aa, abb}; b -> {aaa, b}":
        "fc6d7839a492a6be",
    "a -> {ab, b}; b -> {ba, bb}":
        "da002fec94e9f4c9",
    "a -> {aa, ba, bba}; b -> {aab, aba, b}":
        "cdd3d25151f5c118",
    "a -> {bb, bba}; b -> {a, aa, bab}":
        "ab376e24943b9eb4",
    "a -> {ba}; b -> {b, bb}":
        "93a6bf1c5e09c091",
    "a -> {a, bc}; b -> {b, c}; c -> {a, ac, b}":
        "33da04e66e5eb8a6",
    "a -> {ab, c}; b -> {bba, cc}; c -> {aac, cab, cba}":
        "afcfe227fa71c74b",
    "a -> {bb, cbc}; b -> {ab, bc}; c -> {a}":
        "2a1fee4cdc2cbc1e",
}


def test_witness_choice_pinned_on_mixed_length_rules():
    # which realisation extraction picks (images in rule order, children
    # left to right, a child's prefix before its spans, element ends
    # ascending, first predecessor kept) decides every witness; on rules
    # with images of several lengths the other choices give other words
    rng = random.Random(1912)
    got = {}
    for sub in _pinning_rules():
        answers = _pinned_answers(sub, rng)
        label = "; ".join(str(sub).splitlines())
        got[label] = hashlib.sha256(repr(answers).encode()).hexdigest()[:16]
    assert list(got) == list(PINNED_ANSWER_DIGESTS)
    for label, digest in got.items():
        assert digest == PINNED_ANSWER_DIGESTS[label], label


def _extraction_calls():
    fib = random_fibonacci()
    custom = make_substitution(
        {"a": ("ab", "ba"), "b": ("ac", "ca"), "c": ("a", "aa")})
    return {
        "check_empirical fibonacci": lambda: check_empirical(
            fib, make_seed_set(fib, ("ab", "ba")), "a", 20),
        "check_empirical custom": lambda: check_empirical(
            custom, make_seed_set(custom, ("ab", "ba")), "ab", 12),
        "is_legal": lambda: is_legal(fib, "abaab"),
        "pattern_witness": lambda: pattern_witness(fib, "a??b"),
    }


@pytest.mark.parametrize("name", list(_extraction_calls()))
def test_extraction_leaves_no_cyclic_garbage(name):
    # extraction keeps its pending work on a list and walks with methods,
    # not self-referencing closures, so a call leaves nothing that only the
    # cyclic collector can free; its pauses would land on later calls
    call = _extraction_calls()[name]
    gc.collect()
    gc.disable()
    try:
        assert call()
        assert gc.collect() == 0
    finally:
        gc.enable()

