import itertools
import math
import sys
import threading

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import (
    first_image_word,
    member_levels_top_down,
    single_positive_root_decimals,
)

from zeckmix import substitution
from zeckmix.errors import (
    GuardExceededError,
    NonPrimitiveMatrixError,
    StructureError,
)
from zeckmix.numeration import (
    fibonacci_scheme,
    metallic_pisa_scheme,
    metallic_scheme,
    term,
    tribonacci_scheme,
)
from zeckmix.substitution import (
    apply,
    apply_to_set,
    build_dag,
    characteristic_polynomial,
    format_rules,
    in_image,
    inflation_words,
    is_pisot,
    is_primitive,
    make_substitution,
    metallic_pisa,
    parse_rules,
    pf_eigenvalue,
    random_fibonacci,
    random_kbonacci,
    random_metallic,
    random_tribonacci,
    spell_first,
    substitution_matrix,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_random_fibonacci_rule():
    sub = random_fibonacci()
    assert set(sub.rule["a"]) == {"ab", "ba"}
    assert set(sub.rule["b"]) == {"a"}
    assert sub.alphabet == ("a", "b")
    assert sub.uniform_length and sub.abelian_compatible


def test_family_rules():
    assert set(random_metallic(2).rule["a"]) == {"aab", "aba", "baa"}
    assert random_kbonacci(2).rule == random_fibonacci().rule
    assert random_kbonacci(3).rule == random_tribonacci().rule
    assert set(random_tribonacci().rule["c"]) == {"a"}
    assert set(random_tribonacci().rule["b"]) == {"ac", "ca"}
    k4 = random_kbonacci(4)
    assert set(k4.rule["c"]) == {"ad", "da"}
    assert set(k4.rule["d"]) == {"a"}


def test_metallic_pisa_rules():
    sub = metallic_pisa(3, 2)
    assert set(sub.rule["a"]) == {"baa", "aba", "aab"}
    assert set(sub.rule["b"]) == {"caa", "aca", "aac"}
    assert set(sub.rule["c"]) == {"a"}
    assert metallic_pisa(2, 3).rule == random_metallic(3).rule
    assert metallic_pisa(4, 1).rule == random_kbonacci(4).rule


@pytest.mark.parametrize("k, m", [
    pytest.param(k, m, marks=pytest.mark.xfail(
        k >= 3 and m >= 2, strict=True,
        reason="the rule's lengths follow (m, ..., m, 1), the scheme's "
               "recurrence (m, 1, ..., 1)"))
    for k in range(2, 7) for m in range(1, 5)])
def test_metallic_pisa_lengths_follow_its_scheme(k, m):
    scheme = metallic_pisa_scheme(k, m)
    dag = build_dag(metallic_pisa(k, m), 10)
    assert [dag.element_length("a", level) for level in range(11)] == \
        [scheme.term(scheme.base_index + level) for level in range(11)]


def test_family_parameter_errors():
    with pytest.raises(ValueError):
        random_kbonacci(1)
    with pytest.raises(ValueError):
        random_metallic(0)
    with pytest.raises(ValueError):
        metallic_pisa(1, 1)


def test_apply_examples():
    fib = random_fibonacci()
    assert apply(fib, "ab") == {"aba", "baa"}
    assert apply(fib, "b") == {"a"}
    assert apply(random_tribonacci(), "a") == {"ab", "ba"}


def test_apply_guard():
    with pytest.raises(GuardExceededError):
        apply(random_metallic(3), "a" * 12, guard=100)


def test_inflation_words_paper_sets():
    fib = random_fibonacci()
    assert inflation_words(fib, "a", 0) == {"a"}
    assert inflation_words(fib, "a", 1) == {"ab", "ba"}
    assert inflation_words(fib, "a", 2) == {"aba", "baa", "aab"}
    assert inflation_words(fib, "a", 3) == {
        "abaab", "ababa", "baaab", "baaba", "aabab", "aabba", "abbaa", "babaa"
    }
    assert inflation_words(random_metallic(2), "a", 1) == {"aab", "aba", "baa"}


def test_tribonacci_level2_is_full_union():
    # the level-2 set must contain the images of both level-1 words,
    # tau(ab) and tau(ba); a partial listing that keeps only tau(ab) would
    # break compositionality
    trib = random_tribonacci()
    tau_ab = {x + y for x in ("ab", "ba") for y in ("ac", "ca")}
    tau_ba = {x + y for x in ("ac", "ca") for y in ("ab", "ba")}
    assert tau_ab == {"abac", "abca", "baac", "baca"}
    got = inflation_words(trib, "a", 2)
    assert got == tau_ab | tau_ba
    assert len(got) == 8


def test_dag_lengths_match_closed_forms():
    fib_s, trib_s = fibonacci_scheme(), tribonacci_scheme()
    dag = build_dag(random_fibonacci(), 12)
    for n in range(13):
        assert dag.element_length("a", n) == term(fib_s, n + 1)
        assert dag.element_length("b", n) == term(fib_s, n)
    dag = build_dag(random_tribonacci(), 12)
    for n in range(13):
        assert dag.element_length("a", n) == term(trib_s, n + 2)
        assert dag.element_length("b", n) == term(trib_s, n) + term(trib_s, n + 1)
        assert dag.element_length("c", n) == term(trib_s, n + 1)
    for m in (1, 2, 3, 5):
        mz = metallic_scheme(m)
        dag = build_dag(random_metallic(m), 12)
        for n in range(13):
            assert dag.element_length("a", n) == term(mz, n + 1)
            assert dag.element_length("b", n) == term(mz, n)


def test_dag_length_examples():
    assert build_dag(random_fibonacci(), 3).element_length("a", 3) == 5
    assert build_dag(random_tribonacci(), 4).element_length("c", 4) == 7
    assert build_dag(random_metallic(2), 3).element_length("b", 3) == 7


def test_dag_path_counts():
    dag = build_dag(random_fibonacci(), 6)
    # paths(a, n+1) = 2 * paths(a, n) * paths(b, n); paths(b, n+1) = paths(a, n)
    assert [dag.path_count("a", n) for n in range(7)] == [1, 2, 4, 16, 128, 4096, 1048576]
    assert dag.path_count("b", 3) == 4
    # distinct words are far fewer than paths
    assert len(inflation_words(random_fibonacci(), "a", 3)) == 8 < 16


def test_dag_contains():
    dag = build_dag(random_fibonacci(), 5)
    assert dag.contains("aabba", "a", 3)
    assert not dag.contains("aaaaa", "a", 3)
    assert not dag.contains("abaab", "a", 2)  # wrong level (length mismatch)
    assert dag.contains("a", "b", 1)
    trib = build_dag(random_tribonacci(), 4)
    assert trib.contains("acab", "a", 2)
    assert not trib.contains("acac", "a", 2)
    # a level whose elements are all longer than the word is rejected at
    # once, however deep; elements exactly as long are still matched
    deep = build_dag(random_fibonacci(), 5000)
    assert not deep.contains(dag.spell_any("a", 5), "a", 5000)
    assert deep.contains(dag.spell_any("a", 5), "a", 5)
    assert not deep.contains("", "a", 0) and deep.contains("a", "a", 0)
    # '?' and letters outside the alphabet are no letter's level-0 word
    assert not dag.contains("a?", "a", 1)
    assert not dag.contains("ax", "a", 1)
    assert not dag.contains("?", "b", 0)
    # a long member, and the same word with its middle letter changed
    trib = build_dag(random_tribonacci(), 14)
    word = trib.spell_any("a", 14)
    mid = len(word) // 2
    assert len(word) == 5768 and word[mid] != "c"
    assert trib.contains(word, "a", 14)
    assert not trib.contains(word[:mid] + "c" + word[mid + 1:], "a", 14)


# rules with images of several lengths, some letters of which only ever
# rewrite to single letters, so that their words never grow
rules_with_fixed_letters = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.one_of(
            st.sets(st.text(alphabet=alpha, min_size=1, max_size=3),
                    min_size=1, max_size=3),
            st.sets(st.sampled_from(alpha), min_size=1, max_size=2))
        for a in alpha
    })
)


def _near_misses(data, sub, word):
    """The word with one letter inserted, deleted or replaced."""
    i = data.draw(st.integers(0, len(word)), label="position")
    c = data.draw(st.sampled_from(sub.alphabet), label="letter")
    return word[:i] + c + word[i:], word[:i] + word[i + 1:], word[:i] + c + word[i + 1:]


@given(rule=rules_with_fixed_letters, data=st.data())
@settings(max_examples=300, deadline=None)
def test_contains_matches_inflation_words(rule, data):
    sub = make_substitution(rule)
    letter = data.draw(st.sampled_from(sub.alphabet), label="node")
    levels = []
    for level in range(6):
        try:
            levels.append(inflation_words(sub, letter, level, guard=2000))
        except GuardExceededError:
            break
    dag = build_dag(sub, len(levels) - 1)
    level = data.draw(st.integers(0, len(levels) - 1), label="level")
    member = data.draw(st.sampled_from(sorted(levels[level])), label="member")
    for word in (member, *_near_misses(data, sub, member)):
        for lvl, words in enumerate(levels):
            assert dag.contains(word, letter, lvl) == (word in words), (word, lvl)


@given(rule=rules_with_fixed_letters, data=st.data())
@settings(max_examples=150, deadline=None)
def test_contains_matches_top_down_matching_at_deep_levels(rule, data):
    # deep enough that the span vector repeats and the walk skips ahead
    sub = make_substitution(rule)
    letter = data.draw(st.sampled_from(sub.alphabet), label="node")
    choose = data.draw(st.randoms(use_true_random=False))
    word = letter
    for _ in range(data.draw(st.integers(0, 6), label="realised levels")):
        if len(word) > 10:
            break
        word = "".join(choose.choice(sub.rule[c]) for c in word)
    dag = build_dag(sub, 40)
    for candidate in (word, *_near_misses(data, sub, word)):
        levels = {level for level in range(41)
                  if dag.contains(candidate, letter, level)}
        assert levels == member_levels_top_down(sub, candidate, letter, 40), candidate


def test_contains_stops_at_the_first_level_without_spans(monkeypatch):
    # fibonacci words outgrow any word: once no level-l word of any letter
    # occurs in it, no later one does, and the walk composes no further level
    chains = []
    real = substitution._chain
    monkeypatch.setattr(substitution, "_chain",
                        lambda *args: chains.append(args) or real(*args))
    fib = random_fibonacci()
    dag = build_dag(fib, 10**9)
    images_per_level = sum(len(images) for images in fib.rule.values())
    for word in ("ab", "aa", "abaab", "aabaabab"):
        chains.clear()
        assert not dag.contains(word, "a", 10**9)
        first_empty = next(
            level for level in itertools.count()
            if not any(dag.element_length(a, level) <= len(word)
                       and any(w in word for w in inflation_words(fib, a, level))
                       for a in fib.alphabet))
        assert len(chains) == first_empty * images_per_level, word


def test_dag_tables_shared_across_threads():
    # threads that fill one dag's per-level table at once, from different
    # levels and in different orders, read the answers a serial run gives
    subs = [random_fibonacci(), random_tribonacci(), random_metallic(3),
            make_substitution({"a": ("a", "ab"), "b": ("b",)})]

    def answers(dag, order):
        got = []
        for level in order:
            for a in dag.substitution.alphabet:
                try:
                    length = dag.element_length(a, level)
                except StructureError:
                    length = None
                paths = dag.path_count(a, level) if level <= 14 else None
                got.append((a, level, length, paths))
        return sorted(got)

    orders = [range(200), range(199, -1, -1), range(0, 200, 7),
              [150, 3, 80, 14, 199, 0]]
    pairs = [(i, order) for i in range(len(subs)) for order in orders]
    serial = [answers(build_dag(subs[i], 199), order) for i, order in pairs]
    dags = [build_dag(sub, 199) for sub in subs]
    _assert_threads_agree(
        [lambda i=i, order=order: answers(dags[i], order) for i, order in pairs],
        serial)


def test_first_images_shared_across_threads():
    # threads that build a substitution's first_images table at once, by
    # spelling, by image matching and by reading it, get the answers a
    # serial run on a fresh copy gives
    makers = [random_fibonacci, random_tribonacci, lambda: random_metallic(3),
              lambda: make_substitution({"a": ("ab", "a"), "b": ("ba", "b")})]

    def answers(sub):
        words = [spell_first(sub, a, level, {})
                 for a in sub.alphabet for level in range(8)]
        return (dict(sub.first_images), words,
                [in_image(sub, w, v) for w in words[:6] for v in words[:12]])

    serial = [answers(make()) for make in makers for _ in range(3)]
    subs = [make() for make in makers for _ in range(3)]
    # each substitution is eight jobs in a row, so that the threads, each
    # starting one job further on, reach it fresh at about the same time
    _assert_threads_agree(
        [lambda sub=sub: answers(sub) for sub in subs for _ in range(8)],
        [got for got in serial for _ in range(8)])


def _assert_threads_agree(jobs, serial, n_threads=8):
    """Run every job on each of n_threads threads at once, thread k starting
    at job k, with thread switches forced often; every thread's answers must
    be the serial ones."""
    start = threading.Barrier(n_threads, timeout=60)
    outcomes = [None] * n_threads
    errors = []

    def work(k):
        try:
            start.wait()
            outcomes[k] = [job() for job in jobs[k:] + jobs[:k]]
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,), daemon=True)
               for k in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    for k, got in enumerate(outcomes):
        assert got == serial[k:] + serial[:k], k


def test_dag_spell_any():
    dag = build_dag(random_fibonacci(), 8)
    for n in (0, 3, 6):
        word = dag.spell_any("a", n)
        assert len(word) == dag.element_length("a", n)
        assert dag.contains(word, "a", n)


@given(sub=st.one_of(
           st.sampled_from([random_fibonacci(), random_tribonacci(),
                            random_metallic(2), random_kbonacci(4),
                            metallic_pisa(3, 2)]),
           rules_with_fixed_letters.map(make_substitution)),
       data=st.data())
@settings(max_examples=200, deadline=None)
def test_spell_first_takes_the_first_image_everywhere(sub, data):
    # one cache serves every query, as the extractor's memo does
    queries = data.draw(st.lists(st.tuples(st.sampled_from(sub.alphabet),
                                           st.integers(0, 10)),
                                 min_size=1, max_size=4), label="queries")
    dag = build_dag(sub, 10)
    cache = {}
    for letter, level in queries:
        word = spell_first(sub, letter, level, cache)
        assert word == first_image_word(sub, letter, level), (letter, level)
        assert cache[(letter, level)] == word == dag.spell_any(letter, level)
        if len(word) <= 100:
            assert dag.contains(word, letter, level), (letter, level)


def test_dag_rejects_levels_it_was_not_built_to():
    dag = build_dag(random_fibonacci(), 3)
    for level in (-1, 4, 30):
        for query in (lambda: dag.element_length("a", level),
                      lambda: dag.path_count("a", level),
                      lambda: dag.contains("abaab", "a", level),
                      lambda: dag.spell_any("a", level)):
            with pytest.raises(ValueError):
                query()
    assert dag.element_length("a", 3) == 5 and dag.path_count("a", 3) == 16
    with pytest.raises(KeyError):
        dag.contains("a", "x", 0)


def test_inflation_dag_is_immutable_and_compares_without_its_cache():
    sub = random_fibonacci()
    a, b = build_dag(sub, 6), build_dag(sub, 6)
    assert a == b
    assert a.element_length("a", 5) == 13 and a.path_count("b", 6) > 1
    assert a == b and b == a and not a != b
    assert a != build_dag(sub, 5) and a != build_dag(random_tribonacci(), 6)
    with pytest.raises(AttributeError):
        a.max_level = 3
    with pytest.raises(AttributeError):
        a.substitution = random_tribonacci()
    assert a.max_level == 6 and a.substitution is sub


def test_non_uniform_length_reported():
    sub = make_substitution({"a": ("a", "ab"), "b": ("b",)})
    assert not sub.uniform_length
    dag = build_dag(sub, 3)
    with pytest.raises(StructureError):
        dag.element_length("a", 1)


def test_substitution_matrices():
    assert substitution_matrix(random_fibonacci()) == [[1, 1], [1, 0]]
    assert substitution_matrix(random_tribonacci()) == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    for m in (1, 2, 3, 6):
        assert substitution_matrix(random_metallic(m)) == [[m, 1], [1, 0]]


def test_substitution_matrix_requires_abelian():
    sub = make_substitution({"a": ("ab", "aa"), "b": ("a",)})
    assert not sub.abelian_compatible
    with pytest.raises(StructureError):
        substitution_matrix(sub)


def test_pf_eigenvalues():
    assert pf_eigenvalue(substitution_matrix(random_fibonacci())) == pytest.approx(
        GOLDEN, abs=1e-11
    )
    assert pf_eigenvalue(substitution_matrix(random_tribonacci())) == pytest.approx(
        1.83929, abs=1e-4
    )
    assert pf_eigenvalue(substitution_matrix(random_metallic(2))) == pytest.approx(
        1 + math.sqrt(2), abs=1e-11
    )
    for m in range(1, 7):
        assert pf_eigenvalue([[m, 1], [1, 0]]) == pytest.approx(
            (m + math.sqrt(m * m + 4)) / 2, abs=1e-9
        )


def test_pf_requires_primitive():
    assert not is_primitive([[2, 0], [0, 2]])
    with pytest.raises(NonPrimitiveMatrixError):
        pf_eigenvalue([[2, 0], [0, 2]])
    with pytest.raises(NonPrimitiveMatrixError):
        is_pisot([[2, 0], [0, 2]])
    assert is_primitive([[0, 1], [1, 0]]) is False  # periodic, not primitive
    assert is_primitive([[1, 1], [1, 0]])


def test_is_pisot():
    assert is_pisot(substitution_matrix(random_fibonacci()))
    assert is_pisot(substitution_matrix(random_tribonacci()))
    assert is_pisot(substitution_matrix(random_metallic(2)))
    # x^2 - x - 3 has roots ~2.30 and ~-1.30: dominant but not Pisot
    assert not is_pisot([[1, 3], [1, 0]])


def test_spectral_edge_cases():
    # 1x1: the single root 1 is the dominant one
    assert is_primitive([[1]]) is True
    assert not is_primitive([[0]])
    assert pf_eigenvalue([[1]]) == 1.0
    assert is_pisot([[1]])
    # periodic: irreducible but never positive
    with pytest.raises(NonPrimitiveMatrixError):
        pf_eigenvalue([[0, 1], [1, 0]])
    with pytest.raises(NonPrimitiveMatrixError):
        is_pisot([[0, 1], [1, 0]])
    # x^2 - 3x + 1 equals its own reciprocal: the real pair (z, 1/z) off
    # the unit circle is still Pisot
    assert is_pisot([[2, 1], [1, 1]])
    assert pf_eigenvalue([[2, 1], [1, 1]]) == (3 + math.sqrt(5)) / 2
    # x^2 - 2x - 3 = (x - 3)(x + 1): an integer dominant root and a root on
    # the unit circle
    assert pf_eigenvalue([[1, 2], [2, 1]]) == 3.0
    assert not is_pisot([[1, 2], [2, 1]])
    # (x + 1)(x^2 - 4x + 1): a unit root beside a reciprocal pair
    assert not is_pisot([[1, 2, 1], [2, 1, 1], [1, 1, 1]])
    # the largest built-in matrix, k-bonacci at k = 26
    big = substitution_matrix(random_kbonacci(26))
    assert is_pisot(big)
    assert f"{pf_eigenvalue(big):.12f}" == single_positive_root_decimals(
        [1] + [-1] * 26, 1, 2, 12)


@pytest.mark.parametrize("bad", [
    [[1, 2]], [1, 2], [], [[1], [1, 2]], [[1, -1], [1, 1]], [[0.5, 1], [1, 0]],
])
def test_spectral_rejects_bad_input(bad):
    for fn in (is_primitive, pf_eigenvalue, is_pisot):
        with pytest.raises(ValueError):
            fn(bad)


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n),
        min_size=n, max_size=n,
    )
)


@given(matrix=small_matrices)
@settings(max_examples=300, deadline=None)
def test_spectral_decisions_match_numpy(matrix):
    np = pytest.importorskip("numpy")
    size = len(matrix)
    boolean = np.array(matrix) > 0
    power = boolean
    for _ in range((size - 1) ** 2):
        power = (power.astype(int) @ boolean.astype(int)) > 0
    assert is_primitive(matrix) == bool(power.all())
    if not power.all():
        return
    coeffs = characteristic_polynomial(matrix)
    assert np.allclose(np.poly(np.array(matrix, dtype=float)), coeffs)
    roots = np.roots(coeffs)
    moduli = np.abs(roots)
    assume(np.all(np.abs(moduli - 1) > 1e-6))
    assert is_pisot(matrix) == (int(np.sum(moduli >= 1)) == 1)
    dominant = max(z.real for z in roots if abs(z.imag) < 1e-6)
    assert pf_eigenvalue(matrix) == pytest.approx(dominant, rel=1e-9)


small_words = st.text(alphabet="ab", min_size=1, max_size=4)


@given(ws=st.sets(small_words, min_size=1, max_size=4))
@settings(max_examples=50, deadline=None)
def test_apply_distributes_over_union(ws):
    sub = random_fibonacci()
    split = set()
    for w in ws:
        split |= apply(sub, w)
    assert apply_to_set(sub, ws) == split


def test_in_image_examples():
    fib = random_fibonacci()
    assert in_image(fib, "ab", "aba") and in_image(fib, "ab", "baa")
    assert not in_image(fib, "ab", "aab") and not in_image(fib, "ab", "ab")
    # images of several lengths: "aaa" splits as a|aa and as aa|a
    sub = make_substitution({"a": ("a", "aa"), "b": ("ab",)})
    assert not sub.uniform_length
    assert {w for w in ("aa", "aaa", "aaaa", "aaaaa") if in_image(sub, "aa", w)} \
        == {"aa", "aaa", "aaaa"}
    assert in_image(sub, "aba", "aabaa") and not in_image(sub, "aba", "abab")
    with pytest.raises(ValueError):
        in_image(fib, "", "")
    with pytest.raises(KeyError):
        in_image(fib, "ax", "ab")


mixed_length_rules = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.sets(st.text(alphabet=alpha, min_size=1, max_size=3),
                   min_size=1, max_size=3)
        for a in alpha
    })
)


@given(rule=mixed_length_rules, word=st.text(alphabet="abc", min_size=1, max_size=4),
       data=st.data())
@settings(max_examples=400, deadline=None)
def test_in_image_matches_apply(rule, word, data):
    sub = make_substitution(rule)
    assume(set(word) <= set(sub.alphabet))
    images = apply(sub, word)
    member = data.draw(st.sampled_from(sorted(images)), label="member")
    assert in_image(sub, word, member)
    # near misses: one letter inserted, deleted or replaced, or two swapped
    kind = data.draw(st.sampled_from(["insert", "delete", "replace", "swap"]))
    i = data.draw(st.integers(0, len(member)), label="position")
    letter = data.draw(st.sampled_from("abc"), label="letter")
    if kind == "insert":
        near = member[:i] + letter + member[i:]
    elif kind == "delete":
        near = member[:i] + member[i + 1:]
    elif kind == "replace":
        near = member[:i] + letter + member[i + 1:]
    else:
        near = member[:i] + member[i + 1:i + 2] + member[i:i + 1] + member[i + 2:]
    assert in_image(sub, word, near) == (near in images)


def test_in_image_edges():
    fib = random_fibonacci()
    # no non-empty word has the empty image
    assert not in_image(fib, "a", "") and not in_image(fib, "ab", "")
    # characters outside the alphabet, '?' included, match no letter
    assert not in_image(fib, "ab", "abz") and not in_image(fib, "ab", "a?a")
    assert not in_image(fib, "b", "?") and not in_image(fib, "ab", "zab")
    assert in_image(fib, "ab", "baa")
    # every letter is looked up, also once no end position survives
    assert not in_image(fib, "bb", "b")
    with pytest.raises(KeyError):
        in_image(fib, "bx", "b")
    with pytest.raises(KeyError):
        in_image(fib, "bbx", "")


short_mixed_rules = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.sets(st.text(alphabet=alpha, min_size=1, max_size=3),
                   min_size=1, max_size=2)
        for a in alpha
    })
)


@given(rule=short_mixed_rules, word=st.text(alphabet="abc", min_size=8, max_size=12),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_in_image_matches_apply_on_long_words(rule, word, data):
    sub = make_substitution(rule)
    assume(set(word) <= set(sub.alphabet))
    images = apply(sub, word)
    members = sorted(images)
    for member in data.draw(st.lists(st.sampled_from(members), min_size=1,
                                     max_size=4), label="members"):
        assert in_image(sub, word, member)
        i = data.draw(st.integers(0, len(member) - 1), label="position")
        letter = data.draw(st.sampled_from("abcz"), label="letter")
        for near in (member[:i] + letter + member[i + 1:],
                     member[:i] + member[i + 1:],
                     member[:i] + letter + member[i:]):
            assert in_image(sub, word, near) == (near in images)


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_in_image_matches_dag_on_long_images(data):
    # for a word w, the level-2 node of a fresh letter whose only image is w
    # holds exactly apply(w), which the DAG decides by its own matching
    sub, level = data.draw(st.sampled_from(
        [(random_fibonacci(), 10), (random_tribonacci(), 8), (random_metallic(2), 5)]))
    choose = data.draw(st.randoms(use_true_random=False))
    word = "a"
    for _ in range(level):
        word = "".join(choose.choice(sub.rule[c]) for c in word)
    image = "".join(choose.choice(sub.rule[c]) for c in word)
    assert len(image) >= 200
    extended = make_substitution({**sub.rule, "s": (word,)})
    dag = build_dag(extended, 2)
    i = data.draw(st.integers(0, len(image) - 1))
    letter = data.draw(st.sampled_from("abc"))
    for candidate in (image, image[:i] + letter + image[i + 1:],
                      image[:i] + image[i + 1:i + 2] + image[i:i + 1] + image[i + 2:]):
        assert in_image(sub, word, candidate) == dag.contains(candidate, "s", 2)


uniform_length_rules = st.sampled_from(["ab", "abc"]).flatmap(
    lambda alpha: st.fixed_dictionaries({
        a: st.integers(1, 3).flatmap(
            lambda size, alpha=alpha: st.sets(
                st.text(alphabet=alpha, min_size=size, max_size=size),
                min_size=1, max_size=3))
        for a in alpha
    })
)


@st.composite
def trimmed_image_cases(draw):
    """A uniform-length rule, a word, the word's first-image spelling with
    0-3 slots re-chosen at the first letter, at the last, in adjacent
    positions or in the middle, and the character span of the re-chosen
    slots, which holds the window the trims leave (None if none was)."""
    sub = draw(st.one_of(
        st.sampled_from([random_fibonacci(), random_tribonacci(),
                         random_metallic(2), random_kbonacci(4),
                         metallic_pisa(3, 2)]),
        uniform_length_rules.map(make_substitution)))
    size = draw(st.sampled_from([(1, 6), (20, 60)]), label="size")
    word = draw(st.text(alphabet="".join(sub.alphabet), min_size=size[0],
                        max_size=size[1]))
    m, count = len(word), draw(st.integers(0, 3))
    where = draw(st.sampled_from(["first", "last", "adjacent", "middle"]))
    if where == "first":
        slots = range(min(count, m))
    elif where == "last":
        slots = range(max(m - count, 0), m)
    elif where == "adjacent":
        start = draw(st.integers(0, m - 1))
        slots = range(start, min(start + count, m))
    else:
        inner = range(1, m - 1) if m > 2 else range(m)
        slots = sorted(set(draw(st.lists(st.sampled_from(inner),
                                         min_size=count, max_size=count))))
    chunks = [sub.rule[c][0] for c in word]
    for i in slots:
        chunks[i] = draw(st.sampled_from(sub.rule[word[i]][1:] or sub.rule[word[i]]))
    starts = list(itertools.accumulate(map(len, chunks), initial=0))
    window = (starts[min(slots)], starts[max(slots) + 1]) if slots else None
    return sub, word, "".join(chunks), window


@given(case=trimmed_image_cases(), data=st.data())
@settings(max_examples=300, deadline=None)
def test_trimmed_in_image_matches_oracles(case, data):
    # short words against apply; long ones against the DAG of a fresh
    # letter whose only image is the word, as in the test above
    sub, word, member, window = case
    if len(word) <= 6:
        images = apply(sub, word)
        oracle = images.__contains__
    else:
        dag = build_dag(make_substitution({**sub.rule, "s": (word,)}), 2)

        def oracle(candidate):
            return dag.contains(candidate, "s", 2)
    assert in_image(sub, word, member) and oracle(member)
    # near misses at the window's edges, or anywhere when nothing changed
    if window is None:
        edges = [data.draw(st.integers(0, len(member) - 1), label="edge")]
    else:
        edges = [window[0] - 1, window[0], window[1] - 1, window[1]]
    letter = data.draw(st.sampled_from(sub.alphabet + ("z",)), label="letter")
    for i in edges:
        if not 0 <= i <= len(member):
            continue
        for near in (member[:i] + letter + member[i + 1:],
                     member[:i] + member[i + 1:i + 2] + member[i:i + 1] + member[i + 2:],
                     member[:i] + letter + member[i:],
                     member[:i] + member[i + 1:]):
            assert in_image(sub, word, near) == oracle(near), (i, near)


def test_in_image_trims_only_uniform_length_rules():
    # with images of several lengths the slots move: a|aa and aa|a both
    # spell aaa, so the first-image trim must not run
    sub = make_substitution({"a": ("a", "aa"), "b": ("ab",)})
    assert in_image(sub, "aa", "aaa") and in_image(sub, "aba", "aabaa")
    assert "first_images" not in vars(sub)
    # a uniform-length rule trims from four letters on, and matches a
    # shorter word letter by letter
    fib = random_fibonacci()
    assert in_image(fib, "aba", "baaab") and "first_images" not in vars(fib)
    assert in_image(fib, "abaa", "baaabab") and "first_images" in vars(fib)


def test_rules_text_round_trip():
    for sub in (random_fibonacci(), random_tribonacci(), random_metallic(3)):
        text = format_rules(sub)
        again = parse_rules(text)
        assert again.rule == sub.rule
        assert again.alphabet == sub.alphabet
    assert "a -> {ab, ba}" in format_rules(random_fibonacci())
    # blank and '#' comment lines are skipped
    text = "# fibonacci\n\na -> {ab, ba}\n   \nb -> {a}\n"
    assert parse_rules(text).rule == random_fibonacci().rule


def test_parse_rules_rejects_bad_input():
    with pytest.raises(ValueError):
        parse_rules("a = {ab}")
    with pytest.raises(ValueError):
        parse_rules("a -> {ab, ba}\na -> {a}")
    with pytest.raises(ValueError):
        parse_rules("a -> {ab, bx}")
