"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and the adjudication notes.
"""

import itertools
import math
import random
import time

from oracles import is_legal_bruteforce, window_closure

from zeckmix.language import (
    is_legal,
    language_of_length,
)
from zeckmix.numeration import (
    decode,
    digit_string_from_text,
    encode_greedy,
    enumerate_valid,
    fibonacci_scheme,
    is_valid,
    metallic_scheme,
    term,
    tribonacci_scheme,
)
from zeckmix.semimixing import (
    Family,
    certify,
    check_empirical,
    corrupt_step,
    derive_witness,
    seed_sets,
    verify_certificate,
)
from zeckmix.substitution import (
    apply,
    build_dag,
    inflation_words,
    is_pisot,
    pf_eigenvalue,
    random_fibonacci,
    random_metallic,
    random_tribonacci,
    substitution_matrix,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def _report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS - {detail}")


def test_criterion_1_round_trip_and_uniqueness():
    start = time.time()
    schemes = [fibonacci_scheme(), tribonacci_scheme()] + [
        metallic_scheme(m) for m in range(1, 6)
    ]
    for scheme in schemes:
        for n in range(100001):
            assert decode(encode_greedy(scheme, n)) == n
    round_trip_time = time.time() - start
    assert round_trip_time < 5.0, f"round trips took {round_trip_time:.1f}s"

    start = time.time()
    cases = [(fibonacci_scheme(), 14), (tribonacci_scheme(), 14),
             (metallic_scheme(1), 9), (metallic_scheme(2), 9),
             (metallic_scheme(3), 9)]
    counts = []
    for scheme, max_len in cases:
        values = [decode(d) for d in enumerate_valid(scheme, max_len)]
        assert len(set(values)) == len(values), scheme.descriptor()
        assert sorted(values) == list(range(len(values))), scheme.descriptor()
        counts.append(len(values))
    enum_time = time.time() - start
    assert enum_time < 30.0, f"enumeration took {enum_time:.1f}s"
    _report(1, f"7 schemes round-trip to 1e5 in {round_trip_time:.1f}s; "
               f"bijections onto initial segments of sizes {counts} "
               f"in {enum_time:.1f}s")


def test_criterion_2_quoted_constants():
    start = time.time()
    fib, trib = random_fibonacci(), random_tribonacci()
    assert inflation_words(fib, "a", 2) == {"aba", "baa", "aab"}
    level3 = {"abaab", "ababa", "baaab", "baaba", "aabab", "aabba",
              "abbaa", "babaa"}
    assert inflation_words(fib, "a", 3) == level3
    quoted_tau2 = {"abac", "abca", "baac", "baca"}
    tau2 = inflation_words(trib, "a", 2)
    assert quoted_tau2 == apply(trib, "ab")
    assert quoted_tau2 < tau2
    assert tau2 == apply(trib, "ab") | apply(trib, "ba")
    assert len(tau2) == 8
    assert inflation_words(random_metallic(2), "a", 1) == {"aab", "aba", "baa"}

    assert substitution_matrix(fib) == [[1, 1], [1, 0]]
    assert substitution_matrix(trib) == [[1, 1, 1], [1, 0, 0], [0, 1, 0]]
    for m in range(1, 4):
        assert substitution_matrix(random_metallic(m)) == [[m, 1], [1, 0]]

    assert abs(pf_eigenvalue(substitution_matrix(fib)) - GOLDEN) < 1e-9
    assert abs(pf_eigenvalue(substitution_matrix(trib)) - 1.83929) < 1e-4
    for m in range(1, 7):
        expected = (m + math.sqrt(m * m + 4)) / 2
        assert abs(pf_eigenvalue([[m, 1], [1, 0]]) - expected) < 1e-9
    assert is_pisot(substitution_matrix(fib))
    assert is_pisot(substitution_matrix(trib))
    assert is_pisot(substitution_matrix(random_metallic(2)))
    elapsed = time.time() - start
    assert elapsed < 1.0
    print("ADJUDICATION (level-2 tribonacci inflation words): the four "
          "quoted words are exactly the images of ab; the full level-2 set "
          "is their union with the four images of ba, eight words in all.")
    _report(2, f"inflation sets, matrices, eigenvalues, Pisot checks "
               f"in {elapsed:.2f}s")


def test_criterion_3_length_identities():
    start = time.time()
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
    for m in range(1, 6):
        scheme = metallic_scheme(m)
        dag = build_dag(random_metallic(m), 12)
        for n in range(13):
            assert dag.element_length("a", n) == term(scheme, n + 1)
            assert dag.element_length("b", n) == term(scheme, n)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(3, f"levels 0..12 for fibonacci, tribonacci, metallic m=1..5 "
               f"in {elapsed:.2f}s")


def test_criterion_4_legality_oracle_equivalence():
    start = time.time()
    total = 0
    for sub in (random_fibonacci(), random_tribonacci(), random_metallic(2)):
        alphabet = "".join(sub.alphabet)
        verdicts = {}
        worst = 0
        for length in range(1, 7):
            for tup in itertools.product(alphabet, repeat=length):
                u = "".join(tup)
                v = is_legal(sub, u, want_witness=False)
                verdicts[u] = v
                worst = max(worst, v.levels_examined)
        closure = window_closure(sub, 6, worst)
        for u, v in verdicts.items():
            level = min(v.levels_examined, worst)
            assert v.legal == (u in closure[level]), u
            total += 1
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report(4, f"{total} words of length <= 6 agree with capped brute force "
               f"in {elapsed:.1f}s")


def test_criterion_5_semimixing_empirical():
    start = time.time()
    runs = [
        (Family("fibonacci"), random_fibonacci(), 5, 40, 15),
        (Family("tribonacci"), random_tribonacci(), 4, 30, None),
        (Family("metallic", (2,)), random_metallic(2), 4, 30, None),
    ]
    stats = []
    for family, sub, max_len, horizon, bound in runs:
        seeds = seed_sets(family, sub)
        words = []
        for length in range(1, max_len + 1):
            words.extend(language_of_length(sub, length))
        worst = -1
        for w in words:
            table = check_empirical(sub, seeds, w, horizon)
            assert table.threshold is not None, (family.label(), w)
            if bound is not None:
                assert table.threshold <= bound, (family.label(), w)
            worst = max(worst, table.threshold)
            for n in range(table.threshold, horizon + 1):
                entry = table.entries[n]
                assert entry is not None
                assert len(entry.u) == n
                assert entry.s in seeds.words
                # independent replay through the legality engine
                assert entry.evidence.legal
                assert is_legal(sub, w + entry.u + entry.s,
                                want_witness=False).legal
        stats.append((family.label(), len(words), worst))
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(5, f"thresholds and replays for {stats} in {elapsed:.1f}s")


def test_criterion_6_semimixing_constructive():
    start = time.time()
    runs = [
        (Family("fibonacci"), random_fibonacci(), 30),
        (Family("tribonacci"), random_tribonacci(), 20),
        (Family("metallic", (2,)), random_metallic(2), 20),
    ]
    built = []
    for family, sub, span in runs:
        seeds = seed_sets(family, sub)
        words = []
        for length in (1, 2, 3, 4):
            words.extend(language_of_length(sub, length))
            if len(words) >= 10:
                break
        words = words[:10]
        assert len(words) == 10
        for w in words:
            cert = certify(sub, family, w)
            outcome = verify_certificate(
                cert, range(cert.threshold, cert.threshold + span + 1)
            )
            assert outcome.ok, (family.label(), w, outcome.counterexample)
            table = check_empirical(sub, seeds, w, cert.threshold)
            assert table.threshold is not None
            assert table.threshold <= cert.threshold
            built.append((family, sub, cert, span))

    rng = random.Random(1404)
    corrupted_total, must_fail_total = 0, 0
    while corrupted_total < 100:
        family, sub, cert, span = built[rng.randrange(len(built))]
        key = rng.choice(sorted(cert.step_table))
        original = cert.step_table[key]
        letters = "".join(sub.alphabet)
        length = max(1, len(original) + rng.choice((-1, 0, 1)))
        word = "".join(rng.choice(letters) for _ in range(length))
        if word == original:
            continue
        corrupted_total += 1
        bad = corrupt_step(cert, key[0], key[1], word)
        test_range = range(bad.threshold, bad.threshold + 6)
        structurally_valid = (
            word in apply(sub, key[0])
            and len(word) >= key[1] + cert.seed_length
            and word[key[1]:key[1] + cert.seed_length] in cert.seeds
        )
        illegal_context = not structurally_valid
        if structurally_valid:
            for n in test_range:
                try:
                    u, s, _ = derive_witness(bad, n)
                except Exception:
                    illegal_context = True
                    break
                if not is_legal(sub, cert.source + u + s,
                                want_witness=False).legal:
                    illegal_context = True
                    break
        outcome = verify_certificate(bad, test_range)
        if illegal_context:
            must_fail_total += 1
            assert not outcome.ok, (family.label(), key, word)
            assert outcome.counterexample is not None
        else:
            assert outcome.ok, (family.label(), key, word)
    elapsed = time.time() - start
    assert elapsed < 300.0
    _report(6, f"30 certificates verified; {corrupted_total} corruptions, "
               f"{must_fail_total} illegal-context cases all caught, "
               f"in {elapsed:.1f}s")


def test_criterion_7_adjudicated_1404():
    start = time.time()
    scheme = metallic_scheme(3)
    digits = encode_greedy(scheme, 1404)
    assert is_valid(digits)
    assert decode(digits) == 1404
    hits = [d for d in enumerate_valid(scheme, 6) if decode(d) == 1404]
    assert [d.to_text() for d in hits] == ["230301"]
    assert digits.to_text() == "230301"
    printed = digit_string_from_text(scheme, "302301")
    assert decode(printed) == 1533
    elapsed = time.time() - start
    assert elapsed < 5.0
    print("ADJUDICATION (degree-3 expansion of 1404): greedy digits are "
          "230301, valid and unique among all valid strings of length <= 6; "
          "the variant 302301 is valid but decodes to 1533, not 1404, so it "
          "disagrees with the expansion of 1404.")
    _report(7, f"greedy 230301 validated, decoded and unique; variant "
               f"302301 decodes to 1533; {elapsed:.2f}s")
