import gc
import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import replay_each

from zeckmix import language, semimixing
from zeckmix.errors import (
    GuardExceededError,
    IllegalWordError,
    UnsupportedFamilyError,
)
from zeckmix.language import is_legal, language_of_length
from zeckmix.numeration import DigitString, decode, encode_greedy
from zeckmix.semimixing import (
    Family,
    SeedSet,
    certificate_report,
    certify,
    check_empirical,
    corrupt_step,
    derive_witness,
    make_seed_set,
    parse_certificate,
    parse_family,
    seed_sets,
    verify_certificate,
    witness_for_length,
)
from zeckmix.substitution import (
    apply,
    build_dag,
    make_substitution,
    random_fibonacci,
    random_kbonacci,
    random_metallic,
    random_tribonacci,
)

FIB = Family("fibonacci")
TRIB = Family("tribonacci")
MET2 = Family("metallic", (2,))


def test_seed_sets_paper_families():
    s1 = seed_sets(FIB)
    assert s1.words == ("ab", "ba") and s1.length == 2 and s1.proper
    st = seed_sets(TRIB)
    assert set(st.words) == {"ab", "ba", "ac", "ca"}
    sm = seed_sets(MET2)
    assert set(sm.words) == {"aab", "aba", "baa"}
    sk = seed_sets(Family("kbonacci", (3,)))
    assert set(sk.words) == {"aa", "ab", "ba", "ac", "ca"}
    sp = seed_sets(Family("metallic-pisa", (3, 2)))
    assert set(sp.words) == {
        "baa", "aba", "aab", "caa", "aca", "aac"
    }


def test_seed_set_properness():
    fib = random_fibonacci()
    # aa is legal but outside S1, so S1 is proper
    assert "aa" in language_of_length(fib, 2)
    with pytest.raises(ValueError):
        make_seed_set(fib, ["aa", "ab", "ba", "bb"])  # the whole language
    with pytest.raises(IllegalWordError):
        make_seed_set(fib, ["bbb"])
    with pytest.raises(ValueError):
        make_seed_set(fib, ["a", "ab"])  # mixed lengths


def test_make_seed_set_rejects_illegal():
    trib = random_tribonacci()
    with pytest.raises(IllegalWordError):
        make_seed_set(trib, ["ccc"])


def test_check_empirical_fibonacci_source_a():
    fib = random_fibonacci()
    table = check_empirical(fib, seed_sets(FIB), "a", 20)
    assert table.threshold is not None
    for n in range(table.threshold, 21):
        entry = table.entries[n]
        assert entry is not None and len(entry.u) == n
        assert entry.s in ("ab", "ba")
        assert entry.evidence.legal


def test_check_empirical_single_letter_seed():
    fib = random_fibonacci()
    seeds = make_seed_set(fib, ["a"])
    table = check_empirical(fib, seeds, "b", 15)
    assert table.threshold is not None


def test_check_empirical_degenerate_horizon():
    fib = random_fibonacci()
    table = check_empirical(fib, seed_sets(FIB), "a", 0)
    assert table.horizon == 0 and len(table.entries) == 1
    entry = table.entries[0]
    assert entry is not None and entry.u == ""
    assert is_legal(fib, "a" + entry.s, want_witness=False).legal


def test_check_empirical_keyword_edges():
    fib = random_fibonacci()
    seeds = seed_sets(FIB)
    table = check_empirical(fib, seeds, "a", 5, horizon_guard=5)
    assert len(table.entries) == 6
    assert table.to_report() == check_empirical(fib, seeds, "a", 5).to_report()
    with pytest.raises(GuardExceededError):
        check_empirical(fib, seeds, "a", 6, horizon_guard=5)
    with pytest.raises(ValueError):
        check_empirical(fib, seeds, "a", -1)
    assert len(check_empirical(fib, seeds, "a", 0).entries) == 1
    unvalidated = SeedSet(seeds.words, seeds.length, False)
    with pytest.raises(ValueError):
        check_empirical(fib, unvalidated, "a", 3)


def _thread_jobs(fib, custom):
    """The jobs every thread runs, on the given substitutions."""
    cert = certify(fib, FIB, "ab")
    bad = corrupt_step(cert, "ab", 0, "abb")
    deep_ns = range(cert.threshold, cert.threshold + 40)
    return [
        lambda: check_empirical(fib, seed_sets(FIB, fib), "a", 40).to_report(),
        lambda: check_empirical(
            custom, make_seed_set(custom, ("ab", "ba")), "ab", 12).to_report(),
        lambda: verify_certificate(cert, deep_ns, deep=True),
        lambda: verify_certificate(bad, range(bad.threshold, bad.threshold + 8)),
    ]


def test_check_empirical_shared_across_threads():
    # one substitution, seed set and certificate per job, used by every
    # thread at once: each call's extraction memo and batch table are its
    # own and are dropped when the call returns, while the threads race to
    # fill each substitution's cold extraction store.  Every outcome, and
    # each store, must be the one a serial run on equal but separate
    # substitutions gives
    custom_rule = {"a": ("ab", "ba"), "b": ("ac", "ca"), "c": ("a", "aa")}
    serial_subs = random_fibonacci(), make_substitution(custom_rule)
    serial = [job() for job in _thread_jobs(*serial_subs)]
    assert serial[2].ok and serial[2].checked == 40
    assert not serial[3].ok
    subs = random_fibonacci(), make_substitution(custom_rule)
    jobs = _thread_jobs(*subs)
    assert not any("_extraction_store" in vars(sub) for sub in subs)
    n_threads = 4
    start = threading.Barrier(n_threads, timeout=60)
    outcomes = [None] * n_threads
    errors = []

    def work(k):
        try:
            start.wait()
            got = []
            for job in jobs[k:] + jobs[:k]:
                got.append(job())
                # the memo and the batch table went with the call
                assert language._SHARED_MEMO.get() is None
            outcomes[k] = got
        except Exception as exc:  # reported below, on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(k,), daemon=True)
               for k in range(n_threads)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
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
    for sub, alone in zip(subs, serial_subs):
        assert sub._extraction_store == alone._extraction_store


def _replay_calls():
    cert = certify(random_fibonacci(), FIB, "a")
    span = range(cert.threshold, cert.threshold + 30)
    bad = cert._replace(letter_images={"a": "ab"})
    return {
        "deep": lambda: verify_certificate(cert, span),
        "shallow": lambda: verify_certificate(cert, span, deep=False),
        "corrupted deep": lambda: verify_certificate(bad, span),
        "corrupted shallow": lambda: verify_certificate(bad, span, deep=False),
    }


@pytest.mark.parametrize("name", list(_replay_calls()))
def test_verify_certificate_leaves_no_cyclic_garbage(name):
    # the replay walks the trie on an explicit stack, not a self-referencing
    # closure, so a call, passing or failing inside the walk, leaves
    # nothing that only the cyclic collector can free
    call = _replay_calls()[name]
    gc.collect()
    gc.disable()
    try:
        outcome = call()
        assert outcome.ok != name.startswith("corrupted")
        assert outcome.checked == (2 if name.startswith("corrupted") else 30)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _digits(cert, n):
    return semimixing._gap_digits(cert, n, cert.family.scheme())


def _rig_steps(monkeypatch, cert, changes):
    """Patch semimixing._next_step so that the step at each digit prefix in
    `changes` comes out changed by its function; derive_witness, and so
    replay_each, derives through the same patched function."""
    real = semimixing._next_step
    at = {}
    for prefix, change in changes.items():
        step = None
        for digit in prefix:
            step = real(cert, step, digit)
        at[step] = change   # a step is unique to its prefix

    def rigged(c, prev, digit):
        step = real(c, prev, digit)
        return at[step](step) if step in at else step

    monkeypatch.setattr(semimixing, "_next_step", rigged)


def test_verify_certificate_reports_failures_in_order(monkeypatch):
    # contexts are decided in batches as the walk reaches them, but the
    # outcome is that of checking each n in turn: the first failing n wins,
    # whatever fails later or raises
    fib = random_fibonacci()
    cert = certify(fib, FIB, "a")
    t = cert.threshold
    monkeypatch.setattr(semimixing, "_WITNESS_LENGTH_GUARD", t + 3)

    def all_b(step):    # b in place of every letter of the word
        b = "b" * len(step.word)
        return step._replace(word=b, element=b + step.element[len(b):])

    _rig_steps(monkeypatch, cert, {_digits(cert, t + 2): all_b})
    u, s, _ = derive_witness(cert, t + 2)
    assert u == cert.y + "b" * (t + 2 - len(cert.y))
    illegal = f"context {'a' + u + s!r} is not legal"
    for ns in (range(t, t + 6), [t, t + 1, t + 2, t + 4]):
        outcome = verify_certificate(cert, ns, deep=False)
        assert (outcome.ok, outcome.checked) == (False, 2)
        assert outcome.counterexample == (t + 2, illegal)
        assert replay_each(cert, ns, False) == (False, 2, (t + 2, illegal))
    for check in (verify_certificate, replay_each):
        with pytest.raises(GuardExceededError):
            check(cert, [t, t + 4, t + 2, t - 1], False)

    def past_the_guard():   # ns is read no further than its first failure
        yield from (t, t + 1, t + 4)
        raise AssertionError("ns was read past the guard")

    with pytest.raises(GuardExceededError):
        verify_certificate(cert, past_the_guard(), deep=False)
    below = f"derivation failed: n must be at least the threshold {t}"
    ns = [t + 1, t - 1, t + 4, t - 2]
    outcome = verify_certificate(cert, ns, deep=False)
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, False) == (False, 1, (t - 1, below))
    assert verify_certificate(cert, [t + 3, t + 1], deep=False).checked == 2
    assert language._SHARED_MEMO.get() is None


def test_replay_skips_what_follows_a_failure(monkeypatch):
    # the walk reaches n = 6 (digits 1000) before n = 5 (digits 101): once
    # n = 6 fails, nothing at or after its position in ns is derived, so
    # the broken step of n = 5 is seen only when n = 5 comes first
    cert = certify(random_fibonacci(), FIB, "ab")
    assert (_digits(cert, 6), _digits(cert, 5)) == ((1, 0, 0, 0), (1, 0, 1))

    def missing(step):
        raise KeyError("missing")

    _rig_steps(monkeypatch, cert, {
        _digits(cert, 6): lambda step: step._replace(seed="aa"),
        _digits(cert, 5): missing})
    for ns, reason in (([6, 5], "witness seed 'aa' is not in the seed set"),
                       ([5, 6], "derivation failed: 'missing'")):
        outcome = verify_certificate(cert, ns)
        assert (outcome.ok, outcome.checked, outcome.counterexample) == \
            replay_each(cert, ns, True) == (False, 0, (ns[0], reason))


def test_verify_certificate_one_context_per_batch(monkeypatch):
    # with a batch bound below every context's length, each context closes
    # its own batch and is decided in a block of its own; the outcomes stay
    # those of checking each n alone, so the contexts pending before a
    # failing derivation are decided before it is reported
    lanes = []
    real = language._pattern_search

    def counting(sub, patterns, *args):
        lanes.append(len(patterns))
        return real(sub, patterns, *args)

    monkeypatch.setattr(semimixing, "_BATCH_CHARS", 1)
    monkeypatch.setattr(language, "_pattern_search", counting)
    for family in _REPLAY_FAMILIES[:3]:
        for cert in _replay_certificates(family)[1][:2]:
            t = cert.threshold
            for ns, deep in ((range(t, t + 12), True),
                             ([t + 3, t + 1, t + 3, t - 1, t + 2], False)):
                outcome = verify_certificate(cert, ns, deep=deep)
                assert (outcome.ok, outcome.checked, outcome.counterexample) \
                    == replay_each(cert, ns, deep)
    test_verify_certificate_reports_failures_in_order(monkeypatch)
    assert lanes and set(lanes) == {1}


def test_check_empirical_rejects_illegal_source():
    fib = random_fibonacci()
    with pytest.raises(IllegalWordError):
        check_empirical(fib, seed_sets(FIB), "bbb", 5)


def test_check_empirical_matches_blind_enumeration():
    fib = random_fibonacci()
    seeds = make_seed_set(fib, ["bb"])
    table = check_empirical(fib, seeds, "b", 8)
    assert table.entries[0] is None  # bbb is illegal
    assert table.threshold == 1
    assert table.to_report().splitlines()[5:7] == [
        "n=0 witnessed=no", f"n=1 u={table.entries[1].u} s=bb verified=yes"]
    for n in range(9):
        blind = any(
            is_legal(fib, "b" + "".join(mid) + "bb", want_witness=False).legal
            for mid in itertools.product("ab", repeat=n)
        )
        assert blind == (table.entries[n] is not None), n


def test_witness_table_report_shape():
    fib = random_fibonacci()
    table = check_empirical(fib, seed_sets(FIB), "a", 4)
    report = table.to_report()
    assert report.splitlines()[0] == "# zeckmix witness-table v1"
    assert "threshold_on_horizon:" in report
    assert "n=4" in report


@pytest.mark.parametrize("family,sub,word,span", [
    (FIB, random_fibonacci(), "a", 30),
    (FIB, random_fibonacci(), "abba", 30),
    (TRIB, random_tribonacci(), "ab", 20),
    (TRIB, random_tribonacci(), "caa", 20),
    (MET2, random_metallic(2), "aa", 20),
    (MET2, random_metallic(2), "bab", 20),
])
def test_certify_and_verify(family, sub, word, span):
    cert = certify(sub, family, word)
    assert cert.w_prime == cert.x + word + cert.y
    assert cert.threshold == len(cert.y) + cert.n0
    outcome = verify_certificate(
        cert, range(cert.threshold, cert.threshold + span + 1)
    )
    assert outcome.ok, outcome.counterexample
    assert outcome.checked == span + 1


def test_verify_certificate_empty_range():
    fib = random_fibonacci()
    cert = certify(fib, FIB, "a")
    outcome = verify_certificate(cert, range(cert.threshold, cert.threshold))
    assert outcome.ok and outcome.checked == 0


def test_certify_metallic_higher_degrees():
    # wider ranges exercise base cases with leading digits above 1
    for m in (1, 3, 4):
        fam = Family("metallic", (m,))
        sub = fam.substitution()
        for w in ("a", "b", "aa"):
            cert = certify(sub, fam, w)
            outcome = verify_certificate(
                cert, range(cert.threshold, cert.threshold + 41)
            )
            assert outcome.ok, (m, w, outcome.counterexample)


def test_witness_for_length_properties():
    fib = random_fibonacci()
    cert = certify(fib, FIB, "a")
    for n in (cert.threshold, cert.threshold + 1, cert.threshold + 13):
        u, s = witness_for_length(cert, n)
        assert len(u) == n and s in cert.seeds
        assert is_legal(fib, "a" + u + s, want_witness=False).legal
    with pytest.raises(ValueError):
        witness_for_length(cert, cert.threshold - 1)


def test_derivation_digit_bookkeeping():
    # the intermediate word length equals the numeration value of the
    # digits consumed so far
    m2 = random_metallic(2)
    cert = certify(m2, MET2, "aa")
    scheme = MET2.scheme()
    n = cert.threshold + 17
    u, s, steps = derive_witness(cert, n)
    consumed = []
    for step in steps:
        consumed.append(step.digit)
        assert len(step.word) == decode(DigitString(tuple(consumed), scheme))
        assert step.element.startswith(step.word + step.seed)
    assert tuple(consumed) == encode_greedy(scheme, n - len(cert.y)).digits
    assert cert.y + steps[-1].word == u


def test_derivation_steps_replay_in_dag():
    trib = random_tribonacci()
    cert = certify(trib, TRIB, "ab")
    _, _, steps = derive_witness(cert, cert.threshold + 9)
    for step in steps:
        dag = build_dag(trib, step.level)
        assert dag.contains(step.element, "a", step.level)


CRITERION_6_GRID = [(FIB, 30), (TRIB, 20), (MET2, 20)]


def _first_ten_words(sub):
    words = []
    for length in (1, 2, 3, 4):
        words.extend(language_of_length(sub, length))
        if len(words) >= 10:
            break
    return words[:10]


@pytest.mark.parametrize("family,span", CRITERION_6_GRID)
def test_inflation_chain_agrees_with_dag(family, span):
    # every final element the per-step image chain accepts is a level-L
    # inflation word of a by independent DAG membership
    sub = family.substitution()
    for w in _first_ten_words(sub):
        cert = certify(sub, family, w)
        base_alternatives = {lead: e0 for lead, (_, _, e0) in cert.base_table.items()}
        for n in range(cert.threshold, cert.threshold + span + 1):
            _, _, steps = derive_witness(cert, n)
            assert all(semimixing._links(sub, base_alternatives, prev, step)
                       for prev, step in zip([None, *steps], steps))
            final = steps[-1]
            assert build_dag(sub, final.level).contains(final.element, "a", final.level)


def test_deep_verification_catches_broken_final_element(monkeypatch):
    fib = random_fibonacci()
    cert = certify(fib, FIB, "ab")
    ns = range(cert.threshold, cert.threshold + 12)
    bad_n = cert.threshold + 7

    def broken_tail(step):
        keep = len(step.word) + len(step.seed)
        tail = step.element[keep:]
        assert tail, "the element needs a tail to break"
        element = step.element[:keep] + tail[:-1]
        assert not build_dag(fib, step.level).contains(element, "a", step.level)
        return step._replace(element=element)

    _rig_steps(monkeypatch, cert, {_digits(cert, bad_n): broken_tail})
    outcome = verify_certificate(cert, ns, deep=True)
    assert not outcome.ok
    assert outcome.counterexample == (bad_n, "final element is not an inflation word of a")
    assert outcome.checked == bad_n - cert.threshold
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, True)
    shallow = verify_certificate(cert, ns, deep=False)
    assert shallow.ok and shallow.checked == len(ns)


def test_verify_certificate_builds_one_scheme(monkeypatch):
    # the replay hands its own scheme to every derivation
    cert = certify(random_fibonacci(), FIB, "ab")
    built = []
    real = Family.scheme

    def counting(self):
        built.append(self)
        return real(self)

    monkeypatch.setattr(Family, "scheme", counting)
    ns = range(cert.threshold, cert.threshold + 10)
    for deep in (True, False):
        built.clear()
        assert verify_certificate(cert, ns, deep=deep).ok
        assert len(built) == 1
    built.clear()
    n = cert.threshold + 3
    _, _, steps = derive_witness(cert, n)
    assert len(built) == 1
    assert tuple(step.digit for step in steps) == \
        encode_greedy(real(FIB), n - len(cert.y)).digits


def test_deep_verification_anchors_the_chain_at_level_two(monkeypatch):
    # every link is still an image one level up, but the chain claims to
    # start at level 3, where no base element was checked: only the base
    # step is rigged, and each later step's level is its parent's plus one
    fib = random_fibonacci()
    cert = certify(fib, FIB, "a")
    _rig_steps(monkeypatch, cert, {
        (lead,): lambda step: step._replace(level=3) for lead in cert.base_table})
    ns = [cert.threshold + 4]
    assert [step.level for step in derive_witness(cert, ns[0])[2]] == [3, 4, 5, 6]
    outcome = verify_certificate(cert, ns, deep=True)
    assert outcome.counterexample == (
        ns[0], "final element is not an inflation word of a")
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, True)
    assert verify_certificate(cert, ns, deep=False).ok


def _shared_prefix_pair(cert):
    """Gap lengths n_small < n_big, n_small's digit string at least three
    digits long and a prefix of n_big's, so both derivations pass its
    last step."""
    scheme = cert.family.scheme()
    digits = {n: encode_greedy(scheme, n - len(cert.y)).digits
              for n in range(cert.threshold, cert.threshold + 60)}
    for small, big in itertools.combinations(sorted(digits), 2):
        if len(digits[small]) >= 3 and digits[big][:len(digits[small])] == digits[small]:
            return small, big
    raise AssertionError("no shared prefix")


@pytest.mark.parametrize("part", ["element", "seed"])
@pytest.mark.parametrize("order", ["small first", "big first"])
def test_replay_rechecks_a_changed_step_at_a_shared_prefix(monkeypatch, order, part):
    # a broken step at the digit prefix that two gap lengths share: an
    # element that is no image of the one before, or one that no longer
    # holds the seed after the word; the walk derives and checks the step
    # once for both, and the first of them in ns order is reported, in
    # either order, as replaying each n alone reports it
    fib = random_fibonacci()
    cert = certify(fib, FIB, "ab")
    small, big = _shared_prefix_pair(cert)
    level = derive_witness(cert, small)[2][-1].level
    flip = {"a": "b", "b": "a"}

    def broken(step):
        i = len(step.element) - 1 if part == "element" else len(step.word)
        element = step.element[:i] + flip[step.element[i]] + step.element[i + 1:]
        assert element.startswith(step.word + step.seed) == (part == "element")
        return step._replace(element=element)

    _rig_steps(monkeypatch, cert, {_digits(cert, small): broken})
    ns = [small, big] if order == "small first" else [big, small]
    deep = part == "element"
    outcome = verify_certificate(cert, ns, deep=deep)
    assert outcome.counterexample == (ns[0], {
        "element": "final element is not an inflation word of a",
        "seed": f"prefix invariant broken at level {level}"}[part])
    assert outcome.checked == 0
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, deep)


_REPLAY_FAMILIES = (FIB, TRIB, *(Family("metallic", (m,)) for m in (1, 2, 3)))
_REPLAY_CERTS: dict = {}


def _replay_certificates(family):
    if family not in _REPLAY_CERTS:
        sub = family.substitution()
        words = [w for n in (1, 2, 3) for w in language_of_length(sub, n)]
        _REPLAY_CERTS[family] = (sub, [certify(sub, family, w) for w in words[:6]])
    return _REPLAY_CERTS[family]


@st.composite
def replay_cases(draw):
    """A certificate, maybe corrupted at one step, gap lengths and depth."""
    family = draw(st.sampled_from(_REPLAY_FAMILIES))
    sub, certs = _replay_certificates(family)
    cert = draw(st.sampled_from(certs))
    kind = draw(st.sampled_from(
        ["none", "random", "image", "foreign letter", "foreign seed"]))
    if kind != "none":
        seed, digit = draw(st.sampled_from(sorted(cert.step_table)))
        original = cert.step_table[(seed, digit)]
        letters = "".join(sub.alphabet)
        if kind == "image":         # a true image, maybe a non-seed follower
            word = draw(st.sampled_from(sorted(apply(sub, seed))))
        else:
            size = max(1, len(original) + draw(st.integers(-1, 1)))
            word = draw(st.text(letters, min_size=size, max_size=size))
            if kind == "foreign letter":
                i = draw(st.integers(0, size - 1))
                word = word[:i] + "z" + word[i + 1:]
        if kind == "foreign seed":
            seed = draw(st.sampled_from(["z" + seed[1:], seed[::-1] + "a"]))
        cert = corrupt_step(cert, seed, digit, word)
    t = cert.threshold
    if draw(st.booleans()):
        start = t + draw(st.integers(-2, 3))
        ns = range(start, start + draw(st.integers(0, 20)))
    else:
        ns = draw(st.lists(st.integers(t - 1, t + 30), max_size=12))
    return cert, ns, draw(st.booleans())


@given(case=replay_cases())
@settings(max_examples=120, deadline=None)
def test_verify_certificate_matches_replay_each(case):
    # the prefix-trie replay decides exactly as replaying each n alone
    cert, ns, deep = case
    outcome = verify_certificate(cert, ns, deep=deep)
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, deep)


def _bookkeeping_off(step):
    # one a of the word becomes bb: the word grows by one letter, but its
    # image (a -> ab, b -> a) keeps its length, so the next step's word has
    # the right length
    word = step.word.replace("a", "bb", 1)
    return step._replace(word=word, element=word + step.element[len(step.word):])


# on the fibonacci certificate for "ab" (threshold 2, base table {1: (a, ab,
# aab)}, n = 7 derived in four steps): a corrupted field or table fails the
# preamble (n = -1), and a rigged step on the path of n = 7, at the prefix of
# its first `depth` digits, fails n = 7, which is checked first
_REASONS = [
    pytest.param("embedding split does not reassemble w_prime",
                 lambda c: c._replace(x=c.x + "a"), None, id="embedding"),
    pytest.param("w_prime is not a level-2 inflation word of a",
                 lambda c: c._replace(w_prime=c.w_prime + "bbb", y=c.y + "bbb"),
                 None, id="w_prime level"),
    pytest.param("threshold does not equal |y| + n0",
                 lambda c: c._replace(threshold=c.threshold + 1), None,
                 id="threshold"),
    pytest.param("n0 is not the recorded sequence term",
                 lambda c: c._replace(n0=c.n0 + 1, threshold=c.threshold + 1),
                 None, id="n0"),
    pytest.param("letter image a->bb is not a rule image",
                 lambda c: c._replace(letter_images={**c.letter_images, "a": "bb"}),
                 None, id="letter image"),
    pytest.param("base seed 'aa' is not in the seed set",
                 lambda c: c._replace(base_table={1: ("a", "aa", "aaa")}), None,
                 id="base seed"),
    pytest.param("base word for digit 1 is not a prefix of e0",
                 lambda c: c._replace(base_table={1: ("a", "ab", "aba")}), None,
                 id="base prefix"),
    pytest.param("base word for digit 2 has the wrong length",
                 lambda c: c._replace(base_table={2: ("a", "ab", "aab")}), None,
                 id="base length"),
    pytest.param("base element for digit 1 is not level-2",
                 lambda c: c._replace(base_table={1: ("a", "ab", "aabb")}), None,
                 id="base level-2"),
    pytest.param("step seed 'zb' is not in the seed set",
                 lambda c: corrupt_step(c, "zb", 0, "aba"), None, id="step seed"),
    pytest.param("step word 'abb' is not an image of 'ab'",
                 lambda c: corrupt_step(c, "ab", 0, "abb"), None, id="step image"),
    pytest.param("step word 'aba' too short for digit 2",
                 lambda c: corrupt_step(c, "ab", 2, "aba"), None,
                 id="step too short"),
    pytest.param("step ('ab', 1) yields a non-seed follower",
                 lambda c: corrupt_step(c, "ab", 1, "baa"), None,
                 id="step follower"),
    pytest.param("witness has length 8, expected 7", None,
                 (4, lambda step: step._replace(word=step.word + "a")),
                 id="witness length"),
    pytest.param("witness seed 'aa' is not in the seed set", None,
                 (4, lambda step: step._replace(seed="aa")), id="witness seed"),
    pytest.param("digit bookkeeping broken at level 4", None,
                 (3, _bookkeeping_off), id="bookkeeping"),
]


@pytest.mark.parametrize("reason, corrupt, rig", _REASONS)
def test_every_counterexample_reason(monkeypatch, reason, corrupt, rig):
    # every preamble reason and the per-n reasons no other test produces,
    # each decided as the oracle that replays one n at a time decides it
    cert = certify(random_fibonacci(), FIB, "ab")
    assert (cert.threshold, cert.base_table) == (2, {1: ("a", "ab", "aab")})
    ns = range(2, 12)
    if corrupt is not None:
        cert = corrupt(cert)
    if rig is not None:
        depth, change = rig
        _rig_steps(monkeypatch, cert, {_digits(cert, 7)[:depth]: change})
        ns = [7, *ns]
    outcome = verify_certificate(cert, ns)
    assert outcome.counterexample == (-1 if rig is None else 7, reason)
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        replay_each(cert, ns, True)


def test_empirical_threshold_below_certificate_threshold():
    for family, sub, horizon in ((FIB, random_fibonacci(), 25),
                                 (TRIB, random_tribonacci(), 20),
                                 (MET2, random_metallic(2), 20)):
        seeds = seed_sets(family)
        for w in list(language_of_length(sub, 2))[:4]:
            cert = certify(sub, family, w)
            table = check_empirical(sub, seeds, w, horizon)
            assert table.threshold is not None
            assert table.threshold <= cert.threshold <= horizon


def test_empirical_checker_covers_kbonacci_and_pisa():
    from zeckmix.substitution import metallic_pisa, random_kbonacci

    k4 = Family("kbonacci", (4,))
    sub = random_kbonacci(4)
    table = check_empirical(sub, seed_sets(k4, sub), "ad", 12)
    assert table.threshold is not None
    for n in range(table.threshold, 13):
        entry = table.entries[n]
        assert entry is not None and entry.evidence.legal

    pisa = Family("metallic-pisa", (3, 2))
    sub = metallic_pisa(3, 2)
    table = check_empirical(sub, seed_sets(pisa, sub), "ac", 10)
    assert table.threshold is not None
    for n in range(table.threshold, 11):
        assert table.entries[n] is not None


def test_certify_rejects_illegal_word():
    with pytest.raises(IllegalWordError):
        certify(random_fibonacci(), FIB, "bbb")


def test_certify_rejects_family_mismatch():
    with pytest.raises(UnsupportedFamilyError):
        certify(random_tribonacci(), FIB, "a")


def test_certify_rejects_empirical_only_families():
    from zeckmix.substitution import metallic_pisa, random_kbonacci

    with pytest.raises(UnsupportedFamilyError):
        certify(random_kbonacci(4), Family("kbonacci", (4,)), "a")
    with pytest.raises(UnsupportedFamilyError):
        certify(metallic_pisa(3, 2), Family("metallic-pisa", (3, 2)), "a")


def test_certify_normalizes_small_kbonacci():
    cert = certify(random_fibonacci(), Family("kbonacci", (2,)), "a")
    assert cert.family == FIB
    cert = certify(random_tribonacci(), Family("kbonacci", (3,)), "a")
    assert cert.family == TRIB
    for m in (1, 2, 3):
        cert = certify(random_metallic(m), Family("metallic-pisa", (2, m)), "a")
        assert certificate_report(cert).splitlines()[1] == f"family: metallic m={m}"
    # the same rules under a family with no alias stay uncertified
    with pytest.raises(UnsupportedFamilyError):
        certify(random_kbonacci(4), Family("kbonacci", (4,)), "a")
    with pytest.raises(UnsupportedFamilyError):
        certify(random_tribonacci(), Family("metallic-pisa", (3, 1)), "a")


def test_fault_injection_detected():
    fib = random_fibonacci()
    cert = certify(fib, FIB, "a")
    bad = corrupt_step(cert, "ab", 0, "abb")  # not an image of ab
    outcome = verify_certificate(bad, range(bad.threshold, bad.threshold + 5))
    assert not outcome.ok and outcome.counterexample is not None
    # a valid image whose digit-1 split leaves the seed set
    bad2 = corrupt_step(cert, "ab", 1, "baa")  # follower would be "aa"
    outcome2 = verify_certificate(bad2, range(bad2.threshold, bad2.threshold + 5))
    assert not outcome2.ok
    # swapping in the other valid image with a valid follower stays sound
    benign = corrupt_step(cert, "ab", 0, "baa")  # follower "ba" is a seed
    assert verify_certificate(benign, range(benign.threshold, benign.threshold + 5)).ok


@pytest.mark.parametrize("deep", [True, False])
@pytest.mark.parametrize("lead, expected", [
    (1, (False, 0, (7, "derivation failed: no base-case entry for leading digit 1"))),
    (2, (False, 1, (8, "derivation failed: no base-case entry for leading digit 2")))])
def test_missing_base_entry_fails_the_derivation(deep, lead, expected):
    # a leading digit the base table lacks stops the first derivation that
    # starts with it; an outcome is true exactly when it is ok
    cert = certify(random_metallic(2), MET2, "a")
    assert bool(verify_certificate(cert, range(cert.threshold, cert.threshold + 5)))
    bad = cert._replace(base_table={
        digit: entry for digit, entry in cert.base_table.items() if digit != lead})
    outcome = verify_certificate(
        bad, range(bad.threshold, bad.threshold + 30), deep=deep)
    assert (outcome.ok, outcome.checked, outcome.counterexample) == expected
    assert not outcome


@pytest.mark.parametrize("deep", [True, False])
def test_missing_letter_image_fails_the_derivation(deep):
    # a letter the certificate gives no image stops the derivation that
    # first expands it, rather than passing through unexpanded
    cert = certify(random_fibonacci(), FIB, "a")
    bad = cert._replace(letter_images={"a": "ab"})
    outcome = verify_certificate(
        bad, range(bad.threshold, bad.threshold + 30), deep=deep)
    assert (outcome.ok, outcome.checked, outcome.counterexample) == \
        (False, 2, (5, "derivation failed: 'b'"))


def test_fault_injection_random_corruptions():
    import random as rnd

    rng = rnd.Random(20260808)
    fib = random_fibonacci()
    trib = random_tribonacci()
    cases = [(fib, certify(fib, FIB, "ab")), (trib, certify(trib, TRIB, "a"))]
    detected, benign = 0, 0
    for _ in range(40):
        sub, cert = cases[rng.randrange(len(cases))]
        (seed, digit) = rng.choice(sorted(cert.step_table))
        letters = "".join(sub.alphabet)
        word = "".join(rng.choice(letters)
                       for _ in range(len(cert.step_table[(seed, digit)])))
        bad = corrupt_step(cert, seed, digit, word)
        outcome = verify_certificate(bad, range(bad.threshold, bad.threshold + 8))
        structurally_fine = (
            word in apply(sub, seed)
            and word[digit:digit + cert.seed_length] in cert.seeds
        )
        if not structurally_fine:
            assert not outcome.ok
            assert outcome.counterexample is not None
            detected += 1
        elif outcome.ok:
            benign += 1
    assert detected > 10


def test_certificate_report_round_trip():
    m2 = random_metallic(2)
    cert = certify(m2, MET2, "ba")
    text = certificate_report(cert)
    assert text.splitlines()[0] == "# zeckmix certificate v1"
    again = parse_certificate(text)
    assert again.family == cert.family
    assert again.source == cert.source
    assert again.w_prime == cert.w_prime
    assert again.step_table == cert.step_table
    assert again.base_table == cert.base_table
    outcome = verify_certificate(again, range(again.threshold, again.threshold + 10))
    assert outcome.ok


def test_parse_family():
    assert parse_family("fibonacci") == FIB
    assert parse_family("metallic m=3") == Family("metallic", (3,))
    assert parse_family("metallic-pisa k=3 m=2") == Family("metallic-pisa", (3, 2))
    with pytest.raises(UnsupportedFamilyError):
        parse_family("golden")
    for text, field in [("", "family"), ("kbonacci", "k="),
                        ("metallic m=3 k=9", "m="), ("metallic m=x", "m"),
                        ("kbonacci k=1", "2 <= k <= 26"),
                        ("kbonacci k=27", "2 <= k <= 26"),
                        ("metallic m=0", "m >= 1"),
                        ("metallic-pisa k=3 m=0", "m >= 1"),
                        ("metallic-pisa k=30 m=1", "2 <= k <= 26")]:
        with pytest.raises(ValueError, match=field):
            parse_family(text)
    # the range is checked when a family is built, not when a builder runs
    for name, params in [("kbonacci", (1,)), ("kbonacci", (30,)),
                         ("metallic", (0,)), ("metallic-pisa", (2, 0))]:
        with pytest.raises(ValueError, match="needs"):
            Family(name, params)
    assert Family("kbonacci", (26,)).substitution().alphabet[-1] == "z"


FAMILY_GRID = (
    [(Family("fibonacci"), 2, 1), (Family("tribonacci"), 3, 1)]
    + [(Family("kbonacci", (k,)), k, 1) for k in range(2, 6)]
    + [(Family("metallic", (m,)), 2, m) for m in range(1, 4)]
    + [(Family("metallic-pisa", (k, m)), k, m)
       for k in range(2, 5) for m in range(1, 4)]
)


@pytest.mark.parametrize("family, k, m", FAMILY_GRID,
                         ids=[f.label() for f, _, _ in FAMILY_GRID])
def test_family_table_is_metallic_pisa(family, k, m):
    from zeckmix.cli import _family_from_args, build_parser
    from zeckmix.numeration import metallic_pisa_recurrence
    from zeckmix.substitution import metallic_pisa

    sub, ref = family.substitution(), metallic_pisa(k, m)
    assert (sub.alphabet, sub.rule) == (ref.alphabet, ref.rule)
    scheme, rec = family.scheme(), metallic_pisa_recurrence(k, m)
    assert scheme.recurrence.coefficients == rec.coefficients
    assert scheme.recurrence.initial_terms == rec.initial_terms
    assert parse_family(family.label()) == family
    assert scheme.descriptor() == f"family={family.label()} base_index={k - 1}"
    name, *pairs = family.label().split()
    flags = [x for pair in pairs for x in ("--" + pair).split("=")]
    args = build_parser().parse_args(["zeck", "encode", "--family", name, *flags, "1"])
    assert _family_from_args(args) == family


def test_no_family_name_dispatch_in_library():
    # family facts live in the family registry's table; comparing a value
    # against a family name outside it would start a second dispatch chain
    import ast
    from pathlib import Path

    from zeckmix import families

    names = set(families._FAMILIES)
    found = []
    for path in sorted(Path(semimixing.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn))
                    for op in node.ops):
                operands = [node.left, *node.comparators]
            elif isinstance(node, ast.MatchValue):
                operands = [node.value]
            else:
                continue
            for operand in operands:
                for const in ast.walk(operand):
                    if isinstance(const, ast.Constant) and const.value in names:
                        found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_unused_imports_in_library():
    # a name a module imports but never reads is dead weight that hides
    # which layers depend on which; the package's __init__ re-exports its
    # imports, so it is exempt.  Likewise a top-level function or class
    # that no file of the project names, by reading, attribute or import,
    # is dead code
    import ast
    from pathlib import Path

    package = Path(semimixing.__file__).parent
    named = set()
    for part in ("src", "tests", "scripts", "zbench"):
        for path in (Path(__file__).resolve().parents[1] / part).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    named.add(node.id)
                elif isinstance(node, ast.Attribute):
                    named.add(node.attr)
                elif isinstance(node, ast.alias):
                    named.add(node.name.split(".")[-1])
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in named]
        if path.name == "__init__.py":
            continue
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used]
    assert found == []
