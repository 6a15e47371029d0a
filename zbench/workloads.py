"""Workload inputs and ops for the zeckmix benchmark.

Each `build_*` function returns the ops of one pass.  Fixed inputs are the same for
every seed; drawn inputs (marked `drawn`) come from finite pools through the
seed, and every pool member has a golden digest, so any seed is checked
against recorded outputs as well as by the self-checks.

Ops look library functions up on their modules when they run, never at
import, so the traced run's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import random

from harness import (
    Op,
    cli_calls,
    cli_selfcheck,
    cli_text,
    digest,
    reference_digits,
    rng_for,
)
from zeckmix import cli as zcli
from zeckmix import language as zl
from zeckmix import numeration as zn
from zeckmix import semimixing as zs
from zeckmix import substitution as zsub

# --- survey: gap-pattern search (criterion 5, scripts/semimixing_survey.py)
# (label, family or None for the custom rule, max source length, horizon)
CUSTOM_RULES = "a -> {ab, ba}\nb -> {ac, ca}\nc -> {a, aa}\n"
CUSTOM_SEEDS = ("ab", "ba")
SURVEY_PLAN = (
    ("fibonacci", ("fibonacci", ()), 3, 40),
    ("tribonacci", ("tribonacci", ()), 2, 30),
    ("metallic m=2", ("metallic", (2,)), 3, 30),
    ("kbonacci k=4", ("kbonacci", (4,)), 2, 20),
    ("custom", None, 2, 30),
)

# --- replay: constructive certificates (criterion 6)
# (label, family, deep span, shallow span): criterion 6's spans run shallow,
# twice them deep, so DAG membership on long elements carries the weight
REPLAY_PLAN = (
    ("fibonacci", ("fibonacci", ()), 60, 30),
    ("tribonacci", ("tribonacci", ()), 40, 20),
    ("metallic m=2", ("metallic", (2,)), 40, 20),
)
REPLAY_WORDS = 10
CORRUPTION_POOL = 128
CORRUPTIONS_PER_RUN = 16
CORRUPTION_SPAN = 6

# --- roundtrip: numeration (criterion 1)
ROUNDTRIP_SCHEMES = (
    ("fibonacci", ()), ("tribonacci", ()),
    ("metallic", (1,)), ("metallic", (2,)), ("metallic", (3,)),
    ("metallic", (4,)), ("metallic", (5,)),
    ("kbonacci", (4,)), ("kbonacci", (5,)), ("kbonacci", (6,)),
    ("kbonacci", (7,)), ("kbonacci", (8,)),
)
# uniqueness sweeps sized to roughly a thousand strings each
SWEEP_MAX_LEN = {
    ("fibonacci", ()): 14, ("tribonacci", ()): 11,
    ("metallic", (1,)): 14, ("metallic", (2,)): 8, ("metallic", (3,)): 6,
    ("metallic", (4,)): 5, ("metallic", (5,)): 4,
    ("kbonacci", (4,)): 11, ("kbonacci", (5,)): 10, ("kbonacci", (6,)): 10,
    ("kbonacci", (7,)): 10, ("kbonacci", (8,)): 10,
}
SMALL_BLOCK = 256
LARGE_BLOCK = 128
# n near 10**15: 72 digits for fibonacci, about 50 for the k-bonacci schemes
LARGE_STARTS = tuple(10**15 + 987_654_321 * j for j in range(32))

README_RULES = "a -> {ab, ba}\nb -> {a}\n"


def family(spec) -> zs.Family:
    name, params = spec
    return zs.Family(name, params)


def make_scheme(spec) -> zn.NumerationScheme:
    """Build a scheme through the numeration module's public constructors."""
    name, params = spec
    build = {
        "fibonacci": zn.fibonacci_scheme,
        "tribonacci": zn.tribonacci_scheme,
        "metallic": zn.metallic_scheme,
        "kbonacci": zn.kbonacci_scheme,
    }[name]
    return build(*params)


def pick(rng: random.Random, pool, count: int):
    return [pool[i] for i in sorted(rng.sample(range(len(pool)), count))]


# ---------------------------------------------------------------------------
# survey


def _language_op(label, sub, n):
    def selfcheck(words):
        if list(words) != sorted(set(words)):
            return "words are not sorted and distinct"
        for w in words:
            if len(w) != n or not zl.is_legal(sub, w, want_witness=False).legal:
                return f"{w!r} is not a legal word of length {n}"
        return None

    return Op(f"survey language_of_length {label} n={n}",
              lambda: zl.language_of_length(sub, n),
              lambda words: "\n".join(words), selfcheck)


def _check_op(label, sub, seeds, w, horizon, drawn=False):
    def selfcheck(table):
        if len(table.entries) != horizon + 1:
            return "table does not cover the horizon"
        for n, entry in enumerate(table.entries):
            if entry is None:
                continue
            if len(entry.u) != n or entry.s not in seeds.words:
                return f"malformed witness at n={n}"
            if not zl.is_legal(sub, w + entry.u + entry.s,
                               want_witness=False).legal:
                return f"witness at n={n} does not replay as legal"
        return None

    return Op(f"survey check_empirical {label} w={w} H={horizon}",
              lambda: zs.check_empirical(sub, seeds, w, horizon),
              lambda table: table.to_report(), selfcheck, drawn)


def survey_inputs():
    """(label, substitution, seed set, max_len, horizon) per family."""
    out = []
    for label, spec, max_len, horizon in SURVEY_PLAN:
        if spec is None:
            sub = zsub.parse_rules(CUSTOM_RULES)
            seeds = zs.make_seed_set(sub, CUSTOM_SEEDS)
        else:
            sub = family(spec).substitution()
            seeds = zs.seed_sets(family(spec), sub)
        out.append((label, sub, seeds, max_len, horizon))
    return out


def build_survey(seed: int, pools: dict, full: bool = False):
    rng = rng_for("survey", seed, "extra-words")
    ops = []
    for label, sub, seeds, max_len, horizon in survey_inputs():
        pool = pools["survey"][label]
        for n in range(1, max_len + 1):
            ops.append(_language_op(label, sub, n))
        for w in pool["words"]:
            ops.append(_check_op(label, sub, seeds, w, horizon))
        extra = pool["extra"] if full else pick(rng, pool["extra"], 1)
        for w in extra:
            ops.append(_check_op(label, sub, seeds, w, horizon, drawn=True))
    return ops


def survey_pools() -> dict:
    """Source words: every legal word up to max_len, plus the next length as
    the pool seeds draw from."""
    pools = {}
    for label, sub, _, max_len, _ in survey_inputs():
        words = [w for n in range(1, max_len + 1)
                 for w in zl.language_of_length(sub, n)]
        pools[label] = {"words": words,
                        "extra": list(zl.language_of_length(sub, max_len + 1))}
    return pools


# ---------------------------------------------------------------------------
# replay


def outcome_text(cert, outcome) -> str:
    return (f"ok={outcome.ok} checked={outcome.checked} "
            f"counterexample={outcome.counterexample}\n"
            f"cert={digest(zs.certificate_report(cert))}")


def _verify_op(label, cert, span, deep):
    ns = range(cert.threshold, cert.threshold + span + 1)

    def selfcheck(outcome):
        if not outcome.ok or outcome.checked != len(ns):
            return f"certificate did not verify: {outcome.counterexample}"
        return None

    return Op(f"replay verify {label} w={cert.source} "
              f"n={ns.start}..{ns.stop - 1} deep={deep}",
              lambda: zs.verify_certificate(cert, ns, deep=deep),
              lambda outcome: outcome_text(cert, outcome), selfcheck)


def _illegal_context(sub, cert, bad, key, word, ns) -> bool:
    """Criterion 6's independent verdict: must this corruption be caught?"""
    structurally_valid = (
        word in zsub.apply(sub, key[0])
        and len(word) >= key[1] + cert.seed_length
        and word[key[1]:key[1] + cert.seed_length] in cert.seeds
    )
    if not structurally_valid:
        return True
    for n in ns:
        try:
            u, s, _ = zs.derive_witness(bad, n)
        except Exception:
            return True
        if not zl.is_legal(sub, cert.source + u + s, want_witness=False).legal:
            return True
    return False


def _corruption_op(label, sub, cert, key, word):
    bad = zs.corrupt_step(cert, key[0], key[1], word)
    ns = range(bad.threshold, bad.threshold + CORRUPTION_SPAN)

    def selfcheck(outcome):
        must_fail = _illegal_context(sub, cert, bad, key, word, ns)
        if must_fail and (outcome.ok or outcome.counterexample is None):
            return "an illegal-context corruption was not caught"
        if not must_fail and not outcome.ok:
            return "a harmless corruption was rejected"
        return None

    return Op(f"replay corrupt {label} w={cert.source} step={key[0]},{key[1]} "
              f"word={word}",
              lambda: zs.verify_certificate(bad, ns),
              lambda outcome: outcome_text(bad, outcome), selfcheck, True)


def replay_inputs(pools: dict):
    """(label, substitution, certificate, spans) for every source word."""
    built = []
    for label, spec, deep_span, shallow_span in REPLAY_PLAN:
        fam = family(spec)
        sub = fam.substitution()
        for w in pools["replay"][label]:
            built.append((label, sub, zs.certify(sub, fam, w),
                          (deep_span, shallow_span)))
    return built


def corruption_pool(built):
    """Step-table corruptions drawn as in criterion 6, from a fixed stream."""
    rng = random.Random(1404)
    pool = []
    while len(pool) < CORRUPTION_POOL:
        index = rng.randrange(len(built))
        _, sub, cert, _ = built[index]
        key = rng.choice(sorted(cert.step_table))
        original = cert.step_table[key]
        letters = "".join(sub.alphabet)
        length = max(1, len(original) + rng.choice((-1, 0, 1)))
        word = "".join(rng.choice(letters) for _ in range(length))
        if word != original:
            pool.append((index, key, word))
    return pool


def build_replay(seed: int, pools: dict, full: bool = False):
    built = replay_inputs(pools)
    ops = []
    for label, _, cert, (deep_span, shallow_span) in built:
        ops.append(_verify_op(label, cert, deep_span, deep=True))
        ops.append(_verify_op(label, cert, shallow_span, deep=False))
    pool = corruption_pool(built)
    if not full:
        pool = pick(rng_for("replay", seed, "corruptions"), pool,
                    CORRUPTIONS_PER_RUN)
    for index, key, word in pool:
        label, sub, cert, _ = built[index]
        ops.append(_corruption_op(label, sub, cert, key, word))
    return ops


def replay_pools() -> dict:
    pools = {}
    for label, spec, _, _ in REPLAY_PLAN:
        sub = family(spec).substitution()
        words = []
        for n in (1, 2, 3, 4):
            words.extend(zl.language_of_length(sub, n))
            if len(words) >= REPLAY_WORDS:
                break
        pools[label] = words[:REPLAY_WORDS]
    return pools


# ---------------------------------------------------------------------------
# roundtrip


def _block(scheme, start, count):
    """encode_greedy -> is_valid -> decode for each n in the block."""
    encode, valid, decode = zn.encode_greedy, zn.is_valid, zn.decode
    return [(n, d := encode(scheme, n), valid(d), decode(d))
            for n in range(start, start + count)]


def _block_selfcheck(spec):
    def selfcheck(rows):
        for n, digits, valid, value in rows:
            if value != n or not valid:
                return f"n={n} does not round-trip to a valid string"
            expected = "".join(map(str, reference_digits(spec, n)))
            if digits.to_text() != expected:
                return f"n={n} encodes to {digits.to_text()}, not {expected}"
        return None

    return selfcheck


def _block_text(rows) -> str:
    return "\n".join(digits.to_text() for _, digits, _, _ in rows)


def _block_op(spec, scheme, start, count, drawn=False, cold=False):
    desc = scheme.descriptor()
    if cold:
        def run():
            return _block(make_scheme(spec), start, count)
    else:
        def run():
            return _block(scheme, start, count)
    return Op(f"roundtrip block {desc} start={start} count={count}",
              run, _block_text, _block_selfcheck(spec), drawn)


def sweep_op(spec, scheme):
    max_len = SWEEP_MAX_LEN[spec]

    def run():
        decode = zn.decode
        return [(d, decode(d)) for d in zn.enumerate_valid(scheme, max_len)]

    def selfcheck(rows):
        if [value for _, value in rows] != list(range(len(rows))):
            return "valid strings do not decode onto an initial segment"
        return None

    return Op(f"roundtrip sweep {scheme.descriptor()} max_len={max_len}", run,
              lambda rows: "\n".join(d.to_text() for d, _ in rows), selfcheck)


def build_roundtrip(seed: int, pools: dict, full: bool = False):
    rng = rng_for("roundtrip", seed, "large-starts")
    ops = []
    for spec in ROUNDTRIP_SCHEMES:
        scheme = make_scheme(spec)
        ops.append(_block_op(spec, scheme, 0, SMALL_BLOCK))
        if full:
            for start in LARGE_STARTS:
                ops.append(_block_op(spec, scheme, start, LARGE_BLOCK, True))
        else:
            warm, cold = rng.sample(LARGE_STARTS, 2)
            ops.append(_block_op(spec, scheme, warm, LARGE_BLOCK, True))
            ops.append(_block_op(spec, scheme, cold, LARGE_BLOCK, True, cold=True))
        ops.append(sweep_op(spec, scheme))
    return ops


# ---------------------------------------------------------------------------
# cli


def write_cli_files(workdir) -> None:
    """The rule file and certificate the CLI calls read."""
    (workdir / "rules.txt").write_text(README_RULES, encoding="utf-8")
    fam = zs.Family("fibonacci")
    cert = zs.certify(fam.substitution(), fam, "a")
    (workdir / "cert.txt").write_text(zs.certificate_report(cert) + "\n",
                                      encoding="utf-8")


def _in_process_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = zcli.main(argv)
    return code, out.getvalue()


def build_cli_in_process(seed: int, workdir, full: bool = False):
    """The `cli` workload's call list, run through `cli.main` in process."""
    ops = []
    for key, template, drawn in cli_calls(seed, full):
        argv = [part.replace("{tmp}", str(workdir)) for part in template]
        ops.append(Op(
            key,
            lambda argv=argv: _in_process_cli(argv),
            lambda result: cli_text(result[0], result[1], workdir),
            lambda result, t=template: cli_selfcheck(t, result[0], result[1]),
            drawn,
        ))
    return ops


BUILD_PASS = {
    "survey": build_survey,
    "replay": build_replay,
    "roundtrip": build_roundtrip,
}


def build(workload: str, seed: int, pools: dict, workdir, full: bool = False):
    """All ops of one pass; `full` takes every pool member instead of the
    seed's draw (used to record golden digests)."""
    if workload == "cli":
        write_cli_files(workdir)
        return build_cli_in_process(seed, workdir, full)
    return BUILD_PASS[workload](seed, pools, full)
