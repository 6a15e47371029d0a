import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from oracles import single_positive_root_decimals

from zeckmix.cli import main
from zeckmix.semimixing import Family, certificate_report, certify
from zeckmix.substitution import random_fibonacci


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_zeck_encode_1404():
    code, out, _ = run_cli(["zeck", "encode", "--family", "metallic", "--m", "3", "1404"])
    assert code == 0
    assert "digits: 230301" in out
    assert "decode_check: 1404" in out
    assert "valid: true" in out


def test_zeck_decode_and_validate():
    code, out, _ = run_cli(["zeck", "decode", "--family", "fibonacci", "10010"])
    assert code == 0 and "value: 10" in out
    code, out, _ = run_cli(["zeck", "validate", "--family", "fibonacci", "11"])
    assert code == 0 and "valid: false" in out


def test_seq_term_and_complete():
    code, out, _ = run_cli(["seq", "term", "--family", "metallic", "--m", "3", "6"])
    assert code == 0 and "term: 469" in out
    code, out, _ = run_cli(["seq", "complete", "--family", "fibonacci", "--horizon", "20"])
    assert code == 0 and "complete: true" in out
    code, out, _ = run_cli(["seq", "complete", "--coeffs", "3", "--init", "1",
                            "--horizon", "10"])
    assert code == 0 and "complete: false" in out


def test_subst_show_and_inflate():
    code, out, _ = run_cli(["subst", "show", "--family", "fibonacci"])
    assert code == 0 and "a -> {ab, ba}" in out
    code, out, _ = run_cli(["subst", "inflate", "--family", "fibonacci",
                            "--letter", "a", "--level", "2"])
    assert code == 0
    assert out.splitlines()[-3:] == ["aab", "aba", "baa"]


def test_subst_matrix_and_pisot():
    code, out, _ = run_cli(["subst", "matrix", "--family", "tribonacci"])
    assert code == 0
    assert out.splitlines()[-3:] == ["1 1 1", "1 0 0", "0 1 0"]
    code, out, _ = run_cli(["subst", "pisot", "--family", "fibonacci"])
    assert code == 0
    assert "pf_eigenvalue: 1.618033988750" in out
    assert "pisot: true" in out


@pytest.mark.parametrize("k, expected", [
    (4, "1.927561975483"),
    (5, "1.965948236645"),
    (6, "1.983582843424"),
    (7, "1.991964196605"),
    (8, "1.996031179735"),
])
def test_subst_pisot_kbonacci_correctly_rounded(k, expected):
    # the root of x^k - x^(k-1) - ... - 1 in (1, 2), rounded to 12 places
    assert single_positive_root_decimals([1] + [-1] * k, 1, 2, 12) == expected
    code, out, _ = run_cli(["subst", "pisot", "--family", "kbonacci",
                            "--k", str(k)])
    assert code == 0
    assert f"pf_eigenvalue: {expected}" in out.splitlines()
    assert "pisot: true" in out


def src_env():
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def run_fresh(code):
    """Run `code` in a fresh interpreter on this checkout; its stdout."""
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return result.stdout


# each command group loads the modules its layers need and no more
_CORE = ("cli", "errors", "families", "numeration")
FOOTPRINTS = [
    (["zeck", "encode", "--family", "fibonacci", "100"], _CORE),
    (["seq", "term", "--family", "metallic", "--m", "3", "6"], _CORE),
    (["subst", "show", "--family", "tribonacci"], (*_CORE, "substitution")),
    (["subst", "show", "--rules", "{rules}"], (*_CORE, "substitution")),
    (["lang", "legal", "--family", "fibonacci", "bb"],
     (*_CORE, "language", "substitution")),
    (["semimix", "check", "--family", "fibonacci", "--word", "a"],
     (*_CORE, "language", "semimixing", "substitution")),
    (["semimix", "verify", "--cert", "{cert}", "--span", "5"],
     (*_CORE, "language", "semimixing", "substitution")),
]


@pytest.mark.parametrize("argv, layers", FOOTPRINTS, ids=[
    "zeck-encode", "seq-term", "subst-show-family", "subst-show-rules",
    "lang-legal", "semimix-check", "semimix-verify"])
def test_cli_command_loads_only_its_layers(tmp_path, argv, layers):
    # and none of the standard modules that only dataclasses (inspect and
    # what it imports) or string constants would bring in
    rules = tmp_path / "rules.txt"
    rules.write_text("a -> {ab, ba}\nb -> {a}\n", encoding="utf-8")
    cert = tmp_path / "cert.txt"
    cert.write_text(certificate_report(certify(
        random_fibonacci(), Family("fibonacci"), "a")) + "\n", encoding="utf-8")
    argv = [part.replace("{rules}", str(rules)).replace("{cert}", str(cert))
            for part in argv]
    out = run_fresh(
        "import sys\n"
        "from zeckmix.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "for name in ('numpy', 'dataclasses', 'inspect', 'string'):\n"
        "    assert name not in sys.modules, name\n"
        "print(*sorted(m for m in sys.modules if m.startswith('zeckmix.')))\n"
    )
    assert out.splitlines()[-1].split() == [f"zeckmix.{m}" for m in sorted(layers)]


def test_package_names_load_on_first_access():
    # `import zeckmix` loads no layer; eight threads resolving every public
    # name at once all get the object its defining module holds
    out = run_fresh(
        "import sys, threading\n"
        "import zeckmix\n"
        "assert not [m for m in sys.modules if m.startswith('zeckmix.')]\n"
        "barrier, got = threading.Barrier(8), []\n"
        "def resolve():\n"
        "    barrier.wait()\n"
        "    got.append([getattr(zeckmix, n) for n in zeckmix.__all__])\n"
        "threads = [threading.Thread(target=resolve) for _ in range(8)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join()\n"
        "assert len(got) == 8\n"
        "assert all(a is b for values in got for a, b in zip(values, got[0]))\n"
        "for name, value in zip(zeckmix.__all__, got[0]):\n"
        "    assert getattr(sys.modules[value.__module__], name) is value, name\n"
        "try:\n"
        "    zeckmix.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok', len(zeckmix.__all__))\n"
    )
    assert out == "ok 52\n"


def test_package_getattr_hook():
    import importlib

    import zeckmix

    for name in zeckmix.__all__:
        value = zeckmix.__getattr__(name)
        assert getattr(importlib.import_module(value.__module__), name) is value
    with pytest.raises(AttributeError, match="no_such_name"):
        zeckmix.__getattr__("no_such_name")


def test_custom_rules_file(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("a -> {ab, ba}\nb -> {a}\n", encoding="utf-8")
    code, out, _ = run_cli(["subst", "apply", "--rules", str(rules), "ab"])
    assert code == 0
    assert out.splitlines()[-2:] == ["aba", "baa"]
    code, out, _ = run_cli(["lang", "legal", "--rules", str(rules), "bb"])
    assert code == 0 and "legal: true" in out


def test_semimix_check_custom_rules(tmp_path):
    rules = tmp_path / "rules.txt"
    rules.write_text("a -> {ab, ba}\nb -> {a}\n", encoding="utf-8")
    code, out, _ = run_cli(["semimix", "check", "--rules", str(rules),
                            "--word", "ab", "--horizon", "5",
                            "--seeds", "ab,ba"])
    assert code == 0
    assert "threshold_on_horizon: 0" in out
    code, _, err = run_cli(["semimix", "check", "--rules", str(rules),
                            "--word", "ab", "--horizon", "5"])
    assert code == 2 and "reason: invalid-input" in err  # seeds required


def test_rules_take_no_family_flags(tmp_path):
    # --rules names the substitution, so a family flag next to it was once
    # dropped with exit 0; semimix check still reads --family for its seeds
    rules = tmp_path / "rules.txt"
    rules.write_text("a -> {ab, ba}\nb -> {a}\n", encoding="utf-8")
    for argv, problem in [
        (["subst", "show", "--family", "tribonacci", "--k", "5"],
         "--family, --k"),
        (["lang", "legal", "--m", "4", "bb"], "--m"),
        (["subst", "apply", "--family", "fibonacci", "ab"], "--family"),
        (["lang", "enum", "--k", "3", "--n", "2"], "--k"),
        (["semimix", "check", "--m", "2", "--word", "ab", "--seeds", "ab,ba"],
         "--m"),
    ]:
        code, out, err = run_cli([*argv[:2], "--rules", str(rules),
                                  *argv[2:]])
        assert (code, out) == (2, ""), argv
        assert err == (f"error: --rules takes no {problem}\n"
                       "reason: invalid-input\n"), argv
    check = ["semimix", "check", "--rules", str(rules), "--word", "a",
             "--horizon", "3"]
    code, out, _ = run_cli([*check, "--family", "fibonacci"])
    assert code == 0 and "seeds: ab ba" in out
    assert run_cli([*check, "--seeds", "ab,ba"]) == (0, out, "")


def test_lang_enum():
    code, out, _ = run_cli(["lang", "enum", "--family", "fibonacci", "--n", "2"])
    assert code == 0
    assert out.splitlines()[-4:] == ["aa", "ab", "ba", "bb"]


def test_semimix_check():
    code, out, _ = run_cli(["semimix", "check", "--family", "fibonacci",
                            "--word", "a", "--horizon", "10"])
    assert code == 0
    assert out.startswith("# zeckmix witness-table v1")
    assert "threshold_on_horizon: 0" in out


def test_semimix_certify_and_verify(tmp_path):
    cert_path = tmp_path / "cert.txt"
    code, out, _ = run_cli(["semimix", "certify", "--family", "fibonacci",
                            "--word", "a", "--verify-range", "30",
                            "--out", str(cert_path)])
    assert code == 0
    assert "verified: true" in out
    code, out, _ = run_cli(["semimix", "verify", "--cert", str(cert_path),
                            "--span", "10"])
    assert code == 0 and "verified: true" in out


def test_semimix_certify_reports_a_failed_verification(monkeypatch):
    # certify builds sound certificates, so only a failing replay, injected
    # here, reaches the counterexample lines of `semimix certify`
    from zeckmix import semimixing

    monkeypatch.setattr(semimixing, "verify_certificate", lambda cert, ns: (
        semimixing.VerificationOutcome(False, 4, (7, "injected fault"))))
    code, out, _ = run_cli(["semimix", "certify", "--family", "fibonacci",
                            "--word", "a", "--verify-range", "10"])
    assert code == 1
    assert out.splitlines()[-2:] == ["verified: false checked=4",
                                     "counterexample: n=7 injected fault"]


def test_semimix_verify_counterexample(tmp_path):
    cert_path = tmp_path / "cert.txt"
    run_cli(["semimix", "certify", "--family", "fibonacci", "--word", "a",
             "--out", str(cert_path)])
    text = cert_path.read_text(encoding="utf-8")
    corrupted = text.replace("step: seed=ab digit=0 word=aba",
                             "step: seed=ab digit=0 word=abb")
    assert corrupted != text
    cert_path.write_text(corrupted, encoding="utf-8")
    code, out, _ = run_cli(["semimix", "verify", "--cert", str(cert_path)])
    assert code == 1
    assert "verified: false" in out
    assert "counterexample:" in out


def test_semimix_verify_foreign_seed_letter(tmp_path):
    # a seed set and step table may name a letter the family lacks: the
    # preamble reports it as a counterexample, in a fresh interpreter so
    # that a traceback would show
    lines = certificate_report(
        certify(random_fibonacci(), Family("fibonacci"), "ab")).splitlines()
    lines = [line + " zb" if line.startswith("seeds:") else line
             for line in lines] + ["step: seed=zb digit=0 word=aba"]
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "zeckmix.cli", "semimix", "verify",
         "--cert", str(cert_path)],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert "verified: false" in result.stdout
    assert ("counterexample: n=-1 step word 'aba' is not an image of 'zb'"
            in result.stdout)


def _address_space_cap(megabytes):
    """A preexec_fn capping the child's address space at `megabytes`."""
    def cap():
        import resource

        resource.setrlimit(resource.RLIMIT_AS, (megabytes << 20, megabytes << 20))
    return cap


@pytest.mark.parametrize("level", [600, 5000, 100000])
def test_semimix_verify_large_level(tmp_path, level):
    # a level far above the word's length is rejected without matching down
    # through every level or tabulating every level's length, in a fresh
    # interpreter with capped memory so that a RecursionError or
    # MemoryError traceback would show: 256 MB of address space, where a
    # table of every level's length up to level 100,000 needs about a gigabyte
    lines = [f"level: {level}" if line.startswith("level:") else line
             for line in certificate_report(certify(
                 random_fibonacci(), Family("fibonacci"), "ab")).splitlines()]
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "zeckmix.cli", "semimix", "verify",
         "--cert", str(cert_path)],
        env=src_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=_address_space_cap(256),
    )
    assert result.returncode == 1, result.stderr
    assert "Traceback" not in result.stderr
    assert (f"counterexample: n=-1 w_prime is not a level-{level} inflation "
            "word of a") in result.stdout


def _fibonacci_certificate(tmp_path):
    """The path of a written fibonacci certificate for `a`."""
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(certificate_report(
        certify(random_fibonacci(), Family("fibonacci"), "a")) + "\n",
        encoding="utf-8")
    return cert_path


def test_semimix_verify_long_span_in_bounded_memory(tmp_path):
    # a span's contexts are decided in batches of bounded total length,
    # each in a block of its own that is dropped once the batch is decided,
    # and the replay keeps only the steps on its current path through the
    # trie of digit strings, so memory barely grows with the span: spans
    # 2,000 and 4,000 need between 20 and 21 MB of address space and span
    # 8,000 between 22 and 23 MB, where keeping every derived step needed
    # between 46 and 48 MB at span 4,000 and over 64 MB at span 8,000
    cert_path = _fibonacci_certificate(tmp_path)
    for span in (2000, 4000, 8000):
        result = subprocess.run(
            [sys.executable, "-m", "zeckmix.cli", "semimix", "verify",
             "--cert", str(cert_path), "--span", str(span)],
            env=src_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=_address_space_cap(64),
        )
        assert result.returncode == 0, result.stderr
        assert "verified: true" in result.stdout
        assert f"checked: {span + 1}" in result.stdout


def test_out_of_memory_exits_2():
    # running out of memory is resource trouble, not a counterexample or a
    # guard: the level-12 inflation words of a outgrow 40 MB of address
    # space long before the word-set guard, which levels 8 to 10 reach at
    # about 144 MB
    result = subprocess.run(
        [sys.executable, "-m", "zeckmix.cli", "subst", "inflate",
         "--family", "fibonacci", "--letter", "a", "--level", "12"],
        env=src_env(), capture_output=True, text=True, timeout=120,
        preexec_fn=_address_space_cap(40),
    )
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines()[-1] == "reason: out-of-memory"


@pytest.mark.parametrize("script, argv, mark, rows, lines", [
    ("certificate_demo.py", ["--span", "5", "--words", "2"],
     "verified[6]=True", 3 * 2, 3 * 2),
    ("semimixing_survey.py", ["--horizon", "6", "--max-len", "1"],
     "unresolved=0", 6, 1 + 6),
])
def test_scripts_run(script, argv, mark, rows, lines):
    # each script runs end to end in a fresh interpreter: one line per
    # family and source word for the demo, a header and one line per
    # family for the survey
    path = Path(__file__).resolve().parents[1] / "scripts" / script
    result = subprocess.run([sys.executable, str(path), *argv], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    out = result.stdout.splitlines()
    assert len(out) == lines, result.stdout
    assert sum(mark in line for line in out) == rows, result.stdout


def test_dag_membership_at_deep_levels():
    # membership walks up the levels of the word's spans and skips ahead
    # once they repeat, so neither a rule whose words keep one short
    # element at every level nor a level of 10**9 recurses or loops per level
    code = "\n".join([
        "from zeckmix.substitution import build_dag, make_substitution",
        "mixed = make_substitution({'a': ('a', 'ab'), 'b': ('b',)})",
        "cycle = make_substitution({'a': ('b',), 'b': ('c',), 'c': ('a',)})",
        "fib = make_substitution({'a': ('ab', 'ba'), 'b': ('a',)})",
        "print(build_dag(mixed, 3000).contains('ab', 'a', 3000))",
        "deep = 10**9",
        "print(*(build_dag(mixed, deep).contains(w, 'a', deep)",
        "        for w in ('ab', 'a' + 'b' * 40, 'ba', 'aab')))",
        "print(*(build_dag(cycle, deep + k).contains('a', 'a', deep + k)",
        "        for k in range(3)))",
        "print(build_dag(fib, deep).contains('abaab', 'a', deep))",
    ])
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert result.stdout.splitlines() == [
        "True", "True True False False", "False False True", "False"]


def test_dag_spelling_at_deep_levels():
    # the first-image word is spelled by translating once per level, so a
    # rule whose words keep one short element at every level spells it at
    # any level the dag was built to without recursing per level
    code = "\n".join([
        "from zeckmix.substitution import build_dag, make_substitution",
        "mixed = make_substitution({'a': ('a', 'ab'), 'b': ('b',)})",
        "dag = build_dag(mixed, 5000)",
        "print(dag.spell_any('a', 3000), dag.spell_any('b', 3000))",
    ])
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert result.stdout.splitlines() == ["a b"]


def test_extraction_at_deep_levels(tmp_path):
    # witness extraction keeps the chunks it still has to build on a list
    # and descends occurring children in a loop, so b^n, which first occurs
    # at level n of a, gets its witness under the default recursion limit,
    # and so does b at level 1000, a chain of 1000 occurring children.
    # b^4000, just below the level cap, takes a fraction of a second, since
    # the extractor walks each level's realisation on bitsets
    code = "\n".join([
        "import sys",
        "from zeckmix.language import is_legal, pattern_witness",
        "from zeckmix.substitution import make_substitution",
        "mixed = make_substitution({'a': ('a', 'ab'), 'b': ('b',)})",
        "verdict = is_legal(mixed, 'b' * 1000)",
        "hit = pattern_witness(mixed, 'b' * 150 + '?' * 150)",
        "print(sys.getrecursionlimit(), verdict.legal, verdict.witness[0])",
        "print(hit[0] == 'b' * 300)",
        "print(pattern_witness(mixed, 'b', min_level=1000))",
        "deep = is_legal(mixed, 'b' * 4000).witness",
        "print(deep[:2], deep[2] == 'a' + 'b' * 4000)",
    ])
    result = subprocess.run([sys.executable, "-c", code], env=src_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0 and "Traceback" not in result.stderr, result.stderr
    assert result.stdout.splitlines() == [
        "1000 True 1000", "True", "('b', 1000, 'a', 'ab', 1)",
        "(4000, 'a') True"]
    rules = tmp_path / "rules.txt"
    rules.write_text("a -> {a, ab}\nb -> {b}\n", encoding="utf-8")

    def legal(n):
        return subprocess.run(
            [sys.executable, "-m", "zeckmix.cli", "lang", "legal", "--rules",
             str(rules), "b" * n], env=src_env(), capture_output=True,
            text=True, timeout=120)

    result = legal(300)
    assert result.returncode == 0, result.stderr
    assert "legal: true" in result.stdout.splitlines()
    # b^5000 needs level 4,999, past the profile search's level cap
    result = legal(5000)
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert "reason: guard-exceeded" in result.stderr


@pytest.mark.parametrize("flags", [["--k", "30"], ["--k", "1"]])
def test_family_parameter_range_is_checked_once(flags):
    # every command that builds a family rejects the same parameters
    outcomes = {run_cli([*cmd, "--family", "kbonacci", *flags, *rest])
                for cmd, rest in ((["zeck", "encode"], ["100"]),
                                  (["zeck", "decode"], ["101"]),
                                  (["subst", "show"], []),
                                  (["seq", "term"], ["5"]))}
    assert outcomes == {(2, "", "error: family 'kbonacci' needs 2 <= k <= 26\n"
                                "reason: invalid-input\n")}


def test_exit_code_2_on_guard():
    code, _, err = run_cli(["subst", "inflate", "--family", "fibonacci",
                            "--letter", "a", "--level", "9", "--guard", "10"])
    assert code == 2
    assert "reason: guard-exceeded" in err


def test_exit_code_2_on_illegal_word():
    code, _, err = run_cli(["semimix", "check", "--family", "fibonacci",
                            "--word", "bbb", "--horizon", "3"])
    assert code == 2
    assert "reason: illegal-word" in err


def test_exit_code_2_on_bad_parameters(tmp_path):
    code, _, err = run_cli(["zeck", "encode", "--family", "metallic", "7"])
    assert code == 2
    assert "reason: invalid-input" in err
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text(certificate_report(certify(
        random_fibonacci(), Family("fibonacci"), "a")) + "\n", encoding="utf-8")
    # each of these once escaped as a traceback with exit status 1, or
    # exited 0 having dropped the flag or taken its bad value
    for argv, problem in [
        (["seq", "complete", "--coeffs", "1,1"], "--init"),
        (["seq", "complete", "--family", "fibonacci", "--init", "5,5"],
         "--init"),
        (["seq", "complete", "--family", "tribonacci", "--coeffs", "1,1",
          "--init", "1,2"], "--family"),
        (["zeck", "encode", "--family", "fibonacci", "--m", "3", "10"], "--m"),
        (["subst", "apply", "--family", "fibonacci", "az"], "'z'"),
        (["subst", "inflate", "--family", "fibonacci", "--letter", "z",
          "--level", "2"], "'z'"),
        (["subst", "inflate", "--family", "fibonacci", "--letter", "z",
          "--level", "0"], "'z'"),
        (["subst", "inflate", "--family", "fibonacci", "--letter", "ab",
          "--level", "1"], "'ab'"),
        (["semimix", "verify", "--cert", str(cert_path), "--span", "-3"],
         "--span"),
        (["semimix", "certify", "--family", "fibonacci", "--word", "a",
          "--verify-range", "-2"], "--verify-range"),
    ]:
        code, out, err = run_cli(argv)
        assert code == 2 and out == "", argv
        lines = err.splitlines()
        assert lines[0].startswith("error: ") and problem in lines[0], argv
        assert "reason: invalid-input" in lines, argv


@pytest.mark.parametrize("prefix, replacement, field", [
    ("family:", None, "family"),
    ("level:", None, "level"),
    ("family:", "family: kbonacci", "k="),
    ("family:", "family:", "family"),
    ("seeds:", "seeds:", "seeds"),
    ("step:", "step: seed=ab word=aba", "digit="),
    ("family:", "family: metallic m=3 k=9", "m="),
])
def test_malformed_certificate_exits_2(tmp_path, prefix, replacement, field):
    # each case edits one line of a good certificate
    lines = certificate_report(
        certify(random_fibonacci(), Family("fibonacci"), "a")).splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    lines[i:i + 1] = [] if replacement is None else [replacement]
    cert_path = tmp_path / "cert.txt"
    cert_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "zeckmix.cli", "semimix", "verify",
         "--cert", str(cert_path)],
        env=src_env(), capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "reason: invalid-input" in result.stderr
    assert "Traceback" not in result.stderr
    assert field in result.stderr.splitlines()[0]


def test_determinism_byte_identical():
    argvs = [
        ["zeck", "encode", "--family", "metallic", "--m", "3", "1404"],
        ["subst", "pisot", "--family", "tribonacci"],
        ["lang", "enum", "--family", "tribonacci", "--n", "3"],
        ["semimix", "check", "--family", "fibonacci", "--word", "ab",
         "--horizon", "8"],
        ["semimix", "certify", "--family", "metallic", "--m", "2",
         "--word", "aa", "--verify-range", "10"],
    ]
    for argv in argvs:
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second, argv


def test_report_header_versioned():
    _, out, _ = run_cli(["zeck", "encode", "--family", "fibonacci", "9"])
    assert out.splitlines()[0] == "# zeckmix report v1"
