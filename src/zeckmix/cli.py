"""Command-line surface: reproducible, line-oriented reports over the
numeration, substitution, language and semi-mixing operations.

Exit status: 0 on success, 1 when a verification finds a counterexample,
2 on guard/resource trouble or invalid input (with a machine-readable
`reason:` line on stderr).
"""

from __future__ import annotations

import argparse
import sys

from .errors import (
    DEFAULT_SET_GUARD,
    HORIZON_GUARD,
    GuardExceededError,
    IllegalWordError,
    NonPrimitiveMatrixError,
    UnsupportedFamilyError,
    ZeckmixError,
)
from .families import _FAMILIES, Family
from .numeration import (
    LinearRecurrence,
    decode,
    digit_string_from_text,
    encode_greedy,
    is_complete,
    is_valid,
    term,
)

# Each handler imports the layers beyond numeration that it runs, so a
# command compiles and executes only those: `zeck` and `seq` never load
# `substitution`, `lang` is the first to load `language`, and only
# `semimix` loads `semimixing`.

HEADER = "# zeckmix report v1"


def _add_family_flags(parser):
    parser.add_argument("--family", choices=list(_FAMILIES), help="built-in family")
    parser.add_argument("--k", type=int, help="k parameter (kbonacci, metallic-pisa)")
    parser.add_argument("--m", type=int, help="m parameter (metallic, metallic-pisa)")


def _family_from_args(args) -> Family:
    if not args.family:
        raise ValueError("--family is required here")
    names = _FAMILIES[args.family].params
    values = tuple(getattr(args, n) for n in names)
    if None in values:
        flags = " and ".join(f"--{n}" for n in names)
        raise ValueError(f"{args.family} needs {flags}")
    for n in ("k", "m"):
        if n not in names and getattr(args, n) is not None:
            raise ValueError(f"{args.family} takes no --{n}")
    return Family(args.family, values)


def _scheme_from_args(args):
    return _family_from_args(args).scheme()


def _substitution_from_args(args, seed_family=False):
    """The substitution of --rules, else of the family.  --rules takes no
    family flags, unless `seed_family` lets --family name the seeds."""
    from .substitution import parse_rules

    if getattr(args, "rules", None):
        given = [f"--{n}" for n in ("family", "k", "m")
                 if getattr(args, n) is not None]
        if given and not (seed_family and args.family):
            raise ValueError(f"--rules takes no {', '.join(given)}")
        with open(args.rules, encoding="utf-8") as fh:
            return parse_rules(fh.read())
    return _family_from_args(args).substitution()


def _check_letters(sub, word, flag):
    """Raise ValueError naming the first letter of `word` not in `sub`'s
    alphabet; the library itself raises a bare KeyError for it."""
    for x in word:
        if x not in sub.rule:
            raise ValueError(f"{flag} has the letter {x!r}, which is not in "
                             f"the alphabet {''.join(sub.alphabet)}")


def _emit(lines):
    print("\n".join([HEADER] + list(lines)))


# ---------------------------------------------------------------------------
# command handlers


def _cmd_zeck_encode(args) -> int:
    scheme = _scheme_from_args(args)
    digits = encode_greedy(scheme, args.n)
    _emit([
        f"scheme: {scheme.descriptor()}",
        f"n: {args.n}",
        f"digits: {digits.to_text()}",
        f"decode_check: {decode(digits)}",
        f"valid: {str(is_valid(digits)).lower()}",
    ])
    return 0


def _cmd_zeck_decode(args) -> int:
    scheme = _scheme_from_args(args)
    digits = digit_string_from_text(scheme, args.digits)
    _emit([
        f"scheme: {scheme.descriptor()}",
        f"digits: {digits.to_text()}",
        f"value: {decode(digits)}",
    ])
    return 0


def _cmd_zeck_validate(args) -> int:
    scheme = _scheme_from_args(args)
    digits = digit_string_from_text(scheme, args.digits)
    _emit([
        f"scheme: {scheme.descriptor()}",
        f"digits: {digits.to_text()}",
        f"valid: {str(is_valid(digits)).lower()}",
    ])
    return 0


def _cmd_seq_term(args) -> int:
    scheme = _scheme_from_args(args)
    _emit([
        f"scheme: {scheme.descriptor()}",
        f"i: {args.i}",
        f"term: {term(scheme, args.i)}",
    ])
    return 0


def _cmd_seq_complete(args) -> int:
    if args.coeffs:
        if not args.init:
            raise ValueError("--coeffs needs --init")
        for n in ("family", "k", "m"):
            if getattr(args, n) is not None:
                raise ValueError(f"--coeffs takes no --{n}")
        coeffs = tuple(int(x) for x in args.coeffs.split(","))
        init = tuple(int(x) for x in args.init.split(","))
        rec = LinearRecurrence(len(coeffs), coeffs, init, "custom")
        label = f"custom coeffs={args.coeffs} init={args.init}"
    else:
        if args.init:
            raise ValueError("--init needs --coeffs")
        scheme = _scheme_from_args(args)
        rec = scheme.recurrence
        label = scheme.descriptor()
    _emit([
        f"sequence: {label}",
        f"horizon: {args.horizon}",
        f"complete: {str(is_complete(rec, args.horizon)).lower()}",
    ])
    return 0


def _cmd_subst_show(args) -> int:
    from .substitution import format_rules

    sub = _substitution_from_args(args)
    _emit(format_rules(sub).splitlines())
    return 0


def _cmd_subst_apply(args) -> int:
    from .substitution import apply

    sub = _substitution_from_args(args)
    _check_letters(sub, args.word, "word")
    words = sorted(apply(sub, args.word, guard=args.guard))
    _emit([f"word: {args.word}", f"count: {len(words)}"] + words)
    return 0


def _cmd_subst_inflate(args) -> int:
    from .substitution import inflation_words

    sub = _substitution_from_args(args)
    if len(args.letter) != 1:
        raise ValueError(f"--letter must be one letter, not {args.letter!r}")
    _check_letters(sub, args.letter, "--letter")
    words = sorted(inflation_words(sub, args.letter, args.level, guard=args.guard))
    _emit([
        f"letter: {args.letter}",
        f"level: {args.level}",
        f"count: {len(words)}",
    ] + words)
    return 0


def _cmd_subst_matrix(args) -> int:
    from .substitution import substitution_matrix

    sub = _substitution_from_args(args)
    matrix = substitution_matrix(sub)
    _emit([f"alphabet: {' '.join(sub.alphabet)}"]
          + [" ".join(str(x) for x in row) for row in matrix])
    return 0


def _cmd_subst_pisot(args) -> int:
    from .substitution import is_pisot, pf_eigenvalue, substitution_matrix

    sub = _substitution_from_args(args)
    matrix = substitution_matrix(sub)
    _emit([
        f"alphabet: {' '.join(sub.alphabet)}",
        f"pf_eigenvalue: {pf_eigenvalue(matrix):.12f}",
        f"pisot: {str(is_pisot(matrix)).lower()}",
    ])
    return 0


def _cmd_lang_legal(args) -> int:
    from .language import is_legal

    sub = _substitution_from_args(args)
    verdict = is_legal(sub, args.word)
    lines = [
        f"word: {args.word}",
        f"legal: {str(verdict.legal).lower()}",
        f"levels_examined: {verdict.levels_examined}",
        f"stabilized: {str(verdict.stabilized).lower()}",
    ]
    if verdict.witness is not None:
        level, letter, element = verdict.witness
        lines.append(f"witness: level={level} letter={letter} element={element}")
    _emit(lines)
    return 0


def _cmd_lang_enum(args) -> int:
    from .language import language_of_length

    sub = _substitution_from_args(args)
    words = language_of_length(sub, args.n, guard=args.guard)
    _emit([f"n: {args.n}", f"count: {len(words)}"] + list(words))
    return 0


def _cmd_semimix_check(args) -> int:
    from .semimixing import check_empirical, make_seed_set, seed_sets

    sub = _substitution_from_args(args, seed_family=True)
    family = _family_from_args(args) if args.family else None
    if args.seeds:
        seeds = make_seed_set(sub, args.seeds.split(","))
    elif family is not None:
        seeds = seed_sets(family, sub)
    else:
        raise ValueError("custom rules need --seeds")
    table = check_empirical(sub, seeds, args.word, args.horizon,
                            horizon_guard=args.horizon_guard)
    print(table.to_report())
    return 0


def _cmd_semimix_certify(args) -> int:
    from .semimixing import certificate_report, certify, verify_certificate

    if args.verify_range is not None and args.verify_range < 0:
        raise ValueError("--verify-range must be nonnegative")
    family = _family_from_args(args)
    sub = family.substitution()
    cert = certify(sub, family, args.word)
    report = certificate_report(cert)
    print(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
    if args.verify_range is not None:
        outcome = verify_certificate(
            cert, range(cert.threshold, cert.threshold + args.verify_range + 1)
        )
        print(f"verified: {str(outcome.ok).lower()} checked={outcome.checked}")
        if not outcome.ok:
            n, reason = outcome.counterexample
            print(f"counterexample: n={n} {reason}")
            return 1
    return 0


def _cmd_semimix_verify(args) -> int:
    from .semimixing import parse_certificate, verify_certificate

    if args.span < 0:
        raise ValueError("--span must be nonnegative")
    with open(args.cert, encoding="utf-8") as fh:
        cert = parse_certificate(fh.read())
    outcome = verify_certificate(
        cert, range(cert.threshold, cert.threshold + args.span + 1)
    )
    _emit([
        f"family: {cert.family.label()}",
        f"source: {cert.source}",
        f"threshold: {cert.threshold}",
        f"span: {args.span}",
        f"verified: {str(outcome.ok).lower()}",
        f"checked: {outcome.checked}",
    ])
    if not outcome.ok:
        n, reason = outcome.counterexample
        print(f"counterexample: n={n} {reason}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zeckmix",
        description="Zeckendorf numeration, random-substitution languages, "
                    "and semi-mixing checks",
    )
    top = parser.add_subparsers(dest="group", required=True)

    zeck = top.add_parser("zeck", help="digit expansions").add_subparsers(
        dest="command", required=True)
    enc = zeck.add_parser("encode")
    _add_family_flags(enc)
    enc.add_argument("n", type=int)
    enc.set_defaults(handler=_cmd_zeck_encode)
    dec = zeck.add_parser("decode")
    _add_family_flags(dec)
    dec.add_argument("digits")
    dec.set_defaults(handler=_cmd_zeck_decode)
    val = zeck.add_parser("validate")
    _add_family_flags(val)
    val.add_argument("digits")
    val.set_defaults(handler=_cmd_zeck_validate)

    seq = top.add_parser("seq", help="recurrence sequences").add_subparsers(
        dest="command", required=True)
    trm = seq.add_parser("term")
    _add_family_flags(trm)
    trm.add_argument("i", type=int)
    trm.set_defaults(handler=_cmd_seq_term)
    comp = seq.add_parser("complete")
    _add_family_flags(comp)
    comp.add_argument("--horizon", type=int, default=40)
    comp.add_argument("--coeffs", help="comma-separated custom coefficients")
    comp.add_argument("--init", help="comma-separated custom initial terms")
    comp.set_defaults(handler=_cmd_seq_complete)

    subst = top.add_parser("subst", help="random substitutions").add_subparsers(
        dest="command", required=True)
    for name, handler in [
        ("show", _cmd_subst_show),
        ("matrix", _cmd_subst_matrix),
        ("pisot", _cmd_subst_pisot),
    ]:
        sp = subst.add_parser(name)
        _add_family_flags(sp)
        sp.add_argument("--rules", help="custom substitution rule file")
        sp.set_defaults(handler=handler)
    app = subst.add_parser("apply")
    _add_family_flags(app)
    app.add_argument("--rules")
    app.add_argument("--guard", type=int, default=DEFAULT_SET_GUARD)
    app.add_argument("word")
    app.set_defaults(handler=_cmd_subst_apply)
    inf = subst.add_parser("inflate")
    _add_family_flags(inf)
    inf.add_argument("--rules")
    inf.add_argument("--letter", required=True)
    inf.add_argument("--level", type=int, required=True)
    inf.add_argument("--guard", type=int, default=DEFAULT_SET_GUARD)
    inf.set_defaults(handler=_cmd_subst_inflate)

    lang = top.add_parser("lang", help="subshift language").add_subparsers(
        dest="command", required=True)
    leg = lang.add_parser("legal")
    _add_family_flags(leg)
    leg.add_argument("--rules")
    leg.add_argument("word")
    leg.set_defaults(handler=_cmd_lang_legal)
    enm = lang.add_parser("enum")
    _add_family_flags(enm)
    enm.add_argument("--rules")
    enm.add_argument("--n", type=int, required=True)
    enm.add_argument("--guard", type=int, default=DEFAULT_SET_GUARD)
    enm.set_defaults(handler=_cmd_lang_enum)

    semi = top.add_parser("semimix", help="semi-mixing checks").add_subparsers(
        dest="command", required=True)
    chk = semi.add_parser("check")
    _add_family_flags(chk)
    chk.add_argument("--rules")
    chk.add_argument("--word", required=True)
    chk.add_argument("--horizon", type=int, default=20)
    chk.add_argument("--horizon-guard", type=int, default=HORIZON_GUARD,
                     dest="horizon_guard")
    chk.add_argument("--seeds", help="comma-separated seed words")
    chk.set_defaults(handler=_cmd_semimix_check)
    crt = semi.add_parser("certify")
    _add_family_flags(crt)
    crt.add_argument("--word", required=True)
    crt.add_argument("--verify-range", type=int, dest="verify_range")
    crt.add_argument("--out", help="write the certificate to this file")
    crt.set_defaults(handler=_cmd_semimix_certify)
    ver = semi.add_parser("verify")
    ver.add_argument("--cert", required=True)
    ver.add_argument("--span", type=int, default=20)
    ver.set_defaults(handler=_cmd_semimix_verify)

    return parser


_REASONS = [
    (GuardExceededError, "guard-exceeded"),
    (IllegalWordError, "illegal-word"),
    (UnsupportedFamilyError, "unsupported-family"),
    (NonPrimitiveMatrixError, "non-primitive-matrix"),
    (OverflowError, "overflow"),
    (MemoryError, "out-of-memory"),
    (ZeckmixError, "library-error"),
    (ValueError, "invalid-input"),
    (OSError, "io-error"),
]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except tuple(exc for exc, _ in _REASONS) as err:
        reason = next(reason for exc_type, reason in _REASONS
                      if isinstance(err, exc_type))
        print(f"error: {str(err) or type(err).__name__}", file=sys.stderr)
        print(f"reason: {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
