"""The built-in family registry: every family fact in one table.

Each family names its parameters and their ranges, its substitution and
numeration builders, its distinguished seed words and, for the families
`certify` covers, the realisation tables of the constructive certificate.
The registry sits below the semi-mixing layer so that a scheme can print
its own name (`NumerationScheme.descriptor`) and the CLI can parse a family
without loading the language or semi-mixing layers.  Builders are looked up
on the `numeration` and `substitution` module objects when they are called,
never at import time, so wrappers installed there (zbench's tracer, test
monkeypatches) see every call, and only a family's substitution loads the
substitution layer.
"""

from __future__ import annotations

from collections import namedtuple

from . import numeration
from .errors import Record, UnsupportedFamilyError, _setattr


def _fibonacci_tables():
    imgs = {"a": "ab", "b": "a"}
    base = {1: ("a", "ab", "aab")}
    step = {(s, d): "aba" for s in ("ab", "ba") for d in (0, 1)}
    return imgs, base, step


def _tribonacci_tables():
    imgs = {"a": "ab", "b": "ac", "c": "a"}
    base = {1: ("a", "ba", "abac")}
    chosen = {"ab": "abac", "ba": "acab", "ac": "aba", "ca": "aba"}
    step = {(s, d): chosen[s] for s in chosen for d in (0, 1)}
    return imgs, base, step


def _metallic_tables(m: int):
    imgs = {"a": "a" * m + "b", "b": "a"}
    filler = ("a" * m + "b")
    base = {}
    for j in range(1, m + 1):
        e0 = ("a" * j + "b" + "a" * (m - j)) + filler * (m - 1) + "a"
        base[j] = ("a" * j, "b" + "a" * m, e0)
    step = {}
    for i in range(m + 1):
        s = "a" * i + "b" + "a" * (m - i)
        for j in range(m + 1):
            if i >= 1:
                r = ("a" * j + "b" + "a" * (m - j)) + filler * (i - 1) \
                    + "a" + filler * (m - i)
            else:
                t = max(j - 1, 0)
                r = "a" + ("a" * t + "b" + "a" * (m - t)) + filler * (m - 1)
            step[(s, j)] = r
    return imgs, base, step


def _kbonacci_seeds(letters: str, k: int) -> tuple[str, ...]:
    return tuple(sorted({"a" + x for x in letters} | {x + "a" for x in letters}))


def _metallic_seeds(letters: str, m: int) -> tuple[str, ...]:
    return tuple("a" * i + "b" + "a" * (m - i) for i in range(m + 1))


def _metallic_pisa_seeds(letters: str, k: int, m: int) -> tuple[str, ...]:
    return tuple(sorted({
        "a" * i + x + "a" * (m - i) for i in range(m + 1) for x in letters[1:]
    }))


# A built-in family, an instance of metallic-Pisa(k, m).  `params` maps
# each parameter, in the order builders take them (`substitution` takes the
# substitution module first, `seeds` the alphabet), to its least and
# greatest value (None: unbounded); `tables` exists for the families
# `certify` covers, and `alias` names the covered family certified in place
# of this one.  A named tuple, since nothing compares or prints it and
# every CLI call creates the type (0.12 ms, 2-vCPU Xeon, CPython 3.11).
_FamilySpec = namedtuple(
    "_FamilySpec", "params substitution scheme seeds tables alias",
    defaults=(None, lambda *params: None))


# parameter ranges: a metallic-Pisa(k, m) rule spells its k letters a..z
_K = (2, 26)
_M = (1, None)

_FAMILIES = {
    "fibonacci": _FamilySpec(
        {}, lambda layer: layer.random_fibonacci(),
        lambda: numeration.fibonacci_scheme(),
        lambda letters: ("ab", "ba"), _fibonacci_tables),
    "tribonacci": _FamilySpec(
        {}, lambda layer: layer.random_tribonacci(),
        lambda: numeration.tribonacci_scheme(),
        lambda letters: ("ab", "ba", "ac", "ca"), _tribonacci_tables),
    "kbonacci": _FamilySpec(
        {"k": _K}, lambda layer, k: layer.random_kbonacci(k),
        lambda k: numeration.kbonacci_scheme(k), _kbonacci_seeds,
        alias=lambda k: {2: Family("fibonacci"), 3: Family("tribonacci")}.get(k)),
    "metallic": _FamilySpec(
        {"m": _M}, lambda layer, m: layer.random_metallic(m),
        lambda m: numeration.metallic_scheme(m), _metallic_seeds,
        _metallic_tables),
    "metallic-pisa": _FamilySpec(
        {"k": _K, "m": _M}, lambda layer, k, m: layer.metallic_pisa(k, m),
        lambda k, m: numeration.metallic_pisa_scheme(k, m),
        _metallic_pisa_seeds,
        alias=lambda k, m: Family("metallic", (m,)) if k == 2 else None),
}


def _spec(name: str) -> _FamilySpec:
    if name not in _FAMILIES:
        raise UnsupportedFamilyError(f"unknown family {name!r}")
    return _FAMILIES[name]


def _label(name: str, params: tuple[int, ...]) -> str:
    """`name`, then `key=value` for each parameter of a built-in family."""
    names = _FAMILIES[name].params if name in _FAMILIES else ()
    return " ".join([name] + [f"{n}={v}" for n, v in zip(names, params)])


class Family(Record):
    """A built-in family tag: fibonacci, tribonacci, kbonacci(k),
    metallic(m) or metallic-pisa(k, m)."""

    __slots__ = _fields = _compared = ("name", "params")

    def __init__(self, name: str, params: tuple[int, ...] = ()):
        ranges = _spec(name).params
        if len(params) != len(ranges):
            raise UnsupportedFamilyError(
                f"family {name!r} takes {len(ranges)} parameter(s)"
            )
        for (key, (least, most)), value in zip(ranges.items(), params):
            if value < least or most is not None and value > most:
                bound = (f"{key} >= {least}" if most is None
                         else f"{least} <= {key} <= {most}")
                raise ValueError(f"family {name!r} needs {bound}")
        _setattr(self, "name", name)
        _setattr(self, "params", params)

    def substitution(self):
        """The family's rule, a `RandomSubstitution`."""
        from . import substitution as layer  # loaded by the first rule built

        return _FAMILIES[self.name].substitution(layer, *self.params)

    def scheme(self) -> numeration.NumerationScheme:
        return _FAMILIES[self.name].scheme(*self.params)

    def seed_words(self) -> tuple[str, ...]:
        letters = "".join(self.substitution().alphabet)
        return _FAMILIES[self.name].seeds(letters, *self.params)

    def label(self) -> str:
        return _label(self.name, self.params)
