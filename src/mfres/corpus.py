"""Reading and writing the on disk corpus format.

A corpus file is one JSON document describing a single potential together
with named factorizations, named module presentations, and a list of
expectation records the selftest command replays. Shape:

    {
      "name": "node",
      "variables": ["x", "y"],
      "potential": "x*y",
      "factorizations": [
        {"label": "N1", "A": [["x"]], "B": [["y"]]}
      ],
      "modules": [
        {"label": "Rx", "ambient_rank": 1, "relations": [["x"]]}
      ],
      "expectations": [
        {"check": "milnor", "mu": 1},
        {"check": "euler", "left": "N1", "right": "N1", "value": 1}
      ]
    }

All polynomial entries are strings in the parser grammar. Matrices are rows
of entry strings; module relations are lists of component strings, one list
per generator, each of ambient_rank components (an integer, at least 1).
Rational values in expectations are strings like "1/9" so the file never
holds a float. load_corpus validates eagerly and raises CorpusError naming
the offending field; every factorization is checked against the potential
on load.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import BudgetError, CorpusError, MfresError
from .groebner import FreeModuleElement
from .mf import MatrixFactorization, ModulePresentation
from .polyring import Polynomial, PolyMatrix, parse_polynomial


@dataclass(frozen=True)
class CorpusFile:
    name: str
    variables: tuple[str, ...]
    potential: Polynomial
    factorizations: tuple[MatrixFactorization, ...]
    modules: tuple[ModulePresentation, ...]
    expectations: tuple[dict, ...]

    def factorization(self, label: str) -> MatrixFactorization:
        for mf in self.factorizations:
            if mf.label == label:
                return mf
        raise CorpusError(f"no factorization labeled {label!r} in corpus {self.name!r}")

    def module(self, label: str) -> ModulePresentation:
        for mod in self.modules:
            if mod.label == label:
                return mod
        raise CorpusError(f"no module labeled {label!r} in corpus {self.name!r}")

    def item(self, label: str):
        """Factorization or module with the given label; factorizations win."""
        for it in self.factorizations + self.modules:
            if it.label == label:
                return it
        raise CorpusError(f"no item labeled {label!r} in corpus {self.name!r}")


def _expect(data: dict, key: str, kind, where: str):
    if not isinstance(data, dict):
        raise CorpusError(f"{where}: must be an object")
    if key not in data:
        raise CorpusError(f"{where}: missing field {key!r}")
    value = data[key]
    if not isinstance(value, kind):
        raise CorpusError(f"{where}: field {key!r} has the wrong type")
    return value


def _list(data: dict, key: str, where: str) -> list:
    """The optional list field key of data; absent means empty."""
    value = data.get(key, [])
    if not isinstance(value, list):
        raise CorpusError(f"{where}: {key} must be a list")
    return value


def _parse_entry(text: Any, variables, where: str) -> Polynomial:
    if not isinstance(text, str):
        raise CorpusError(f"{where}: polynomial entries must be strings")
    try:
        return parse_polynomial(text, variables)
    except BudgetError as exc:
        raise BudgetError(f"{where}: {exc}") from exc
    except MfresError as exc:
        raise CorpusError(f"{where}: {exc}") from exc


def _parse_matrix(rows: Any, variables, where: str) -> PolyMatrix:
    if not isinstance(rows, list) or not rows:
        raise CorpusError(f"{where}: matrix must be a nonempty list of rows")
    parsed = []
    width = None
    for i, row in enumerate(rows):
        if not isinstance(row, list) or not row:
            raise CorpusError(f"{where}: row {i + 1} must be a nonempty list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise CorpusError(f"{where}: row {i + 1} has a different length")
        parsed.append([_parse_entry(e, variables, f"{where} row {i + 1}") for e in row])
    return PolyMatrix.from_rows(parsed)


def read_json(path: str | Path) -> Any:
    """The JSON document in a file; any failure to read or decode it,
    including integers past Python's digit limit and arrays or objects nested
    past the decoder's recursion limit, is a CorpusError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise CorpusError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise CorpusError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CorpusError(f"{path} is nested too deeply") from exc


def load_corpus(path: str | Path) -> CorpusFile:
    path = Path(path)
    raw = read_json(path)
    if not isinstance(raw, dict):
        raise CorpusError(f"{path}: top level must be an object")

    where = str(path)
    name = _expect(raw, "name", str, where)
    variables = tuple(_expect(raw, "variables", list, where))
    if not variables or not all(isinstance(v, str) for v in variables):
        raise CorpusError(f"{where}: variables must be a nonempty list of names")
    potential = _parse_entry(_expect(raw, "potential", str, where), variables,
                             f"{where} potential")

    factorizations = []
    for spec in _list(raw, "factorizations", where):
        label = _expect(spec, "label", str, f"{where} factorization")
        a = _parse_matrix(spec.get("A"), variables, f"{where} {label} matrix A")
        b = _parse_matrix(spec.get("B"), variables, f"{where} {label} matrix B")
        try:
            factorizations.append(
                MatrixFactorization(potential=potential, A=a, B=b, label=label))
        except MfresError as exc:
            raise CorpusError(f"{where} {label}: {exc}") from exc

    modules = []
    for spec in _list(raw, "modules", where):
        label = _expect(spec, "label", str, f"{where} module")
        ambient = _expect(spec, "ambient_rank", int, f"{where} module {label}")
        if isinstance(ambient, bool) or ambient < 1:
            raise CorpusError(f"{where} module {label}: ambient_rank must be a "
                              f"positive integer")
        rels = []
        for k, gen in enumerate(_list(spec, "relations", f"{where} module {label}")):
            if not isinstance(gen, list) or len(gen) != ambient:
                raise CorpusError(f"{where} module {label}: relation {k + 1} "
                                  f"needs {ambient} components")
            comps = tuple(_parse_entry(e, variables,
                                       f"{where} module {label} relation {k + 1}")
                          for e in gen)
            rels.append(FreeModuleElement(comps))
        try:
            modules.append(ModulePresentation(
                ambient_rank=ambient, relations=tuple(rels), potential=potential,
                label=label))
        except (MfresError, ValueError) as exc:
            raise CorpusError(f"{where} module {label}: {exc}") from exc

    expectations = _list(raw, "expectations", where)
    for k, rec in enumerate(expectations):
        if not isinstance(rec, dict) or "check" not in rec:
            raise CorpusError(f"{where}: expectation {k + 1} needs a 'check' field")

    seen = set()
    for item in list(factorizations) + list(modules):
        if item.label in seen:
            raise CorpusError(f"{where}: duplicate label {item.label!r}")
        seen.add(item.label)

    return CorpusFile(name=name, variables=variables, potential=potential,
                      factorizations=tuple(factorizations),
                      modules=tuple(modules),
                      expectations=tuple(dict(e) for e in expectations))


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def parse_fraction(text) -> Fraction:
    """Rational from the JSON encodings: int, or 'p/q' / 'p' strings.

    Decimals, exponents and underscores are refused before Fraction sees
    them, so a string like '1e99999999' never builds its integer."""
    if isinstance(text, bool):
        raise CorpusError("expected a rational, found a boolean")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str) and _RATIONAL.fullmatch(text):
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise CorpusError(f"bad rational {text!r}") from exc
    raise CorpusError(f"bad rational {text!r}")


def format_fraction(value: Fraction) -> str:
    """Rational rendered exactly: 'p' or 'p/q', never a float; BudgetError
    past Python's limit on the digits of an int turned into a string."""
    value = Fraction(value)
    try:
        return str(value.numerator) + ("" if value.denominator == 1 else f"/{value.denominator}")
    except ValueError as exc:
        raise BudgetError(f"a rational too long to print: {exc}") from None
