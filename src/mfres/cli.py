"""Command line front end.

Every command prints one JSON envelope {"command", "status", "results"} by
default (--format text gives plain lines instead). Exit codes: 0 on success,
1 on a domain error (bad input, failed factorization, singular trouble), 2 on
a usage error. Rational values appear as exact strings like "-2" or "1/9";
integer counts stay bare JSON integers. Output is deterministic byte for
byte for a given input.

Most commands read a corpus JSON file (see the corpus module docstring for
the format) and pick items out of it by label:

    mfres milnor corpus/node.json
    mfres hrr corpus/cubic.json --left C1 --right C1
    mfres gram corpus/node.json --pairing signed_theta --items Rx,Ry

Each command is one body(corpus file, fields, order) -> results, given the
parsed arguments as fields. selftest replays every expectation record in a
corpus directory: a record names a command (its "check") and that command's
fields, and runs through the same body, so it passes or fails on the results
the command prints (tor and residue records have no command). selftest
prints one PASS/FAIL line per record in text mode and exits 1 when anything
fails. weight-filtration stands apart: it reads a plain JSON matrix file.

The argument parser is built on the first main call, not at import, and is
reused by every later call for the life of the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .corpus import format_fraction, load_corpus, parse_fraction, read_json
from .errors import CorpusError, MfresError
from .forms import chern_character_form, euler_lemma_check
from .groebner import get_order
from .hodge import (
    NilpotentOperator,
    check_operator_dimension,
    graded_dimensions,
    primitive_subspace,
    weight_filtration,
)
from .mf import tor_lengths
from .pairings import (
    PAIRINGS,
    GramMatrix,
    _as_presentation,
    check_gram_size,
    chern_milnor_class,
    euler_pairing,
    gram_matrix,
    herbrand_difference,
    hochster_theta,
    hrr_check,
    is_positive_semidefinite,
    milnor_algebra,
    residue_functional,
    residue_pairing,
)
from .polyring import Polynomial, parse_polynomial, to_string


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mfres",
        description="exact pairings on matrix factorizations of isolated singularities")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="output style (default json)")
    parser.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex",
                        help="monomial order of the Milnor algebra basis that chern reports "
                             "coordinates on; pairings, Tor and mu do not depend on it "
                             "(default degrevlex)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


# ---------------------------------------------------------------------------
# command bodies: body(corpus file or None, fields, order) -> results, where
# fields are the parsed arguments or an expectation record. Bodies call engine
# functions by their module level names, so a rebinding of those names (as the
# traced benchmark run makes) reaches every command and every replay.

def _cmd_validate(cf, fields, order):
    return {
        "name": cf.name,
        "variables": list(cf.variables),
        "potential": to_string(cf.potential),
        "factorizations": [mf.label for mf in cf.factorizations],
        "modules": [mod.label for mod in cf.modules],
        "valid": True,
    }


def _cmd_milnor(cf, fields, order):
    return {"mu": milnor_algebra(cf.potential, order).mu}


def _cmd_chern(cf, fields, order):
    item = cf.factorization(fields["item"])
    alg = milnor_algebra(cf.potential, order)
    coords = chern_milnor_class(item, alg)
    basis = [to_string(Polynomial.monomial(alg.ring, exps))
             for _, exps in alg.basis.standard_monomials]
    return {
        "item": item.label,
        "basis": basis,
        "coordinates": [format_fraction(c) for c in coords],
        "zero": all(c == 0 for c in coords),
    }


def _cmd_residue(cf, fields, order):
    left = cf.factorization(fields["left"])
    right = cf.factorization(fields["right"])
    rf = residue_functional(milnor_algebra(cf.potential, order))
    value = residue_pairing(rf, chern_character_form(left), chern_character_form(right))
    return {"left": left.label, "right": right.label, "value": format_fraction(value)}


def _cmd_euler(cf, fields, order):
    left = cf.factorization(fields["left"])
    right = cf.factorization(fields["right"])
    return {"left": left.label, "right": right.label, "chi": euler_pairing(left, right)}


def _cmd_theta(cf, fields, order):
    left = cf.item(fields["left"])
    right = _as_presentation(cf.item(fields["right"]))
    return {"left": fields["left"], "right": fields["right"],
            "theta": hochster_theta(left, right)}


def _cmd_herbrand(cf, fields, order):
    left = cf.factorization(fields["left"])
    right = cf.factorization(fields["right"])
    return {"left": left.label, "right": right.label, "h": herbrand_difference(left, right)}


def _cmd_hrr(cf, fields, order):
    report = hrr_check(cf.factorization(fields["left"]), cf.factorization(fields["right"]))
    return {
        "chi": report.chi,
        "residue_side": format_fraction(report.residue_side),
        "sign": report.sign,
        "equal": report.equal,
    }


def _cmd_gram(cf, fields, order):
    if not fields["items"]:
        raise CorpusError("no item labels given")
    g = gram_matrix([cf.item(lbl) for lbl in fields["items"]], fields["pairing"])
    return {
        "pairing": g.pairing,
        "labels": list(g.labels),
        "entries": [list(row) for row in g.entries],
    }


def _certify(report: dict) -> dict:
    """psd results on a gram report: its labels, pairing and integer entries."""
    rep = is_positive_semidefinite(GramMatrix(
        labels=tuple(report["labels"]), pairing=report["pairing"],
        entries=tuple(tuple(row) for row in report["entries"])))
    return {
        "psd": rep.psd,
        "kernel_dimension": len(rep.kernel_basis),
        "kernel_basis": [[format_fraction(v) for v in vec]
                         for vec in rep.kernel_basis],
        "negative_pivot": (None if rep.negative_pivot is None
                           else format_fraction(rep.negative_pivot)),
    }


def _cmd_psd(cf, fields, order):
    raw = read_json(fields["report"])
    if isinstance(raw, dict) and "results" in raw:
        raw = raw["results"]
    if not isinstance(raw, dict):
        raise CorpusError("report must hold a gram object")
    for key in ("labels", "pairing", "entries"):
        if key not in raw:
            raise CorpusError(f"report is missing {key!r}")
    labels, rows = raw["labels"], raw["entries"]
    if not isinstance(labels, list) or not all(isinstance(s, str) for s in labels):
        raise CorpusError("labels must be a list of strings")
    if raw["pairing"] not in PAIRINGS:
        raise CorpusError(f"pairing must be one of {', '.join(PAIRINGS)}")
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise CorpusError("entries must be a list of rows")
    # the budget goes first, so an oversized report has no entry inspected
    check_gram_size(max([len(labels), len(rows)] + [len(row) for row in rows]))
    # Gram entries are integers: no floats (2.0 included), booleans or strings
    if any(type(v) is not int for row in rows for v in row):
        raise CorpusError("entries must be integers")
    if any(len(row) != len(labels) for row in rows) or len(rows) != len(labels):
        raise CorpusError("entries must form a square matrix over the labels")
    return _certify(raw)


def _cmd_weight(cf, fields, order):
    raw = read_json(fields["matrix"])
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise CorpusError("matrix file must hold a list of rows")
    # the budget goes first, so an oversized file has no entry converted
    check_operator_dimension(max([len(raw)] + [len(row) for row in raw]))
    rows = [[parse_fraction(v) for v in row] for row in raw]
    op = NilpotentOperator.from_rows(rows, fields["center"])
    # weight_filtration verifies both axioms, raising InternalCheckError otherwise
    wf = weight_filtration(op)
    graded = graded_dimensions(wf)
    primitive = {str(l): len(primitive_subspace(wf, l))
                 for l in range(0, wf.highest - op.center + 1)}
    return {
        "dimension": op.dimension,
        "center": op.center,
        "nilpotency_index": op.nilpotency_index,
        "lowest": wf.lowest,
        "highest": wf.highest,
        "graded": {str(k): graded[k] for k in sorted(graded)},
        "primitive": primitive,
        "shift_ok": True,
        "iso_ok": True,
    }


def _cmd_lemma(cf, fields, order):
    item = cf.factorization(fields["item"])
    j = fields["j"]
    if type(j) is not int:
        raise CorpusError(f"lemma needs an integer j, found {j!r}")
    try:
        holds = euler_lemma_check(item, j)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc
    return {"item": item.label, "j": j, "holds": holds}


# ---------------------------------------------------------------------------
# selftest: a record of kind k is fields(record) replayed through body k and
# judged by verdict k on the results

def _strings(*keys):
    """Record -> fields, once each of keys holds a string."""
    def fields(rec):
        for key in keys:
            if not isinstance(rec.get(key), str):
                raise CorpusError(f"expectation needs a string field {key!r}")
        return rec
    return fields


def _gram_fields(rec):
    """The pairing and items of a gram or gram_psd record, checked as the
    parser checks --pairing and --items."""
    fields = {"pairing": rec.get("pairing", "euler"), "items": rec.get("items")}
    if fields["pairing"] not in PAIRINGS:
        raise CorpusError(f"expectation pairing must be one of {', '.join(PAIRINGS)}")
    if not isinstance(fields["items"], list) or not fields["items"]:
        raise CorpusError("expectation needs a nonempty list field 'items'")
    return fields


def _tor(cf, rec, order):
    item = cf.factorization(rec["item"])
    return {"tor": list(tor_lengths(item, _as_presentation(cf.item(rec["module"]))))}


def _residue(cf, rec, order):
    argument = parse_polynomial(rec["argument"], cf.variables)
    want = parse_fraction(rec.get("value"))
    got = residue_functional(milnor_algebra(cf.potential, order)).evaluate(argument)
    return {"found": format_fraction(got), "equal": got == want}


def _value(key, left="left", right="right"):
    """Verdict on a record whose 'value' is results[key]."""
    return lambda rec, r: (f"{rec['check']} {rec[left]} {rec[right]} = {rec.get('value')}",
                           r[key] == rec.get("value"), f"found {r[key]}")


def _chern_verdict(rec, r):
    found = f"found [{', '.join(r['coordinates'])}]"
    if rec.get("zero") is True:
        return f"chern {r['item']} zero", r["zero"], found
    want = rec.get("coordinates", [])
    if not isinstance(want, list):
        raise CorpusError("expectation field 'coordinates' must be a list")
    want = [format_fraction(parse_fraction(v)) for v in want]
    return f"chern {r['item']}", r["coordinates"] == want, found


def _items(rec):
    return f"{rec.get('pairing')} {','.join(rec['items'])}"


# record kind -> (fields(record), body, verdict(record, results) ->
# (description, pass, note))
_REPLAY = {
    "milnor": (_strings(), _cmd_milnor, lambda rec, r: (
        f"milnor mu={rec.get('mu')}", r["mu"] == rec.get("mu"), f"found {r['mu']}")),
    "euler": (_strings("left", "right"), _cmd_euler, _value("chi")),
    "herbrand": (_strings("left", "right"), _cmd_herbrand, _value("h")),
    "theta": (_strings("left", "right"), _cmd_theta, _value("theta")),
    "tor": (_strings("item", "module"), _tor, _value("tor", "item", "module")),
    "hrr": (_strings("left", "right"), _cmd_hrr, lambda rec, r: (
        f"hrr {rec['left']} {rec['right']}",
        r["equal"] and ("chi" not in rec or r["chi"] == rec["chi"]),
        f"chi={r['chi']} residue_side={r['residue_side']} sign={r['sign']}")),
    "residue": (_strings("argument"), _residue, lambda rec, r: (
        f"residue {rec['argument']} = {rec['value']}", r["equal"], f"found {r['found']}")),
    "chern": (_strings("item"), _cmd_chern, _chern_verdict),
    "gram": (_gram_fields, _cmd_gram, lambda rec, r: (
        f"gram {_items(rec)}", r["entries"] == rec.get("entries"), f"found {r['entries']}")),
    "gram_psd": (_gram_fields, lambda cf, f, order: _certify(_cmd_gram(cf, f, order)),
                 lambda rec, r: (
                     f"gram_psd {_items(rec)}",
                     r["psd"] and ("kernel_dimension" not in rec
                                   or r["kernel_dimension"] == rec["kernel_dimension"]),
                     f"psd={r['psd']} kernel_dimension={r['kernel_dimension']}")),
    "lemma": (lambda rec: {"j": 1, **_strings("item")(rec)}, _cmd_lemma, lambda rec, r: (
        f"lemma {r['item']} j={r['j']}", r["holds"], f"holds={r['holds']}")),
}


def builtin_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _cmd_selftest(cf, fields, order):
    directory = Path(fields["directory"]) if fields["directory"] else builtin_corpus_dir()
    if not directory.is_dir():
        raise CorpusError(f"{directory} is not a directory")
    checks = []
    for path in sorted(directory.glob("*.json")):
        cf = load_corpus(path)
        for rec in cf.expectations:
            kind = rec.get("check")  # any JSON value; a list or an object is unhashable
            if not isinstance(kind, str) or kind not in _REPLAY:
                description, passed, note = (f"unknown check {kind!r}", False,
                                             "unrecognized expectation")
            else:
                fields_of, body, verdict = _REPLAY[kind]
                try:
                    description, passed, note = verdict(rec, body(cf, fields_of(rec), order))
                except MfresError as exc:
                    description, passed, note = f"{kind} (error)", False, str(exc)
            checks.append({
                "corpus": cf.name,
                "description": description,
                "pass": passed,
                "note": note,
            })
    passed = sum(1 for c in checks if c["pass"])
    failed = len(checks) - passed
    results = {"checks": checks, "passed": passed, "failed": failed}
    if not checks:
        results["warning"] = "0 checks: no expectations found"
    return results


def _arg(flag, **options):
    return flag, options


_CORPUS = (_arg("corpus"),)
_PAIR = _CORPUS + (_arg("--left", required=True), _arg("--right", required=True))

# command -> (help, arguments, body); a command whose arguments hold the
# corpus positional has that file loaded for its body
_COMMANDS = {
    "validate": ("load a corpus file, checking every factorization", _CORPUS, _cmd_validate),
    "milnor": ("Milnor number of the potential", _CORPUS, _cmd_milnor),
    "chern": ("class of the trace form in the Milnor algebra",
              _CORPUS + (_arg("--item", required=True, help="factorization label"),),
              _cmd_chern),
    "residue": ("residue pairing of two trace forms", _PAIR, _cmd_residue),
    "euler": ("Euler pairing of two factorizations", _PAIR, _cmd_euler),
    "theta": ("stable Tor difference of two modules", _PAIR, _cmd_theta),
    "herbrand": ("even minus odd stable Ext dimension", _PAIR, _cmd_herbrand),
    "hrr": ("both sides of the index identity", _PAIR, _cmd_hrr),
    "gram": ("pairing matrix over a list of items", _CORPUS + (
        _arg("--pairing", choices=PAIRINGS, required=True),
        _arg("--items", required=True, help="comma separated labels",
             type=lambda text: [s for s in text.split(",") if s])), _cmd_gram),
    "psd": ("certify a gram report positive semidefinite",
            (_arg("report", help="JSON file produced by the gram command"),), _cmd_psd),
    "weight-filtration": ("weight filtration of a nilpotent matrix", (
        _arg("--matrix", required=True, help="JSON file: list of rows"),
        _arg("--center", required=True, type=int)), _cmd_weight),
    "lemma-check": ("trace form identity for one factorization", _CORPUS + (
        _arg("--item", required=True), _arg("--j", required=True, type=int)), _cmd_lemma),
    "selftest": ("replay corpus expectations", (
        _arg("directory", nargs="?", default=None,
             help="corpus directory (default: the built in corpus)"),), _cmd_selftest),
}


# ---------------------------------------------------------------------------
# rendering

def _render_text(command: str, results: dict) -> str:
    if command == "selftest":
        lines = []
        for c in results["checks"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status} {c['corpus']}: {c['description']} ({c['note']})")
        if "warning" in results:
            lines.append(f"warning: {results['warning']}")
        lines.append(f"{results['passed']} passed, {results['failed']} failed")
        return "\n".join(lines)
    lines = []
    for key, value in results.items():
        if isinstance(value, str):
            lines.append(f"{key}: {value}")
        else:
            lines.append(f"{key}: {json.dumps(value)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    order = get_order(args.order)
    fields = vars(args)
    try:
        cf = load_corpus(args.corpus) if "corpus" in fields else None
        results = _COMMANDS[args.command][2](cf, fields, order)
    except MfresError as exc:
        error = {"type": type(exc).__name__, "message": str(exc)}
        offset = getattr(exc, "offset", None)
        if offset is not None:
            error["offset"] = offset
        envelope = {"command": args.command, "status": "error", "error": error}
        if args.format == "json":
            print(json.dumps(envelope, indent=2))
        else:
            print(f"error ({error['type']}): {error['message']}")
        return 1
    envelope = {"command": args.command, "status": "ok", "results": results}
    if args.format == "json":
        print(json.dumps(envelope, indent=2))
    else:
        print(_render_text(args.command, results))
    # selftest is the one command that fails without an error
    return 1 if args.command == "selftest" and results["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
