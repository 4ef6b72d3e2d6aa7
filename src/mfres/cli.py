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

selftest replays every expectation record in a corpus directory and prints
one PASS/FAIL line per check in text mode; it exits 1 when anything fails.
weight-filtration stands apart: it reads a plain JSON matrix file.

The argument parser is built on the first main call, not at import, and is
reused by every later call for the life of the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

from .corpus import CorpusFile, format_fraction, load_corpus, parse_fraction, read_json
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

    p = sub.add_parser("validate", help="load a corpus file, checking every factorization")
    p.add_argument("corpus")

    p = sub.add_parser("milnor", help="Milnor number of the potential")
    p.add_argument("corpus")

    p = sub.add_parser("chern", help="class of the trace form in the Milnor algebra")
    p.add_argument("corpus")
    p.add_argument("--item", required=True, help="factorization label")

    p = sub.add_parser("residue", help="residue pairing of two trace forms")
    p.add_argument("corpus")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("euler", help="Euler pairing of two factorizations")
    p.add_argument("corpus")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("theta", help="stable Tor difference of two modules")
    p.add_argument("corpus")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("herbrand", help="even minus odd stable Ext dimension")
    p.add_argument("corpus")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("hrr", help="both sides of the index identity")
    p.add_argument("corpus")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)

    p = sub.add_parser("gram", help="pairing matrix over a list of items")
    p.add_argument("corpus")
    p.add_argument("--pairing", choices=PAIRINGS, required=True)
    p.add_argument("--items", required=True, help="comma separated labels")

    p = sub.add_parser("psd", help="certify a gram report positive semidefinite")
    p.add_argument("report", help="JSON file produced by the gram command")

    p = sub.add_parser("weight-filtration", help="weight filtration of a nilpotent matrix")
    p.add_argument("--matrix", required=True, help="JSON file: list of rows")
    p.add_argument("--center", required=True, type=int)

    p = sub.add_parser("lemma-check", help="trace form identity for one factorization")
    p.add_argument("corpus")
    p.add_argument("--item", required=True)
    p.add_argument("--j", required=True, type=int)

    p = sub.add_parser("selftest", help="replay corpus expectations")
    p.add_argument("directory", nargs="?", default=None,
                   help="corpus directory (default: the built in corpus)")

    return parser


# ---------------------------------------------------------------------------
# command bodies; each returns (results dict, exit code)

def _cmd_validate(args, order):
    cf = load_corpus(args.corpus)
    return {
        "name": cf.name,
        "variables": list(cf.variables),
        "potential": to_string(cf.potential),
        "factorizations": [mf.label for mf in cf.factorizations],
        "modules": [mod.label for mod in cf.modules],
        "valid": True,
    }, 0


def _cmd_milnor(args, order):
    cf = load_corpus(args.corpus)
    alg = milnor_algebra(cf.potential, order)
    return {"mu": alg.mu}, 0


def _cmd_chern(args, order):
    cf = load_corpus(args.corpus)
    item = cf.factorization(args.item)
    alg = milnor_algebra(cf.potential, order)
    coords = chern_milnor_class(item, alg)
    basis = [to_string(Polynomial.monomial(alg.ring, exps))
             for _, exps in alg.basis.standard_monomials]
    return {
        "item": item.label,
        "basis": basis,
        "coordinates": [format_fraction(c) for c in coords],
        "zero": all(c == 0 for c in coords),
    }, 0


def _cmd_residue(args, order):
    cf = load_corpus(args.corpus)
    left = cf.factorization(args.left)
    right = cf.factorization(args.right)
    alg = milnor_algebra(cf.potential, order)
    rf = residue_functional(alg)
    value = residue_pairing(rf, chern_character_form(left), chern_character_form(right))
    return {"left": left.label, "right": right.label,
            "value": format_fraction(value)}, 0


def _cmd_euler(args, order):
    cf = load_corpus(args.corpus)
    left = cf.factorization(args.left)
    right = cf.factorization(args.right)
    return {"left": left.label, "right": right.label,
            "chi": euler_pairing(left, right)}, 0


def _cmd_theta(args, order):
    cf = load_corpus(args.corpus)
    left = cf.item(args.left)
    right = _as_presentation(cf.item(args.right))
    return {"left": args.left, "right": args.right,
            "theta": hochster_theta(left, right)}, 0


def _cmd_herbrand(args, order):
    cf = load_corpus(args.corpus)
    left = cf.factorization(args.left)
    right = cf.factorization(args.right)
    return {"left": left.label, "right": right.label,
            "h": herbrand_difference(left, right)}, 0


def _cmd_hrr(args, order):
    cf = load_corpus(args.corpus)
    left = cf.factorization(args.left)
    right = cf.factorization(args.right)
    report = hrr_check(left, right)
    return {
        "chi": report.chi,
        "residue_side": format_fraction(report.residue_side),
        "sign": report.sign,
        "equal": report.equal,
    }, 0


def _cmd_gram(args, order):
    cf = load_corpus(args.corpus)
    labels = [s for s in args.items.split(",") if s]
    if not labels:
        raise CorpusError("no item labels given")
    items = [cf.item(lbl) for lbl in labels]
    g = gram_matrix(items, args.pairing)
    return {
        "pairing": g.pairing,
        "labels": list(g.labels),
        "entries": [list(row) for row in g.entries],
    }, 0


def _cmd_psd(args, order):
    raw = read_json(args.report)
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
    g = GramMatrix(labels=tuple(labels), pairing=raw["pairing"],
                   entries=tuple(tuple(row) for row in rows))
    if any(len(row) != g.size for row in g.entries) or len(g.entries) != g.size:
        raise CorpusError("entries must form a square matrix over the labels")
    rep = is_positive_semidefinite(g)
    return {
        "psd": rep.psd,
        "kernel_dimension": len(rep.kernel_basis),
        "kernel_basis": [[format_fraction(v) for v in vec]
                         for vec in rep.kernel_basis],
        "negative_pivot": (None if rep.negative_pivot is None
                           else format_fraction(rep.negative_pivot)),
    }, 0


def _cmd_weight(args, order):
    raw = read_json(args.matrix)
    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise CorpusError("matrix file must hold a list of rows")
    # the budget goes first, so an oversized file has no entry converted
    check_operator_dimension(max([len(raw)] + [len(row) for row in raw]))
    rows = [[parse_fraction(v) for v in row] for row in raw]
    op = NilpotentOperator.from_rows(rows, args.center)
    # weight_filtration verifies both axioms, raising InternalCheckError otherwise
    wf = weight_filtration(op)
    graded = graded_dimensions(wf)
    primitive = {}
    for l in range(0, wf.highest - op.center + 1):
        primitive[str(l)] = len(primitive_subspace(wf, l))
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
    }, 0


def _lemma_holds(item, j) -> bool:
    """euler_lemma_check, with a j it cannot take as a CorpusError."""
    if type(j) is not int:
        raise CorpusError(f"lemma needs an integer j, found {j!r}")
    try:
        return euler_lemma_check(item, j)
    except ValueError as exc:
        raise CorpusError(str(exc)) from exc


def _cmd_lemma(args, order):
    cf = load_corpus(args.corpus)
    item = cf.factorization(args.item)
    holds = _lemma_holds(item, args.j)
    return {"item": item.label, "j": args.j, "holds": holds}, 0


# ---------------------------------------------------------------------------
# selftest

def _expect_label(rec, key):
    value = rec.get(key)
    if not isinstance(value, str):
        raise CorpusError(f"expectation needs a string field {key!r}")
    return value


def _expect_gram(cf: CorpusFile, rec: dict) -> GramMatrix:
    """The Gram matrix that a gram or gram_psd record names."""
    pairing = rec.get("pairing", "euler")
    if pairing not in PAIRINGS:
        raise CorpusError(f"expectation pairing must be one of {', '.join(PAIRINGS)}")
    labels = rec.get("items")
    if not isinstance(labels, list) or not labels:
        raise CorpusError("expectation needs a nonempty list field 'items'")
    return gram_matrix([cf.item(lbl) for lbl in labels], pairing)


def _run_expectation(cf: CorpusFile, rec: dict, order):
    """One (description, passed, note) triple per expectation record."""
    kind = rec.get("check")

    if kind == "milnor":
        want = rec.get("mu")
        got = milnor_algebra(cf.potential, order).mu
        return f"milnor mu={want}", got == want, f"found {got}"

    if kind in ("euler", "herbrand"):
        left = cf.factorization(_expect_label(rec, "left"))
        right = cf.factorization(_expect_label(rec, "right"))
        want = rec.get("value")
        got = (euler_pairing if kind == "euler" else herbrand_difference)(left, right)
        return (f"{kind} {left.label} {right.label} = {want}",
                got == want, f"found {got}")

    if kind == "theta":
        left = cf.item(_expect_label(rec, "left"))
        right = _as_presentation(cf.item(_expect_label(rec, "right")))
        want = rec.get("value")
        got = hochster_theta(left, right)
        return (f"theta {rec['left']} {rec['right']} = {want}",
                got == want, f"found {got}")

    if kind == "tor":
        item = cf.factorization(_expect_label(rec, "item"))
        module = _as_presentation(cf.item(_expect_label(rec, "module")))
        want = rec.get("value")
        got = list(tor_lengths(item, module))
        return (f"tor {item.label} {rec['module']} = {want}",
                got == want, f"found {got}")

    if kind == "hrr":
        left = cf.factorization(_expect_label(rec, "left"))
        right = cf.factorization(_expect_label(rec, "right"))
        report = hrr_check(left, right)
        ok = report.equal
        if "chi" in rec:
            ok = ok and report.chi == rec["chi"]
        return (f"hrr {left.label} {right.label}", ok,
                f"chi={report.chi} residue_side={format_fraction(report.residue_side)} "
                f"sign={report.sign}")

    if kind == "residue":
        argument = parse_polynomial(_expect_label(rec, "argument"), cf.variables)
        want = parse_fraction(rec.get("value"))
        alg = milnor_algebra(cf.potential, order)
        got = residue_functional(alg).evaluate(argument)
        return (f"residue {rec['argument']} = {rec['value']}",
                got == want, f"found {format_fraction(got)}")

    if kind == "chern":
        item = cf.factorization(_expect_label(rec, "item"))
        alg = milnor_algebra(cf.potential, order)
        coords = chern_milnor_class(item, alg)
        if rec.get("zero") is True:
            return (f"chern {item.label} zero", all(c == 0 for c in coords),
                    f"found [{', '.join(format_fraction(c) for c in coords)}]")
        want = rec.get("coordinates", [])
        if not isinstance(want, list):
            raise CorpusError("expectation field 'coordinates' must be a list")
        want = [parse_fraction(v) for v in want]
        return (f"chern {item.label}", list(coords) == want,
                f"found [{', '.join(format_fraction(c) for c in coords)}]")

    if kind == "gram":
        g = _expect_gram(cf, rec)
        want = rec.get("entries")
        got = [list(row) for row in g.entries]
        return (f"gram {rec.get('pairing')} {','.join(rec['items'])}",
                got == want, f"found {got}")

    if kind == "gram_psd":
        g = _expect_gram(cf, rec)
        rep = is_positive_semidefinite(g)
        ok = rep.psd
        note = f"psd={rep.psd} kernel_dimension={len(rep.kernel_basis)}"
        if "kernel_dimension" in rec:
            ok = ok and len(rep.kernel_basis) == rec["kernel_dimension"]
        return (f"gram_psd {rec.get('pairing')} {','.join(rec['items'])}", ok, note)

    if kind == "lemma":
        item = cf.factorization(_expect_label(rec, "item"))
        j = rec.get("j", 1)
        holds = _lemma_holds(item, j)
        return f"lemma {item.label} j={j}", holds, f"holds={holds}"

    return f"unknown check {kind!r}", False, "unrecognized expectation"


def builtin_corpus_dir() -> Path:
    return Path(__file__).resolve().parent / "corpus"


def _cmd_selftest(args, order):
    directory = Path(args.directory) if args.directory else builtin_corpus_dir()
    if not directory.is_dir():
        raise CorpusError(f"{directory} is not a directory")
    checks = []
    for path in sorted(directory.glob("*.json")):
        cf = load_corpus(path)
        for rec in cf.expectations:
            try:
                description, passed, note = _run_expectation(cf, rec, order)
            except MfresError as exc:
                description = f"{rec.get('check')} (error)"
                passed, note = False, str(exc)
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
    return results, (1 if failed else 0)


_COMMANDS = {
    "validate": _cmd_validate,
    "milnor": _cmd_milnor,
    "chern": _cmd_chern,
    "residue": _cmd_residue,
    "euler": _cmd_euler,
    "theta": _cmd_theta,
    "herbrand": _cmd_herbrand,
    "hrr": _cmd_hrr,
    "gram": _cmd_gram,
    "psd": _cmd_psd,
    "weight-filtration": _cmd_weight,
    "lemma-check": _cmd_lemma,
    "selftest": _cmd_selftest,
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
    try:
        results, code = _COMMANDS[args.command](args, order)
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
    return code


if __name__ == "__main__":
    sys.exit(main())
