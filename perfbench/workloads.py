"""The four workloads: seeded inputs, one round of operations, and checks.

Each workload function takes the freshly imported mfres package, a seeded
random generator and a scratch directory inside the checkout, and returns a
Workload: the list of operations making up one round. The timed loop runs
whole rounds, so every run repeats the same operations on the same inputs.
Operations look engine functions up on the package at call time, so the
traced run sees the wrappers tracing.install puts there.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import inputs
import oracles

VARS = ("x", "y", "z", "w")


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # a message when the output is wrong


class CacheCounter:
    """Hits and misses of the milnor_algebra cache, kept across clears.

    Holds the cached functions themselves, since the traced run rebinds
    their names to wrappers."""

    def __init__(self, mfres):
        self.milnor = mfres.pairings.milnor_algebra
        self.residue = mfres.pairings.residue_functional
        self.hits = self.misses = 0

    def clear(self) -> None:
        info = self.milnor.cache_info()
        self.hits += info.hits
        self.misses += info.misses
        self.milnor.cache_clear()
        self.residue.cache_clear()

    def read(self) -> tuple[int, int]:
        info = self.milnor.cache_info()
        return self.hits + info.hits, self.misses + info.misses


@dataclass
class Workload:
    ops: list[Op]
    caches: CacheCounter


def _factorization(mfres, spec: dict, side: str):
    ring = VARS[:len(spec["degrees"])]
    a, b = inputs.factorization(spec, side)

    def matrix(rows):
        return mfres.PolyMatrix.from_rows([[mfres.Polynomial(ring, p) for p in row]
                                           for row in rows])

    f = mfres.Polynomial(ring, inputs.potential(spec["degrees"]))
    return mfres.MatrixFactorization(f, matrix(a), matrix(b), side)


def _expect(want):
    def check(got):
        return None if got == want else f"got {got}, expected {want}"
    return check


# ---------------------------------------------------------------------------
# koszul: the Hom complex and PolyMatrix products on monomial entries

def koszul(mfres, rng, workdir) -> Workload:
    """Four walks up the ladder: one rank-2 pair (2 variables), then three
    rank-4 pairs (3 variables). Rank 8 (4 variables) takes about 10 s per
    pairing, too long for a steady run; the README gives it as a reference.
    The operation is the Euler pairing's two steps, called one by one so
    that both homology dimensions can be checked."""
    ops = []
    for _ in range(4):
        for nvars in (2, 3, 3, 3):
            spec = inputs.koszul_pair(rng, nvars)
            x, y = _factorization(mfres, spec, "left"), _factorization(mfres, spec, "right")
            want = oracles.koszul_homology(spec["degrees"], spec["left"][0], spec["right"][0])
            ops.append(Op(f"rank{x.rank}",
                          lambda x=x, y=y: mfres.homology_dimensions(mfres.hom_complex(x, y)),
                          _expect(want)))
    return Workload(ops, CacheCounter(mfres))


# ---------------------------------------------------------------------------
# koszul-mixed: both sides of the index identity on dense entries

# (degrees, left splits, right splits), one list of splits per summand. The
# splits set a pair's cost, so they are fixed and the seed draws the changes
# of basis: one pair's cost then varies by under 10% from seed to seed.
MIXED_PAIRS = [
    ((3, 3), [[1, 1], [2, 2]], [[1, 2], [2, 1]]),
    ((3, 4), [[1, 1], [2, 3]], [[1, 2], [2, 2]]),
    ((4, 3), [[2, 1], [3, 2]], [[1, 1], [2, 2]]),
    ((4, 4), [[1, 2], [3, 3]], [[2, 2], [1, 3]]),
    ((3, 3), [[1, 2], [2, 1]], [[1, 1], [1, 1]]),
    ((3, 4), [[2, 1], [1, 3]], [[2, 2], [1, 1]]),
    ((4, 3), [[1, 2], [2, 1]], [[3, 1], [2, 2]]),
    ((4, 4), [[2, 2], [1, 1]], [[3, 1], [1, 2]]),
]


def koszul_mixed(mfres, rng, workdir) -> Workload:
    """The pairs of MIXED_PAIRS under seeded unimodular changes of basis. The
    Milnor algebras and residue functionals of the four potentials are built
    here, so the timed rounds hit the cache."""
    sign = oracles.hrr_sign(2)
    ops = []
    for degrees, left, right in MIXED_PAIRS:
        spec = inputs.mixed_pair(rng, degrees, left, right)
        x, y = _factorization(mfres, spec, "left"), _factorization(mfres, spec, "right")
        mfres.residue_functional(mfres.milnor_algebra(x.potential))
        want = oracles.direct_sum_homology(spec["degrees"], spec["left"], spec["right"])

        def run(x=x, y=y):
            h = mfres.homology_dimensions(mfres.hom_complex(x, y))
            rf = mfres.residue_functional(mfres.milnor_algebra(x.potential))
            res = mfres.residue_pairing(rf, mfres.chern_character_form(x),
                                        mfres.chern_character_form(y))
            return h, res

        def check(out, want=want):
            h, res = out
            if h != want:
                return f"homology {h}, expected {want}"
            if h[0] - h[1] != sign * res:
                return f"chi {h[0] - h[1]} != {sign} * residue side {res}"
            return None

        ops.append(Op(f"degrees{degrees[0]}{degrees[1]}", run, check))
    return Workload(ops, CacheCounter(mfres))


# ---------------------------------------------------------------------------
# filtrations: hodge and ratmat only

def filtrations(mfres, rng, workdir) -> Workload:
    """Every Jordan type of dimension 4..8 with a block of size > 1, each
    conjugated by a seeded unimodular matrix, with a seeded center."""
    ops = []
    for blocks in inputs.jordan_types():
        case = inputs.filtration_case(rng, blocks)

        def run(case=case):
            op = mfres.NilpotentOperator.from_rows(case["matrix"], case["center"])
            wf = mfres.weight_filtration(op)
            report = mfres.verify_weight_axioms(wf)
            graded = mfres.graded_dimensions(wf)
            primitive = {l: len(mfres.primitive_subspace(wf, l))
                         for l in range(0, wf.highest - op.center + 1)}
            return (op.nilpotency_index, graded, primitive, report.shift_ok, report.iso_ok)

        def check(out, case=case):
            problems = oracles.check_filtration(case["blocks"], case["center"], *out)
            return "; ".join(problems) or None

        ops.append(Op(f"dim{sum(blocks)}", run, check))
    return Workload(ops, CacheCounter(mfres))


# ---------------------------------------------------------------------------
# cli-corpus: many small in-process invocations of the command line

CORPUS_FACTORIZATIONS = {"cubic": ["C1", "C1s", "D1"], "cusp": ["K"],
                         "node": ["N1", "N1s"], "plane": ["S"]}
CORPUS_THETA = {"cubic": ["m1", "m2", "C1"], "node": ["Rx", "Ry", "N1"],
                "clifford": ["CL"]}
CORPUS_SIGNED_THETA = {"cubic": ["m1", "m2"], "node": ["Rx", "Ry"]}
FILTRATION_TYPES = ([3, 1], [4, 2], [5, 2, 1], [2, 2, 1, 1])


def _input_file(path: Path, text: str) -> str:
    """Write text unless the file already holds it: writing a file can take
    60 ms on a journalling filesystem, which would swamp the set-up time."""
    if not path.exists() or path.read_text() != text:
        path.write_text(text)
    return str(path)


def _argv_list(corpus_dir: Path, grams: dict, cases) -> list[tuple[list[str], dict]]:
    """(argv, filtration case or None) for every invocation of one round."""
    def path(name):
        return str(corpus_dir / f"{name}.json")

    argvs = [["selftest"]]
    for f in sorted(p.stem for p in corpus_dir.glob("*.json")):
        argvs += [["validate", path(f)], ["milnor", path(f)]]
    for f, labels in CORPUS_FACTORIZATIONS.items():
        for a in labels:
            argvs += [["chern", path(f), "--item", a],
                      ["lemma-check", path(f), "--item", a, "--j", "1"]]
            for b in labels:
                for cmd in ("residue", "euler", "herbrand", "hrr"):
                    argvs.append([cmd, path(f), "--left", a, "--right", b])
        argvs.append(["gram", path(f), "--pairing", "euler", "--items", ",".join(labels)])
        argvs.append(["psd", grams[f]])
    argvs.append(["lemma-check", path("clifford"), "--item", "CL", "--j", "1"])
    for f, labels in CORPUS_THETA.items():
        for a in labels:
            for b in labels:
                argvs.append(["theta", path(f), "--left", a, "--right", b])
        argvs.append(["gram", path(f), "--pairing", "theta", "--items", ",".join(labels)])
    for f, labels in CORPUS_SIGNED_THETA.items():
        argvs.append(["gram", path(f), "--pairing", "signed_theta", "--items", ",".join(labels)])
    out = [(argv, None) for argv in argvs]
    for case in cases:
        out.append((["weight-filtration", "--matrix", case["path"],
                     "--center", str(case["center"])], case))
    return out


def _cli_check(argv, expectations: int, case):
    command = argv[0]
    sign = oracles.hrr_sign(2)

    def check(out):
        code, text = out
        if code != 0:
            return f"exit code {code}"
        envelope = json.loads(text)
        if envelope.get("status") != "ok":
            return f"status {envelope.get('status')}"
        r = envelope["results"]
        if command == "selftest" and (r["passed"], r["failed"]) != (expectations, 0):
            return f"selftest {r['passed']} passed, {r['failed']} failed of {expectations}"
        if command == "hrr":
            if not r["equal"] or r["sign"] != sign or r["chi"] != sign * Fraction(r["residue_side"]):
                return f"hrr {r}"
        if command == "psd" and not r["psd"]:
            return "euler gram is not positive semidefinite"
        if command == "weight-filtration":
            graded = {int(k): v for k, v in r["graded"].items()}
            primitive = {int(k): v for k, v in r["primitive"].items()}
            problems = oracles.check_filtration(case["blocks"], case["center"],
                                                r["nilpotency_index"], graded, primitive,
                                                r["shift_ok"], r["iso_ok"])
            return "; ".join(problems) or None
        return None
    return check


def cli_corpus(mfres, rng, workdir) -> Workload:
    """One invocation of every command over the built-in corpus: every ordered
    pair for the pairwise commands, the three Gram pairings, psd on each Euler
    Gram, and weight-filtration on four seeded nilpotents. Each call starts
    with empty caches, as a fresh process would."""
    corpus_dir = Path(mfres.cli.builtin_corpus_dir())
    expectations = sum(len(json.loads(p.read_text()).get("expectations", []))
                       for p in corpus_dir.glob("*.json"))
    cases = [inputs.filtration_case(rng, blocks) for blocks in FILTRATION_TYPES]
    for i, case in enumerate(cases):
        case["path"] = _input_file(workdir / f"wf-{i}.json", json.dumps(case["matrix"]))
    caches = CacheCounter(mfres)

    def invoke(argv):
        caches.clear()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = mfres.cli.main(argv)
        return code, buf.getvalue()

    grams = {}  # psd reads the report that gram printed
    for f, labels in CORPUS_FACTORIZATIONS.items():
        code, text = invoke(["gram", str(corpus_dir / f"{f}.json"), "--pairing", "euler",
                             "--items", ",".join(labels)])
        if code != 0:
            raise RuntimeError(f"gram on {f} exited {code}")
        grams[f] = _input_file(workdir / f"gram-{f}.json", text)

    ops = [Op(argv[0], lambda argv=argv: invoke(argv), _cli_check(argv, expectations, case))
           for argv, case in _argv_list(corpus_dir, grams, cases)]
    return Workload(ops, caches)


WORKLOADS = {
    "koszul": koszul,
    "koszul-mixed": koszul_mixed,
    "filtrations": filtrations,
    "cli-corpus": cli_corpus,
}
