"""Spans around the package's public functions, for the traced run only.

install() replaces each function named in SPANS and COUNTS with a
wrapper, everywhere the package bound the name (mf imports syzygy_basis,
pairings imports hom_complex, the cli imports nearly everything), so calls
between modules are seen too. The untraced run never imports this module.

A span's self time is its duration minus the part of it covered by child
spans. Spans nest per thread. gram_matrix computes its entries on a thread
pool, so a span that opens on a worker thread with no span of its own open
is a child of the span open on the installing thread at that moment.
Polynomial.__mul__ and the nilpotency_index property are only counted: they
are too small to time, and their time stays in the caller's self time.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

# metric prefix -> (module, attribute); a dotted attribute is a class member
SPANS = {
    "polyring.matmul": ("polyring", "PolyMatrix.__matmul__"),
    "polyring.parse_polynomial": ("polyring", "parse_polynomial"),
    "mf.hom_complex": ("mf", "hom_complex"),
    "mf.validate_mf": ("mf", "validate_mf"),
    "mf.homology_dimensions": ("mf", "homology_dimensions"),
    "mf.tor_lengths": ("mf", "tor_lengths"),
    "groebner.syzygy_basis": ("groebner", "syzygy_basis"),
    "groebner.subquotient_dimension": ("groebner", "subquotient_dimension"),
    "groebner.groebner_basis": ("groebner", "groebner_basis"),
    "groebner.normal_form": ("groebner", "normal_form"),
    "groebner.express_in_terms": ("groebner", "express_in_terms"),
    "pairings.residue_functional": ("pairings", "residue_functional"),
    "pairings.hochster_theta": ("pairings", "hochster_theta"),
    "pairings.gram_matrix": ("pairings", "gram_matrix"),
    "pairings.is_positive_semidefinite": ("pairings", "is_positive_semidefinite"),
    "forms.chern_character_form": ("forms", "chern_character_form"),
    "forms.euler_lemma_check": ("forms", "euler_lemma_check"),
    "hodge.weight_filtration": ("hodge", "weight_filtration"),
    "hodge.verify_weight_axioms": ("hodge", "verify_weight_axioms"),
    "hodge.primitive_subspace": ("hodge", "primitive_subspace"),
    "ratmat.rref": ("ratmat", "rref"),
    "ratmat.mat_mul": ("ratmat", "mat_mul"),
    "corpus.load_corpus": ("corpus", "load_corpus"),
    "cli.main": ("cli", "main"),
}
COUNTS = {
    "polyring.poly_mul": ("polyring", "Polynomial.__mul__"),
    "hodge.nilpotency_index": ("hodge", "NilpotentOperator.nilpotency_index"),
}
# span prefix -> size of one call, reported as the largest seen
SIZES = {
    "mf.hom_complex": ("max_rank", lambda left, right, *a, **k: 2 * left.rank * right.rank),
    "groebner.syzygy_basis": ("max_generators", lambda gens, *a, **k: len(gens)),
}


class Tracer:
    """Per-thread span stacks and per-thread totals, merged on read."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict] = []
        self._home = self._stack()  # the installing thread's stack

    def _stack(self) -> list:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.table = {}
            with self._lock:
                self._tables.append(local.table)
        return stack

    def span(self, name: str, fn, size=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            frame = [perf_counter(), 0.0, []]  # start, same-thread child time, foreign children
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                start, child, foreign = frame
                if foreign:
                    child += _covered(foreign, start, end)
                row = self._local.table.setdefault(name, [0, 0.0, 0])
                row[0] += 1
                row[1] += end - start - child
                if size is not None:
                    row[2] = max(row[2], size(*args, **kwargs))
                if stack:
                    stack[-1][1] += end - start
                elif stack is not self._home and self._home:
                    with self._lock:
                        self._home[-1][2].append((start, end))
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self._stack()
            row = self._local.table.setdefault(name, [0, 0.0, 0])
            row[0] += 1
            return fn(*args, **kwargs)
        counted.__wrapped__ = fn
        return counted

    def totals(self) -> dict[str, list]:
        """name -> [calls, self seconds, largest size] summed over threads."""
        out: dict[str, list] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, (calls, self_s, size) in list(table.items()):
                row = out.setdefault(name, [0, 0.0, 0])
                row[0] += calls
                row[1] += self_s
                row[2] = max(row[2], size)
        return out


def _covered(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, reach = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def install(tracer: Tracer) -> None:
    """Wrap every traced name in every loaded mfres module."""
    for metric, (module, attr) in SPANS.items():
        size = SIZES.get(metric, (None, None))[1]
        _rebind(module, attr, lambda fn, m=metric, s=size: tracer.span(m, fn, s))
    for metric, (module, attr) in COUNTS.items():
        _rebind(module, attr, lambda fn, m=metric: tracer.count(m, fn))


def _rebind(module: str, attr: str, make) -> None:
    """Replace mfres.<module>.<attr> by make(original) wherever it is bound."""
    owner = sys.modules[f"mfres.{module}"]
    if "." in attr:
        cls_name, member = attr.split(".")
        cls = getattr(owner, cls_name)
        original = cls.__dict__[member]
        if isinstance(original, property):
            setattr(cls, member, property(make(original.fget)))
            return
        wrapper = make(original)
        for key, value in list(vars(cls).items()):  # __rmul__ = __mul__
            if value is original:
                setattr(cls, key, wrapper)
        return
    original = getattr(owner, attr)
    wrapper = make(original)
    for name, m in list(sys.modules.items()):
        if m is not None and (name == "mfres" or name.startswith("mfres.")):
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapper)
