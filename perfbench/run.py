"""Benchmark for mfres: four seeded workloads, timed end to end and per layer.

    python3 perfbench/run.py --workload koszul --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the engine is imported from its src/
directory, so nothing needs installing. One process, one client, closed
loop: each operation starts when the previous one has been checked. The
loop runs whole rounds of the workload's operations until --seconds have
passed.

--trace 0 prints the end-to-end metrics. --trace 1 first runs untraced for a
third of the time, then installs spans around the package's functions
(tracing.py) for the rest, and prints the per-layer metrics per round plus
the tracing overhead: CPU per round traced over CPU per round untraced.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The same object, and in traced runs the full
span table, are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5  # the first import of a process is slower; the median skips it
# The per-layer metrics printed by a traced run: for each, the end-to-end
# metric it should move is given in README.md. The trace file holds every span.
PER_LAYER = (
    "polyring.matmul.calls", "polyring.matmul.self_s", "polyring.poly_mul.calls",
    "polyring.parse_polynomial.self_s",
    "mf.hom_complex.calls", "mf.hom_complex.self_s", "mf.hom_complex.max_rank",
    "mf.validate_mf.calls", "mf.validate_mf.self_s",
    "mf.homology_dimensions.self_s", "mf.tor_lengths.self_s",
    "groebner.syzygy_basis.calls", "groebner.syzygy_basis.self_s",
    "groebner.syzygy_basis.max_generators", "groebner.subquotient_dimension.self_s",
    "groebner.groebner_basis.calls", "groebner.groebner_basis.self_s",
    "groebner.normal_form.calls", "groebner.normal_form.self_s",
    "groebner.express_in_terms.calls",
    "pairings.milnor_algebra.cache_hits", "pairings.milnor_algebra.cache_misses",
    "pairings.residue_functional.self_s", "pairings.hochster_theta.self_s",
    "pairings.gram_matrix.self_s", "pairings.is_positive_semidefinite.self_s",
    "forms.chern_character_form.calls", "forms.chern_character_form.self_s",
    "forms.euler_lemma_check.self_s",
    "hodge.weight_filtration.self_s", "hodge.verify_weight_axioms.calls",
    "hodge.verify_weight_axioms.self_s", "hodge.primitive_subspace.self_s",
    "hodge.nilpotency_index.calls",
    "ratmat.rref.calls", "ratmat.rref.self_s", "ratmat.mat_mul.calls", "ratmat.mat_mul.self_s",
    "corpus.load_corpus.self_s", "cli.main.self_s",
    "trace.overhead_pct",
)

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def import_engine():
    """Import mfres afresh from the checkout, so every set-up pays the import."""
    for name in [n for n in sys.modules if n == "mfres" or n.startswith("mfres.")]:
        del sys.modules[name]
    mfres = importlib.import_module("mfres")
    importlib.import_module("mfres.cli")
    if Path(mfres.__file__).resolve().parent != SRC / "mfres":
        raise SystemExit(f"mfres imported from {mfres.__file__}, not from this checkout")
    return mfres


def set_up(name: str, seed: int):
    """Import, input generation and one checked warm-up operation."""
    start = perf_counter()
    mfres = import_engine()
    workload = WORKLOADS[name](mfres, random.Random(seed), OUT)
    first = workload.ops[0]
    problem = first.check(first.run())
    if problem:
        raise SystemExit(f"warm-up {first.name}: {problem}")
    return perf_counter() - start, workload


@dataclass
class Loop:
    rounds: int = 0
    attempted: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies: list = field(default_factory=list)
    failed: int = 0
    wrong: list = field(default_factory=list)


def run_rounds(ops, seconds: float) -> Loop:
    """Whole rounds of ops, at least one, until `seconds` have passed."""
    loop = Loop()
    wall0, cpu0 = perf_counter(), process_time()
    while loop.rounds == 0 or perf_counter() - wall0 < seconds:
        for op in ops:
            loop.attempted += 1
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # an engine error is a failed operation, not a crash
                loop.failed += 1
                if loop.failed <= 10:
                    print(f"failed {op.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            loop.latencies.append(perf_counter() - t0)
            problem = op.check(out)
            if problem:
                loop.wrong.append(f"{op.name}: {problem}")
        loop.rounds += 1
    loop.wall_s = perf_counter() - wall0
    loop.cpu_s = process_time() - cpu0
    return loop


def end_to_end(loop: Loop, setups: list[float]) -> dict:
    done = len(loop.latencies)
    ms = [1000 * t for t in loop.latencies]
    return {
        "ops_per_s": (done / loop.wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(ms), "ms"),
        "latency_p90_ms": (statistics.quantiles(ms, n=10)[8] if done > 1 else ms[0], "ms"),
        "cpu_ms_per_op": (1000 * loop.cpu_s / done, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def per_layer(totals: dict, rounds: int, cache_delta, overhead_pct: float) -> dict:
    import tracing

    def value(name, column):
        return totals.get(name, [0, 0.0, 0])[column]

    def per_round(count):  # exact when every round makes the same calls
        return count // rounds if count % rounds == 0 else count / rounds

    metrics = {}
    for name in tracing.SPANS:
        metrics[f"{name}.calls"] = (per_round(value(name, 0)), "calls/round")
        metrics[f"{name}.self_s"] = (value(name, 1) / rounds, "s/round")
    for name in tracing.COUNTS:
        metrics[f"{name}.calls"] = (per_round(value(name, 0)), "calls/round")
    for name, (size, _) in tracing.SIZES.items():
        metrics[f"{name}.{size}"] = (value(name, 2), "count")
    hits, misses = cache_delta
    metrics["pairings.milnor_algebra.cache_hits"] = (per_round(hits), "hits/round")
    metrics["pairings.milnor_algebra.cache_misses"] = (per_round(misses), "misses/round")
    metrics["trace.overhead_pct"] = (overhead_pct, "%")
    return {name: metrics[name] for name in PER_LAYER}


def traced(workload, seconds: float):
    import tracing

    reference = run_rounds(workload.ops, seconds / 3)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    hits0, misses0 = workload.caches.read()
    loop = run_rounds(workload.ops, seconds - reference.wall_s)
    hits1, misses1 = workload.caches.read()
    overhead = 100 * (loop.cpu_s / loop.rounds / (reference.cpu_s / reference.rounds) - 1)
    totals = tracer.totals()
    metrics = per_layer(totals, loop.rounds, (hits1 - hits0, misses1 - misses0), overhead)
    return reference, loop, metrics, totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfres" / "__init__.py").is_file():
        print(f"no mfres sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        seconds, workload = set_up(args.workload, args.seed)
        setups.append(seconds)

    if args.trace:
        reference, loop, metrics, totals = traced(workload, args.seconds)
        loops = (reference, loop)
    else:
        loop = run_rounds(workload.ops, args.seconds)
        metrics, loops = end_to_end(loop, setups), (loop,)

    wrong = [w for lp in loops for w in lp.wrong]
    for w in wrong[:20]:
        print(f"wrong {w}", file=sys.stderr)
    result = {
        "correct": not wrong,
        "attempted": sum(lp.attempted for lp in loops),
        "failed": sum(lp.failed for lp in loops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if args.trace:
        spans = {name: {"calls": c, "self_s": s, "max_size": m}
                 for name, (c, s, m) in sorted(totals.items())}
        (OUT / f"trace-{stem}.json").write_text(
            json.dumps({"rounds": loop.rounds, "ops_per_round": len(workload.ops),
                        "spans": spans}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
