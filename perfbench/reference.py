"""One-off reference timings quoted in perfbench/README.md.

    python3 perfbench/reference.py [--seed N]

Times, once each and untraced, the Euler pairing of a Koszul pair at ranks
2, 4 and 8 (2, 3 and 4 variables), and homology_dimensions of the 3-variable
rank-4 pair after a constant change of basis: first of the shape the
koszul-mixed workload uses (one row operation per adjacent pair of rows),
then of six randomly placed row operations. These operations are too slow
or too uneven to sit inside a steady run. Every result is checked against
the oracles.
"""

from __future__ import annotations

import argparse
import platform
import os
import random
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402


def timed(label: str, fn, want):
    start = perf_counter()
    got = fn()
    seconds = perf_counter() - start
    status = "ok" if got == want else f"WRONG, expected {want}"
    print(f"{label:68s} {seconds:8.3f} s  {got} {status}", flush=True)
    return got == want


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    import mfres

    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"{platform.machine()}, seed {args.seed}")
    rng = random.Random(args.seed)
    ok = True
    degrees = [3, 4, 3, 4]
    left, right = [1, 2, 2, 1], [2, 2, 1, 3]
    for nvars in (2, 3, 4):
        spec = {"degrees": degrees[:nvars], "left": [left[:nvars]], "right": [right[:nvars]]}
        x = workloads._factorization(mfres, spec, "left")
        y = workloads._factorization(mfres, spec, "right")
        want = oracles.koszul_homology(spec["degrees"], left[:nvars], right[:nvars])
        ok &= timed(f"koszul rank {x.rank}: homology_dimensions(hom_complex)",
                    lambda: mfres.homology_dimensions(mfres.hom_complex(x, y)), want)

    spec = inputs.mixed_pair(rng, degrees[:3], [left[:3]], [right[:3]])
    random_basis = {side + "_basis": tuple(
        inputs.unimodular(rng, 4, inputs.random_positions(rng, 4, 6)) for _ in range(2))
        for side in ("left", "right")}
    want = oracles.koszul_homology(degrees[:3], left[:3], right[:3])
    for label, basis_spec in (("chain", spec), ("6 random row operations", {**spec, **random_basis})):
        x = workloads._factorization(mfres, basis_spec, "left")
        y = workloads._factorization(mfres, basis_spec, "right")
        complex_ = mfres.hom_complex(x, y)
        ok &= timed(f"rank 4, basis changed by {label}: homology_dimensions",
                    lambda: mfres.homology_dimensions(complex_), want)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
