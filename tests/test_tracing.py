"""The traced benchmark run rebinds package functions by name: every name
it lists must resolve on the package, or `perfbench/run.py --trace 1`
breaks when one is renamed or deleted."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = {**tracing.SPANS, **tracing.COUNTS}
    assert "ratmat.rref" in targets and "hodge.nilpotency_index" in targets
    missing = []
    for module, attr in targets.values():
        owner = importlib.import_module(f"mfres.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"mfres.{module}.{attr}")
    assert not missing
