"""The traced benchmark run rebinds package functions by name: every name
it lists must resolve on the package, or `perfbench/run.py --trace 1`
breaks when one is renamed or deleted; and every caller must look the names
up when it runs, or its calls go unseen."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
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


# run in a child process: install() rebinds names in the package for good
_TRACED_RUN = """
import contextlib, importlib.util, io, json, sys
import mfres.cli
spec = importlib.util.spec_from_file_location("perfbench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
tracer = tracing.Tracer()
tracing.install(tracer)
calls = {}
for argv in json.loads(sys.argv[2]):
    before = {name: row[0] for name, row in tracer.totals().items()}
    with contextlib.redirect_stdout(io.StringIO()):
        assert mfres.cli.main(argv) == 0, argv
    calls[argv[0]] = {name: row[0] - before.get(name, 0)
                      for name, row in tracer.totals().items()}
print(json.dumps(calls))
"""


def test_traced_run_sees_every_command_and_replay():
    """Commands and selftest's replay of records call engine functions by
    their module level names, so the wrappers see the calls of each."""
    cubic = str(Path(__file__).resolve().parent.parent / "src" / "mfres" / "corpus"
                / "cubic.json")
    argvs = [["gram", cubic, "--pairing", "theta", "--items", "m1,m2"],
             ["euler", cubic, "--left", "C1", "--right", "C1"],
             ["selftest"]]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    run = subprocess.run([sys.executable, "-c", _TRACED_RUN, str(TRACING), json.dumps(argvs)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 0, run.stderr
    calls = json.loads(run.stdout)
    wanted = {"gram": ["pairings.gram_matrix", "pairings.hochster_theta", "cli.main"],
              "euler": ["mf.homology_dimensions", "cli.main"],
              "selftest": ["pairings.gram_matrix", "pairings.hochster_theta",
                           "mf.homology_dimensions", "cli.main"]}
    for command, names in wanted.items():
        for name in names:
            assert calls[command].get(name, 0) > 0, (command, name)
