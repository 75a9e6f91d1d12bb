"""The names the benchmark reads from the package exist in it.

bench/layers.py replaces module attributes of vczsim by name, and its
`Tracer.install` fails on the first name that no longer exists, so a rename
under src/ would break `bench/run.py --trace 1` without any test noticing.
bench/child.py reads scenario, obstacle and abort fields when it writes the
`campaign` workload's outputs. The benchmark's files are read from disk,
never changed. An import that src/ holds only for the tracer is marked
`# noqa: F401`, and must be a name that the tracer wraps there.
"""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SRC = Path(__file__).resolve().parents[1] / "src" / "vczsim"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CALL_SITES = _load("layers").CALL_SITES


@pytest.mark.parametrize(
    "module, attr", [(module, attr) for module, attr, _ in CALL_SITES], ids=lambda v: v
)
def test_call_site_resolves(module, attr):
    mod = importlib.import_module(f"vczsim.{module}")
    assert callable(getattr(mod, attr, None)), f"vczsim.{module}.{attr} is gone"


def unused_imports():
    """(module, name) for every name imported on a line marked `# noqa: F401`
    under src/vczsim."""
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and "# noqa: F401" in lines[node.end_lineno - 1]:
                yield from ((path.stem, alias.asname or alias.name) for alias in node.names)


def test_unused_imports_are_traced_call_sites():
    wrapped = {(module, attr) for module, attr, _ in CALL_SITES}
    held = set(unused_imports())
    assert held <= wrapped, held - wrapped


def test_recorder_add_resolves():
    from vczsim import simulator

    assert callable(getattr(simulator._Recorder, "add", None))


def test_campaign_dump_reads_abort_fields(tmp_path, monkeypatch):
    from vczsim import randomized, simulator

    child = _load("child")
    kept = []  # (scenario, trace, abort), as child.py's timed_run keeps them
    real_run = randomized.run

    def keeping_run(scenario, check=True):
        try:
            trace, metrics = real_run(scenario, check)
        except simulator.SimulationAbort as abort:
            kept.append((scenario, abort.trace, abort))
            raise
        kept.append((scenario, trace, None))
        return trace, metrics

    monkeypatch.setattr(randomized, "run", keeping_run)
    summary = randomized.run_campaign(count=1, base_seed=2026)
    child._dump_campaign(str(tmp_path), summary, kept)
    (row,) = json.loads((tmp_path / "campaign.json").read_text())
    assert row["status"] == simulator.QP_INFEASIBLE
    assert row["conflicting"] == [0, 2, 3]
