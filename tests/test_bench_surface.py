"""The package surface that the benchmark scripts under bench/ use.

The benchmark imports the package from its own checkout, so a deletion
that breaks it would otherwise surface only in a benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

from agentcast.agent import AgentConfig
from agentcast.evaluation import CrossValReport, rolling_cutoffs

BENCH = Path(__file__).resolve().parent.parent / "bench"


def package_imports():
    """(script, module, name) per ``from agentcast... import name`` in bench/,
    name None for a plain ``import agentcast...``."""
    found = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "agentcast":
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [
                    (path.name, alias.name, None)
                    for alias in node.names
                    if alias.name.split(".")[0] == "agentcast"
                ]
    return found


def test_bench_scripts_import_the_package():
    assert {module for _, module, _ in package_imports()} >= {
        "agentcast", "agentcast.adapters", "agentcast.agent", "agentcast.evaluation",
    }


@pytest.mark.parametrize(
    "script, module, name", package_imports(), ids=lambda part: str(part)
)
def test_every_bench_import_resolves(script, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name), f"{script}: {module} has no {name!r}"


def test_attributes_the_bench_reads_exist():
    assert AgentConfig().n_jobs == 1
    assert rolling_cutoffs(10, 2, 2).cutoffs == (6, 8)
    assert isinstance(CrossValReport.rows, property)
