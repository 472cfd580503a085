import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import agentcast

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize(
    "module",
    [
        "agentcast",
        "agentcast.agent",
        "agentcast.cli",
        "agentcast.evaluation",
        "agentcast.llm",
        "agentcast.models",
    ],
)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def removed_names():
    """The backticked names before the colon of each bullet of README's
    "Removed public names" section."""
    section = README.read_text(encoding="utf-8").split("## Removed public names\n")[1]
    section = section.split("\n## ")[0]
    return [name for line in section.splitlines() if line.startswith("- ")
            for name in re.findall(r"`([^`]+)`", line.split(": ")[0])]


def find(name):
    """Every object bound to ``name`` in a module of the package."""
    modules = [agentcast] + [
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(agentcast.__path__, "agentcast.")
    ]
    return [getattr(module, name) for module in modules if hasattr(module, name)]


def test_readme_lists_removed_names():
    assert removed_names()


@pytest.mark.parametrize("name", removed_names())
def test_removed_name_does_not_resolve(name):
    # "f", "Class.attr", or "Class(arg=...)" for a removed argument
    argument = re.fullmatch(r"(\w+)\((\w+)=\.\.\.\)", name)
    if argument:
        owners = find(argument[1])
        assert owners
        assert all(argument[2] not in inspect.signature(owner).parameters for owner in owners)
    elif "." in name:
        # a dataclass field without a default is no class attribute
        owner, attr = name.split(".")
        for obj in find(owner):
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            assert not hasattr(obj, attr) and attr not in {field.name for field in fields}
    else:
        assert find(name) == []
