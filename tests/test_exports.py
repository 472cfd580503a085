import importlib

import pytest


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
