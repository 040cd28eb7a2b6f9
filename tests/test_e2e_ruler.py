"""The end-to-end benchmark's ruler still fits the program.

``benchmarks/e2e/`` assembles the stack from public constructors and
traces it by patching the callables named in ``trace.WRAPPERS``; its
own smoke test is outside tier-1.  These checks make a renamed method
or a dropped constructor keyword fail here, in seconds, instead of at
benchmark time.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from repro.core.collectagent import CollectAgent
from repro.core.pusher import PusherConfig
from repro.grafana.datasource import GrafanaDataSource
from repro.libdcdb.api import DCDBClient
from repro.mqtt.transport import get_transport
from repro.storage import DurableNode, StorageCluster

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: What ``stack.py`` assembles from, by the name it calls it.
ASSEMBLED = {
    "DurableNode": DurableNode,
    "StorageCluster": StorageCluster,
    "CollectAgent": CollectAgent,
    "PusherConfig": PusherConfig,
    "make_broker": get_transport("tcp").make_broker,
    "DCDBClient": DCDBClient,
    "GrafanaDataSource": GrafanaDataSource,
}


def _wrappers():
    spec = importlib.util.spec_from_file_location("e2e_trace", E2E / "trace.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module.WRAPPERS


@pytest.mark.parametrize("row", _wrappers(), ids=lambda row: row[1])
def test_every_wrapper_resolves_to_a_callable(row):
    _layer, _name, module_name, owner_name, attr = row[:5]
    owner = importlib.import_module(module_name)
    if owner_name is not None:
        owner = getattr(owner, owner_name)
    assert callable(getattr(owner, attr))


def _stack_calls():
    """(callee name, positional count, keywords) per assembling call in
    ``stack.py``; ``**name`` contributes the string keys of the dict
    literals assigned to ``name``."""
    tree = ast.parse((E2E / "stack.py").read_text(encoding="utf-8"))
    dict_keys: dict[str, set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            keys = {
                key.value
                for sub in ast.walk(node.value)
                if isinstance(sub, ast.Dict)
                for key in sub.keys
                if isinstance(key, ast.Constant)
            }
            dict_keys.setdefault(node.targets[0].id, set()).update(keys)
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if callee not in ASSEMBLED:
            continue
        keywords: set[str] = set()
        for keyword in node.keywords:
            keywords |= {keyword.arg} if keyword.arg else dict_keys[keyword.value.id]
        calls.append((callee, len(node.args), sorted(keywords)))
    return calls


def test_stack_still_assembles_from_every_constructor():
    assert {callee for callee, _, _ in _stack_calls()} == set(ASSEMBLED)


@pytest.mark.parametrize("callee,positional,keywords", _stack_calls())
def test_every_keyword_the_stack_passes_is_accepted(callee, positional, keywords):
    signature = inspect.signature(ASSEMBLED[callee])
    signature.bind(*[None] * positional, **dict.fromkeys(keywords))


@pytest.mark.parametrize("callee", sorted(ASSEMBLED))
def test_no_assembled_callee_swallows_unknown_keywords(callee):
    """A ``**kwargs`` binds any keyword, so the check above would stay
    green while the constructor behind it rejects what the stack passes."""
    kinds = {p.kind for p in inspect.signature(ASSEMBLED[callee]).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds
