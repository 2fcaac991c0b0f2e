"""The package root exports only its version, every submodule imports
on its own, and the run path leaves the HTTP stack unloaded."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

SUBMODULES = [
    "memory",
    "skills",
    "policy",
    "protocol",
    "coherence",
    "config",
    "schema",
    "runtime",
    "service",
    "cli",
    "harness",
    "harness.workload",
    "harness.generate",
    "harness.report",
    "harness.simulate",
]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )


def test_package_root_holds_only_its_version():
    done = _fresh_python(
        "import json, sys, agentfork\n"
        "print(json.dumps({\n"
        "    'submodules': sorted(m for m in sys.modules if m.startswith('agentfork.')),\n"
        "    'names': sorted(vars(agentfork)),\n"
        "}))"
    )
    assert done.returncode == 0, done.stderr
    found = json.loads(done.stdout)
    assert found["submodules"] == []
    names = set(found["names"])
    assert "__version__" in names
    assert {n for n in names if not (n.startswith("__") and n.endswith("__"))} == set()


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_imports_alone(name):
    done = _fresh_python(f"import agentfork.{name}")
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("name", ["cli", "harness", "config"])
def test_run_path_leaves_the_http_stack_unloaded(name):
    """Only ``agentfork.service`` imports ``urllib.request``; a run never
    pays for it, nor for the ``http.client`` it pulls in."""
    done = _fresh_python(
        f"import json, sys, agentfork.{name}\n"
        "print(json.dumps([m for m in ('urllib.request', 'http.client') if m in sys.modules]))"
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []



def _cache_uses(path: Path) -> list[str]:
    """Each use in the module at ``path`` of ``functools.lru_cache`` or
    ``functools.cache``, and each class that defines ``__missing__``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"imports functools.{a.name}" for a in node.names if a.name in ("lru_cache", "cache")]
        elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
            if isinstance(node.value, ast.Name) and node.value.id == "functools":
                found.append(f"uses functools.{node.attr}")
        elif isinstance(node, ast.ClassDef):
            found += [f"defines {node.name}.__missing__" for f in node.body if getattr(f, "name", "") == "__missing__"]
    return [f"{path.relative_to(SRC).as_posix()}: {use}" for use in found]


def test_every_cache_is_the_one_memo_type():
    """``memory._Memo`` is the only cache in ``src/``: no module imports
    ``functools.lru_cache`` or ``functools.cache``, and no other class
    defines ``__missing__``."""
    found = [use for path in sorted(SRC.rglob("*.py")) for use in _cache_uses(path)]
    assert found == ["agentfork/memory.py: defines _Memo.__missing__"]
