"""Every demo script runs to completion against the package namespace,
and the namespace exports what the demos and the README use."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eigenlab

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_the_namespace_exports_what_the_demos_and_readme_use():
    # the contract eigenlab/__init__.py states: every name the demos or
    # the README's python blocks import from eigenlab is exported, and
    # every exported name but __version__ appears in a demo or the README
    demos = [p.read_text() for p in DEMOS]
    readme = (ROOT / "README.md").read_text()
    code = demos + re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    imported = {alias.name for text in code
                for node in ast.walk(ast.parse(text))
                if isinstance(node, ast.ImportFrom)
                and node.module == "eigenlab" and node.level == 0
                for alias in node.names}
    assert imported - set(eigenlab.__all__) == set()
    text = "\n".join(demos + [readme])
    assert [name for name in eigenlab.__all__ if name != "__version__"
            and not re.search(rf"\b{name}\b", text)] == []
