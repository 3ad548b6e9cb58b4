import ast
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the scripts, and the benchmark harness, which reaches the package through
# names it imports and through a dict of its modules, pkg["<module>"]
CALLERS = sorted((ROOT / "scripts").glob("*.py")) + [ROOT / "bench" / "run.py"]


def _resolve(dotted):
    """The object named by a dotted path, or None: the longest importable
    module prefix, then attribute lookups."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr, None)
        return obj
    return None


def _package_uses(tree):
    """(dotted name, keyword names) for every spectrosens name a file
    imports or reads as an attribute of an imported name or of a module
    looked up by its imported name, ``pkg["params"]``, with the keywords of
    the calls made through it.  A name the file also binds to anything else
    is a local and is not followed."""
    modules, aliases, local, uses = {}, {}, set(), set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "spectrosens"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                modules[alias.asname or alias.name] = dotted
                uses.add((dotted, ()))
    aliases.update(modules)

    def package_name(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if (isinstance(node, ast.Subscript)
                and isinstance(node.slice, ast.Constant)):
            return modules.get(node.slice.value)
        if isinstance(node, ast.Attribute):
            base = package_name(node.value)
            return base and f"{base}.{node.attr}"
        return None

    bound = {}  # name -> dotted path, for assignments from the package
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = [(target, node.value)]
                if (isinstance(target, ast.Tuple)
                        and isinstance(node.value, ast.Tuple)):
                    pairs = zip(target.elts, node.value.elts)
                for name, value in pairs:
                    dotted = package_name(value)
                    if isinstance(name, ast.Name) and dotted:
                        bound[name.id] = dotted
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            if node.id not in bound:
                local.add(node.id)
        elif isinstance(node, ast.arg):
            local.add(node.arg)
    aliases.update(bound)
    for name in local:
        aliases.pop(name, None)

    for node in ast.walk(tree):
        target, keywords = node, ()
        if isinstance(node, ast.Call):
            target = node.func
            keywords = tuple(k.arg for k in node.keywords if k.arg)
        if isinstance(target, ast.Attribute):
            dotted = package_name(target)
            if dotted:
                uses.add((dotted, keywords))
        elif (isinstance(target, ast.Name) and target.id in aliases
              and keywords):
            uses.add((aliases[target.id], keywords))
    return uses


@pytest.mark.parametrize("script", CALLERS, ids=lambda path: path.name)
def test_script_package_names_resolve(script):
    """Every spectrosens name a script or the benchmark harness uses still
    exists and still takes the keywords the file passes, so an API removal
    cannot silently break a file that no test runs."""
    broken = []
    uses = _package_uses(ast.parse(script.read_text()))
    for dotted, keywords in sorted(uses):
        obj = _resolve(dotted)
        if obj is None:
            broken.append(dotted)
        elif keywords:
            params = inspect.signature(obj).parameters
            if not any(p.kind is p.VAR_KEYWORD for p in params.values()):
                broken += [f"{dotted}({k}=)" for k in keywords
                           if k not in params]
    assert not broken


def test_mc_validation_script_runs():
    """scripts/mc_validation.py runs end to end, and its Monte-Carlo rate
    lies within 5 standard errors of the analytic telegraph term."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "mc_validation.py"),
                           "--trajectories", "1000"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    printed = proc.stdout.split("pulls (sigma):")[1]
    pulls = np.array(printed.replace("[", " ").replace("]", " ").split(),
                     dtype=float)
    assert pulls.shape == (4,)
    assert np.all(np.isfinite(pulls)) and np.all(np.abs(pulls) < 5.0)
