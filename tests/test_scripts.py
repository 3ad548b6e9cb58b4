import ast
import importlib
import inspect
import pathlib

import pytest

SCRIPTS = sorted(
    (pathlib.Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


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
    """(dotted name, keyword names) for every spectrosens name a script
    imports or reads as an attribute of an imported name, with the keywords
    of the calls made through it."""
    aliases, uses = {}, set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "spectrosens"):
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                aliases[alias.asname or alias.name] = dotted
                uses.add((dotted, ()))
    for node in ast.walk(tree):
        target, keywords = node, ()
        if isinstance(node, ast.Call):
            target = node.func
            keywords = tuple(k.arg for k in node.keywords if k.arg)
        if isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name) and target.value.id in aliases:
            uses.add((f"{aliases[target.value.id]}.{target.attr}", keywords))
        elif (isinstance(target, ast.Name) and target.id in aliases
              and keywords):
            uses.add((aliases[target.id], keywords))
    return uses


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_package_names_resolve(script):
    """Every spectrosens name a script uses still exists and still takes
    the keywords the script passes, so an API removal cannot silently break
    a script that no test runs."""
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
