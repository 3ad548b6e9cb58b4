import ast
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# the scripts, and the benchmark harness, which reaches the package through
# names it imports and through a dict of its modules, pkg["<module>"]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
CALLERS = SCRIPTS + [ROOT / "bench" / "run.py"]
PACKAGE = sorted((ROOT / "src" / "spectrosens").glob("*.py"))


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
    is a local and is not followed.  Relative imports are read as a package
    module's imports of its siblings."""
    modules, aliases, local, uses = {}, {}, set(), set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module
        if node.level:  # relative: one of the package's own modules
            module = "spectrosens" + (f".{module}" if module else "")
        if module and module.split(".")[0] == "spectrosens":
            for alias in node.names:
                dotted = f"{module}.{alias.name}"
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


def _module_reads(tree):
    """Top-level names a module reads outside the statement that defines
    them."""
    reads = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        reads |= {node.id for node in ast.walk(statement)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load) and node.id != own}
    return reads


def _tracer_targets(tree):
    """Dotted names of the (module, attribute, span) triples that the
    benchmark tracer's ``TARGETS`` list patches."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and ast.unparse(node.targets[0]) == "TARGETS"):
            return {f"{target.elts[0].value}.{target.elts[1].value}"
                    for target in node.value.elts}
    return set()


def test_every_public_name_has_a_user():
    """Every public module-level function and class of the package is used
    outside its own definition: by the package, the benchmark (the tracer's
    targets included), the scripts or the acceptance suite.  A name that
    only other tests use belongs in a test helper module."""
    defined, used = set(), set()
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        module = f"spectrosens.{path.stem}"
        defined |= {f"{module}.{node.name}" for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        used |= {f"{module}.{name}" for name in _module_reads(tree)}
    users = (PACKAGE + sorted((ROOT / "bench").glob("*.py")) + SCRIPTS
             + [ROOT / "tests" / "test_acceptance.py"])
    for path in users:
        tree = ast.parse(path.read_text())
        used |= {dotted for dotted, _ in _package_uses(tree)}
        used |= _tracer_targets(tree)
    assert sorted(defined - used) == []


def test_mc_validation_script_runs():
    """scripts/mc_validation.py runs end to end, and its Monte-Carlo rate
    lies within 5 standard errors of the finite-horizon telegraph term at
    1000 trajectories and within 3 at 100 000, at seeds 0 and 1, where the
    estimator's 2 % finite-horizon bias alone would be about 5 standard
    errors."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for trajectories, bound, seed in ((1000, 5.0, 0), (100_000, 3.0, 0),
                                      (100_000, 3.0, 1)):
        proc = subprocess.run([sys.executable,
                               str(ROOT / "scripts" / "mc_validation.py"),
                               "--trajectories", str(trajectories),
                               "--seed", str(seed)],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        printed = proc.stdout.split("pulls (sigma):")[1]
        pulls = np.array(printed.replace("[", " ").replace("]", " ").split(),
                         dtype=float)
        assert pulls.shape == (4,)
        assert np.all(np.isfinite(pulls)) and np.all(np.abs(pulls) < bound)


@pytest.mark.parametrize("argv, error", [
    (["--trajectories", "10"], "ValueError"),
    (["--rate", "0"], "InvalidParam")])
def test_mc_validation_script_rejects_invalid_input(argv, error):
    """An invalid input ends with the command line's JSON error on stderr
    and exit status 2, not a traceback."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "mc_validation.py"), *argv],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2 and proc.stdout == ""
    assert set(json.loads(proc.stderr)) == {"error", "message"}
    assert json.loads(proc.stderr)["error"] == error


def test_outcome_digest_script_runs():
    """scripts/outcome_digest.py prints one sha256 per route over the point
    outcomes, one over the adiabatic composition, one per sweep grid and
    route, one over the standalone fcs calls on single points, one over
    the telegraph Monte Carlo and one over the quadrature oracle."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable,
                           str(ROOT / "scripts" / "outcome_digest.py")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[:-1] for line in lines] == [
        ["points", route] for route in ("full", "adiabatic", "both")] + [
        ["adiabatic"]] + [
        ["sweep", name, route] for name in ("gap", "gap-wide",
                                            "detuning-rate", "density-edge",
                                            "far-detuned", "fig-rate",
                                            "thickness", "step-limited")
        for route in ("full", "both")] + [["fcs"], ["mc"], ["quad"]]
    digests = [line[-1] for line in lines]
    assert all(len(d) == 64 and set(d) <= set("0123456789abcdef")
               for d in digests)
    assert len(set(digests)) == len(digests)
