"""Every definition in src/genlab is reached from outside its definition.

The CLI and the acceptance criteria are what the package is for.  So a
top-level function, class or assignment of src/genlab, or a public method of
one of its classes, must be reached from src/genlab, scripts/, perfbench/ or
tests/test_acceptance.py.  Unit tests do not count: a definition that only
they call is reached by no command and no acceptance criterion.

Names are resolved, not matched as words:
- a top-level definition of module `mod` is reached by `from .mod import
  name` or `from genlab.mod import name`, by the attribute `mod.name` on a
  name bound to the module (`from . import mod`, `from genlab import mod`,
  `import genlab.mod`), or by a use in `mod` outside its own definition;
- a public method or property is reached only by a `.name` attribute access;
- a string constant reaches a top-level definition when it is the whole name,
  and any definition when it ends in `.name`: the forms perfbench/spans.py
  uses to look functions up ("genericity_probe", "RealTuple.exact_values").

Every keyword-only parameter of a public top-level function must also be
passed by name, `name(..., param=...)` or `obj.name(..., param=...)`, in one
of those readers.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genlab"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}

# name (or function.parameter) -> why it stays although nothing reaches it
ALLOWED = {
    "gram_schmidt_data": (
        "exact rational Gram-Schmidt data: the tool for the certified lower "
        "bounds in lattice mode planned in ROADMAP.md"
    ),
    "linear_form_min.budget": (
        "the unit tests force lattice mode through it; the probes pass their "
        "own budget to the shared record builder"
    ),
}


def _definitions(tree: ast.Module):
    """(name, is_method) of every top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, False
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not sub.name.startswith("_"):
                            yield sub.name, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, False


def _package_module(node: ast.ImportFrom) -> str | None:
    """`mod` for `from .mod import ...` or `from genlab.mod import ...`."""
    if node.level == 1 and node.module in MODULES:
        return node.module
    if node.level == 0 and node.module and node.module.startswith("genlab."):
        return node.module.split(".", 1)[1]
    return None


class _Reader:
    """What one reader file reaches."""

    def __init__(self, tree: ast.Module):
        self.imported: set[tuple[str, str]] = set()  # (module, name)
        self.strings: set[str] = set()
        self.attributes: set[str] = set()
        self.keywords: set[tuple[str, str]] = set()  # (callee, parameter)
        aliases: dict[str, str] = {}  # local name -> genlab module
        callees: dict[str, str] = {}  # local name -> imported function name
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mod = _package_module(node)
                if mod is not None:
                    for alias in node.names:
                        self.imported.add((mod, alias.name))
                        callees[alias.asname or alias.name] = alias.name
                elif (node.level == 1 and node.module is None) or node.module == "genlab":
                    for alias in node.names:
                        aliases[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.startswith("genlab.") and alias.asname:
                        aliases[alias.asname] = alias.name.split(".", 1)[1]
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                self.attributes.add(node.attr)
                mod = self._module_of(node.value, aliases)
                if mod is not None:
                    self.imported.add((mod, node.attr))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                self.strings.add(node.value)
            elif isinstance(node, ast.Call):
                callee = self._callee(node)
                if callee is not None:
                    callee = callees.get(callee, callee)
                    self.keywords.update((callee, kw.arg) for kw in node.keywords if kw.arg)

    @staticmethod
    def _module_of(expr: ast.expr, aliases: dict[str, str]) -> str | None:
        if isinstance(expr, ast.Name):
            return aliases.get(expr.id)
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "genlab"
            and expr.attr in MODULES
        ):
            return expr.attr
        return None

    @staticmethod
    def _callee(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "partial" and call.args:
            func = call.args[0]  # functools.partial(f, param=...) passes to f
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None


def _uses_outside_own_definition(tree: ast.Module) -> set[str]:
    """Names loaded in a module, each outside the top-level definition of
    the same name (so a recursive call does not reach its own function)."""
    used = set()
    for node in tree.body:
        owner = getattr(node, "name", None)
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load) and sub.id != owner:
                used.add(sub.id)
    return used


def _unreached() -> dict[str, str]:
    readers = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in readers}
    scans = [_Reader(tree) for tree in trees.values()]
    imported = set().union(*(s.imported for s in scans))
    strings = set().union(*(s.strings for s in scans))
    attributes = set().union(*(s.attributes for s in scans))
    keywords = set().union(*(s.keywords for s in scans))
    suffixes = {s.rsplit(".", 1)[1] for s in strings if "." in s}

    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree, mod = trees[path], path.stem
        own = _uses_outside_own_definition(tree)
        for name, is_method in _definitions(tree):
            if is_method:
                reached = name in attributes or name in suffixes
            else:
                reached = (
                    (mod, name) in imported or name in own
                    or name in strings or name in suffixes
                )
            if not reached:
                unreached[name] = path.name
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                for arg in node.args.kwonlyargs:
                    if (node.name, arg.arg) not in keywords:
                        unreached[f"{node.name}.{arg.arg}"] = path.name
    return unreached


def test_every_definition_is_named_outside_its_definition():
    unreached = _unreached()
    assert {n: at for n, at in unreached.items() if n not in ALLOWED} == {}
    # an allowed name that something reaches again leaves the list
    assert sorted(unreached) == sorted(ALLOWED)


def _traced_names() -> list[tuple[str, str]]:
    """(module, attribute) of every function perfbench/spans.py wraps: the
    keys of its SPANS, OUTERMOST and COUNTED tables and the names its
    Tracer passes to _replace as constants (numeric.run_escalating)."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id in ("SPANS", "OUTERMOST", "COUNTED")
        ):
            names += [ast.literal_eval(key) for key in node.value.keys]
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "_replace"
            and all(isinstance(arg, ast.Constant) for arg in node.args[:2])
        ):
            names.append((node.args[0].value, node.args[1].value))
    return names


def test_every_name_the_benchmark_tracer_wraps_resolves():
    # Tracer.install imports genlab.cli, then looks every traced function up
    # by name in the loaded modules (a "Class.method" on the class itself);
    # a renamed, moved or no longer loaded function breaks `--trace 1`
    names = _traced_names()
    assert ("numeric", "run_escalating") in names and ("cli", "report") in names
    script = (
        "import json, sys\n"
        "import genlab.cli\n"
        "missing = []\n"
        "for mod, attr in json.loads(sys.argv[1]):\n"
        "    module = sys.modules.get('genlab.' + mod)\n"
        "    if module is None:\n"
        "        missing.append(mod + ' is not loaded')\n"
        "        continue\n"
        "    owner, _, name = attr.rpartition('.')\n"
        "    scope = vars(getattr(module, owner)) if owner else vars(module)\n"
        "    if not callable(scope.get(name)):\n"
        "        missing.append(mod + '.' + attr)\n"
        "print(json.dumps(missing))\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-c", script, json.dumps(names)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert fresh.returncode == 0, fresh.stderr
    assert json.loads(fresh.stdout) == []
