"""Every definition in src/genlab is named somewhere outside its own line.

The CLI and the acceptance criteria are what the package is for.  So a
top-level function, class or assignment of src/genlab, or a public method of
one of its classes, must be named in src/genlab, scripts/, perfbench/ or
tests/test_acceptance.py on some line other than its definition.  Unit tests
do not count: a definition that only they call is reached by no command and
no acceptance criterion.  The check is textual, so a name that occurs only in
a comment or a string (perfbench looks functions up by name) still counts.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "genlab"

# name -> why it stays although nothing names it yet
ALLOWED = {
    "gram_schmidt_data": (
        "exact rational Gram-Schmidt data: the tool for the certified lower "
        "bounds in lattice mode planned in ROADMAP.md"
    ),
}


def _definitions(tree: ast.Module):
    """(name, line) of every top-level definition and public method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not sub.name.startswith("_"):
                            yield sub.name, sub.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def test_every_definition_is_named_outside_its_definition():
    readers = [
        *sorted(PACKAGE.glob("*.py")),
        *sorted((ROOT / "scripts").rglob("*.py")),
        *sorted((ROOT / "perfbench").rglob("*.py")),
        ROOT / "tests" / "test_acceptance.py",
    ]
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in readers}
    unreached = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse("\n".join(lines[path]))
        for name, lineno in _definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(
                word.search(line)
                for other, text in lines.items()
                for i, line in enumerate(text, 1)
                if not (other == path and i == lineno)
            ):
                unreached[name] = f"{path.name}:{lineno}"
    assert {n: at for n, at in unreached.items() if n not in ALLOWED} == {}
    # an allowed name that something reaches again leaves the list
    assert sorted(unreached) == sorted(ALLOWED)
