"""The package holds only what the program runs.

An ast scan of the package collects each public def and class, and every
name its code reads as a bare name or as an attribute. A public definition
that nothing in the package reads belongs with the tests (tests/oracles.py,
tests/op_reference.py) or nowhere. The exemptions are the names the package
exports (qoecast.__all__), the attributes bench/tracing.py wraps, and
argparse's `error` hook, which argparse itself calls.
"""

import ast
from pathlib import Path

import qoecast

ROOT = Path(__file__).parents[1]
HOOKS = {"error"}  # cli._Parser.error overrides argparse's


def _traced_attributes() -> set[str]:
    """The attribute of each bench/tracing.py TARGETS entry, without its class."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text(encoding="utf-8"))
    (targets,) = [node.value for node in tree.body if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "TARGETS" for t in node.targets)]
    return {entry.elts[2].value.split(".")[-1] for entry in targets.elts}


def test_every_public_definition_is_read_in_the_package():
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(Path(qoecast.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not node.name.startswith("_"):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    exempt = set(qoecast.__all__) | _traced_attributes() | HOOKS
    unread = {name: where for name, where in defined.items()
              if name not in read and name not in exempt}
    assert not unread, f"public definitions nothing in the package reads: {unread}"
