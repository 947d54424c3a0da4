#!/usr/bin/env python3
"""Line count and settable values of the paikit package.

    python3 tools/knobs.py

For each module under ``src/paikit`` prints its line count, its number of
defaulted parameters and fields and its number of dataclass fields, then the
totals, then the number of config keys: the leaves of ``cli.SCHEMA``, a
nested schema such as ``INCLUSION_SCHEMA`` counted at each place it appears.
A dataclass field is an annotated assignment in the body of a class
decorated with ``dataclass``; a defaulted field is one with a value.  A
defaulted parameter is a function parameter with a default value,
keyword-only ones included; lambdas are not counted.  The sources are
parsed for the counts per module; ``paikit.cli`` is imported from ``src/``
for the config keys.  Nothing is written.
"""

import ast
import sys
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "paikit"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _fields(tree: ast.AST):
    """The annotated assignments of every dataclass body in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            yield from (s for s in node.body if isinstance(s, ast.AnnAssign))


def defaulted(tree: ast.AST) -> int:
    """Defaulted function parameters plus defaulted dataclass fields."""
    count = sum(f.value is not None for f in _fields(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
    return count


def config_keys(schema: dict) -> int:
    """The leaves of a nested config schema."""
    return sum(config_keys(v) if isinstance(v, dict) else 1 for v in schema.values())


def main() -> None:
    totals = [0, 0, 0]
    print(f"{'module':<20} {'lines':>6} {'defaulted':>9} {'fields':>6}")
    for path in sorted(PKG.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        row = (len(text.splitlines()), defaulted(tree), sum(1 for _ in _fields(tree)))
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{str(path.relative_to(PKG)):<20} {row[0]:>6} {row[1]:>9} {row[2]:>6}")
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>9} {totals[2]:>6}")
    sys.path.insert(0, str(PKG.parent))
    from paikit import cli
    print(f"{'config keys':<20} {config_keys(cli.SCHEMA):>6}")


if __name__ == "__main__":
    main()
