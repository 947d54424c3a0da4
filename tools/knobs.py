#!/usr/bin/env python3
"""Line count and settable values of the paikit package.

    python3 tools/knobs.py

For each module under ``src/paikit`` prints its line count and its number of
defaulted parameters and fields, then the totals.  A defaulted parameter is
a function parameter with a default value, keyword-only ones included;
lambdas are not counted.  A defaulted field is an annotated assignment with
a value in the body of a class decorated with ``dataclass``.  The sources
are parsed, never imported or written.
"""

import ast
from pathlib import Path

PKG = Path(__file__).resolve().parents[1] / "src" / "paikit"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def defaulted(tree: ast.AST) -> int:
    """Defaulted function parameters plus defaulted dataclass fields."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            count += len(node.args.defaults)
            count += sum(d is not None for d in node.args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
    return count


def main() -> None:
    total_lines = total_knobs = 0
    print(f"{'module':<20} {'lines':>6} {'defaulted':>9}")
    for path in sorted(PKG.rglob("*.py")):
        text = path.read_text()
        lines = len(text.splitlines())
        knobs = defaulted(ast.parse(text, filename=str(path)))
        total_lines += lines
        total_knobs += knobs
        print(f"{str(path.relative_to(PKG)):<20} {lines:>6} {knobs:>9}")
    print(f"{'total':<20} {total_lines:>6} {total_knobs:>9}")


if __name__ == "__main__":
    main()
