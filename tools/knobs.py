#!/usr/bin/env python3
"""Line count and settable values of the paikit package.

    python3 tools/knobs.py            # counts per module, totals, config keys
    python3 tools/knobs.py --list     # every knob by qualified name

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

``--list`` prints one line per knob instead, sorted, so that two lists can
be diffed: ``param module.scope.name`` for a defaulted parameter,
``field module.Class.name`` for a dataclass field (``field=`` when it has a
default) and ``key a.b.c`` for a config key.
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


def knobs(tree: ast.AST, module: str):
    """``(kind, qualified name)`` of every defaulted parameter and every
    dataclass field in ``tree``; ``kind`` is ``param``, ``field`` or
    ``field=`` (a field with a default)."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{scope}.{child.name}"
                if _is_dataclass(child):
                    out.extend(("field" if s.value is None else "field=",
                                f"{name}.{s.target.id}")
                               for s in child.body if isinstance(s, ast.AnnAssign))
                visit(child, name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{scope}.{child.name}"
                a = child.args
                positional = a.posonlyargs + a.args
                out.extend(("param", f"{name}.{p.arg}")
                           for p in positional[len(positional) - len(a.defaults):])
                out.extend(("param", f"{name}.{p.arg}")
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child, name)
            else:
                visit(child, scope)

    visit(tree, module)
    return out


def config_keys(schema: dict, path: str = "") -> list:
    """The leaves of a nested config schema, by dotted path."""
    out = []
    for key, spec in schema.items():
        sub = f"{path}.{key}" if path else key
        out.extend(config_keys(spec, sub) if isinstance(spec, dict) else [sub])
    return out


def main() -> None:
    listing = "--list" in sys.argv[1:]
    totals = [0, 0, 0]
    lines = []
    if not listing:
        print(f"{'module':<20} {'lines':>6} {'defaulted':>9} {'fields':>6}")
    for path in sorted(PKG.rglob("*.py")):
        text = path.read_text()
        tree = ast.parse(text, filename=str(path))
        found = knobs(tree, path.relative_to(PKG).with_suffix("").as_posix()
                      .replace("/", "."))
        lines.extend(f"{kind:<6} {name}" for kind, name in found)
        row = (len(text.splitlines()),
               sum(kind in ("param", "field=") for kind, _ in found),
               sum(kind.startswith("field") for kind, _ in found))
        totals = [t + r for t, r in zip(totals, row)]
        if not listing:
            print(f"{str(path.relative_to(PKG)):<20} {row[0]:>6} {row[1]:>9} {row[2]:>6}")
    sys.path.insert(0, str(PKG.parent))
    from paikit import cli
    keys = config_keys(cli.SCHEMA)
    if listing:
        lines.extend(f"{'key':<6} {k}" for k in keys)
        print("\n".join(sorted(lines)))
        return
    print(f"{'total':<20} {totals[0]:>6} {totals[1]:>9} {totals[2]:>6}")
    print(f"{'config keys':<20} {len(keys):>6}")


if __name__ == "__main__":
    main()
