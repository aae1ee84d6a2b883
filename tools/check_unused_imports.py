#!/usr/bin/env python3
"""Lint: no module under ``src/repro`` imports a name it never uses.

The repository's ruff configuration selects F401 (unused import), but ruff
is not a dependency, so this AST scan enforces the same rule with the
standard library alone.  Per file, an imported name counts as used when

- the module reads it anywhere (any scope, including quoted annotations
  such as ``ctx: "ParsecContext"``), or
- the module lists it in ``__all__`` (an explicit re-export), or
- its import line carries ``# noqa`` (bare or naming ``F401``).

``__init__.py`` files are skipped: their imports are the package's
re-exports.  ``from __future__`` imports are never flagged.  Exit 1 lists
every unused name as ``path:line: name``.  Run as::

    python tools/check_unused_imports.py [root]

where ``root`` defaults to the repository's ``src/repro``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

_NOQA = re.compile(r"#\s*noqa(?::[^#]*\bF401\b|(?!:))")


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read inside string constants of an annotation."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return names


def _exported(tree: ast.Module) -> set[str]:
    """String entries of a module-level ``__all__`` list or tuple."""
    out = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                if isinstance(node.value, (ast.List, ast.Tuple)):
                    out |= {
                        e.value for e in node.value.elts
                        if isinstance(e, ast.Constant) and isinstance(e.value, str)
                    }
    return out


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """``(line, name)`` for each name ``path`` imports and never uses."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    imported: list[tuple[int, str]] = []
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.append((node.lineno, alias.asname or alias.name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    used |= _exported(tree)
    return [
        (lineno, name)
        for lineno, name in imported
        if name not in used and not _NOQA.search(lines[lineno - 1])
    ]


def check_tree(root: Path) -> list[str]:
    """Return one violation string per unused import under ``root``."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for lineno, name in unused_imports(path):
            violations.append(f"{path}:{lineno}: {name!r} imported but unused")
    return violations


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "repro"
    if not root.is_dir():
        print(f"error: {root} is not a directory", file=sys.stderr)
        return 2
    violations = check_tree(root)
    for v in violations:
        print(v)
    if violations:
        print(f"\n{len(violations)} unused import(s) found.")
        return 1
    print("ok: no unused imports")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
