#!/usr/bin/env python3
"""Lint: all instrumentation must go through the ``repro.obs`` bus.

Fails (exit 1) when code under ``src/repro`` — outside ``src/repro/obs``
itself — reintroduces an ad-hoc tracing pattern:

- ``<anything>.trace.record(`` — the pre-obs inline call-site pattern;
  events must be emitted via ``ctx.obs.emit(...)``;
- ``message_log`` — the removed private ``Fabric`` log.

There is no exemption pragma.  Run as::

    python tools/check_no_adhoc_tracing.py [root]

where ``root`` defaults to the repository's ``src/repro``.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

#: (pattern, explanation) pairs; matched per line.
PATTERNS = [
    (
        re.compile(r"\.trace\.record\("),
        "inline trace.record() call — emit via the obs bus (ctx.obs.emit)",
    ),
    (
        re.compile(r"\bmessage_log\b"),
        "private message_log — consume wire_msg events from the obs bus",
    ),
]

def check_tree(root: Path) -> list[str]:
    """Return one violation string per offending line under ``root``."""
    violations = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] == "obs":
            continue  # the bus itself
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for pattern, why in PATTERNS:
                if pattern.search(line):
                    violations.append(f"{path}:{lineno}: {why}\n    {line.strip()}")
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
        print(
            f"\n{len(violations)} ad-hoc tracing pattern(s) found — route them "
            "through repro.obs."
        )
        return 1
    print("ok: no ad-hoc tracing patterns outside repro/obs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
