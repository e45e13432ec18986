#!/usr/bin/env python3
"""Check that intra-repo markdown links and backticked paths resolve.

Scans README.md and every *.md under docs/ for inline links and ensures
each relative target exists on disk (anchors are stripped; external
schemes and pure in-page anchors are skipped).  It also checks every
backticked repo path outside fenced code (`src/...`, `tests/...`,
`bench/...`, `scripts/...`, `examples/...`, `perf/...`,
`.github/...`): braces expand
(`x.{hpp,cpp}`), globs must match something, a `:line` suffix is
dropped, `<placeholder>` paths are skipped, and a bench binary name
`bench/x` resolves through `bench/x.cpp`.  Exits non-zero listing every
broken reference — the CI docs job runs this so a moved, renamed or
deleted file cannot silently orphan its references.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
PATH_RE = re.compile(
    r"`((?:src|tests|bench|scripts|examples|perf|\.github)/[^`\s]*)`")


def expand_braces(path: str) -> list[str]:
    m = re.search(r"\{([^{}]*)\}", path)
    if not m:
        return [path]
    return [x for alt in m.group(1).split(",")
            for x in expand_braces(path[:m.start()] + alt + path[m.end():])]


def path_resolves(root: Path, path: str) -> bool:
    path = re.sub(r":\d+(-\d+)?$", "", path)
    if "<" in path:
        return True
    if any(c in path for c in "*?["):
        return any(root.glob(path))
    return ((root / path).exists() or
            (path.startswith("bench/") and (root / f"{path}.cpp").exists()))


def md_files(root: Path) -> list[Path]:
    files = [root / "README.md"]
    files += sorted((root / "docs").rglob("*.md"))
    return [f for f in files if f.is_file()]


def check(root: Path) -> list[str]:
    errors = []
    for md in md_files(root):
        text = md.read_text(encoding="utf-8")
        # Strip fenced code blocks: shell snippets mention paths like
        # build/... that are build artifacts, not doc links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for target in LINK_RE.findall(text):
            if target.startswith(SKIP_PREFIXES):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                errors.append(f"{md.relative_to(root)}: broken link -> {target}")
        for ref in PATH_RE.findall(text):
            if not all(path_resolves(root, p) for p in expand_braces(ref)):
                errors.append(f"{md.relative_to(root)}: missing path -> {ref}")
    return errors


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    errors = check(root)
    for e in errors:
        print(e, file=sys.stderr)
    checked = len(md_files(root))
    if errors:
        print(f"{len(errors)} broken reference(s) across {checked} files",
              file=sys.stderr)
        return 1
    print(f"all intra-repo markdown links and paths resolve "
          f"({checked} files checked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
