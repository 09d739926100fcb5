#!/usr/bin/env python3
"""Fail on dangling relative links in README.md and docs/*.md, and on
dangling Sphinx cross-references in the ``src/`` docstrings.

Markdown: checks every inline link of the form ``[text](target)``:
http(s)/mailto links are skipped, anchors are stripped, and the
remaining path is resolved relative to the file that contains it.

Docstrings: every ``:mod:``/``:class:``/``:func:``/``:meth:``/
``:data:``/``:attr:``/``:exc:`` role whose target names ``repro.*``
(``~`` short forms and targets wrapped across lines included) is
resolved by importing the longest module prefix and walking the rest as
attributes.

Exit status 1 (with a per-reference report) when any target does not
resolve — the CI docs gate.

Usage::

    PYTHONPATH=src python tools/check_doc_links.py [repo_root]
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

#: Markdown inline links: [text](target), tolerating titles after a space.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Link schemes that are not filesystem paths.
_EXTERNAL = ("http://", "https://", "mailto:", "ftp://")


def doc_files(root: Path) -> list[Path]:
    files = []
    readme = root / "README.md"
    if readme.exists():
        files.append(readme)
    files.extend(sorted((root / "docs").glob("*.md")))
    return files


def dangling_links(path: Path, root: Path) -> list[tuple[int, str]]:
    """(line number, target) pairs whose targets do not resolve."""
    bad = []
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(_EXTERNAL) or target.startswith("#"):
                continue
            rel = target.split("#", 1)[0]
            if not rel:
                continue
            resolved = (path.parent / rel).resolve()
            try:
                resolved.relative_to(root.resolve())
            except ValueError:
                bad.append((lineno, f"{target} (escapes the repository)"))
                continue
            if not resolved.exists():
                bad.append((lineno, target))
    return bad


#: A Sphinx cross-reference role; the target may wrap across lines.
_XREF = re.compile(r":(mod|class|func|meth|data|attr|exc):`([^`]+)`")

#: A line break inside a wrapped target, with the next line's indent
#: (and its ``#:`` when the reference sits in an attribute comment).
_WRAP = re.compile(r"\s*\n\s*(?:#:?\s*)?")


def docstring_xrefs(path: Path) -> list[tuple[int, str]]:
    """(line number, dotted target) for every ``repro.*`` reference."""
    text = path.read_text(encoding="utf-8")
    refs = []
    for match in _XREF.finditer(text):
        target = _WRAP.sub("", match.group(2)).strip().lstrip("~")
        if target.startswith("repro."):
            refs.append((text.count("\n", 0, match.start()) + 1, target))
    return refs


def resolves(target: str) -> bool:
    """True when ``target`` names an importable module or an attribute
    reachable from one."""
    parts = target.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def dangling_xrefs(src: Path) -> list[tuple[Path, int, str]]:
    """(file, line number, target) for every unresolvable reference."""
    return [
        (path, lineno, target)
        for path in sorted(src.rglob("*.py"))
        for lineno, target in docstring_xrefs(path)
        if not resolves(target)
    ]


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent
    files = doc_files(root)
    if not files:
        print(f"no markdown files found under {root}", file=sys.stderr)
        return 1
    failures = 0
    for path in files:
        for lineno, target in dangling_links(path, root):
            print(f"{path.relative_to(root)}:{lineno}: dangling link -> {target}")
            failures += 1
    for path, lineno, target in dangling_xrefs(root / "src"):
        print(f"{path.relative_to(root)}:{lineno}: dangling reference -> {target}")
        failures += 1
    if failures:
        print(f"{failures} dangling link(s) or reference(s)", file=sys.stderr)
        return 1
    print(
        f"{len(files)} doc file(s) checked, all relative links and "
        "docstring references resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
