"""Docs stay navigable: every relative link in README.md and docs/*.md
and every ``repro.*`` Sphinx cross-reference in a src/ docstring must
resolve (the same checks CI runs via ``tools/check_doc_links.py``), and
the README's docs index must cover every file in docs/."""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "check_doc_links", REPO / "tools" / "check_doc_links.py"
)
check_doc_links = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_doc_links)


def test_docs_exist():
    assert (REPO / "README.md").exists()
    for name in ("architecture.md", "streams.md", "graphs.md", "profiling.md"):
        assert (REPO / "docs" / name).exists(), name


def test_no_dangling_relative_links():
    problems = []
    for path in check_doc_links.doc_files(REPO):
        for lineno, target in check_doc_links.dangling_links(path, REPO):
            problems.append(f"{path.relative_to(REPO)}:{lineno} -> {target}")
    assert not problems, "dangling doc links:\n" + "\n".join(problems)


def test_checker_flags_a_dangling_link(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "README.md").write_text(
        "[ok](docs/real.md) and [broken](docs/missing.md)\n"
    )
    (tmp_path / "docs" / "real.md").write_text("see [up](../README.md)\n")
    bad = check_doc_links.dangling_links(tmp_path / "README.md", tmp_path)
    assert [target for _, target in bad] == ["docs/missing.md"]
    assert check_doc_links.dangling_links(tmp_path / "docs" / "real.md", tmp_path) == []


def test_readme_indexes_every_doc():
    readme = (REPO / "README.md").read_text()
    for path in sorted((REPO / "docs").glob("*.md")):
        assert f"docs/{path.name}" in readme, f"README docs index misses {path.name}"


def test_no_dangling_docstring_references():
    refs = [
        ref
        for path in sorted((REPO / "src").rglob("*.py"))
        for ref in check_doc_links.docstring_xrefs(path)
    ]
    assert len(refs) > 100  # the scan sees the codebase's references
    problems = [
        f"{path.relative_to(REPO)}:{lineno} -> {target}"
        for path, lineno, target in check_doc_links.dangling_xrefs(REPO / "src")
    ]
    assert not problems, "dangling docstring references:\n" + "\n".join(problems)


def test_checker_flags_a_dangling_docstring_reference(tmp_path):
    (tmp_path / "mod.py").write_text(
        '''"""See :class:`~repro.runtime.graphs.ExecutionGraph`, the wrapped
:meth:`~repro.runtime.graphs.
    ExecutionGraph.replay`, :attr:`repro.runtime.graphs.ExecutionGraph.signature`
and the gone :mod:`repro.runtime.no_such_module` and
:func:`repro.runtime.graphs.
    no_such_function`; :meth:`replay` is local and skipped."""
'''
    )
    refs = check_doc_links.docstring_xrefs(tmp_path / "mod.py")
    assert [target for _, target in refs] == [
        "repro.runtime.graphs.ExecutionGraph",
        "repro.runtime.graphs.ExecutionGraph.replay",
        "repro.runtime.graphs.ExecutionGraph.signature",
        "repro.runtime.no_such_module",
        "repro.runtime.graphs.no_such_function",
    ]
    bad = check_doc_links.dangling_xrefs(tmp_path)
    assert [(lineno, target) for _, lineno, target in bad] == [
        (4, "repro.runtime.no_such_module"),
        (5, "repro.runtime.graphs.no_such_function"),
    ]
