#!/usr/bin/env python
"""Check that documentation links and file pointers resolve.

Walks the repo's markdown documentation (README.md, ROADMAP.md,
CHANGES.md, docs/*.md) and verifies:

* every relative markdown link ``[text](path)`` points at a file or
  directory that exists (anchors and external ``http(s)``/``mailto``
  targets are skipped);
* every repo path named in inline code, such as
  ``tests/serve/test_engine_parity.py`` or ``benchmarks/_pr4_kernel.py``,
  exists on disk — this is what keeps the "where to verify claims"
  pointers in docs/ARCHITECTURE.md honest across refactors;
* every root-level document named in source, benchmark or doc text,
  such as ``PAPER.md`` in a docstring, exists at the repo root — the
  rule above needs a directory component, so it cannot see these.

Exits non-zero with one line per broken pointer.  No dependencies
beyond the standard library, so CI can run it before installing the
package.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Markdown files to scan (globs relative to the repo root).
DOC_GLOBS = ["README.md", "ROADMAP.md", "CHANGES.md", "docs/*.md"]

#: ``[text](target)`` — stops at the first unescaped ``)``.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Inline-code spans that look like repo file paths: at least one
#: directory component and a conventional source/doc suffix.
_CODE_PATH = re.compile(
    r"`([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+"
    r"\.(?:py|md|json|yml|yaml|toml|txt|csv))`"
)

#: Files scanned for root-level ``NAME.md`` pointers.
ROOT_DOC_GLOBS = ["src/**/*.py", "benchmarks/*.py", "README.md", "docs/*.md"]

#: A bare upper-case ``NAME.md`` (no directory in front of it).
_ROOT_DOC = re.compile(r"(?<![\w./\-])([A-Z][A-Z0-9_\-]*\.md)\b")

#: Inline-code paths that intentionally do not exist in the repo
#: (illustrative output paths, generated artifacts).
IGNORE_CODE_PATHS = {
    ".cache/repro",
}


def _iter_docs(globs: list[str]) -> list[Path]:
    docs: list[Path] = []
    for pattern in globs:
        docs.extend(sorted(REPO.glob(pattern)))
    return docs


def _check_file(doc: Path) -> list[str]:
    errors: list[str] = []
    text = doc.read_text(encoding="utf-8")
    in_fence = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        for match in _LINK.finditer(line):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:  # pure in-page anchor
                continue
            resolved = (doc.parent / path_part).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO)}:{lineno}: "
                    f"broken link target {target!r}"
                )
        for match in _CODE_PATH.finditer(line):
            target = match.group(1)
            if target in IGNORE_CODE_PATHS:
                continue
            # Docs name modules both repo-relative and package-relative
            # (``sim/faults.py`` means ``src/repro/sim/faults.py``).
            candidates = (REPO / target, REPO / "src" / "repro" / target)
            if not any(c.exists() for c in candidates):
                errors.append(
                    f"{doc.relative_to(REPO)}:{lineno}: "
                    f"missing file pointer {target!r}"
                )
    return errors


def _check_root_docs(path: Path) -> list[str]:
    errors: list[str] = []
    text = path.read_text(encoding="utf-8")
    for lineno, line in enumerate(text.splitlines(), 1):
        for match in _ROOT_DOC.finditer(line):
            if not (REPO / match.group(1)).exists():
                errors.append(
                    f"{path.relative_to(REPO)}:{lineno}: "
                    f"missing root document {match.group(1)!r}"
                )
    return errors


def main() -> int:
    docs = _iter_docs(DOC_GLOBS)
    if not docs:
        print("check_docs: no documentation files found", file=sys.stderr)
        return 1
    errors: list[str] = []
    for doc in docs:
        errors.extend(_check_file(doc))
    sources = _iter_docs(ROOT_DOC_GLOBS)
    for path in sources:
        errors.extend(_check_root_docs(path))
    docs = sorted(set(docs) | set(sources))
    for error in errors:
        print(error, file=sys.stderr)
    print(
        f"check_docs: scanned {len(docs)} files, "
        f"{len(errors)} broken pointers"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
