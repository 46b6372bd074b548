"""Execute the fenced ``python`` examples in README.md and docs/, and
resolve every backticked ``repro.…`` name in them and in DESIGN.md.

Documentation that doesn't run is documentation that rots: every code
block tagged ```python is extracted and executed in its own namespace,
and any exception fails the build (CI runs this as the ``docs`` job).
A backticked dotted name such as ``repro.campaign.execute`` (also at
the start of a span, ``repro.campaign.execute(..., store=)``) must
name something that exists: the longest importable module prefix is
imported and the remaining parts are walked with ``getattr``, so a
reference to a deleted function fails the build too.

Opting out: tag a block ```python no-run (for snippets that are
intentionally partial — pseudo-code, slow paper-scale commands, or
fragments that need hardware). Plain ``` blocks (shell transcripts,
rendered output) are ignored.

Usage::

    PYTHONPATH=src python scripts/check_docs.py [FILES...]
"""

from __future__ import annotations

import importlib
import re
import sys
import tempfile
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

_FENCE = re.compile(
    r"^```python(?P<flags>[^\n]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)


#: A dotted ``repro.…`` name at the start of a backticked span.
_REFERENCE = re.compile(r"`(repro(?:\.\w+)+)")


def doc_files() -> "list[Path]":
    files = [REPO / "README.md"]
    files += sorted((REPO / "docs").glob("*.md"))
    return [f for f in files if f.exists()]


def reference_files() -> "list[Path]":
    return [f for f in [REPO / "DESIGN.md", *doc_files()] if f.exists()]


def resolve_reference(name: str) -> "str | None":
    """Why the dotted ``name`` does not resolve, or None if it does."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            if module_name == exc.name or module_name.startswith(f"{exc.name}."):
                continue  # not a module: try a shorter prefix
            raise  # a real module whose own import is broken
        for depth, attr in enumerate(parts[cut:], start=cut):
            try:
                target = getattr(target, attr)
            except AttributeError:
                return f"{'.'.join(parts[:depth])} has no attribute {attr!r}"
        return None
    return f"no module named {parts[0]!r}"


def check_references(path: Path) -> "list[str]":
    """``line: name: reason`` for every reference in ``path`` that
    does not resolve."""
    text = path.read_text()
    failures = []
    for match in _REFERENCE.finditer(text):
        error = resolve_reference(match.group(1))
        if error is not None:
            line = text[: match.start()].count("\n") + 1
            failures.append(f"{line}: {match.group(1)}: {error}")
    return failures


def extract_blocks(path: Path) -> "list[tuple[int, str, bool]]":
    """(start_line, source, runnable) for every ```python block."""
    text = path.read_text()
    blocks = []
    for match in _FENCE.finditer(text):
        line = text[: match.start()].count("\n") + 1
        runnable = "no-run" not in match.group("flags")
        blocks.append((line, match.group("body"), runnable))
    return blocks


def run_block(path: Path, line: int, source: str) -> "str | None":
    """Execute one block; returns an error message or None."""
    # Each block runs in a private namespace, from a scratch working
    # directory, so examples can write files without littering the repo.
    namespace = {"__name__": f"docs_block_{path.stem}_{line}"}
    import os

    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            code = compile(source, f"{path.name}:{line}", "exec")
            exec(code, namespace)  # noqa: S102 - that's the point
    except Exception:
        return traceback.format_exc(limit=5)
    finally:
        os.chdir(cwd)
    return None


def main(argv: "list[str] | None" = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    files = [Path(a) for a in argv] if argv else doc_files()
    ran = skipped = failed = 0
    for path in [Path(a) for a in argv] if argv else reference_files():
        rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
        for failure in check_references(path):
            failed += 1
            print(f"FAIL {rel}:{failure}")
    for path in files:
        for line, source, runnable in extract_blocks(path):
            rel = path.relative_to(REPO) if path.is_relative_to(REPO) else path
            if not runnable:
                skipped += 1
                print(f"SKIP {rel}:{line} (no-run)")
                continue
            error = run_block(path, line, source)
            if error is None:
                ran += 1
                print(f"PASS {rel}:{line}")
            else:
                failed += 1
                print(f"FAIL {rel}:{line}\n{error}")
    print(f"\n{ran} passed, {skipped} skipped, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
