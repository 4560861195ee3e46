"""Docs name files that exist.

Every ``*.md`` name and every ``tests/…``, ``benchmarks/…`` or
``examples/…`` path cited in a ``src/``, ``benchmarks/`` or ``examples/``
Python file must resolve in the checkout.  A path resolves against the
repository root (a glob pattern must match at least one file); a bare
``*.md`` name resolves against the root or the citing file's directory.
"""

import glob
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks", "examples")
URL = re.compile(r"\w+://\S+")
MARKDOWN = re.compile(r"[\w./*-]*\w\.md\b")
REPO_PATH = re.compile(r"(?<![\w./])(?:tests|benchmarks|examples)/[\w./*-]*\w")


def references(text):
    text = URL.sub("", text)
    return set(MARKDOWN.findall(text)) | set(REPO_PATH.findall(text))


def resolves(reference, citing_dir):
    bases = (REPO_ROOT,) if "/" in reference else (REPO_ROOT, citing_dir)
    return any(glob.glob(os.path.join(base, reference)) for base in bases)


def test_scanner_finds_both_reference_forms():
    text = "see DESIGN.md, tests/test_x.py and https://host/a/README.md."
    assert references(text) == {"DESIGN.md", "tests/test_x.py"}


def test_cited_files_exist():
    sources = [
        path
        for top in SCANNED
        for path in glob.glob(os.path.join(REPO_ROOT, top, "**", "*.py"), recursive=True)
    ]
    assert sources
    missing = []
    for path in sources:
        with open(path, encoding="utf-8") as fh:
            cited = references(fh.read())
        missing += [
            f"{os.path.relpath(path, REPO_ROOT)}: {reference}"
            for reference in sorted(cited)
            if not resolves(reference, os.path.dirname(path))
        ]
    assert not missing, "docs cite files that do not exist:\n" + "\n".join(missing)
