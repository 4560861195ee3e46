"""Docs name files and objects that exist.

Every ``*.md`` name and every ``tests/…``, ``benchmarks/…`` or
``examples/…`` path cited in a ``src/``, ``benchmarks/`` or ``examples/``
Python file must resolve in the checkout.  A path resolves against the
repository root (a glob pattern must match at least one file); a bare
``*.md`` name resolves against the root or the citing file's directory.

Every dotted ``repro.…`` target of a ``:func:``, ``:class:``, ``:meth:``,
``:attr:`` or ``:mod:`` role in a ``src/`` file must resolve too: its
longest importable prefix is imported and the rest looked up with
``getattr``.
"""

import glob
import importlib
import os
import re

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCANNED = ("src", "benchmarks", "examples")
URL = re.compile(r"\w+://\S+")
MARKDOWN = re.compile(r"[\w./*-]*\w\.md\b")
REPO_PATH = re.compile(r"(?<![\w./])(?:tests|benchmarks|examples)/[\w./*-]*\w")
ROLE_TARGET = re.compile(r":(?:func|class|meth|attr|mod):`~?(repro\.[\w.\s]*\w)`")


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


def role_targets(text):
    # A target may wrap onto the next docstring line after a dot.
    return {re.sub(r"\s+", "", target) for target in ROLE_TARGET.findall(text)}


def importable(target):
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


def test_role_scanner_finds_dotted_targets():
    text = ":class:`~repro.a.\n    B`, :meth:`repro.c.D.e`, :func:`local` and :data:`repro.f`"
    assert role_targets(text) == {"repro.a.B", "repro.c.D.e"}
    assert importable("repro.utils.profiling.BenchmarkRegistry.measure")
    assert not importable("repro.utils.profiling.no_such_name")


def test_cited_objects_exist():
    cited = set()
    for path in glob.glob(os.path.join(REPO_ROOT, "src", "**", "*.py"), recursive=True):
        with open(path, encoding="utf-8") as fh:
            cited |= {(os.path.relpath(path, REPO_ROOT), target) for target in role_targets(fh.read())}
    assert len(cited) > 100
    missing = [f"{path}: {target}" for path, target in sorted(cited) if not importable(target)]
    assert not missing, "docstrings cite names that do not resolve:\n" + "\n".join(missing)
