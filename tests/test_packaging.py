"""The package installs with the console script the docs use.

``pyproject.toml`` is the project metadata ``setup.py`` defers to: its
``repro-experiments`` script must point at an importable callable, and
the runtime dependencies stay numpy and scipy.
"""

import importlib
import os
import re

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def project():
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as fh:
        return tomllib.load(fh)["project"]


def test_console_script_imports_to_a_callable(project):
    module, _, attr = project["scripts"]["repro-experiments"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr))


def test_dependencies_are_numpy_and_scipy(project):
    names = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in project["dependencies"]}
    assert names == {"numpy", "scipy"}
