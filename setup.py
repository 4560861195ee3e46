"""Setup shim.

The project metadata lives in ``pyproject.toml``.  This file keeps the
legacy ``python setup.py develop`` install working: it needs only the
installed setuptools, so it works offline and without the ``wheel``
package that pip's editable installs (including the ``--no-use-pep517``
path) require.
"""

from setuptools import setup

setup()
