"""Regression tests for the ``repro.utils.logging`` helpers.

The load-bearing contract: a plain ``get_logger(name)`` call (the form every
module uses at import time) must not undo a verbosity the user already set —
the historical bug was ``get_logger`` unconditionally resetting the hierarchy
to WARNING, so importing one more module silently turned ``--verbose`` off.
"""

import logging

import pytest

from repro.utils import logging as repro_logging
from repro.utils.logging import get_logger, set_verbosity


@pytest.fixture(autouse=True)
def _restore_level():
    root = logging.getLogger("repro")
    before = root.level
    yield
    root.setLevel(before)


class TestGetLogger:
    def test_names_are_rooted_under_repro(self):
        assert get_logger("serve.sharded").name == "repro.serve.sharded"
        assert get_logger("repro.serve.service").name == "repro.serve.service"

    def test_configures_a_single_root_handler(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert repro_logging._configured
        assert len(root.handlers) == 1
        assert not root.propagate

    def test_plain_call_does_not_reset_verbosity(self):
        # The regression: set_verbosity(True) then a later module-level
        # get_logger(name) must leave the hierarchy at INFO.
        set_verbosity(True)
        get_logger("serve.late_import")
        assert logging.getLogger("repro").level == logging.INFO

    def test_explicit_level_still_overrides(self):
        set_verbosity(True)
        get_logger("serve.debug_me", level=logging.DEBUG)
        assert logging.getLogger("repro").level == logging.DEBUG

    def test_set_verbosity_toggles_both_ways(self):
        set_verbosity(True)
        assert logging.getLogger("repro").level == logging.INFO
        set_verbosity(False)
        assert logging.getLogger("repro").level == logging.WARNING
