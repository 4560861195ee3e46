"""Tests of the package-level public API, the logging helpers and the
checkout's hygiene."""

import logging
import os
import subprocess

import pytest

import repro
from repro.utils.logging import get_logger, set_verbosity


class TestPublicAPI:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing attribute {name}"

    def test_headline_classes_importable(self):
        assert repro.TabDDPMSurrogate.name == "TabDDPM"
        assert repro.SMOTESurrogate.name == "SMOTE"
        assert repro.CTABGANPlusSurrogate.name == "CTABGAN+"
        assert repro.TVAESurrogate.name == "TVAE"

    def test_panda_schema_shape(self):
        assert len(repro.PANDA_SCHEMA) == 9
        assert len(repro.PANDA_SCHEMA.numerical) == 4
        assert len(repro.PANDA_SCHEMA.categorical) == 5

    def test_available_surrogates_subset_of_registry(self):
        from repro.models import SURROGATE_REGISTRY

        for name in repro.available_surrogates():
            assert name in SURROGATE_REGISTRY


class TestLogging:
    def test_logger_namespaced(self):
        logger = get_logger("mycomponent")
        assert logger.name == "repro.mycomponent"

    def test_logger_keeps_existing_namespace(self):
        logger = get_logger("repro.models.tvae")
        assert logger.name == "repro.models.tvae"

    def test_single_handler_on_root(self):
        get_logger("a")
        get_logger("b")
        root = logging.getLogger("repro")
        assert len(root.handlers) == 1

    def test_set_verbosity_toggles_level(self):
        root = logging.getLogger("repro")
        set_verbosity(True)
        assert root.level == logging.INFO
        set_verbosity(False)
        assert root.level == logging.WARNING


class TestRepositoryHygiene:
    def test_no_bytecode_is_tracked(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        try:
            listed = subprocess.run(
                ["git", "ls-files", "*.pyc"],
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
                timeout=60,
            )
        except (OSError, subprocess.SubprocessError):
            pytest.skip("not a git checkout")
        assert listed.stdout.split() == []
