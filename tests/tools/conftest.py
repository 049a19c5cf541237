"""``tools/artifacts.py`` loaded as a module, for the tool tests."""

import importlib.util
import os
import sys

import pytest

REPO = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)


@pytest.fixture(scope="session")
def artifacts():
    spec = importlib.util.spec_from_file_location(
        "artifacts", os.path.join(REPO, "tools", "artifacts.py")
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["artifacts"] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def entry(artifacts):
    """The table entry named ``name``."""
    by_name = {artifact.name: artifact for artifact in artifacts.ARTIFACTS}
    return by_name.__getitem__
