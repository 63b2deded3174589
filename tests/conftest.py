"""Shared test settings.

Property tests run under one ``hypothesis`` profile: examples are derived
from each test's own source (``derandomize``), so every run checks the same
cases, and there is no deadline, because a slow shared host would otherwise
turn an ordinary example into a spurious failure.  No example database is
written.

The ``forbid_block_hankel`` fixture makes every smoothmusic binding of
``array_model.block_hankel`` fail the test, for the paths that must form
W W* and W x without building the U x N L matrix W.
"""

import sys

import pytest
from hypothesis import settings

from smoothmusic.array_model import block_hankel

settings.register_profile(
    "smoothmusic", deadline=None, derandomize=True, max_examples=60, database=None
)
settings.load_profile("smoothmusic")


@pytest.fixture
def forbid_block_hankel(monkeypatch):
    def forbidden(*args, **kwargs):
        pytest.fail("block_hankel was called")

    for name, module in list(sys.modules.items()):
        if name.startswith("smoothmusic") and getattr(module, "block_hankel", None) is block_hankel:
            monkeypatch.setattr(module, "block_hankel", forbidden)
