"""Shared test settings.

Property tests run under one ``hypothesis`` profile: examples are derived
from each test's own source (``derandomize``), so every run checks the same
cases, and there is no deadline, because a slow shared host would otherwise
turn an ordinary example into a spurious failure.  No example database is
written.
"""

from hypothesis import settings

settings.register_profile(
    "smoothmusic", deadline=None, derandomize=True, max_examples=60, database=None
)
settings.load_profile("smoothmusic")
