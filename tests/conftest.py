"""Hypothesis draws the same examples on every run: each ``@given`` test
is seeded from the test function itself, and no example database carries
a failure from one run into the next.  Each test keeps its own
``max_examples``."""

from hypothesis import settings

settings.register_profile("uavsim", derandomize=True, database=None)
settings.load_profile("uavsim")
