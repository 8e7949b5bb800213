"""Shared test settings.

Every property test runs under one hypothesis profile: examples are derived
from the test itself rather than drawn at random, so a run is reproducible on
any machine, and no per-example deadline applies, so a slow or loaded machine
cannot fail a test by timing alone.
"""

from hypothesis import settings

settings.register_profile("leveldecay", derandomize=True, deadline=None)
settings.load_profile("leveldecay")
