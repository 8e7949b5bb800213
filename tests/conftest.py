"""Shared test settings.

Every property test runs under one hypothesis profile: examples are derived
from the test itself rather than drawn at random, so a run is reproducible on
any machine, and no per-example deadline applies, so a slow or loaded machine
cannot fail a test by timing alone.  ``HYPOTHESIS_PROFILE=deep`` loads the
``deep`` profile, the same with 2,000 examples, which a test that reads it
(``test_units.py``'s twin test) runs in place of its own Tier-1 count.
"""

import os

from hypothesis import settings

settings.register_profile("leveldecay", derandomize=True, deadline=None)
settings.register_profile("deep", settings.get_profile("leveldecay"), max_examples=2000)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "leveldecay"))
