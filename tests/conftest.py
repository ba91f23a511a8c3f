"""Hypothesis settings for the whole suite.

The "tier1" profile, loaded here, derives every draw from the test itself
(`derandomize`), so each run draws the same examples and writes no example
database into the checkout.  `pytest --hypothesis-profile=explore` draws
new examples instead, and `--hypothesis-seed=N` with it repeats a run (a
seed alone does not: `derandomize` takes precedence over it).  Neither has
a deadline: a kernel's first call builds its caches.
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")
