"""Hypothesis settings for the whole suite.

The "tier1" profile, loaded here, derives every draw from the test itself
(`derandomize`), so each run draws the same examples and writes no example
database.  `pytest --hypothesis-profile=explore` draws new examples instead,
and `--hypothesis-seed=N` with it repeats a run (a seed alone does not:
`derandomize` takes precedence over it).  Neither has a deadline: a
kernel's first call builds its caches.

Hypothesis's own files (its unicode codec cache, and the explore profile's
example database) go to a temporary directory that is removed when the run
ends, so a run leaves no `.hypothesis/` in the checkout; an explore run
therefore replays no failure of an earlier run, and its seed repeats it.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

settings.register_profile("tier1", derandomize=True, deadline=None)
settings.register_profile("explore", deadline=None)
settings.load_profile("tier1")
