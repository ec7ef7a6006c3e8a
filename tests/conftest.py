"""One hypothesis profile for every property test of the suite.

`deadline=None`: an example's time depends on the host, so a slow runner
must not fail a test that is right.  `derandomize=True` and no example
database: every run draws the same examples, so a failure reproduces
anywhere and a pass is the same pass on every machine.
"""

from hypothesis import settings

settings.register_profile("sweedler", deadline=None, derandomize=True,
                          database=None)
settings.load_profile("sweedler")
