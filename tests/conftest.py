"""One hypothesis profile for the whole suite: every property test runs the
same examples on every run (derandomized), with no per-example deadline,
since the certified numerics take a variable fraction of a second."""

from hypothesis import settings

settings.register_profile("qchar", derandomize=True, deadline=None)
settings.load_profile("qchar")
