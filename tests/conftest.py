"""Hypothesis draws the same examples on every run, so the suite's pass
count does not depend on the run; elections have no per-example deadline."""

from hypothesis import settings

settings.register_profile("votesim", derandomize=True, deadline=None)
settings.load_profile("votesim")
