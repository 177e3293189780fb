"""Hypothesis draws the same examples on every run, so the suite's pass
count does not depend on the run; elections have no per-example deadline.
Tests read trace events by name through ``events``."""

from collections import namedtuple

from hypothesis import settings

settings.register_profile("votesim", derandomize=True, deadline=None)
settings.load_profile("votesim")


# Named view of one trace event, a plain tuple in the simulator.
Event = namedtuple("Event", "time kind src dst phase digest size")


def events(trace) -> list:
    """The trace's events as ``Event`` views."""
    return [Event._make(e) for e in trace.events]
