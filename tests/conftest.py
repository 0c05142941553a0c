"""Check the invariants of every schedule the tests build.

The wrapper goes in at configure time, before collection, so that the
schedules test modules build at import time are checked as well.
"""

from oracles import assert_schedule_invariants

from toydiff import schedules

_build = schedules._build


def _checked_build(*args, **kwargs):
    s = _build(*args, **kwargs)
    assert_schedule_invariants(s)
    return s


def pytest_configure(config):
    schedules._build = _checked_build


def pytest_unconfigure(config):
    schedules._build = _build
