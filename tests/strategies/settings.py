"""Shared Hypothesis settings profiles.

Seed each property that uses them with ``@hypothesis.seed(...)``, so a
failure replays from the test file alone.
"""

from __future__ import annotations

from hypothesis import HealthCheck, settings

#: Properties that run two executions of one input and compare them bit for
#: bit (a reference against the fast path, a run against its replay).  An
#: example runs whole simulations, so there are few of them and no
#: per-example deadline; no example database, so the examples a run tries
#: depend on the seed alone.
DETERMINISM_SETTINGS = settings(
    max_examples=40,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Properties over plain values, cheap enough for the default example count.
STANDARD_SETTINGS = settings(max_examples=100, deadline=None)
