"""Shared benchmark helpers.

Every experiment benchmark runs its harness exactly once (``rounds=1``) —
these are reproduction harnesses whose value is the produced table, not a
statistically tight latency estimate — and attaches the produced rows to
``benchmark.extra_info`` so they appear in the saved benchmark JSON.

Scaling benches additionally record their peak memory footprint
(:func:`attach_peak_memory`): the process high-water RSS plus the peak of
one *untimed* pass under ``tracemalloc``, both attached to
``benchmark.extra_info`` so ``tools/bench_trajectory.py`` snapshots carry
memory columns alongside the latency medians.
"""

from __future__ import annotations

import resource
import tracemalloc


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment harness exactly once under pytest-benchmark."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)


def attach_peak_memory(benchmark, function) -> None:
    """Record a bench workload's memory footprint in ``extra_info``.

    Runs ``function`` once more *outside* the timer under ``tracemalloc``
    (its several-fold allocation overhead must never touch the timed
    rounds) and records the traced peak, plus the process-wide high-water
    RSS — the number that decides whether a population fits on a host.
    """
    tracemalloc.start()
    try:
        function()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ru_maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    benchmark.extra_info["peak_traced_mb"] = round(peak / 2**20, 3)
    benchmark.extra_info["peak_rss_mb"] = round(ru_maxrss_kb / 1024, 3)
