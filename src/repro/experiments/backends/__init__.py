"""How campaign cells execute: inline or on a process pool.

The campaign layer (:mod:`repro.experiments.campaign`) owns *what* to run
— spec expansion, cache probes, result assembly; this package owns *how*.
Given the uncached cells as
:class:`~repro.experiments.backends.events.CellTask` objects, an execution
path yields a stream of typed
:class:`~repro.experiments.backends.events.BackendEvent` objects.  There
are two paths, and ``jobs`` alone chooses between them:

=============  ========================================================
``serial``     :func:`run_serial` — inline, zero overhead; used when
               ``jobs == 1`` or at most one cell needs computing.
``process``    :func:`run_process` — a windowed ``ProcessPoolExecutor``
               of ``jobs`` processes; used otherwise.
=============  ========================================================

Because cells are pure functions of their parameters, both paths produce
byte-identical campaign results.
"""

from __future__ import annotations

from repro.experiments.backends.events import (
    BackendEvent,
    CellCached,
    CellFailed,
    CellFinished,
    CellStarted,
    CellTask,
)
from repro.experiments.backends.local import resolve_dotted, run_process, run_serial

__all__ = [
    "BackendEvent",
    "CellCached",
    "CellFailed",
    "CellFinished",
    "CellStarted",
    "CellTask",
    "resolve_dotted",
    "run_process",
    "run_serial",
]
