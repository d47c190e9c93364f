"""Typed events and the unit of work of campaign execution.

The executor hands a sequence of :class:`CellTask` objects to one of the
two execution paths in :mod:`repro.experiments.backends.local`, which
yields a stream of :class:`BackendEvent` subclasses — the *only* channel
through which execution progress reaches the campaign layer and its
renderers.  The event vocabulary:

``cell_started``
    A cell began executing.
``cell_finished``
    A cell completed; carries the JSON payload and the compute time.
``cell_failed``
    The cell's runner raised; carries the stringified error and the
    original exception object.
``cell_cached``
    Emitted by the executor — never by an execution path — when a cell
    is served from the on-disk cache.

Events are frozen dataclasses so renderers and tests can rely on their
shape; every event exposes a ``kind`` string for dispatch and counting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar


@dataclass(frozen=True)
class CellTask:
    """One schedulable unit of a campaign: a cell the cache did not cover.

    ``dotted`` is the ``"module:function"`` path of the cell runner; it
    travels with the task because pool processes resolve the callable
    themselves.
    """

    index: int
    params: dict[str, Any]
    key: str
    dotted: str


@dataclass(frozen=True)
class BackendEvent:
    """Base class of everything an execution path may yield."""

    kind: ClassVar[str] = "event"


@dataclass(frozen=True)
class CellStarted(BackendEvent):
    kind: ClassVar[str] = "cell_started"

    index: int
    key: str
    params: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class CellFinished(BackendEvent):
    kind: ClassVar[str] = "cell_finished"

    index: int
    key: str
    payload: Any = None
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class CellFailed(BackendEvent):
    kind: ClassVar[str] = "cell_failed"

    index: int
    key: str
    error: str
    exception: Exception


@dataclass(frozen=True)
class CellCached(BackendEvent):
    kind: ClassVar[str] = "cell_cached"

    index: int
    key: str
    elapsed_seconds: float = 0.0
