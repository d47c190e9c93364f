"""The two execution paths: inline and a process pool.

Both take the uncached cells of a campaign and yield typed events until
every task has either finished or failed.  A failing cell never aborts
the stream: remaining cells keep executing (and therefore keep reaching
the cache), and the campaign executor re-raises the first failure only
after the stream is drained.  Only :class:`Exception` counts as a cell
failure — ``KeyboardInterrupt`` and ``SystemExit`` stop the campaign at
once.

This module does not import the campaign module (the campaign module
imports *it*); everything it needs to run a cell — resolving the dotted
runner path and timing the call — lives here.
"""

from __future__ import annotations

import importlib
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence

from repro.experiments.backends.events import (
    BackendEvent,
    CellFailed,
    CellFinished,
    CellStarted,
    CellTask,
)


def resolve_dotted(dotted: str) -> Callable[..., Any]:
    """Import a ``"module:function"`` reference."""
    module_name, _, attribute = dotted.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attribute)


def timed_call(dotted: str, params: dict[str, Any]) -> tuple[Any, float]:
    """Run one cell; returns ``(payload, elapsed_seconds)``.

    Also the process-pool entry point, so it must stay module-level.
    """
    started = time.perf_counter()
    payload = resolve_dotted(dotted)(**params)
    return payload, time.perf_counter() - started


def run_serial(tasks: Sequence[CellTask]) -> Iterator[BackendEvent]:
    """Run cells inline in the calling thread — zero overhead, trivially
    debuggable (a ``pdb`` breakpoint in a runner just works)."""
    for task in tasks:
        yield CellStarted(index=task.index, key=task.key, params=task.params)
        try:
            payload, elapsed = timed_call(task.dotted, task.params)
        except Exception as error:  # noqa: BLE001 - surfaced as an event
            yield CellFailed(
                index=task.index, key=task.key, error=str(error), exception=error
            )
            continue
        yield CellFinished(
            index=task.index, key=task.key, payload=payload, elapsed_seconds=elapsed
        )


def run_process(tasks: Sequence[CellTask], jobs: int) -> Iterator[BackendEvent]:
    """Run cells on a ``ProcessPoolExecutor`` of ``jobs`` processes.

    Tasks are dispatched in a window of ``jobs`` so ``cell_started``
    events track actual execution rather than enqueueing.
    """
    if not tasks:
        return
    backlog = list(tasks)
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        outstanding = {}

        def dispatch() -> CellStarted:
            task = backlog.pop(0)
            outstanding[pool.submit(timed_call, task.dotted, task.params)] = task
            return CellStarted(index=task.index, key=task.key, params=task.params)

        while backlog and len(outstanding) < jobs:
            yield dispatch()
        while outstanding:
            done, _ = wait(outstanding, return_when=FIRST_COMPLETED)
            for future in done:
                task = outstanding.pop(future)
                try:
                    payload, elapsed = future.result()
                except Exception as error:  # noqa: BLE001 - surfaced as an event
                    yield CellFailed(
                        index=task.index,
                        key=task.key,
                        error=str(error),
                        exception=error,
                    )
                else:
                    yield CellFinished(
                        index=task.index,
                        key=task.key,
                        payload=payload,
                        elapsed_seconds=elapsed,
                    )
                if backlog:
                    yield dispatch()
