"""The planner's per-plan topology sync.

:class:`~repro.network.topology.Topology` stores its links as an editable
CSR and edits it in O(Δ) as agents arrive and leave.  Between two plans
the planner needs two things from it: which nodes' links changed, and the
participants' slot ↔ position translation.  :class:`IncrementalCsr` keeps
both: a cursor on the topology's mutation counter, whose per-node stamps
say what changed after it, and the last translation, rebuilt only when the
participant tuple or the topology's slots change.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.network.topology import CsrTranslation, Topology

__all__ = ["IncrementalCsr"]


class IncrementalCsr:
    """A consumer's cursor on a topology, plus its participant translation."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._cursor = topology.version
        #: Translation of the participants of the last :meth:`sync`.
        self.translation: Optional[CsrTranslation] = None

    def sync(self, ids: tuple[int, ...]) -> np.ndarray:
        """Ids whose links changed since the last sync; translates ``ids``.

        Afterwards :attr:`translation` is current for the participant
        tuple ``ids``: the last one is kept unless the tuple or the
        topology's slots changed (:meth:`rebuild`).
        """
        topology = self.topology
        touched = topology.touched_since(self._cursor)
        self._cursor = topology.version
        translation = self.translation
        if (
            translation is None
            or translation.epoch != topology.epoch
            or translation.ids != ids
        ):
            self.rebuild(ids)
        return touched

    def rebuild(self, ids: tuple[int, ...]) -> None:
        """Translate the participant tuple ``ids`` afresh, in O(n)."""
        self.translation = self.topology.translation(ids)
