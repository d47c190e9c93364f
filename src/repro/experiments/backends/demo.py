"""The ``demo-cell`` runner: a controllable cell for smoke tests and demos.

Registered in :data:`repro.experiments.campaign.CELL_RUNNERS`, so
``comdml campaign run`` can exercise the execution paths without paying
for a real experiment:

.. code-block:: python

    CampaignSpec.create(
        name="demo", runner="demo-cell",
        axes={"cell_id": tuple(range(8))},
        base={"fail_ids": [3]},
    )

The payload is a pure function of the parameters (identical on either
execution path), and ``fail_ids`` turns selected cells into
deterministic failures.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Sequence


def demo_cell(cell_id: int, fail_ids: Optional[Sequence[int]] = None) -> dict:
    """Return a deterministic payload, or raise if ``cell_id`` is in ``fail_ids``."""
    if fail_ids and cell_id in fail_ids:
        raise RuntimeError(f"demo cell {cell_id} asked to fail")
    token = hashlib.sha256(f"demo-cell:{cell_id}".encode("utf-8")).hexdigest()[:16]
    return {"cell_id": cell_id, "token": token}
