"""The sequential greedy scan: the reference for ``repro.core.planner.greedy_scan``.

The loop ``PrunedPlanner._greedy_scan`` ran before the scan became a
matching, as a function of the scan arrays.  It visits rows in order,
skips rows an earlier row claimed, and walks each row's scan order up to
its first −1 (at most ``k`` columns): the first alive candidate is the
row's helper when the pair time is below the row's τ̂.  Alive rows are
those with ``pos_of_row >= 0``.  A property compares
:func:`greedy_scan_reference` with ``greedy_scan`` on the same arrays.
"""

from __future__ import annotations

import numpy as np


def greedy_scan_reference(
    scan_rows: np.ndarray,
    scan_times: np.ndarray,
    pos_of_row: np.ndarray,
    visit_rows: np.ndarray,
    visit_taus: np.ndarray,
) -> tuple[list[int], list[int], list[int]]:
    """Per decision in visit order: slow rows and helper rows (−1 alone); per pair: scan columns."""
    k = scan_rows.shape[1]
    infinity = float("inf")
    first_row = scan_rows[:, 0].tolist()
    first_time = scan_times[:, 0].tolist()
    alive = (pos_of_row >= 0).tolist()
    slow_rows: list[int] = []
    fast_rows: list[int] = []
    pair_columns: list[int] = []

    for i, own_time in zip(visit_rows.tolist(), visit_taus.tolist()):
        if not alive[i]:
            continue
        best_time = infinity
        best_column = -1
        j = first_row[i]
        if j >= 0:
            if alive[j]:
                best_time = first_time[i]
                best_column = 0
            else:
                # Fastest candidate already claimed: walk the rest of the
                # row's scan order.
                row_rows = scan_rows[i].tolist()
                row_times = scan_times[i].tolist()
                for column in range(1, k):
                    j = row_rows[column]
                    if j < 0:
                        break
                    if alive[j]:
                        best_time = row_times[column]
                        best_column = column
                        break
        slow_rows.append(i)
        alive[i] = False
        if best_time < own_time:
            fast_rows.append(j)
            pair_columns.append(best_column)
            alive[j] = False
        else:
            fast_rows.append(-1)
    return slow_rows, fast_rows, pair_columns
