"""Largest Processing Time first (LPT).

LPT sorts tasks by non-increasing processing time and then list-schedules
them.  Graham (1969) proved the offline approximation ratio
``4/3 - 1/(3m)``.  The paper uses LPT twice:

* **LPT-No Choice** places task *data* with LPT on the estimates (Phase 1,
  Th. 2);
* **LPT-No Restriction** dispatches tasks online in LPT order of the
  estimates (Phase 2, Th. 3).

Besides the scheduler itself this module exposes the two structural facts
Theorem 2's proof relies on, so tests can check them directly:

* ``C̃_max <= (sum p̃ + (m-1) p̃_l) / m`` where ``l`` is the last task on
  the critical machine (:func:`critical_task`), and
* ``sum p̃ - p̃_l >= m (C̃_max - p̃_l)`` (every machine is loaded to at
  least ``C̃_max - p̃_l`` when ``l`` starts).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro._validation import check_machine_count, check_times
from repro.schedulers.list_scheduling import AssignmentResult, greedy_assign_heap

__all__ = ["lpt_schedule", "lpt_order", "critical_task", "lpt_assignment_by_task"]


def lpt_order(times: Sequence[float]) -> list[int]:
    """Indices sorted by non-increasing time, ties broken by smaller index."""
    return _lpt_order(check_times(times))


def _lpt_order(ts: Sequence[float]) -> list[int]:
    return sorted(range(len(ts)), key=lambda j: (-ts[j], j))


def lpt_schedule(times: Sequence[float], m: int) -> AssignmentResult:
    """LPT on identical machines.

    Examples
    --------
    >>> r = lpt_schedule([2.0, 3.0, 2.0, 2.0], m=2)
    >>> r.makespan
    5.0
    """
    ts = check_times(times)
    check_machine_count(m)
    return greedy_assign_heap(ts, _lpt_order(ts), m)


def lpt_assignment_by_task(times: Sequence[float], m: int) -> list[int]:
    """LPT assignment re-indexed by task id (``result[j]`` = machine of ``j``)."""
    res = lpt_schedule(times, m)
    by_task = [0] * len(times)
    for pos, j in enumerate(res.order):
        by_task[j] = res.assignment[pos]
    return by_task


def critical_task(result: AssignmentResult, times: Sequence[float]) -> int:
    """The task ``l`` that *reaches* the makespan.

    Within an assignment result, this is the last task (in the scheduling
    order) placed on a machine whose final load equals the makespan.  The
    proofs of Theorems 2 and 3 reason about this task's processing time.
    """
    makespan = result.makespan
    critical_machines = {i for i, load in enumerate(result.loads) if load == makespan}
    last: int | None = None
    for pos, j in enumerate(result.order):
        if result.assignment[pos] in critical_machines:
            last = j
    if last is None:  # pragma: no cover — non-empty schedules always have one
        raise ValueError("no critical task found (empty schedule?)")
    return last
