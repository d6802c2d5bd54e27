"""Memory-capped replication — the bounded-memory reading of the model.

Section 3 of the paper chooses to treat memory occupation as an
*objective* "rather than bounding the available memory".  Real machines,
of course, have hard capacities; this module implements the bounded
alternative so both readings are available:

:class:`CappedReplication`
    Given a per-machine memory capacity, start from the LPT pinning
    (which must itself fit) and spend the remaining capacity on extra
    replicas, largest-estimate tasks first, each replica going to the
    machine with the lowest estimated load among those with room.  The
    placement never exceeds the cap on any machine; Phase 2 is the
    pinned-aware dispatch shared with the budgeted strategies.

:func:`min_feasible_capacity`
    The smallest per-machine capacity for which *some* placement exists —
    the memory analogue of the makespan lower bound (LPT on sizes gives a
    ρ₂-approximate upper bound on it; the LP bound gives the lower).

Sweeping the capacity from :func:`min_feasible_capacity` to
``total_size`` traces the same memory/makespan tradeoff as SABO/ABO's Δ,
but in the units an operator actually provisions.
"""

from __future__ import annotations

from repro._validation import check_positive_float
from repro.core.model import Instance
from repro.core.placement import Placement
from repro.core.strategies.selective import PinnedAwarePolicy
from repro.core.strategy import OnlinePolicy, TwoPhaseStrategy
from repro.memory.model import memory_lower_bound, memory_reference
from repro.registry import Capabilities, Choice, Float, register_strategy
from repro.schedulers.lpt import lpt_assignment_by_task

__all__ = ["CappedReplication", "min_feasible_capacity"]


def min_feasible_capacity(instance: Instance) -> float:
    """Per-machine capacity of the best memory-balanced pinning (π₂'s value).

    Any capacity at or above this admits at least the π₂ placement; the
    true feasibility threshold lies between
    :func:`repro.memory.model.memory_lower_bound` and this value.
    """
    return memory_reference(instance).objective


@register_strategy(
    "capped",
    params=(
        Float("C", attr="capacity", gt=0.0, doc="per-machine memory capacity"),
        Choice(
            "pin",
            values=("time", "memory", "auto"),
            attr="pin_by",
            default="auto",
            omit_default=False,
            doc="what the base pinning balances",
        ),
    ),
    family="memory",
    theorem="§3 bounded-memory alternative (bench E9)",
    capabilities=Capabilities(
        supports_releases=False,
        memory_aware=True,
        replication_factor="budgeted",
        supports_batch=True,
    ),
)
class CappedReplication(TwoPhaseStrategy):
    """Replicate as much as a hard per-machine memory capacity allows.

    Parameters
    ----------
    capacity:
        Memory capacity of every machine (identical machines).  The
        strategy raises at placement time if even a memory-balanced
        pinning does not fit (capacity < π₂'s ``Mem_max``).
    pin_by:
        What the base pinning balances: ``"time"`` (LPT on estimates —
        better makespan, may need more capacity) or ``"memory"``
        (π₂ — fits whenever anything fits).  ``"auto"`` (default) tries
        time first and falls back to memory.
    """

    def __init__(self, capacity: float, *, pin_by: str = "auto") -> None:
        self.capacity = check_positive_float(capacity, "capacity")
        if pin_by not in ("time", "memory", "auto"):
            raise ValueError(f"pin_by must be 'time', 'memory' or 'auto', got {pin_by!r}")
        self.pin_by = pin_by
        self.name = f"capped[C={self.capacity:g},{pin_by}]"

    def _base_assignment(self, instance: Instance) -> list[int]:
        time_pin = lpt_assignment_by_task(list(instance.estimates), instance.m)
        if self.pin_by in ("time", "auto"):
            mem = [0.0] * instance.m
            for j, i in enumerate(time_pin):
                mem[i] += instance.tasks[j].size
            if max(mem) <= self.capacity * (1 + 1e-12):
                return time_pin
            if self.pin_by == "time":
                raise ValueError(
                    f"capacity {self.capacity} cannot hold the time-balanced "
                    f"pinning (needs {max(mem):g}); use pin_by='memory' or 'auto'"
                )
        mem_pin = list(memory_reference(instance).assignment)
        mem = [0.0] * instance.m
        for j, i in enumerate(mem_pin):
            mem[i] += instance.tasks[j].size
        if max(mem) > self.capacity * (1 + 1e-12):
            raise ValueError(
                f"capacity {self.capacity} is below the best memory-balanced "
                f"pinning ({max(mem):g}); no feasible placement "
                f"(lower bound {memory_lower_bound(instance.sizes, instance.m):g})"
            )
        return mem_pin

    def place(self, instance: Instance) -> Placement:
        base = self._base_assignment(instance)
        machine_sets = [set((base[j],)) for j in range(instance.n)]
        mem = [0.0] * instance.m
        loads = [0.0] * instance.m
        for j, i in enumerate(base):
            mem[i] += instance.tasks[j].size
            loads[i] += instance.tasks[j].estimate

        # Spend the remaining capacity on replicas, largest tasks first,
        # round-robin so the budget spreads over the heavy tasks.  Each
        # replica goes to the least-loaded machine with room.  ``loads``
        # never changes, so that is the first fitting machine in one fixed
        # order; ``mem`` and the machine sets only grow, so a machine a
        # task walked past stays unusable for it.  Each task therefore
        # resumes its walk where the last one stopped, and leaves the
        # rounds once the walk runs out of machines.
        m = instance.m
        by_load = sorted(range(m), key=lambda i: (loads[i], i))
        cap = self.capacity * (1 + 1e-12)
        resume = [0] * instance.n
        active = instance.lpt_order()
        while active:
            still_active = []
            for j in active:
                size = instance.tasks[j].size
                mine = machine_sets[j]
                k = resume[j]
                while k < m and (by_load[k] in mine or mem[by_load[k]] + size > cap):
                    k += 1
                if k == m:
                    continue
                target = by_load[k]
                mine.add(target)
                mem[target] += size
                resume[j] = k + 1
                still_active.append(j)
            active = still_active
        return Placement(
            instance,
            tuple(frozenset(s) for s in machine_sets),
            meta={"strategy": self.name, "capacity": self.capacity},
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return PinnedAwarePolicy(instance, placement)
