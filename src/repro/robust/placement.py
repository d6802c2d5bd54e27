"""Robust pinned placement: scenario-optimized assignment, no replication.

The robust-scheduling literature the paper cites answers uncertainty by
*optimizing the schedule against scenarios* rather than adding runtime
flexibility.  This module implements that alternative faithfully so the
two philosophies can be compared head-to-head (bench E15):

:class:`RobustPinnedPlacement`
    A no-replication strategy whose Phase 1 does not trust LPT on point
    estimates: it local-searches the assignment to minimize the *worst
    makespan over a scenario set* (extreme-corner draws from the α-band,
    plus the self-adversarial scenario that inflates whichever machine is
    currently most loaded).  Phase 2 is empty, as for any pinned
    placement.

The search is first-improvement over single-task moves, starting from
LPT.  Only a move off the unique most-loaded machine can lower the
worst makespan, so only that machine's tasks are scored.  For such a
task it scores all ``m`` destinations in one vectorized step, read off
the ``(scenarios, m)`` load matrix without changing it, and takes the
first destination that lowers the worst makespan by more than
``1e-12``.  Only an accepted move touches the matrix: the two changed
columns are summed again from the assignment, in task order.
The search state is thus a function of the assignment alone; it cannot
drift through add-and-undo rounding, and the reported
``meta["trained_worst_makespan"]`` is exactly the returned assignment's
objective.

The punchline the bench verifies: scenario-optimization helps on the
scenarios it trained on, but against the *adaptive* adversary of
Theorem 1 no pinned placement can beat `α²m/(α²+m−1)` — flexibility, not
foresight, is what the bound rewards.
"""

from __future__ import annotations

import numpy as np

from repro._validation import check_positive_int
from repro.core.model import Instance
from repro.core.placement import Placement, single_machine_placement
from repro.core.strategy import FixedOrderPolicy, OnlinePolicy, TwoPhaseStrategy
from repro.registry import Capabilities, Int, register_strategy
from repro.schedulers.lpt import lpt_assignment_by_task

__all__ = ["RobustPinnedPlacement"]


@register_strategy(
    "robust_pinned",
    params=(
        Int(
            "s",
            attr="scenarios",
            ge=1,
            default=12,
            omit_default=False,
            doc="number of extreme-corner scenarios optimized against",
        ),
        Int(
            "iters",
            attr="iterations",
            ge=1,
            default=40,
            doc="maximum first-improvement passes of the local search",
        ),
        Int("seed", default=0, doc="scenario sampling seed"),
    ),
    family="robust",
    theorem="Theorem 1 comparison (bench E15)",
    capabilities=Capabilities(replication_factor="none", supports_batch=True),
)
class RobustPinnedPlacement(TwoPhaseStrategy):
    """Min-max pinned assignment over sampled extreme scenarios, by vectorized local search.

    Each pass visits the tasks in id order and moves a task to the first
    machine (by index) whose worst makespan over the scenarios beats the
    current one; the search ends after a pass with no move or after
    ``iterations`` passes.

    Parameters
    ----------
    scenarios:
        Number of extreme-corner scenarios (each task independently at
        ``α`` or ``1/α``) the search optimizes against.  The adversarial
        "inflate the loaded machine" move is handled implicitly: it is the
        scenario structure that dominates the max as the search rebalances.
    iterations:
        Maximum single-task reassignment passes of the local search.
    seed:
        Scenario sampling seed (the strategy itself stays deterministic).
    """

    def __init__(self, scenarios: int = 12, iterations: int = 40, seed: int = 0) -> None:
        self.scenarios = check_positive_int(scenarios, "scenarios")
        self.iterations = check_positive_int(iterations, "iterations")
        self.seed = seed
        self.name = f"robust_pinned[s={self.scenarios}]"

    # -- scenario machinery -------------------------------------------------------
    def _scenario_matrix(self, instance: Instance) -> np.ndarray:
        """``(scenarios, n)`` actual durations; row 0 is the truthful corner."""
        rng = np.random.default_rng(self.seed)
        est = np.asarray(instance.estimates)
        a = instance.alpha
        rows = [est]
        for _ in range(self.scenarios - 1):
            factors = np.where(rng.random(instance.n) < 0.5, a, 1.0 / a)
            rows.append(est * factors)
        return np.stack(rows)

    def place(self, instance: Instance) -> Placement:
        durations = self._scenario_matrix(instance)  # (s, n)
        assignment = lpt_assignment_by_task(list(instance.estimates), instance.m)
        loads = _machine_loads(durations, assignment, range(instance.m))  # (s, m)
        col_max = loads.max(axis=0)
        top, runner_up = _top_two(col_max)
        current = float(col_max[top])
        # First-improvement local search over single-task reassignments.
        # Moving j from src to dst changes only columns src (which loses d)
        # and dst (which gains d), so all m destinations are scored in one
        # step without touching ``loads``.  A move off any machine but the
        # unique most-loaded one leaves that machine's column, and so the
        # worst makespan, as it is: only its tasks are scored, and none
        # while another column is within 1e-12 of the worst.
        for _ in range(self.iterations):
            improved = False
            for j, src in enumerate(assignment):
                if src != top or runner_up >= current - 1e-12:
                    continue
                d = durations[:, j]
                rest = max(runner_up, float((loads[:, src] - d).max()))
                cand = np.maximum((loads + d[:, None]).max(axis=0), rest)
                cand[src] = np.inf
                better = np.flatnonzero(cand < current - 1e-12)
                if better.size == 0:
                    continue
                dst = int(better[0])
                assignment[j] = dst
                loads[:, [src, dst]] = _machine_loads(durations, assignment, (src, dst))
                col_max[[src, dst]] = loads[:, [src, dst]].max(axis=0)
                top, runner_up = _top_two(col_max)
                current = float(col_max[top])
                improved = True
            if not improved:
                break
        return single_machine_placement(
            instance,
            assignment,
            meta={"strategy": self.name, "trained_worst_makespan": current},
        )

    def make_policy(self, instance: Instance, placement: Placement) -> OnlinePolicy:
        return FixedOrderPolicy(instance.lpt_order())


def _machine_loads(durations: np.ndarray, assignment: list[int], machines) -> np.ndarray:
    """``(scenarios, len(machines))`` loads of ``machines`` under ``assignment``.

    Each load is summed left to right in task order (``np.add.accumulate``
    is sequential), the same additions as ``loads[:, i] += durations[:, j]``
    over ``j``.  The search rebuilds a column this way whenever it changes,
    so its state is a function of the assignment alone and never drifts
    from the objective it reports.
    """
    machine_of = np.asarray(assignment)
    loads = np.zeros((durations.shape[0], len(machines)))
    for col, i in enumerate(machines):
        on_i = durations[:, machine_of == i]
        if on_i.shape[1]:
            loads[:, col] = np.add.accumulate(on_i, axis=1)[:, -1]
    return loads


def _top_two(col_max: np.ndarray) -> tuple[int, float]:
    """The first most-loaded machine and the largest load among the others."""
    top = int(col_max.argmax())
    return top, float(np.delete(col_max, top).max(initial=-np.inf))
