"""Unit and property tests for repro.exact.bnb."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro.exact.bnb as bnb
from repro.exact.bnb import branch_and_bound
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule
from tests.conftest import estimates_strategy


class TestClosedForms:
    def test_single_machine(self):
        r = branch_and_bound([1.0, 2.0, 3.0], 1)
        assert r.makespan == 6.0
        assert r.assignment == (0, 0, 0)

    def test_one_task_per_machine(self):
        r = branch_and_bound([5.0, 1.0], 4)
        assert r.makespan == 5.0

    def test_optimal_flag(self):
        assert branch_and_bound([1.0], 1).optimal


class TestKnownOptima:
    def test_lpt_suboptimal_instance(self):
        # LPT gives 7 here; OPT is 6 (3+3 | 2+2+2).
        r = branch_and_bound([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.makespan == 6.0

    def test_partition_instance(self):
        r = branch_and_bound([7.0, 5.0, 4.0, 3.0, 1.0], 2)
        assert r.makespan == 10.0

    def test_three_machines(self):
        r = branch_and_bound([5.0, 4.0, 3.0, 3.0, 3.0], 3)
        assert r.makespan == 7.0

    def test_identical_tasks(self):
        r = branch_and_bound([1.0] * 7, 3)
        assert r.makespan == 3.0

    def test_assignment_achieves_makespan(self):
        times = [4.0, 3.0, 3.0, 2.0, 2.0, 1.0]
        r = branch_and_bound(times, 3)
        loads = [0.0] * 3
        for j, i in enumerate(r.assignment):
            loads[i] += times[j]
        assert max(loads) == pytest.approx(r.makespan)


class TestAgainstBounds:
    @given(estimates_strategy(1, 11), st.integers(min_value=1, max_value=4))
    def test_sandwiched_by_bounds(self, times, m):
        r = branch_and_bound(times, m)
        lb = combined_lower_bound(times, m)
        ub = lpt_schedule(times, m).makespan
        assert lb <= r.makespan * (1 + 1e-9)
        assert r.makespan <= ub * (1 + 1e-9)

    @given(estimates_strategy(1, 11), st.integers(min_value=1, max_value=4))
    def test_assignment_feasible(self, times, m):
        r = branch_and_bound(times, m)
        assert len(r.assignment) == len(times)
        assert all(0 <= i < m for i in r.assignment)
        loads = [0.0] * m
        for j, i in enumerate(r.assignment):
            loads[i] += times[j]
        assert max(loads) == pytest.approx(r.makespan)

    @given(estimates_strategy(2, 9))
    def test_monotone_in_machines(self, times):
        """Adding machines can only decrease the optimal makespan."""
        prev = None
        for m in (1, 2, 3):
            cur = branch_and_bound(times, m).makespan
            if prev is not None:
                assert cur <= prev * (1 + 1e-9)
            prev = cur


class TestNodeLimit:
    def test_limit_raises(self):
        times = [float(17 + (j * 7919) % 101) / 10 for j in range(18)]
        with pytest.raises(RuntimeError, match="node_limit"):
            branch_and_bound(times, 4, node_limit=10)

    def test_nodes_reported(self):
        r = branch_and_bound([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.nodes >= 1


def _brute_force(times, m):
    """Least makespan over all ``m**n`` assignments, each machine's load
    summed in non-increasing-duration order as the solver sums it."""
    ordered = sorted(times, reverse=True)
    machine_of = np.indices((m,) * len(ordered)).reshape(len(ordered), -1)
    loads = np.zeros((m, machine_of.shape[1]))
    for pos, t in enumerate(ordered):
        for i in range(m):
            loads[i] += np.where(machine_of[pos] == i, t, 0.0)  # x + 0.0 == x
    return float(loads.max(axis=0).min())


def _position_order_loads(times, assignment, m):
    loads = [0.0] * m
    for j in sorted(range(len(times)), key=lambda j: (-times[j], j)):
        loads[assignment[j]] += times[j]
    return loads


@st.composite
def _tie_heavy(draw):
    """Dyadic durations (every sum exact): bricks and sand, duplicates
    from a small pool, or free multiples of 1/16."""
    n = draw(st.integers(min_value=1, max_value=8))
    kind = draw(st.sampled_from(["bricks_and_sand", "duplicates", "dyadic"]))
    if kind == "bricks_and_sand":
        bricks = draw(st.integers(min_value=1, max_value=n))
        brick = float(draw(st.integers(min_value=4, max_value=64)))
        sand = draw(st.lists(st.integers(1, 4), min_size=n - bricks, max_size=n - bricks))
        times = [brick] * bricks + [grain / 8 for grain in sand]
    elif kind == "duplicates":
        times = draw(st.lists(st.sampled_from([0.5, 1.25, 3.0, 4.75]), min_size=n, max_size=n))
    else:
        times = [k / 16 for k in draw(st.lists(st.integers(1, 256), min_size=n, max_size=n))]
    return draw(st.permutations(times))


class TestDifferential:
    """Against exhaustive enumeration, which shares no search logic."""

    @given(_tie_heavy(), st.integers(min_value=1, max_value=4))
    @example([3.0, 3.0, 2.0, 2.0, 2.0], 2)
    @example([16.0, 16.0, 16.0, 0.125, 0.125, 0.25], 3)
    @example([5.0, 1.0], 4)  # n <= m
    @example([1.5, 2.5, 0.5], 1)  # m == 1
    def test_equals_brute_force_on_ties(self, times, m):
        r = branch_and_bound(times, m)
        assert r.makespan == _brute_force(times, m)
        assert max(_position_order_loads(times, r.assignment, m)) == r.makespan

    @given(estimates_strategy(1, 8), st.integers(min_value=1, max_value=4))
    def test_within_tolerance_of_brute_force(self, times, m):
        """Free floats: the solver stops once no assignment beats the
        incumbent by its 1e-12 relative tolerance."""
        r = branch_and_bound(times, m)
        best = _brute_force(times, m)
        assert best <= r.makespan <= best * (1 + 1e-11)
        assert max(_position_order_loads(times, r.assignment, m)) == r.makespan

    @given(_tie_heavy(), st.integers(min_value=2, max_value=4))
    def test_head_subsets_match_brute_force(self, times, m):
        """Tasks beyond 2 * _HALF are enumerated one head subset at a time;
        shrinking the halves runs that path at brute-force sizes."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bnb, "_HALF", 2)
            r = branch_and_bound(times, m)
        assert r.makespan == _brute_force(times, m)
        assert max(_position_order_loads(times, r.assignment, m)) == r.makespan

    @given(
        st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=10),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=-30, max_value=30),
    )
    def test_power_of_two_scaling(self, ints, m, k):
        times = [float(v) for v in ints]
        scaled = [t * 2.0**k for t in times]
        assert branch_and_bound(scaled, m).makespan == branch_and_bound(times, m).makespan * 2.0**k
