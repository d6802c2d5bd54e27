"""Tests for memory-capped replication (repro.memory.capped)."""

from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.analysis.ratios import run_strategy
from repro.memory.capped import CappedReplication, min_feasible_capacity
from repro.memory.model import memory_lower_bound
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.memory_workloads import independent_sizes
from tests.conftest import sized_instances


@pytest.fixture
def inst():
    return independent_sizes(16, 4, alpha=1.8, seed=2)


class TestFeasibility:
    def test_cap_respected(self, inst):
        cap = 1.5 * min_feasible_capacity(inst)
        p = CappedReplication(cap).place(inst)
        assert max(p.memory_per_machine()) <= cap * (1 + 1e-9)

    def test_generous_cap_is_full_replication(self, inst):
        p = CappedReplication(inst.total_size).place(inst)
        assert p.is_full_replication()

    def test_tight_cap_is_pinning(self, inst):
        cap = min_feasible_capacity(inst)
        p = CappedReplication(cap, pin_by="memory").place(inst)
        # At exactly the pi2 capacity, essentially nothing extra fits —
        # every task has one replica except possibly tiny fillers.
        assert max(p.memory_per_machine()) <= cap * (1 + 1e-9)

    def test_infeasible_cap_raises(self, inst):
        tiny = 0.25 * memory_lower_bound(inst.sizes, inst.m)
        with pytest.raises(ValueError, match="no feasible placement"):
            CappedReplication(tiny).place(inst)

    def test_pin_by_time_raises_when_too_tight(self, inst):
        cap = min_feasible_capacity(inst) * 1.001
        # The time-balanced pinning usually needs more memory headroom.
        try:
            CappedReplication(cap, pin_by="time").place(inst)
        except ValueError as exc:
            assert "time-balanced" in str(exc)

    def test_pin_by_validated(self):
        with pytest.raises(ValueError, match="pin_by"):
            CappedReplication(1.0, pin_by="hope")


class TestMonotonicity:
    def test_more_capacity_more_replicas(self, inst):
        base = min_feasible_capacity(inst)
        counts = [
            CappedReplication(c).place(inst).total_replicas()
            for c in (base, 2 * base, 4 * base, inst.total_size)
        ]
        assert counts == sorted(counts)
        assert counts[-1] == inst.n * inst.m

    @given(sized_instances(min_n=2, max_n=10, max_m=3), st.integers(0, 2))
    def test_feasible_end_to_end(self, inst, seed):
        if all(t.size == 0 for t in inst):
            return
        cap = 2.0 * min_feasible_capacity(inst)
        if cap <= 0:
            return
        strategy = CappedReplication(cap)
        real = sample_realization(inst, "bimodal_extreme", seed)
        outcome = run_strategy(strategy, inst, real)
        outcome.trace.validate(outcome.placement, real)
        assert outcome.memory_max <= cap * (1 + 1e-9)


class TestTradeoff:
    def test_capacity_buys_makespan(self, inst):
        """Across seeds, the generous cap's mean makespan under extreme
        realizations beats the tight cap's."""
        tight = CappedReplication(1.05 * min_feasible_capacity(inst))
        roomy = CappedReplication(inst.total_size)
        tight_total = roomy_total = 0.0
        for seed in range(5):
            real = sample_realization(inst, "bimodal_extreme", 100 + seed)
            tight_total += run_strategy(tight, inst, real).makespan
            roomy_total += run_strategy(roomy, inst, real).makespan
        assert roomy_total <= tight_total * (1 + 1e-9)

    def test_zero_size_tasks_replicate_free_and_cap_binds(self):
        from repro.core.model import make_instance

        # Time pinning: task0 -> m0 (mem 4), tasks 1,2 -> m1 (mem 5).
        inst = make_instance([3.0, 2.0, 1.0], m=2, sizes=[4.0, 0.0, 5.0], alpha=1.5)
        p = CappedReplication(5.0).place(inst)
        # Zero-size task replicates for free; the sized tasks don't fit on
        # the other machine (4+5 or 5+4 would exceed the cap).
        assert p.replication_count(1) == 2
        assert p.replication_count(0) == 1
        assert p.replication_count(2) == 1
        assert max(p.memory_per_machine()) <= 5.0


def _full_scan_fill(strategy: CappedReplication, inst, base: list[int]):
    """Reference replica fill: every round rescans all machines of all tasks.

    The production fill walks the machines in one presorted order and drops
    a task once nothing fits; this oracle recomputes the candidate list
    from scratch each time and runs rounds until one adds nothing.
    """
    machine_sets = [{base[j]} for j in range(inst.n)]
    mem = [0.0] * inst.m
    loads = [0.0] * inst.m
    for j, i in enumerate(base):
        mem[i] += inst.tasks[j].size
        loads[i] += inst.tasks[j].estimate
    progressed = True
    while progressed:
        progressed = False
        for j in inst.lpt_order():
            size = inst.tasks[j].size
            candidates = [
                i
                for i in range(inst.m)
                if i not in machine_sets[j] and mem[i] + size <= strategy.capacity * (1 + 1e-12)
            ]
            if not candidates:
                continue
            target = min(candidates, key=lambda i: (loads[i], i))
            machine_sets[j].add(target)
            mem[target] += size
            progressed = True
    return tuple(frozenset(s) for s in machine_sets)


class TestFillMatchesFullScan:
    @given(
        sized_instances(max_n=14, max_m=6),
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from(("time", "memory", "auto")),
    )
    def test_same_machine_sets(self, inst, frac, pin):
        low = min_feasible_capacity(inst)
        cap = low + frac * (inst.total_size - low)
        assume(cap > 0)
        strategy = CappedReplication(cap, pin_by=pin)
        try:
            base = strategy._base_assignment(inst)
        except ValueError:
            with pytest.raises(ValueError):
                strategy.place(inst)
            return
        assert strategy.place(inst).machine_sets == _full_scan_fill(strategy, inst, base)

    @pytest.mark.parametrize("frac", (0.0, 0.05, 0.3, 0.7, 1.0))
    def test_same_machine_sets_at_scale(self, frac):
        inst = independent_sizes(120, 8, alpha=1.8, seed=5)
        low = min_feasible_capacity(inst)
        strategy = CappedReplication(low + frac * (inst.total_size - low))
        base = strategy._base_assignment(inst)
        assert strategy.place(inst).machine_sets == _full_scan_fill(strategy, inst, base)
