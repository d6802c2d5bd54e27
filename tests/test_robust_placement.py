"""Tests for the robust pinned placement (repro.robust)."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.ratios import run_strategy
from repro.core.adversary import theorem1_instance, theorem1_realization
from repro.core.bounds import lb_no_replication
from repro.core.model import make_instance
from repro.core.strategies import LPTNoChoice
from repro.exact.optimal import optimal_makespan
from repro.robust import RobustPinnedPlacement
from repro.uncertainty.stochastic import sample_realization
from repro.workloads.generators import WORKLOAD_FAMILIES, generate, uniform_instance
from tests.conftest import instances


def _scenario_loads(durations: np.ndarray, assignment, m: int) -> np.ndarray:
    """Per-scenario machine loads, summed in task order."""
    loads = np.zeros((durations.shape[0], m))
    for j, i in enumerate(assignment):
        loads[:, i] += durations[:, j]
    return loads


class TestPlacementBasics:
    def test_no_replication(self):
        inst = uniform_instance(12, 3, alpha=2.0, seed=0)
        p = RobustPinnedPlacement().place(inst)
        assert p.is_no_replication()
        assert p.meta["strategy"].startswith("robust_pinned")

    def test_deterministic(self):
        inst = uniform_instance(12, 3, alpha=2.0, seed=1)
        a = RobustPinnedPlacement(seed=5).place(inst).fixed_assignment()
        b = RobustPinnedPlacement(seed=5).place(inst).fixed_assignment()
        assert a == b

    def test_training_objective_not_worse_than_lpt(self):
        """The local search starts from LPT, so its trained worst-case is at
        most LPT's worst-case over the same scenarios."""
        inst = uniform_instance(14, 4, alpha=2.0, seed=2)
        strategy = RobustPinnedPlacement(scenarios=10, seed=3)
        durations = strategy._scenario_matrix(inst)
        p_robust = strategy.place(inst)
        p_lpt = LPTNoChoice().place(inst)
        def worst(assignment):
            return _scenario_loads(durations, assignment, inst.m).max()
        assert worst(p_robust.fixed_assignment()) <= worst(p_lpt.fixed_assignment()) + 1e-9

    def test_feasible_end_to_end(self):
        inst = uniform_instance(15, 4, alpha=1.6, seed=4)
        real = sample_realization(inst, "bimodal_extreme", 5)
        outcome = run_strategy(RobustPinnedPlacement(), inst, real)
        outcome.trace.validate(outcome.placement, real)

    def test_params_validated(self):
        with pytest.raises(ValueError):
            RobustPinnedPlacement(scenarios=0)
        with pytest.raises(ValueError):
            RobustPinnedPlacement(iterations=0)


class TestNoFreeLunch:
    def test_adaptive_adversary_still_wins(self):
        """Against the Theorem-1 adversary (which sees the placement), the
        robust pinned placement cannot beat the impossibility bound on the
        identical-task construction — foresight is not flexibility."""
        m, lam, alpha = 3, 4, 2.0
        inst = theorem1_instance(lam, m, alpha)
        strategy = RobustPinnedPlacement(scenarios=16, seed=7)
        placement = strategy.place(inst)
        real = theorem1_realization(placement)
        outcome = run_strategy(strategy, inst, real)
        opt = optimal_makespan(real.actuals, m, exact_limit=lam * m)
        ratio = outcome.makespan / opt.value
        bound = lb_no_replication(alpha, m)
        # Finite-lambda: the forced ratio is already a large fraction of
        # the asymptotic bound, exactly as for LPT-No Choice.
        assert ratio >= 0.8 * bound


class TestSearchState:
    """The reported objective is the returned assignment's, to the last bit."""

    @pytest.mark.parametrize("m", (3, 4, 8, 16))
    @pytest.mark.parametrize("n", (12, 30, 60, 200))
    @pytest.mark.parametrize("family", sorted(WORKLOAD_FAMILIES))
    def test_trained_objective_is_exact(self, family, n, m):
        inst = generate(family, n, m, alpha=2.0, seed=n * m)
        strategy = RobustPinnedPlacement()
        p = strategy.place(inst)
        loads = _scenario_loads(strategy._scenario_matrix(inst), p.fixed_assignment(), m)
        assert p.meta["trained_worst_makespan"] == loads.max()

    @given(
        instances(min_n=2, max_n=10, max_m=4),
        st.integers(1, 8),
        st.integers(1, 4),
        st.integers(0, 20),
    )
    def test_stops_only_at_a_local_optimum(self, inst, scenarios, iterations, seed):
        """A search that stops before ``iterations`` passes has no improving
        single-task move left.  Every accepted move lowers the objective, so
        a pass that moves a task changes the assignment: when allowing one
        more pass leaves it as it is, no improving move was left."""
        strategy = RobustPinnedPlacement(scenarios, iterations, seed)
        p = strategy.place(inst)
        more = RobustPinnedPlacement(scenarios, iterations + 1, seed).place(inst)
        if more.fixed_assignment() != p.fixed_assignment():
            return
        durations = strategy._scenario_matrix(inst)
        current = p.meta["trained_worst_makespan"]
        assignment = list(p.fixed_assignment())
        for j, src in enumerate(assignment):
            for dst in range(inst.m):
                if dst == src:
                    continue
                moved = assignment[:j] + [dst] + assignment[j + 1:]
                assert _scenario_loads(durations, moved, inst.m).max() >= current - 1e-12


def _pinning_cases():
    """Instances where ties between destinations are common."""
    for family in sorted(WORKLOAD_FAMILIES):
        for n in (12, 60, 200):
            for m in (3, 16):
                yield generate(family, n, m, alpha=2.0, seed=n + m), RobustPinnedPlacement()
    for lam, m in ((4, 3), (6, 4), (3, 8)):
        yield theorem1_instance(lam, m, 2.0), RobustPinnedPlacement(scenarios=16, seed=7)
    # Bricks and sand (Eberle et al., speed-robust scheduling): equal large
    # tasks plus many tiny ones.
    for bricks, sand, m in ((4, 24, 3), (9, 40, 4), (17, 64, 8)):
        yield make_instance([10.0] * bricks + [0.25] * sand, m, 1.5), RobustPinnedPlacement(seed=3)


class TestPinnedAssignments:
    def test_assignments_are_pinned(self):
        """The assignments on a fixed set of 30 instances, hashed.  The
        digest was recorded from the scalar mutate-and-undo search that the
        vectorized one replaced; a change here changes bench E15."""
        assignments = [list(s.place(inst).fixed_assignment()) for inst, s in _pinning_cases()]
        assert len(assignments) == 30
        digest = hashlib.sha256(json.dumps(assignments).encode()).hexdigest()
        assert digest == "12edca2bef76ec920c76a9952941456d0d3518b77097f7cf09c704e80dbd1653"
