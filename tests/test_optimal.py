"""Unit and property tests for repro.exact.optimal."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exact.bnb import branch_and_bound
from repro.exact.optimal import optimal_makespan
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule
from repro.uncertainty import sample_realization
from repro.workloads.generators import generate
from tests.conftest import estimates_strategy


class TestMethodSelection:
    def test_single_machine_closed_form(self):
        r = optimal_makespan([1.0, 2.0], 1)
        assert r.value == 3.0
        assert r.method == "closed_form"
        assert r.optimal

    def test_n_le_m_closed_form(self):
        r = optimal_makespan([4.0, 2.0], 5)
        assert r.value == 4.0
        assert r.method == "closed_form"

    def test_two_machines_partition_dp(self):
        r = optimal_makespan([3.0, 3.0, 2.0, 2.0, 2.0], 2)
        assert r.value == 6.0
        assert r.method == "partition_dp"

    def test_bnb_for_general(self):
        r = optimal_makespan([3.0, 3.0, 2.0, 2.0, 2.0, 1.0], 3)
        assert r.method == "bnb"
        assert r.optimal

    def test_fallback_to_lower_bound(self):
        times = [float(j % 7 + 1) for j in range(200)]
        r = optimal_makespan(times, 5, exact_limit=10)
        assert r.method == "lower_bound"
        assert not r.optimal
        assert r.value == pytest.approx(combined_lower_bound(times, 5))

    def test_node_limit_fallback(self):
        times = [float(17 + (j * 7919) % 101) / 10 + 0.0137 * j for j in range(20)]
        r = optimal_makespan(times, 4, exact_limit=22, node_limit=10)
        assert r.method == "lower_bound"
        assert not r.optimal


class TestSoundness:
    @given(estimates_strategy(1, 10), st.integers(min_value=1, max_value=4))
    def test_value_between_bounds(self, times, m):
        r = optimal_makespan(times, m, exact_limit=12)
        assert combined_lower_bound(times, m) <= r.value * (1 + 1e-9)
        assert r.value <= lpt_schedule(times, m).makespan * (1 + 1e-9)

    @given(estimates_strategy(1, 10), st.integers(min_value=1, max_value=4))
    def test_exact_flag_means_methods_agree(self, times, m):
        """When two exact paths apply, they must agree."""
        r = optimal_makespan(times, m, exact_limit=12)
        if r.optimal and m == 2 and len(times) > m:
            assert r.value == pytest.approx(branch_and_bound(times, 2).makespan)


#: Optima of perfbench's exact_grid pools under ``log_uniform`` realization
#: seed 1.  The position-order branch-and-bound that the bin-completion
#: search replaced certified the exponential ones within its 5M-node
#: default; the uniform ones exhausted that budget, and it confirmed their
#: values at 10.6M-88.5M nodes.
HARD_SET = {
    ("uniform", 22, 4, 0): 27.143119863417905,
    ("uniform", 22, 4, 2): 26.433103222214537,
    ("uniform", 22, 4, 3): 28.61126037899867,
    ("uniform", 22, 4, 4): 37.45818995106366,
    ("uniform", 22, 4, 5): 31.30049733309166,
    ("uniform", 22, 4, 7): 31.246893574257562,
    ("uniform", 22, 4, 8): 30.93995645421606,
    ("uniform", 22, 4, 10): 33.73109077449177,
    ("uniform", 22, 4, 11): 28.507648614954135,
    ("exponential", 21, 6, 21): 22.372133086392495,
    ("exponential", 21, 6, 51): 17.108440776896895,
    ("exponential", 21, 6, 68): 15.929758403269231,
    ("exponential", 21, 6, 95): 14.789507743332916,
    ("exponential", 21, 6, 100): 17.147737027728404,
    ("exponential", 21, 6, 114): 12.971931192590144,
    ("exponential", 21, 6, 115): 16.482700278452455,
    ("exponential", 21, 6, 138): 23.340500957572853,
    ("exponential", 21, 6, 148): 17.63597803646707,
}
#: Work the whole hard set may take (1121 units when pinned).
NODE_CEILING = 2_500


class TestHardSet:
    """Instances the old search could not certify, or only slowly."""

    def test_certified_with_default_limits(self):
        total = 0
        for (family, n, m, seed), value in HARD_SET.items():
            times = sample_realization(generate(family, n, m, 2.0, seed), "log_uniform", 1).actuals
            r = optimal_makespan(times, m)
            assert (r.method, r.value) == ("bnb", value), (family, seed)
            total += branch_and_bound(times, m).nodes
        assert total <= NODE_CEILING
