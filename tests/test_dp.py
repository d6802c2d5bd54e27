"""Unit and property tests for repro.exact.dp."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.exact.bnb import branch_and_bound
from repro.exact.dp import dp_two_machines, scale_to_integers


class TestScaleToIntegers:
    def test_integers_pass_through(self):
        assert scale_to_integers([1.0, 2.0, 3.0]) == [1, 2, 3]

    def test_halves_scaled(self):
        assert scale_to_integers([0.5, 1.5]) == [1, 3]

    def test_mixed_denominators(self):
        assert scale_to_integers([1 / 3, 1 / 4]) == [4, 3]

    def test_rejects_huge_scale(self):
        with pytest.raises(ValueError):
            scale_to_integers([1.0, 1e10 + 0.123456789])


class TestTwoMachineDp:
    def test_even_partition(self):
        assert dp_two_machines([1.0, 2.0, 3.0]) == 3.0

    def test_odd_partition(self):
        assert dp_two_machines([3.0, 3.0, 2.0, 2.0, 2.0]) == 6.0

    def test_unbalanced(self):
        assert dp_two_machines([10.0, 1.0, 1.0]) == 10.0

    def test_fractional_times(self):
        assert dp_two_machines([1.5, 1.5, 1.0]) == 2.5

    @given(
        st.lists(
            st.integers(min_value=1, max_value=60).map(float), min_size=1, max_size=14
        )
    )
    def test_matches_branch_and_bound(self, times):
        assert dp_two_machines(times) == pytest.approx(
            branch_and_bound(times, 2).makespan
        )
