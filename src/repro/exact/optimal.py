"""Facade for computing (or soundly bounding) the clairvoyant optimum.

Every measured competitive ratio in this library divides a strategy's
makespan by :math:`C^*_{max}`.  :func:`optimal_makespan` picks the
strongest affordable method:

1. trivial cases (``m == 1``, ``n <= m``) in closed form;
2. the PARTITION bitset DP for ``m == 2`` with nice durations;
3. the bin-completion search of :mod:`repro.exact.bnb` while the instance
   is within ``exact_limit`` and the search within ``node_limit``;
4. otherwise the best combined lower bound, flagged ``optimal=False``.

Dividing by a *lower* bound over-estimates the ratio, so
"measured ratio ≤ theoretical guarantee" checks remain sound even in the
fallback regime; :class:`OptimalValue` carries the flag so reports can say
which regime each number came from.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro._validation import check_machine_count, check_non_negative_int, check_times
from repro.exact.bnb import branch_and_bound
from repro.exact.dp import dp_two_machines
from repro.schedulers.lower_bounds import combined_lower_bound

__all__ = ["OptimalValue", "optimal_makespan"]


@dataclass(frozen=True)
class OptimalValue:
    """The optimum (or a certified lower bound on it).

    ``value`` is :math:`C^*_{max}` exactly when ``optimal`` is True, and a
    lower bound on it otherwise.  ``method`` records how it was obtained
    (``"closed_form"``, ``"partition_dp"``, ``"bnb"``, ``"lower_bound"``).
    """

    value: float
    optimal: bool
    method: str


def optimal_makespan(
    times: Sequence[float],
    m: int,
    *,
    exact_limit: int = 22,
    node_limit: int = 60_000,
) -> OptimalValue:
    """Best affordable estimate of the clairvoyant optimum.

    Parameters
    ----------
    times:
        Actual processing times :math:`p_j`.
    m:
        Machine count.
    exact_limit:
        Largest ``n`` for which the exact search is attempted.
    node_limit:
        Work budget handed to :func:`~repro.exact.bnb.branch_and_bound`
        (units of :attr:`~repro.exact.bnb.BnBResult.nodes`, roughly 0.1 ms
        of CPU each: the default gives up on an instance it cannot
        certify after 4-8 s); if exceeded the result degrades to the lower
        bound rather than raising.
    """
    ts = check_times(times)
    check_machine_count(m)
    check_non_negative_int(exact_limit, "exact_limit")
    n = len(ts)

    if m == 1:
        return OptimalValue(sum(ts), True, "closed_form")
    if n <= m:
        return OptimalValue(max(ts), True, "closed_form")
    if m == 2:
        try:
            return OptimalValue(dp_two_machines(ts), True, "partition_dp")
        except ValueError:
            pass  # durations not nicely rational — fall through to B&B
    if n <= exact_limit:
        try:
            res = branch_and_bound(ts, m, node_limit=node_limit)
            return OptimalValue(res.makespan, True, "bnb")
        except RuntimeError:
            pass
    return OptimalValue(combined_lower_bound(ts, m), False, "lower_bound")
