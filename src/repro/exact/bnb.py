"""Exact solver for :math:`P||C_{max}`: bin completion under a shrinking cap.

The clairvoyant optimum :math:`C^*_{max}` appears in every competitive
ratio of the paper; to *measure* ratios we must compute it exactly on the
instances where that is feasible.

Search design (the bin-packing decision formulation of Dell'Amico &
Martello 1995, with Korf-style bin completion):

* the solver repeats one decision problem, "is there an assignment with
  every machine load below ``cap``?".  The first cap is the LPT makespan
  less a ``1e-12`` relative tolerance; each assignment a call finds
  makes its makespan (less the tolerance) the next cap, and the call
  that finds nothing is the optimality proof;
* a decision call fills one machine at a time.  The machine takes the
  largest task still unassigned (machines are interchangeable, so this
  breaks their symmetry) and is completed by a subset whose load lies in
  ``(remaining - (k-1) cap, cap)`` with ``k`` machines left, since the
  other ``k-1`` must take the rest below the cap;
* completions are enumerated by meet-in-the-middle: the subset sums of
  two halves of the remaining tasks, joined with ``numpy.searchsorted``,
  and tried closest to ``remaining / k`` first;
* a node is cut by the group bound on the remaining tasks (some machine
  runs ``q+1`` of the ``qk+1`` largest; ``q = 1`` is the pair bound) and
  by a table of (remaining set, machines) pairs already refuted, kept
  across decision calls because a set that misses a cap misses every
  smaller one;
* dominance: a completion is skipped while it still has room for the
  smallest task it leaves out, or for a task it leaves out in place of a
  smaller one it takes, since that move keeps any solution feasible.
  This is sound only while the cap is fixed, which is why every cap gets
  its own decision call; with two machines left any completion in the
  window will do, so the filter runs only above that;
* tasks of equal duration are interchangeable: above two machines, a
  completion that uses ``c`` copies of a duration takes the first ``c``.

A machine's load is summed in non-increasing-duration position order,
so each optimum is the float the shipped artifacts were computed with
(a branch-and-bound over that order produced them).  Sums joined from the halves round
differently; every test on them carries a slack ``sigma`` that bounds
that rounding and is far below the tolerance, so rounding can weaken a
cut but never makes one unsound.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro._validation import check_machine_count, check_times
from repro.schedulers.lower_bounds import combined_lower_bound
from repro.schedulers.lpt import lpt_schedule

__all__ = ["BnBResult", "branch_and_bound"]

#: Relative tolerance below the incumbent that the next assignment must reach.
_TOL = 1e-12
#: Largest half enumerated as one subset-sum table (``2**16`` entries).
_HALF = 16
#: Candidate completions materialised at once per node.
_CHUNK = 1 << 14
#: Subset sums or candidates enumerated per unit of work.
_UNIT = 4096


@dataclass(frozen=True)
class BnBResult:
    """Exact solver output.

    Attributes
    ----------
    makespan:
        The optimal makespan :math:`C^*_{max}`.
    assignment:
        An optimal assignment, task-id indexed.
    nodes:
        Units of work spent: one per search node, plus one per
        ``4096`` subset sums or candidate completions a node enumerates
        and one per subset of the tasks beyond the 32 smallest a node
        splits off (exposed for the performance benches and for
        regression-testing the pruning).
    optimal:
        Always ``True`` for this solver; present so the facade in
        :mod:`repro.exact.optimal` can return bound-only results with
        ``optimal=False`` on oversized instances.
    """

    makespan: float
    assignment: tuple[int, ...]
    nodes: int
    optimal: bool = True


def branch_and_bound(
    times: Sequence[float],
    m: int,
    *,
    node_limit: int = 240_000,
) -> BnBResult:
    """Solve :math:`P||C_{max}` exactly.

    ``node_limit`` bounds the units of work (see :attr:`BnBResult.nodes`);
    a unit costs roughly 0.1 ms of CPU.  Raises ``RuntimeError`` if it is
    exhausted — callers that want graceful degradation should use
    :func:`repro.exact.optimal.optimal_makespan`.
    """
    ts = check_times(times)
    check_machine_count(m)
    n = len(ts)

    if m >= n:
        # One task per machine is optimal.
        return BnBResult(max(ts), tuple(range(n)), nodes=1)
    lpt_res = lpt_schedule(ts, m)
    order = lpt_res.order  # positions in non-increasing duration order
    if m == 1:
        return BnBResult(_load(ts, order), tuple(0 for _ in ts), nodes=1)

    lb_root = combined_lower_bound(ts, m)
    best = lpt_res.makespan
    by_task = [0] * n
    for pos, j in enumerate(order):
        by_task[j] = lpt_res.assignment[pos]

    if best <= lb_root * (1.0 + _TOL):
        return BnBResult(best, tuple(by_task), nodes=1)

    p = [ts[j] for j in order]
    search = _DecisionSearch(p, node_limit)
    while True:
        cap = best - _TOL * max(1.0, best)
        if lb_root >= cap:
            break
        bins = search.decide(cap, m)
        if bins is None:
            break
        best = max(_load(p, b) for b in bins)
        for i, b in enumerate(bins):
            for pos in b:
                by_task[order[pos]] = i
    return BnBResult(best, tuple(by_task), nodes=1 + search.work)


def _load(p: list[float], positions: Sequence[int]) -> float:
    """A machine's load, summed in position order (``sum`` may compensate)."""
    load = 0.0
    for j in positions:
        load += p[j]
    return load


def _subset_sums(durations: Sequence[float]) -> np.ndarray:
    """Sums of all subsets; bit ``t`` of an index takes ``durations[t]``."""
    sums = np.zeros(1)
    for d in durations:
        sums = np.concatenate((sums, sums + d))
    return sums


class _DecisionSearch:
    """Decision calls over one instance; ``p`` is sorted non-increasing."""

    def __init__(self, p: list[float], limit: int) -> None:
        self.p = p
        self.limit = limit
        self.work = 0
        # Bounds the rounding gap between any two float sums of a subset.
        self.sigma = len(p) * 2.0**-50 * _load(p, range(len(p)))
        self.refuted: dict[int, int] = {}  # remaining mask -> most machines refuted
        self.cap = 0.0

    def decide(self, cap: float, m: int) -> list[tuple[int, ...]] | None:
        """Bins (position tuples) with every load below ``cap``, or None."""
        self.cap = cap
        n = len(self.p)
        return self._fill(tuple(range(n)), (1 << n) - 1, m)

    def _charge(self, units: int) -> None:
        self.work += units
        if self.work > self.limit:
            raise RuntimeError(
                f"branch_and_bound exceeded node_limit={self.limit} "
                f"(n={len(self.p)}); use optimal_makespan() for graceful fallback"
            )

    def _fill(self, rem: tuple[int, ...], mask: int, k: int) -> list[tuple[int, ...]] | None:
        self._charge(1)
        if self.refuted.get(mask, 0) >= k:
            return None
        if k == 1:
            if _load(self.p, rem) < self.cap:
                return [rem]
        elif len(rem) <= k:
            return [(j,) for j in rem]  # the cap exceeds every task
        elif not self._cut(rem, k):
            for bin_ in self._completions(rem, k):
                bin_mask = 0
                for j in bin_:
                    bin_mask |= 1 << j
                rest = tuple(j for j in rem if not bin_mask >> j & 1)
                sub = self._fill(rest, mask & ~bin_mask, k - 1)
                if sub is not None:
                    return [bin_, *sub]
        self.refuted[mask] = k
        return None

    def _cut(self, rem: tuple[int, ...], k: int) -> bool:
        """Whether a bound shows ``rem`` cannot fit ``k`` machines below the cap."""
        p, cap = self.p, self.cap
        if _load(p, rem) >= k * cap + self.sigma:
            return True
        # Some machine runs q+1 of the qk+1 largest, so its load is at
        # least the sum of their q+1 smallest (position order: exact).
        q = 1
        while q * k < len(rem):
            if _load(p, rem[q * k - q : q * k + 1]) >= cap:
                return True
            q += 1
        return False

    def _completions(self, rem: tuple[int, ...], k: int) -> Iterator[tuple[int, ...]]:
        """Undominated completions of the machine that takes ``rem[0]``."""
        p, cap, sigma = self.p, self.cap, self.sigma
        total = _load(p, rem)
        lo = total - (k - 1) * cap - sigma
        hi = cap + sigma
        target = total / k
        rest = rem[1:]
        r = len(rest)
        nb = min((r + 1) // 2, _HALF)
        na = min(r - nb, _HALF)
        nh = r - na - nb
        # The head is non-empty only when more than 2 * _HALF tasks remain;
        # its subsets are taken one at a time, each a unit of work and a
        # pass over the A x B tables of the tail.
        self._charge((1 << nh) - 1 + ((1 << na) + (1 << nb)) // _UNIT)
        tail = rest[nh:]
        d = [p[j] for j in tail]
        # steps[t]: what swapping tail task t in for task t + 1 adds.
        steps = np.array([*(x - y for x, y in zip(d, d[1:])), np.inf])
        shifts = np.arange(len(tail))
        full = (1 << len(tail)) - 1
        sa = _subset_sums(d[:na])
        sb = _subset_sums(d[na:])
        order_b = np.argsort(sb, kind="stable")
        b_sorted = sb[order_b]
        for chosen, head_x, head_gap, head_seam in _head_subsets(p, rest[:nh], d[0]):
            left_out = np.array([*d, head_x])  # index -1: the tail is all taken
            s_a = _load(p, (rem[0], *chosen)) + sa
            rows = np.flatnonzero(s_a < hi)
            if rows.size == 0:
                continue
            start = np.searchsorted(b_sorted, lo - s_a[rows], "right")
            counts = np.searchsorted(b_sorted, hi - s_a[rows], "left") - start
            ends = np.cumsum(counts)
            ncand = int(ends[-1])
            self._charge(ncand // _UNIT)
            for c0 in range(0, ncand, _CHUNK):
                idx = np.arange(c0, min(c0 + _CHUNK, ncand))
                row = np.searchsorted(ends, idx, "right")
                ia = rows[row]
                ib = order_b[start[row] + idx - (ends[row] - counts[row])]
                s = s_a[ia] + sb[ib]
                taken = ia | ib << na
                # With two machines left any bin in the window will do, so
                # the dominance filter pays only above that.
                if k > 2:
                    out = full ^ taken
                    # Smallest left-out task: the highest bit of ``out``.
                    x = left_out[np.frexp(out.astype(float))[1] - 1]
                    # Least gap p[t] - p[t+1] over a task t left out whose
                    # successor is taken; 0 where a later copy of a
                    # duration is taken without the earlier one.
                    swaps = (out & taken >> 1)[:, None] >> shifts & 1 == 1
                    gap = np.where(swaps, steps, np.inf).min(axis=1)
                    gap = np.minimum(gap, np.where(taken & 1 == 1, min(head_gap, head_seam), head_gap))
                    # Dominance: keep a bin that takes equal durations in
                    # order (gap > 0) and does not surely fit its smallest
                    # left-out task, nor a left-out task in place of a
                    # smaller taken one.
                    keep = (gap > 0.0) & (s + np.minimum(x, gap) >= cap - sigma)
                    taken, s = taken[keep], s[keep]
                tried = np.argsort(np.abs(s - target), kind="stable")
                for bits, load in zip(taken[tried].tolist(), s[tried].tolist()):
                    bin_ = (rem[0], *chosen, *(j for t, j in enumerate(tail) if bits >> t & 1))
                    if load >= cap - sigma and _load(p, bin_) >= cap:
                        continue
                    yield bin_


def _head_subsets(
    p: list[float], head: tuple[int, ...], tail_first: float
) -> Iterator[tuple[tuple[int, ...], float, float, float]]:
    """The subsets of ``head`` that take equal durations in order, each
    with its smallest left-out duration, its least gap (as in the tail)
    and the gap to the tail's first task, which counts if that is taken."""
    for h in range(1 << len(head)):
        chosen = tuple(j for t, j in enumerate(head) if h >> t & 1)
        skipped = [j for t, j in enumerate(head) if not h >> t & 1]
        gap = min(
            (p[head[t - 1]] - p[head[t]] for t in range(1, len(head)) if h >> t & 1 and not h >> (t - 1) & 1),
            default=np.inf,
        )
        if gap == 0.0:
            continue
        seam = p[head[-1]] - tail_first if skipped and skipped[-1] == head[-1] else np.inf
        yield chosen, p[skipped[-1]] if skipped else np.inf, gap, seam
