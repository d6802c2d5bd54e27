"""Dynamic-programming exact solver for :math:`P2||C_{max}`.

``dp_two_machines``
    For ``m == 2`` the problem is PARTITION: minimize the larger side.
    A subset-sum bitset DP over scaled-integer durations runs in
    ``O(n * S)`` bit-operations (``S`` = scaled total) and handles hundreds
    of tasks.  The property tests cross-check the branch-and-bound
    against it.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction

from repro._validation import check_times

__all__ = ["dp_two_machines", "scale_to_integers"]


def scale_to_integers(times: Sequence[float], *, max_denominator: int = 10**6) -> list[int]:
    """Scale float durations to exact integers via rational reconstruction.

    Durations produced by our workload generators are floats; to run an
    integer DP soundly we reconstruct each as a fraction (bounded
    denominator), put all on the common denominator, and return integer
    numerators.  Raises if the scale blows past ``10**9`` per task, which
    signals the durations are not "nice" enough for the bitset DP.
    """
    fracs = [Fraction(t).limit_denominator(max_denominator) for t in times]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // _gcd(denom, f.denominator)
    scaled = [int(f * denom) for f in fracs]
    if any(s > 10**9 for s in scaled):
        raise ValueError(
            "durations do not admit a small common denominator; "
            "use branch_and_bound instead of the integer DP"
        )
    for t, f in zip(times, fracs):
        if abs(float(f) - t) > 1e-9 * max(abs(t), 1.0):
            raise ValueError(
                f"duration {t} is not rational within tolerance; "
                "integer DP would silently change the instance"
            )
    return scaled


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def dp_two_machines(times: Sequence[float]) -> float:
    """Exact two-machine makespan via bitset subset-sum.

    The optimal two-machine makespan is ``total - best`` where ``best`` is
    the largest achievable subset sum that is ≤ ``total/2``.
    """
    ts = check_times(times)
    scaled = scale_to_integers(ts)
    total = sum(scaled)
    half = total // 2
    reachable = 1  # bit s set <=> subset sum s is achievable
    for v in scaled:
        reachable |= reachable << v
    mask = (1 << (half + 1)) - 1
    reachable &= mask
    best = reachable.bit_length() - 1
    scale = total / sum(ts)
    return (total - best) / scale
