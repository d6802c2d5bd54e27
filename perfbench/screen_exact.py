#!/usr/bin/env python3
"""Screen candidate instances for ``exact_grid``'s solver pools.

    python3 perfbench/screen_exact.py --uniform 14 --exponential 160

``exact_grid`` picks its hard groups by ``--seed`` from two fixed pools
(``EXACT_UNIFORM_POOL`` and ``EXACT_EXPONENTIAL_POOL`` in
``perfbench/grids.py``), so a held-out seed changes the solver's input
while the solver's work stays comparable.  This script prints, for
each candidate instance seed under the workload's realization (model
``log_uniform``, seed 1), what the branch-and-bound does with it:

* uniform n=22, m=4 with the 5M-node budget of ``optimal_makespan``:
  whether the budget is exhausted, and the CPU seconds, measured
  ``--rounds`` times in interleaved order so that a slow spell of the
  host does not single out one candidate;
* exponential n=21, m=6 with a 400k-node budget: the nodes needed to
  certify the optimum (``-1`` when the budget runs out);
* bimodal n=20, 21 and 22, m=6 with a 1000-node budget: the seeds that
  are not certified within it at some n.

The uniform pool keeps candidates that exhaust the budget within 10%
of the candidates' median CPU time; the exponential pool keeps
candidates certified after 50k-200k nodes; the bimodal pool keeps the
candidates certified within 1000 nodes at every n.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.exact.bnb import branch_and_bound  # noqa: E402
from repro.uncertainty import sample_realization  # noqa: E402
from repro.workloads import generate  # noqa: E402

ALPHA = 2.0
MODEL = "log_uniform"
REALIZATION_SEED = 1
NODE_LIMIT = 5_000_000
EXPONENTIAL_NODE_LIMIT = 400_000
BIMODAL_NODE_LIMIT = 1000


def actuals(family: str, n: int, m: int, seed: int) -> tuple[float, ...]:
    instance = generate(family, n, m, ALPHA, seed)
    return sample_realization(instance, MODEL, REALIZATION_SEED).actuals


def bnb_nodes(times, m: int, limit: int) -> int:
    try:
        return branch_and_bound(times, m, node_limit=limit).nodes
    except RuntimeError:
        return -1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--uniform", type=int, default=14, help="uniform seeds 0..N-1")
    parser.add_argument("--exponential", type=int, default=160, help="exponential seeds 0..N-1")
    parser.add_argument("--bimodal", type=int, default=64, help="bimodal seeds 0..N-1")
    parser.add_argument("--rounds", type=int, default=2)
    args = parser.parse_args()

    cpu: dict[int, list[float]] = {s: [] for s in range(args.uniform)}
    exhausted: dict[int, bool] = {}
    for _ in range(args.rounds):
        for seed in cpu:
            times = actuals("uniform", 22, 4, seed)
            start = time.process_time()
            exhausted[seed] = bnb_nodes(times, 4, NODE_LIMIT) < 0
            cpu[seed].append(time.process_time() - start)
    for seed, samples in cpu.items():
        print(
            f"uniform n=22 m=4 seed={seed} exhausted={exhausted[seed]} "
            f"cpu_s={statistics.median(samples):.3f} samples={[round(s, 3) for s in samples]}",
            flush=True,
        )
    for seed in range(args.exponential):
        nodes = bnb_nodes(actuals("exponential", 21, 6, seed), 6, EXPONENTIAL_NODE_LIMIT)
        if nodes < 0 or nodes >= 10_000:
            print(f"exponential n=21 m=6 seed={seed} nodes={nodes}", flush=True)
    for seed in range(args.bimodal):
        for n in (20, 21, 22):
            if bnb_nodes(actuals("bimodal", n, 6, seed), 6, BIMODAL_NODE_LIMIT) < 0:
                print(f"bimodal n={n} m=6 seed={seed} not certified within {BIMODAL_NODE_LIMIT} nodes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
