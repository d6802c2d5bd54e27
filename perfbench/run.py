#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sim_grid --seed 1 --seconds 12 --trace 0

Every metric is printed as ``name value unit``; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones (tracing off); with
``--trace 1`` they are the per-layer ones, from a separate traced run.
The exit code is 1 when an output check fails and 2 when the package
under ``src/`` cannot be found.  ``--smoke`` shrinks every input to a
few seconds of work, for the benchmark's own tests.

The workloads are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

def load_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (tests)")
    parser.add_argument("--role", choices=("main", "setup", "reference"), default="main",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the repro package is missing under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import grids

    if args.role == "setup":
        grids.setup_role(args.workload, args.seed, args.smoke, args.out)
        return 0
    if args.role == "reference":
        grids.reference_role(args.workload, args.seed, args.smoke, args.out)
        return 0

    work = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    if args.workload == "service_admit":
        import service

        result = service.run_service(
            ROOT, args.seed, args.seconds, traced=bool(args.trace), smoke=args.smoke, work=work
        )
    else:
        result = grids.run_grid_workload(
            args.workload, args.seed, args.seconds,
            traced=bool(args.trace), smoke=args.smoke, work=work,
        )

    if args.trace:
        unknown = set(result["layers"]) - {m["name"] for m in spec["per_layer"]}
        if unknown:
            raise KeyError(f"per-layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        # A layer the workload does not exercise reports 0.
        metrics = {
            m["name"]: {"value": float(result["layers"].get(m["name"], 0.0)), "unit": m["unit"]}
            for m in spec["per_layer"]
        }
    else:
        metrics = {
            m["name"]: {"value": float(result["e2e"][m["name"]]), "unit": m["unit"]}
            for m in spec["end_to_end"]
        }
    correct = all(result["checks"].values())
    for name, ok in result["checks"].items():
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": int(result["attempted"]),
                "failed": int(result["failed"]),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
