"""Entry point of the spikestag benchmark.

    python3 bench/run.py --workload train-n8 --seed 1 --seconds 15 --trace 0

Run from the repository root.  `--trace 0` measures the end-to-end metrics
with tracing off; `--trace 1` makes a separate traced run that reports the
per-layer metrics.  `--workload all` runs every workload in turn.  The last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it list every metric
with its unit and the run's environment.  The full result, spans included
for a traced run, is written to `.bench_out/` under the repository root.

The exit code is 0 only when every run passed the correctness gate.  A run
whose checks before timing fail is refused: it prints the reason on standard
error, no result, and exits with code 1.  A run that fails a check while it
runs prints its result with `"correct": false` and exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: the matrices are small (1 and 2 threads time alike on the
# default model) and a single thread keeps run-to-run spread low on a shared host.
BLAS_THREADS = "1"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _print_result(result: dict, label: str) -> None:
    env = result["environment"]
    print(f"== {label}  seed {env['seed']}  attempted {result['attempted']}  "
          f"failed {result['failed']}  correct {result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:>14.6g} {m['unit']}")
    print("  details " + json.dumps(result["details"]))
    print("  environment " + json.dumps(env))
    for problem in result["problems"]:
        print(f"  problem: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "spikestag").is_dir():
        print(f"bench: no spikestag package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import harness  # numpy is imported here, after the thread pin

    names = list(harness.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(harness.WORKLOADS)} or all", file=sys.stderr)
        return 2

    out_dir = ROOT / ".bench_out"
    results = {}
    for name in names:
        try:
            result = harness.run_workload(harness.WORKLOADS[name], args.seed, args.seconds,
                                          bool(args.trace), out_dir)
        except harness.GateError as exc:
            print(f"bench: {name} refused, not timed: {exc}", file=sys.stderr)
            return 1
        _print_result(result, f"{name} trace={args.trace}")
        path = out_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        results[name] = result

    if len(results) == 1:
        metrics = result["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
