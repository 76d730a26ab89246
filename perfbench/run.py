"""Benchmark of the ceviangeo exact-geometry kernel.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each run starts the workload in a fresh
child process (``worker.py``) with one closed-loop caller.  With
``--trace 0`` it also times set-up in fresh interpreters (``probe.py``) and
reports the end-to-end metrics; with ``--trace 1`` it reports the per-layer
metrics of a traced run.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/METRICS.md`` says what each one means and
which change should move it.  The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import SRC, WORKLOADS, package_present

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7
TIME_LIMIT_S = 170.0


def child(args: list[str], deadline: float) -> str:
    """Run a benchmark script to completion and return its stdout."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()), check=False)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: {args[0]} exited with {proc.returncode}")
    return proc.stdout


def setup_seconds(workload: str, deadline: float) -> float:
    """Median cost, at nominal machine speed, of fresh interpreters that
    import the CLI and warm up."""
    costs = [float(child([str(HERE / "probe.py"), workload], deadline).split()[-1])
             for _ in range(SETUP_PROBES)]
    return statistics.median(costs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not package_present():
        print(f"benchmark: no ceviangeo package under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    setup_s = None if args.trace else setup_seconds(args.workload, deadline)
    out = child([str(HERE / "worker.py"), "--workload", args.workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)], deadline)
    result = json.loads(out.strip().splitlines()[-1])

    if args.trace:
        values = dict(result["layers"])
        values["fail_ratio"] = result["failed"] / result["attempted"]
    else:
        latency = result["op_ms"]
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_ms.p50": latency["p50"],
            "op_ms.tail": latency["tail"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup_s,
        }
        print(f"op_ms.tail is the p{latency['tail_pct']:.1f} cost of {latency['n']} inputs, "
              f"timed {result['passes']:.1f} times each on average")
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    correct = result["failed"] == 0 and result["oracle"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
