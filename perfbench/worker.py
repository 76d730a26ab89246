"""One workload run in a fresh process: set-up, warm-up, timed loop, checks.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

The run times passes over the workload's inputs until the time is up.  In
untraced runs each timing is scaled to a nominal machine speed
(``speed.py``), and an input's cost is the median of its scaled timings,
so that stretches in which the shared machine runs slow do not count
against the program.  Prints one JSON object as its last line.  With ``--trace 0`` the whole run
is untraced.  With ``--trace 1`` the first half is untraced and the second
half traced, so the per-layer metrics come with the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import resource
import statistics
import sys
import time

from speed import SpeedMeter
from workloads import ROOT, WORKLOADS, import_package, load_expected

OUT_DIR = ROOT / ".bench_out"


class Phase:
    """Timings and failures of one timed loop over the workload's inputs."""

    def __init__(self, n_inputs: int):
        self.costs: list[list[float]] = [[] for _ in range(n_inputs)]  # per input, s
        self.ops = 0
        self.failed = 0
        self.samples: list = []

    def input_costs(self) -> list[float]:
        """The median cost of each input timed."""
        return [statistics.median(c) for c in self.costs if c]

    @property
    def ops_per_s(self) -> float:
        """Operations per second with every input at its median cost."""
        costs = self.input_costs()
        return len(costs) / sum(costs)


def measure(workload, seconds: float, rng: random.Random, meter: SpeedMeter | None,
            tracer=None, whole_pass: bool = True) -> Phase:
    """Time passes over the inputs, each pass in a new seeded order, until
    the time is up; one caller, closed loop.  With a ``meter`` an
    operation's cost is its time at the meter's nominal speed, otherwise its
    wall time.  With ``whole_pass`` the first pass always completes, so
    every input is timed at least once; without it, at least one operation
    is timed."""
    inputs = workload.inputs
    phase = Phase(len(inputs))
    order = list(range(len(inputs)))
    clock = time.perf_counter
    deadline = clock() + seconds
    first_pass = True
    while True:
        rng.shuffle(order)
        for i in order:
            if clock() >= deadline and phase.ops and not (first_pass and whole_pass):
                return phase
            item = inputs[i]
            if tracer is not None:
                tracer.op = phase.ops
            phase.ops += 1
            error = None
            start = clock()
            try:
                with meter or contextlib.nullcontext():
                    output = workload.run(item)
            except Exception as exc:  # a failed operation is counted, not fatal
                error = exc
            phase.costs[i].append(clock() - start if meter is None else meter.cost)
            if error is not None:
                phase.failed += 1
                print(f"operation {item!r} raised {type(error).__name__}: {error}", file=sys.stderr)
                continue
            if not workload.check(item, output):
                phase.failed += 1
                print(f"operation {item!r} gave a wrong output", file=sys.stderr)
            if first_pass:
                phase.samples.append((item, output))
        first_pass = False


def latency_summary(costs: list[float]) -> dict:
    """Median and the highest percentile with ten inputs beyond it (by
    nearest rank) of the inputs' costs, in ms."""
    ms = sorted(c * 1e3 for c in costs)
    n = len(ms)
    tail_rank = n - 10 if n > 10 else n
    return {"p50": statistics.median(ms), "tail": ms[tail_rank - 1],
            "tail_pct": 100.0 * tail_rank / n, "n": n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    import_package()
    cls = WORKLOADS[args.workload]
    workload = cls(load_expected(), args.seed)
    cls.warm_up()
    rng = random.Random(args.seed)

    if not args.trace:
        meter = SpeedMeter()
        try:
            phase = measure(workload, args.seconds, rng, meter)
        finally:
            meter.close()
        phases = [phase]
        result = {
            "ops_per_s": phase.ops_per_s,
            "op_ms": latency_summary(phase.input_costs()),
            "passes": phase.ops / len(phase.costs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        from tracer import Tracer

        untraced = measure(workload, args.seconds / 2, rng, None)
        suite_seconds = {k: list(v) for k, v in getattr(workload, "suite_seconds", {}).items()}
        tracer = Tracer(args.seed)
        tracer.install()
        try:
            # a traced pass can take many times the untraced half: stop on time
            traced = measure(workload, args.seconds / 2, rng, None, tracer, whole_pass=False)
        finally:
            tracer.uninstall()
        phases = [untraced, traced]
        layers = tracer.layer_metrics(traced.ops)
        layers.update(tracer.replay_kernels())
        from ceviangeo import verify

        for suite in sorted(verify.SUITES):
            times = suite_seconds.get(suite, [])
            layers[f"verify.{suite}.total_s"] = sum(times) / len(times) if times else 0.0
        # traced over untraced operations per second, on the inputs both timed
        timed = [i for i, c in enumerate(traced.costs) if c]
        layers["trace.overhead_ratio"] = (
            sum(statistics.median(untraced.costs[i]) for i in timed)
            / sum(statistics.median(traced.costs[i]) for i in timed))
        tracer.write(OUT_DIR / f"spans-{args.workload}.bin")
        result = {"layers": layers}

    attempted = sum(p.ops for p in phases)
    failed = sum(p.failed for p in phases)
    oracle_ok = workload.oracle(phases[0].samples)
    if not oracle_ok:
        print("the sympy oracle disagrees with the package", file=sys.stderr)
    result.update({"attempted": attempted, "failed": failed, "oracle": oracle_ok})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
