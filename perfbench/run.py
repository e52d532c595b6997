"""Run one couplex benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The workload's round of calls (see ``workloads.py``) is
repeated until another round would end after ``--seconds``; every output
is checked.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (``items_per_s``,
``setup_s``, ``peak_rss_mib``).  With ``--trace 1`` the same rounds run
inside spans, the layer probes of ``layers.py`` follow, the spans are
written to ``perfbench/out/`` and the metrics are the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from hostclock import HostClock, host_speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("decide", "verify", "simulate", "solve")
#: set-up samples per run: this process plus fresh child processes
SETUP_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up, print it and exit (used for set-up samples)")
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import couplex and build the workload's round.

    Returns the set-up time at the reference host's speed, and the round.
    """
    if not os.path.isfile(os.path.join(SRC, "couplex", "__init__.py")):
        raise SystemExit("perfbench: no couplex sources under %s" % SRC)
    speed = host_speed()
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import workloads

    ops = workloads.WORKLOADS[workload](seed)
    elapsed = (time.perf_counter() - start) * (speed + host_speed()) / 2
    import couplex

    if os.path.dirname(os.path.dirname(os.path.abspath(couplex.__file__))) != SRC:
        raise SystemExit("perfbench: couplex imported from %s, not %s" % (couplex.__file__, SRC))
    return elapsed, ops


def setup_sample(workload: str, seed: int) -> float:
    """One set-up in a fresh interpreter, so the import is paid again."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def run_rounds(ops, budget: float, tracer=None) -> dict:
    """Repeat the round of ops while another round fits in `budget` seconds.

    Only the calls into the program are timed (`busy`); the checks are not.
    `rates` holds each round's items per busy second at the reference
    host's speed.
    """
    from workloads import items_of

    busy = 0.0
    items = attempted = failed = rounds = 0
    problems = []
    rates = []
    clock = HostClock()
    start = time.perf_counter()
    while True:
        round_seconds, round_items = clock.seconds, items
        for op in ops:
            attempted += 1
            error = out = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = op.call()
                else:
                    with tracer.span(op.span, label=op.label, round=rounds):
                        out = op.call()
            except Exception as exc:  # a failed operation, counted and reported
                error = exc
            dt = time.perf_counter() - t0
            busy += dt
            clock.add(dt)
            if op.raises is not None:
                if not isinstance(error, op.raises):
                    failed += 1
                    if rounds == 0:
                        print("failed: %s: expected %s, got %r" % (
                            op.label, op.raises.__name__, error or type(out).__name__),
                            file=sys.stderr)
                continue
            if error is not None:
                failed += 1
                if rounds == 0:
                    print("failed: %s: %r" % (op.label, error), file=sys.stderr)
                continue
            items += items_of(op, out)
            problem = op.check(out)
            if problem:
                problems.append(problem)
                print("wrong: " + problem, file=sys.stderr)
        clock.flush()
        rates.append((items - round_items) / (clock.seconds - round_seconds))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (rounds + 1) / rounds > budget:
            break
    return {
        "busy": busy, "items": items, "rates": rates, "attempted": attempted,
        "failed": failed, "rounds": rounds, "problems": problems,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        elapsed, _ = setup(args.workload, args.seed)
        print(repr(elapsed))
        return 0

    first_setup, ops = setup(args.workload, args.seed)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
    done = run_rounds(ops, args.seconds, tracer)
    # the median round keeps one stretch the reference slices misjudge from
    # moving the figure
    items_per_s = statistics.median(done["rates"])
    print("%s seed %d: %d rounds, %d items in %.2f s busy; items/s by round: %s" % (
        args.workload, args.seed, done["rounds"], done["items"], done["busy"],
        " ".join("%.4g" % r for r in done["rates"])), file=sys.stderr)

    if args.trace:
        import layers

        metrics = {"trace.items_per_s": (items_per_s, "1/s")}
        metrics.update(layers.measure(args.seed, tracer))
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        tracer.write(os.path.join(out_dir, "trace-%s-%d.json" % (args.workload, args.seed)),
                     workload=args.workload, seed=args.seed)
    else:
        samples = [first_setup] + [
            setup_sample(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)
        ]
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "items_per_s": (items_per_s, "1/s"),
            "setup_s": (statistics.median(samples), "s"),
            "peak_rss_mib": (peak_kib / 1024, "MiB"),
        }
    print(json.dumps({
        "correct": not done["problems"],
        "attempted": done["attempted"],
        "failed": done["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
