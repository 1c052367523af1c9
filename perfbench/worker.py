"""One cold pass of a workload, in the interpreter that run.py starts for it.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWN_CLOCK

MODE is ``plain``, ``traced`` (layer spans on) or ``setup`` (stop once the
inputs are built).  SPAWN_CLOCK is the parent's ``time.perf_counter()`` just
before it started this process (CLOCK_MONOTONIC on Linux, shared by all
processes), so set-up covers interpreter start, ``import piq`` and building
the inputs.  Prints one JSON object on stdout.

While the pass runs, a timer interrupts it every PROBE_EVERY_S seconds to
time a fixed stretch of interpreter work (the probe).  The probe's duration
tracks how fast the host runs this process at that moment; run.py uses it to
take out the slow-down that other tenants of the machine cause.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBE_EVERY_S = 0.05
# The probe is a small product of two series of Fractions, collected in a dict:
# the shape of piq's own inner loops, so that contention for the core and its
# caches slows the probe about as much as it slows piq.
PROBE_TERMS = [Fraction(7 * i + 1, i % 5 + 1) for i in range(12)]


def _probe_work() -> dict:
    acc: dict = {}
    for i, a in enumerate(PROBE_TERMS):
        for j, b in enumerate(PROBE_TERMS):
            acc[i + j] = acc.get(i + j, 0) + a * b
    return acc


def start_probes() -> list[tuple[float, float]]:
    """Run the probe on a timer; returns the list it appends (start, duration) to."""
    probes: list[tuple[float, float]] = []
    clock = time.perf_counter

    def handler(signum, frame):
        t = clock()
        _probe_work()
        probes.append((t, clock() - t))

    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
    return probes


def stop_probes() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0)


def emit(record: dict) -> None:
    json.dump(record, sys.stdout)
    sys.stdout.write("\n")


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned = argv[0], int(argv[1]), argv[2], float(argv[3])
    probes = start_probes()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import piq

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    if mode == "traced":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
        items = tracer.item("(inputs)", lambda: workloads.build(workload, seed, piq))
    else:
        tracer = None
        items = workloads.build(workload, seed, piq)

    start = time.perf_counter()
    if mode == "setup":
        stop_probes()
        emit({"spawned": spawned, "start": start, "probes": probes})
        return 0
    results = []
    for item in items:
        t0 = time.perf_counter()
        try:
            out = tracer.item(item.label, item.run) if tracer else item.run()
        except Exception as exc:  # an exception is a failed item, never a crash of the pass
            t1 = time.perf_counter()
            problem = f"{type(exc).__name__}: {exc}"
        else:
            t1 = time.perf_counter()
            problem = item.check(out)
        results.append({
            "label": item.label, "expect": item.expect,
            "ok": not problem, "problem": problem, "t0": t0, "t1": t1,
        })
    stop_probes()

    record = {
        "spawned": spawned,
        "start": start,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items": results,
        "probes": probes,
    }
    if tracer is not None:
        record["trace"] = tracer.summary(piq)
    emit(record)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
