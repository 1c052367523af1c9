"""piq benchmark: cold passes of one workload, end-to-end or layer-traced.

    python3 perfbench/run.py --workload corpus_prove --seed 1 --seconds 40 --trace 0

Run from anywhere inside a checkout that holds ``src/piq``; the benchmark
uses only the standard library and piq's public functions.

Workloads (see workloads.py):
  corpus_prove  the 47 shipped records, ``prove`` in id order; the TSV of every
                record must equal the seed's byte for byte.
  lifted_mix    seeded: true level-8/12/16 identities times a random Pi
                polynomial (PROVEN by construction) and their one-coefficient
                mutants (REFUTED below the Sturm bound by construction).
  mine_fit      ``mine`` over three index sets at degree 4 plus the 11
                acceptance hauptmodul fits, checked against the table.

Each pass runs in a fresh interpreter, because piq's eta caches are per
process and every ``piq`` invocation pays to fill them; passes run one at a
time until ``--seconds`` is used up (at least three).  With ``--trace 1``
untraced and traced passes alternate, the traced ones wrapping piq's
functions from outside (layertrace.py), and the difference of their pass
times is the tracing overhead.

Times are host-corrected.  Other tenants of a shared machine slow this
process by up to half for minutes at a time, which moves raw wall times by
20-80% between runs.  Each worker times a fixed probe every 50 ms (see
worker.py); an interval's time is its wall time, less the probes inside it,
divided by its slow-down: the median duration of the probes around it over
PROBE_REFERENCE_S.  That is the interval's duration on a host that runs the
probe in PROBE_REFERENCE_S.  The raw wall time of a pass and the host's
slow-down are printed beside it.

Metrics (``--trace 0``): setup_s (median set-up of every interpreter started,
passes and set-up-only ones), pass_s (median over passes of the sum of item
times), verdict_p50_ms (median over items of each item's median time across
passes), worst_verdict_s (the largest of those item medians), peak_rss_mb
(median ru_maxrss of a pass).  An item's median across passes, rather than
one pass's figure, keeps a single slow moment of the host from becoming the
worst item or moving the p50 across a gap between item sizes.  Printed only, because they do not exist on every workload:
verdict_p90_ms, refute_p50_ms and failed_ratio.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``).  Exit code 0 when every verdict matched
its known answer, 1 when one did not, 2 when the checkout or the arguments
are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from layertrace import HOOKS, ITEM, LAYERS, SERIES_ETAQ, SYMBOLIC  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
MIN_PASSES = 3
SETUPS_PER_PASS = 3  # extra set-up-only interpreters per pass, for the setup_s median
PROBE_PAD_S = 0.15  # probes this close to an interval also describe its host speed
# The probe's duration on an idle core of the machine the bounds were set on
# (2-vCPU Xeon, 2.1 GHz, Python 3.11).  Only its ratio to the probe
# durations of a run matters when two commits are compared on one machine.
PROBE_REFERENCE_S = 400e-6

# Per-layer metrics in the final JSON line: measured on every workload.
LAYER_TIMES = ("series.mul", "series.pow", "series.add", "etaq.expand", "etaq.cusp_order",
               "etaq.cusps", "ident.parse", "ident.flatten", "verify.rts_mul", "verify.expand")
LAYER_CALLS = ("series.mul", "series.pow", "series.add", "etaq.expand", "etaq.cusp_order",
               "linalg.kernel")
LAYER_COUNTERS = {"ident.flat_terms": "count", "verify.coefficients_compared": "count",
                  "verify.coeff_bits_max": "bits", "linalg.matrix_cells": "count"}


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def run_worker(workload: str, seed: int, mode: str, timeout: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), mode]
    spawned = time.perf_counter()
    proc = subprocess.run(cmd + [repr(spawned)], cwd=ROOT, capture_output=True, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Cold passes one after another until the next would end after `seconds`.

    With `trace`, untraced and traced passes alternate.  Without it, each pass
    is followed by SETUPS_PER_PASS set-up-only interpreters, for setup_s.
    """
    plan = [False, True] if trace else [False]
    minimum = 2 * len(plan) if trace else MIN_PASSES
    passes: list[tuple[bool, dict]] = []
    setups: list[dict] = []
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        if len(passes) >= minimum and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
        traced = plan[len(passes) % len(plan)]
        passes.append((traced, run_worker(workload, seed, "traced" if traced else "plain",
                                          DEADLINE_S - elapsed)))
        if not trace:
            for _ in range(SETUPS_PER_PASS):
                setups.append(run_worker(workload, seed, "setup", DEADLINE_S - elapsed))
    return passes, setups


def slowdown(probes, t0: float, t1: float) -> float:
    """How much slower than the reference the host ran around t0..t1."""
    near = [d for t, d in probes if t0 - PROBE_PAD_S <= t <= t1 + PROBE_PAD_S]
    return statistics.median(near or [d for _, d in probes]) / PROBE_REFERENCE_S


def host_seconds(record: dict, t0: float, t1: float) -> float:
    """Wall interval t0..t1 of a worker, less its probes, at the reference host speed."""
    probes = record["probes"]
    inside = sum(d for t, d in probes if t0 <= t <= t1)
    return (t1 - t0 - inside) / slowdown(probes, t0, t1)


def item_times(record: dict) -> list[tuple[dict, float]]:
    """(item, host-corrected seconds) for every correct item of a pass."""
    return [(i, host_seconds(record, i["t0"], i["t1"])) for i in record["items"] if i["ok"]]


def quantile_with_tail(xs: list[float], q: int):
    """The q-th percentile and how many samples lie beyond it."""
    cut = statistics.quantiles(xs, n=100)[q - 1]
    return cut, sum(1 for x in xs if x > cut)


def end_to_end(passes: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """JSON-line metrics (name -> (value, unit)) and the printed-only extras."""
    per_pass = [item_times(p) for p in passes]
    pooled = [s for timed in per_pass for _, s in timed]
    if not pooled:
        return {}, {}
    by_item: dict[str, list[float]] = defaultdict(list)
    for timed in per_pass:
        for i, s in timed:
            by_item[i["label"]].append(s)
    item_median = [statistics.median(v) for v in by_item.values()]
    set_up = [host_seconds(r, r["spawned"], r["start"]) for r in passes + setups]
    metrics = {
        "setup_s": (statistics.median(set_up), "s"),
        "pass_s": (statistics.median(sum(s for _, s in timed) for timed in per_pass), "s"),
        "verdict_p50_ms": (1000 * statistics.median(item_median), "ms"),
        "worst_verdict_s": (max(item_median), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    extras = {}
    p90, beyond = quantile_with_tail(pooled, 90)
    extras["verdict_p90_ms"] = (
        f"{1000 * p90:.4f} ms (n={len(pooled)}, {beyond} beyond)" if beyond >= 10
        else f"omitted (n={len(pooled)}, only {beyond} beyond p90)")
    refuted = [s for timed in per_pass for i, s in timed if i["expect"] == "REFUTED"]
    extras["refute_p50_ms"] = (f"{1000 * statistics.median(refuted):.4f} ms (n={len(refuted)})"
                               if refuted else "n/a (no REFUTED items)")
    attempted = sum(len(p["items"]) for p in passes)
    failed = attempted - len(pooled)
    extras["failed_ratio"] = f"{failed / attempted:g} ({failed}/{attempted})"
    raw = statistics.median(p["items"][-1]["t1"] - p["items"][0]["t0"] for p in passes)
    slow = statistics.median(slowdown(p["probes"], p["start"], p["items"][-1]["t1"]) for p in passes)
    extras["pass wall (raw)"] = f"{raw:.4f} s, host slow-down x{slow:.3f} over {len(passes)} passes"
    return metrics, extras


def layer_seconds(record: dict) -> dict[str, float]:
    """Self time per layer of one traced pass, each item corrected for host speed."""
    totals: dict[str, float] = defaultdict(float)
    probes = record["probes"]
    for size in record["trace"]["items"]:
        slow = slowdown(probes, size["t0"], size["t1"])
        for layer, own in size["layer_self_s"].items():
            totals[layer] += own / slow
    return totals


def per_layer(plain: list[dict], traced: list[dict]) -> tuple[dict, dict]:
    """Layer metrics: medians over traced passes of times, counts of the first one."""
    layers = [layer_seconds(p) for p in traced]

    def med(name):
        return statistics.median(t.get(name, 0.0) for t in layers)

    first = traced[0]["trace"]
    metrics = {f"{layer}_s": (med(layer), "s") for layer in LAYER_TIMES}
    metrics["verify.self_s"] = (med("verify.prove"), "s")
    for layer in LAYER_CALLS:
        metrics[f"{layer}_calls"] = (first["calls"].get(layer, 0), "count")
    for name, unit in LAYER_COUNTERS.items():
        metrics[name] = (first["counters"].get(name, 0), unit)
    pass_traced = statistics.median(sum(s for _, s in item_times(p)) for p in traced)
    pass_plain = statistics.median(sum(s for _, s in item_times(p)) for p in plain)
    metrics["trace.overhead_s"] = (pass_traced - pass_plain, "s")

    extras = {"pass_s traced / untraced": f"{pass_traced:.4f} s / {pass_plain:.4f} s"}
    for name, group in (("series+etaq share", SERIES_ETAQ), ("symbolic share", SYMBOLIC)):
        share = statistics.median(sum(t.get(k, 0.0) for k in group) / sum(t.values()) for t in layers)
        extras[name] = f"{share:.4f} of traced time ({', '.join(group)})"
    for layer in LAYERS:
        if layer not in LAYER_TIMES and layer != "verify.prove":
            extras[f"{layer}_s"] = f"{med(layer):.4f} s self, {first['calls'].get(layer, 0)} calls"
    extras["benchmark's own time"] = f"{med(ITEM):.4f} s around items, {med(HOOKS):.4f} s in counters"
    c = first["counters"]
    if c.get("discover.kernel_vectors"):
        extras["discover.useful_ratio"] = (f"{c['discover.relations'] / c['discover.kernel_vectors']:.4f}"
                                           f" ({c['discover.relations']}/{c['discover.kernel_vectors']})")
    if c.get("haupt.kernel_attempts"):
        extras["haupt.useful_ratio"] = (f"{c['haupt.fits'] / c['haupt.kernel_attempts']:.4f}"
                                        f" ({c['haupt.fits']}/{c['haupt.kernel_attempts']})")
    if first["eta_cache"] is not None:
        hits, misses = first["eta_cache"]
        extras["etaq.eta_cache_hit_ratio"] = f"{hits / max(1, hits + misses):.4f} ({hits}/{hits + misses})"
    if first["missing"]:
        extras["not traced (name not found)"] = ", ".join(first["missing"])
    for size in sorted(first["items"], key=lambda s: s["t0"] - s["t1"])[:3]:
        own = {k: v for k, v in size["layer_self_s"].items() if k not in (ITEM, HOOKS)}
        top = max(own, key=own.get) if own else ITEM
        extras[f"slow item {size['label']}"] = (
            f"{size['t1'] - size['t0']:.3f} s raw, level {size['level']}, "
            f"sturm {size['sturm_bound']}, compared {size['coefficients_compared']}, "
            f"terms {size['flat_terms']}, bits {size['coeff_bits_max']}, "
            f"most in {top} ({own.get(top, 0.0):.3f} s)")
    return metrics, extras


def write_trace(workload: str, seed: int, traced: list[dict]) -> str:
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    body = {"workload": workload, "seed": seed, "machine": machine(),
            "passes": [{k: v for k, v in p["trace"].items() if k != "items"} for p in traced],
            "items": traced[-1]["trace"]["items"]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(body, fh, indent=1)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "piq", "__init__.py")):
        print(f"perfbench: no piq sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    info = machine()
    try:
        passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    plain = [p for t, p in passes if not t]
    traced = [p for t, p in passes if t]
    all_items = [i for p in plain + traced for i in p["items"]]
    failures = [i for i in all_items if not i["ok"]]

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(plain)} untraced + {len(traced)} traced, python={info['python']} "
          f"nproc={info['nproc']} loadavg={info['loadavg']}")
    for item in {i["label"]: i for i in failures}.values():
        print(f"  FAILED {item['label']}: {item['problem']}")
    if args.trace:
        metrics, extras = per_layer(plain, traced)
        print(f"  trace written to {os.path.relpath(write_trace(args.workload, args.seed, traced))}")
    else:
        metrics, extras = end_to_end(plain, setups)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:.6g} {unit}")
    for name, text in extras.items():
        print(f"  {name:32s} {text}")

    result = {
        "correct": not failures,
        "attempted": len(all_items),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
