"""Steadiness check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/steady.py --runs 10

Each set makes ``--runs`` runs of every workload of BENCHMARK.json, with
seeds 1..runs (the same seeds in both sets), interleaving the workloads so
that drift in the host's speed falls on all of them alike.  For every
end-to-end metric it prints, per set, the median and the spread (distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them), and whether every spread,
setup_s's too, stays within the metric's bound and the two medians differ by
no more than the bound (in either direction).  The Python version, ``nproc``
and the load average at the start are printed and saved with the runs, so
figures from different machines are not compared.  Exit code 0 when every
check holds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import machine  # noqa: E402

SETS = 2


def one_run(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable if part == "python3" else part for part in spec["command"]]
    cmd += ["--workload", workload, "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
            "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stdout}{proc.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def differ_by(first: float, second: float) -> float:
    """Share of the first median by which the second differs from it."""
    return abs(second - first) / first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 for a spread")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    info = machine()
    print(f"steady: python={info['python']} nproc={info['nproc']} loadavg={info['loadavg']} "
          f"runs={args.runs} sets={SETS} workloads={','.join(workloads)}", flush=True)

    # values[set][workload][metric] -> list over runs
    values = [{w: {} for w in workloads} for _ in range(SETS)]
    for s in range(SETS):
        for r in range(args.runs):
            for k in range(len(workloads)):
                w = workloads[(r + k) % len(workloads)]
                t0 = time.perf_counter()
                got = one_run(spec, w, 1 + r)
                for name, v in got.items():
                    values[s][w].setdefault(name, []).append(v)
                print(f"  set {s + 1} run {r + 1} {w}: {time.perf_counter() - t0:.1f} s "
                      + " ".join(f"{n}={v:.4g}" for n, v in got.items()), flush=True)

    ok = True
    for w in workloads:
        print(f"{w}:")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            sets = [values[s][w][name] for s in range(SETS)]
            meds = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            spread_ok = all(x <= bound for x in spreads)
            agree = differ_by(*meds) <= bound
            ok &= spread_ok and agree
            print(f"  {name:18s} bound {bound:<5g} medians "
                  + " ".join(f"{x:.5g}" for x in meds)
                  + "  spreads " + " ".join(f"{x:.3f}" for x in spreads)
                  + f"  spread {'ok' if spread_ok else 'TOO WIDE'}"
                  + f"{' (above bound/3)' if any(x > bound / 3 for x in spreads) else ''}"
                  + f"  medians {'agree' if agree else 'DISAGREE'}")
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"machine": info, "runs": args.runs, "values": values}, fh, indent=1)
    print(f"runs saved to {os.path.relpath(path)}; {'steady' if ok else 'NOT steady'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
