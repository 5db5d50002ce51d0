"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads suite oracle-wide --seeds 5
    python3 perfbench/spread.py --seeds 10 --sets 2 --out perfbench/baseline.json

Runs run.py once per seed 1..--seeds on each workload (--trace 0, the
run_seconds of BENCHMARK.json) and prints, for each metric, the median and
the distance between the first and third quartiles as a share of the
median, next to the metric's bound.  With --sets 2 or more it runs the same
seeds on every workload again once each has had its first set, and
compares each set's median with the first one's.  Exit code 1 when a spread
or a difference of medians exceeds the metric's bound.  With --out it also
writes the medians, quartiles and per-instance median seconds as a JSON
baseline.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def _run(workload, seed, seconds, trace):
    """The parsed last line of one run.py run; exits on failure."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {proc.returncode}\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _measure(w, seeds, seconds, names):
    """Metric values per seed, per-instance seconds and run durations."""
    values = {name: [] for name in names}
    instance_seconds = {}
    durations = []
    for seed in seeds:
        start = time.monotonic()
        result = _run(w, seed, seconds, 0)
        durations.append(time.monotonic() - start)
        for name in names:
            values[name].append(result["metrics"][name]["value"])
        report = json.loads((run.OUT / f"{w}-seed{seed}-trace0.json").read_text())
        for name, entry in report["instances"].items():
            instance_seconds.setdefault(name, []).extend(entry["seconds"])
        print(f"{w} seed {seed}: " + " ".join(f"{k}={v[-1]:.4f}" for k, v in values.items())
              + f"  ({durations[-1]:.1f} s)", flush=True)
    return values, instance_seconds, durations


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, help="sets of runs over the same seeds")
    ap.add_argument("--out", help="write a JSON baseline here")
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = list(range(1, args.seeds + 1))
    baseline = {
        "machine": run.machine_block(),
        "recorded": time.strftime("%Y-%m-%d"),
        "run_seconds": bench["run_seconds"],
        "seeds": seeds,
        "sets": args.sets,
        "workloads": {},
    }
    sets = {w: [] for w in args.workloads}
    for _ in range(args.sets):
        for w in args.workloads:
            sets[w].append(_measure(w, seeds, bench["run_seconds"], bounds))
    ok = True
    for w, measured in sets.items():
        summary = {}
        for name, bound in bounds.items():
            rows = [quartile_spread(values[name]) for values, _, _ in measured]
            first = rows[0][0]
            for k, (med, q1, q3, spread) in enumerate(rows):
                change = med / first - 1
                ok &= spread <= bound and abs(change) <= bound
                print(f"  {w:<16}{name:<14} set {k + 1}  median {med:12.6f}  spread {spread:7.4f}"
                      f"  vs set 1 {change:+7.4f}  bound {bound:.2f}"
                      f"{'' if spread <= bound / 3 else '  <- spread above a third of the bound'}")
            med, q1, q3, spread = rows[0]
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                             "set_medians": [r[0] for r in rows], "set_spreads": [r[3] for r in rows]}
        instance_seconds = {}
        for _, secs, _ in measured:
            for name, xs in secs.items():
                instance_seconds.setdefault(name, []).extend(xs)
        baseline["workloads"][w] = {
            "metrics": summary,
            "run_s": [d for _, _, durations in measured for d in durations],
            "instance_s_median": {k: statistics.median(v) for k, v in instance_seconds.items()},
        }
        if args.out:
            # one traced run for the per-layer figures, per instance too
            _run(w, seeds[0], bench["run_seconds"], 1)
            report = json.loads((run.OUT / f"{w}-seed{seeds[0]}-trace1.json").read_text())
            baseline["workloads"][w]["layers"] = report["layers"]
            baseline["workloads"][w]["layers_by_instance"] = report["layers_by_instance"]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("every spread and every difference of medians within its bound" if ok else "a bound was exceeded")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
