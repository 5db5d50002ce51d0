"""Time to a verified m(G): the chainrep benchmark.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Workloads: suite, oracle-pgroups, oracle-wide, construct-4096 (see
workloads.py and README.md), or ``all`` for the four in turn.  Every pass
over a workload's instances runs in its own fresh, single-threaded worker
process; more fresh processes, spread between the passes, stop after
set-up, so that ``setup_s`` is a median of SETUP_SAMPLES taken over the
whole run.

The run prints a machine block, per-instance seconds, every metric with its
unit and the share of failed answers, and as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones, taken
from span wrappers installed in the worker.  A full report goes to
perfbench/out/.  Exit code 0 when every answer was correct, 1 when one was
not, 2 when nothing could be measured.
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
from pathlib import Path

import tracer
import workloads
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The end-to-end metrics of BENCHMARK.json, which the last line carries.
# The per-instance median and tail are printed beside them but not bounded:
# on a shared host their run-to-run spread exceeds any bound the benchmark
# may set (README.md, Noise).
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

RUN_LIMIT_S = 175  # every process of one run ends within this
SETUP_SAMPLES = 12  # fresh processes timed to the first instance, at least


def _worker_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(args, deadline):
    """Run worker.py with the given arguments; its parsed last stdout line."""
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--t0", repr(t0)] + args
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(seconds):
    """(value, percentile, n) over all instance samples: the sample at the
    highest percentile that still has ten or more samples above it.  Below
    20 samples that percentile would not exceed the median, so the value is
    then the slowest instance's median and the percentile is None."""
    xs = sorted(x for secs in seconds.values() for x in secs)
    n = len(xs)
    if n < 20:
        return max(statistics.median(secs) for secs in seconds.values()), None, n
    k = n - 11
    return xs[k], 100.0 * (k + 1) / n, n


def run_workload(workload, seed, seconds, trace, only=(), expect=()):
    """Measure one workload; returns (report dict, printable lines)."""
    passes = workloads.passes_for(workload, seconds)
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    for name in only:
        common += ["--only", name]
    for item in expect:
        common += ["--expect", item]
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{trace}"
    # A traced run alternates an untraced and a traced pass over the same
    # inputs, half as many pairs as an untraced run has passes, so the two
    # take about as long and their difference is the tracing overhead.
    rounds = -(-passes // 2) if trace else passes
    extra = max(0, SETUP_SAMPLES - (2 * rounds if trace else rounds))
    probes, runs = [], []
    for i in range(rounds):
        one = common + ["--pass-index", str(i)]
        # set-up-only processes go between the passes, so that setup_s meets
        # the host in the same states as wall_s does
        for _ in range(extra * (i + 1) // rounds - extra * i // rounds):
            probes.append(_spawn(one + ["--setup-only"], deadline))
        runs.append(_spawn(one + ["--trace", "0"], deadline))
        if trace:
            spans = OUT / f"{stem}-pass{i}.spans.jsonl"
            runs.append(_spawn(one + ["--trace", "1", "--spans", str(spans)], deadline))
    setups = [p["setup_s"] for p in probes + runs]

    # every pass of the suite must print the same verify output
    shas = {p["sha256"] for p in runs}
    if len(shas) > 1:
        for p in runs:
            if p["sha256"] != runs[0]["sha256"]:
                for row in p["instances"]:
                    row[3].append("verify output differs from the first pass")
    rows = [row for p in runs for row in p["instances"]]
    failed = sum(1 for row in rows if row[3])
    untraced = [p for p in runs if not p["traced"]]
    traced = [p for p in runs if p["traced"]]
    instances = _per_instance(runs)
    instance_seconds = {name: entry["seconds"] for name, entry in instances.items()}
    samples = [x for secs in instance_seconds.values() for x in secs]
    tail_s, tail_pct, tail_n = tail(instance_seconds)
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
    }
    layers = by_instance = None
    if traced:
        summaries = [p["layers"] for p in traced]
        layers = tracer.layer_metrics(summaries, [p["wall_s"] for p in traced],
                                      [p["wall_s"] for p in untraced])
        by_instance = tracer.instance_layers(summaries)
    report = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "pass_wall_s": [p["wall_s"] for p in untraced],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
        "attempted": len(rows),
        "failed": failed,
        "failed_frac": failed / len(rows) if rows else 1.0,
        "end_to_end": metrics,
        "instance_s_p50": statistics.median(samples),
        "tail": {"instance_s_tail": tail_s, "percentile": tail_pct, "samples": tail_n},
        "setup_samples": setups,
        "versions": runs[0]["versions"],
        "sha256": sorted(s for s in shas if s),
        "instances": instances,
        "layers": layers,
        "layers_by_instance": by_instance,
    }
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    return report, _format(report, trace)


def _per_instance(runs):
    """name -> seconds per untraced pass, values and problems."""
    out = {}
    for p in runs:
        for name, seconds, values, problems in p["instances"]:
            entry = out.setdefault(name, {"seconds": [], "values": values, "problems": []})
            if not p["traced"]:
                entry["seconds"].append(seconds)
            entry["problems"] += [x for x in problems if x not in entry["problems"]]
    return out


def _format(report, trace):
    w = report["workload"]
    lines = [f"== {w}: {report['passes']} untraced pass(es), seed {report['seed']}"]
    lines.append(f"  {'instance':<28}{'median s':>10}{'min s':>10}{'max s':>10}  answer")
    for name, entry in report["instances"].items():
        secs = entry["seconds"] or [float("nan")]
        vals = " ".join(f"{k}={v}" for k, v in sorted(entry["values"].items()) if not isinstance(v, list))
        status = "ok" if not entry["problems"] else "FAIL: " + "; ".join(entry["problems"][:3])
        lines.append(f"  {name:<28}{statistics.median(secs):>10.4f}{min(secs):>10.4f}{max(secs):>10.4f}  {status}  {vals}")
    t = report["tail"]
    notes = {"setup_s": f"  (median of {len(report['setup_samples'])} fresh processes)"}
    for name, value in report["end_to_end"].items():
        lines.append(f"  {name:<20}{value:>14.6f} {END_TO_END_UNITS[name]}{notes.get(name, '')}")
    if t["percentile"] is None:
        note = f"slowest instance's median; {t['samples']} samples are too few for a tail"
    else:
        note = f"p{t['percentile']:.1f} of {t['samples']} samples"
    lines.append(f"  {'instance_s_p50':<20}{report['instance_s_p50']:>14.6f} s  ({t['samples']} samples; not bounded)")
    lines.append(f"  {'instance_s_tail':<20}{t['instance_s_tail']:>14.6f} s  ({note}; not bounded)")
    lines.append(f"  {'failed_frac':<20}{report['failed_frac']:>14.6f} ratio  ({report['failed']} of {report['attempted']} instance runs)")
    if report["sha256"]:
        lines.append(f"  verify output sha256 {', '.join(report['sha256'])}")
    if trace and report["layers"]:
        lines.append("  per layer, mean per traced pass (counts computed from returned objects):")
        units = tracer.per_layer_units()
        for name, value in report["layers"].items():
            lines.append(f"    {name:<52}{value:>14.6f} {units[name]}")
    return lines


def machine_block():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"machine: nproc {nproc}, {platform.machine()}, Python {platform.python_version()}, "
            f"numpy {workloads.np.__version__}, load average at start {load}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20, help="measured time per run on the reference machine")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--only", action="append", default=[], help="run just this instance (repeatable)")
    ap.add_argument("--expect", action="append", default=[], metavar="NAME=VALUE",
                    help="check instance NAME against VALUE instead of its expected value")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "chainrep" / "__init__.py").is_file():
        print(f"error: chainrep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    print(machine_block(), flush=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    for name in names:
        try:
            report, lines = run_workload(name, args.seed, args.seconds, args.trace, args.only, args.expect)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 2
        reports.append(report)
        for line in lines:
            print(line, flush=True)
    units = END_TO_END_UNITS
    if args.trace:
        units = tracer.per_layer_units()
    metrics = {}
    for r in reports:
        values = r["layers"] if args.trace else r["end_to_end"]
        prefix = "" if len(reports) == 1 else f"{r['workload']}."
        for key, unit in units.items():
            metrics[prefix + key] = {"value": values[key], "unit": unit}
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
