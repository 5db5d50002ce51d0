"""One pass of a benchmark workload in a fresh, single-threaded process.

Started by run.py, never by hand.  It imports chainrep and numpy, builds
the seeded inputs of one pass, then runs the instances as a closed loop
with one caller: each instance starts when the previous one has finished.
It prints one JSON line with the pass time, every instance time and
answer, the set-up time, the peak resident memory and, on a traced pass,
the span summary.

Set-up time is measured from --t0, the monotonic clock reading the parent
took just before starting this process, to the start of the first timed
instance.  With --setup-only the process stops there.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass-index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--only", action="append", default=[], help="run just these instances")
    ap.add_argument("--expect", action="append", default=[], help="NAME=VALUE: check against VALUE instead")
    ap.add_argument("--spans", help="write the traced pass's spans here as JSON lines")
    return ap.parse_args(argv)


def _run_instances(instances, expected, on_next):
    rows = []
    start = time.perf_counter()
    for inst in instances:
        on_next(inst.name)
        t = time.perf_counter()
        try:
            values, problems = inst.run(expected.get(inst.name))
        except Exception as exc:  # an instance that raises is a failed answer
            values, problems = {}, [f"{type(exc).__name__}: {exc}", traceback.format_exc(limit=3)]
        rows.append((inst.name, time.perf_counter() - t, values, problems))
    return time.perf_counter() - start, rows, None


def main(argv=None) -> int:
    args = _parse_args(argv)
    import chainrep
    from chainrep import (  # noqa: F401  (CLI users pay for importing every layer)
        chain_ring,
        char_duality,
        cli,
        exactrep,
        group_models,
        mackey_irreps,
        minfaith_solver,
        oracle,
    )

    import tracer as tracing
    import workloads

    expected = {}
    for item in args.expect:
        name, _, value = item.rpartition("=")
        expected[name] = int(value)
    pass_input = workloads.build_inputs(args.workload, args.seed, args.pass_index)
    if args.only:
        if args.workload == "suite":
            pass_input.instances = [i for i in pass_input.instances if i["name"] in args.only]
        else:
            pass_input = [i for i in pass_input if i.name in args.only]
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    on_next = lambda name: None  # noqa: E731
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        on_next = lambda name: setattr(tracer, "tag", [args.pass_index, name])  # noqa: E731
    if args.workload == "suite":
        pass_input.on_next = on_next
        wall, rows, sha = pass_input.run(expected)
    else:
        wall, rows, sha = _run_instances(pass_input, expected, on_next)
    layers = None
    if tracer is not None:
        layers = tracer.summary()
        if args.spans:
            tracer.write_jsonl(args.spans)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "peak_rss_mb": rss_kib * 1024 / 1e6,
        "versions": {"python": sys.version.split()[0], "numpy": workloads.np.__version__,
                     "chainrep": chainrep.__version__},
        "traced": bool(args.trace),
        "wall_s": wall,
        "sha256": sha,
        "instances": rows,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
