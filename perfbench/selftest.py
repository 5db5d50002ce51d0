"""Smoke self-test of the benchmark, one instance per workload.

    python3 perfbench/selftest.py

For each workload it runs run.py on one small instance, untraced and
traced, and checks that every metric BENCHMARK.json names is printed with
its unit, both in the readable block and on the JSON last line.  It then
passes a deliberately wrong expected value with --expect and checks that
the answer is counted in failed_frac and that the run reports itself
incorrect.  Exit code 0 when every check passes.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SMOKE = {
    "suite": "hei3-f2",
    "oracle-pgroups": "Hei_5(F_3)",
    "oracle-wide": "Aff(Z/27)",
    "construct-4096": "Hei(Z/16)",
}
WRONG = 10**6  # no instance has this m(G)


def _run(workload, instance, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--only", instance, *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, lines[:-1], result, proc.stderr


def _printed(lines, name, unit) -> bool:
    pattern = re.compile(rf"^\s+{re.escape(name)}\s+-?[0-9.]+(e-?[0-9]+)? {re.escape(unit)}(\s|$)")
    return any(pattern.match(line) for line in lines)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    checks = 0

    def check(ok, what):
        nonlocal checks
        checks += 1
        if not ok:
            print(f"FAIL {what}", flush=True)
            failures.append(what)

    for workload, instance in SMOKE.items():
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, lines, result, err = _run(workload, instance, trace)
            check(code == 0 and result is not None, f"{workload} trace={trace}: exit 0 with a result {err[-500:]}")
            if result is None:
                continue
            check(result["correct"] and result["attempted"] >= 1 and result["failed"] == 0,
                  f"{workload} trace={trace}: {instance} answered correctly")
            metrics = result["metrics"]
            check(set(metrics) == {m["name"] for m in bench[key]},
                  f"{workload} trace={trace}: last line carries exactly the {key} metrics")
            for m in bench[key]:
                got = metrics.get(m["name"], {})
                value = got.get("value")
                ok = got.get("unit") == m["unit"] and isinstance(value, (int, float))
                if key == "end_to_end":
                    ok = ok and value > 0
                check(ok and _printed(lines, m["name"], m["unit"]),
                      f"{workload} trace={trace}: {m['name']} printed with unit {m['unit']}")
            for name, unit in (("failed_frac", "ratio"), ("instance_s_p50", "s"), ("instance_s_tail", "s")):
                check(_printed(lines, name, unit), f"{workload} trace={trace}: {name} printed with unit {unit}")
        code, lines, result, _ = _run(workload, instance, 0, "--expect", f"{instance}={WRONG}")
        frac = [float(line.split()[1]) for line in lines if line.strip().startswith("failed_frac")]
        check(code == 1 and result is not None and not result["correct"]
              and result["failed"] == result["attempted"] >= 1 and frac and frac[0] > 0,
              f"{workload}: a wrong expected value for {instance} is counted in failed_frac")
        print(f"{workload}: {checks} checks so far, {len(failures)} failed", flush=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
