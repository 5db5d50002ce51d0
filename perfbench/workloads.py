"""The four benchmark workloads: their instances, the routes each instance
runs, and the checks on every answer.

Expected values are fixed here, outside the program: the closed form
sum_{i<xi} f q^(k(n-i)) for Heisenberg groups (unitriangular U_{k+2}
shares it), q^n - q^(n-1) for affine groups, the orbit size for
semidirect groups whose action is faithful, 4 for GL_2(F_5), which has no
closed form in chainrep, and the suite's own ``expected`` field for the
default suite.

Every instance returns ``(values, problems)``: the value each route
produced and a list of the checks it failed (empty when correct).
"""

from __future__ import annotations

import hashlib
import io
import json
import time
from contextlib import redirect_stdout

import numpy as np

WORKLOADS = ("suite", "oracle-pgroups", "oracle-wide", "construct-4096")

# Median seconds of one pass at the commit that defined the benchmark, as
# recorded in baseline.json (2-core x86-64 host, Python 3.11, numpy 2.4).
# A run makes max(2, round(seconds / PASS_S)) passes, each in a fresh
# process: the count is fixed by --seconds alone, so runs of two commits do
# identical work, and it is at least two, so two suite passes can be
# compared and one slow moment does not decide wall_s.
PASS_S = {"suite": 4.66, "oracle-pgroups": 5.59, "oracle-wide": 4.69, "construct-4096": 15.07}

# name, builder, ring (p, f, e, n), builder argument, |G|, expected m(G)
PGROUPS = [
    ("Hei(Z/9)", "heisenberg", (3, 1, 1, 2), 1, 729, 9),
    ("Hei(Z/8)", "heisenberg", (2, 1, 1, 3), 1, 512, 8),
    ("Hei(F_2[t]/t^3)", "heisenberg", (2, 1, "inf", 3), 1, 512, 14),
    ("Hei(p=2,e=2,n=3)", "heisenberg", (2, 1, 2, 3), 1, 512, 12),
    ("Hei(F_9)", "heisenberg", (3, 2, 1, 1), 1, 729, 18),
    ("Hei(F_8)", "heisenberg", (2, 3, 1, 1), 1, 512, 24),
    ("U_4(F_3)", "unitriangular", (3, 1, 1, 1), 4, 729, 9),
    ("Hei_5(F_3)", "heisenberg", (3, 1, 1, 1), 2, 243, 9),
]

WIDE = [
    ("GL_2(F_5)", "gl2", (5, 1, 1, 1), None, 480, 4),
    ("Aff(Z/27)", "affine", (3, 1, 1, 3), None, 486, 18),
    ("Aff(Z/32)", "affine", (2, 1, 1, 5), None, 512, 16),
    ("Z/27 x| <2>", "semidirect", (27, [2]), None, 486, 18),
]

CONSTRUCT = [
    ("Hei(GR(4,2))", "heisenberg", (2, 2, 1, 2), 1, 4096, 32),
    ("Hei(F_16)", "heisenberg", (2, 4, 1, 1), 1, 4096, 64),
    ("Hei(Z/16)", "heisenberg", (2, 1, 1, 4), 1, 4096, 16),
    ("Hei(F_4[t]/t^2)", "heisenberg", (2, 2, "inf", 2), 1, 4096, 40),
]


def passes_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / PASS_S[workload]))


def _mismatches(values: dict, expected: int) -> list:
    return [f"{route}={v} != expected {expected}" for route, v in sorted(values.items()) if v != expected]


def _orbit_size(modulus: int, multipliers) -> int:
    """Size of the subgroup of (Z/modulus)^x generated by the multipliers."""
    seen = {1}
    frontier = [1]
    while frontier:
        a = frontier.pop()
        for m in multipliers:
            b = a * m % modulus
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return len(seen)


def relabel(G, perm):
    """The same group with element g renamed perm[g]."""
    from chainrep.group_models import AbstractGroup

    table = np.empty_like(G.table)
    table[np.ix_(perm, perm)] = perm[G.table]
    names = None
    if G.names is not None:
        names = [None] * G.order
        for g, name in enumerate(G.names):
            names[perm[g]] = name
    return AbstractGroup(table, names=names, validate=False)


class Instance:
    """One timed unit of work: ``run()`` executes every route and returns
    (values, problems)."""

    def __init__(self, name, expected, run):
        self.name = name
        self.expected = expected
        self._run = run

    def run(self, expected=None):
        return self._run(self.expected if expected is None else expected)


# -- oracle workloads -------------------------------------------------


# The routes look functions up on their modules at call time, so the traced
# run sees the span wrappers installed after these instances were built.


def _oracle_group(family, params, arg, perm):
    from chainrep import chain_ring
    from chainrep import group_models as gm

    make_ring = chain_ring.make_ring
    if family == "heisenberg":
        G = gm.HeisenbergGroup(make_ring(*params), arg).to_abstract()
    elif family == "unitriangular":
        G = gm.UnitriangularGroup(make_ring(*params), arg).to_abstract()
    elif family == "affine":
        G = gm.AffineGroup(make_ring(*params)).to_abstract()
    elif family == "gl2":
        G = gm.general_linear_2(make_ring(*params))
    else:
        G = gm.semidirect_cyclic(*params)
    if G.order != len(perm):
        raise ValueError(f"built a group of order {G.order}, expected {len(perm)}")
    return relabel(G, perm)


def _oracle_instance(spec, perm, catalog):
    from chainrep import minfaith_solver as solver
    from chainrep import oracle

    name, family, params, arg, _order, expected = spec

    def run(expected):
        G = _oracle_group(family, params, arg, perm)
        T = oracle.CharacterTable(G)
        values = {"oracle": oracle.min_faithful_exhaustive(T)[0]}
        problems = []
        if family == "heisenberg":
            values["formula"] = solver.formula_heisenberg(*params, arg)
        elif family == "unitriangular":
            values["formula"] = solver.formula_unitriangular(*params, arg)
        elif family == "affine":
            values["formula"] = solver.formula_affine(params[0], params[1], params[3])
        elif family == "semidirect":
            bound, equality = solver.orbit_lower_bound(*params)
            values["orbit_bound"] = bound
            if not equality:
                problems.append("orbit bound is not an equality for a faithful action")
            if bound != _orbit_size(*params):
                problems.append(f"orbit bound {bound} != orbit size {_orbit_size(*params)}")
        if catalog:
            entries = oracle.catalog_from_table(T)
            gsol = solver.solve_pgroup(entries, entries[0][1].p, len(entries[0][1].coords))
            values["solver_catalog"] = gsol.total_dim
        return values, problems + _mismatches(values, expected)

    return Instance(name, expected, run)


# -- construction workload --------------------------------------------


def _construct_instance(spec):
    from chainrep import chain_ring
    from chainrep import group_models as gm
    from chainrep import minfaith_solver as solver

    name, _family, params, k, order, expected = spec

    def run(expected):
        R = chain_ring.make_ring(*params)
        values = {"formula": solver.formula_heisenberg(*params, k)}
        values["solver"] = solver.solve_heisenberg(R, k).total_dim
        con = solver.construct_faithful_heisenberg(R, k)
        values["construct"] = con.total_dim
        problems = [] if con.verified_faithful else ["construction kernel check failed"]
        G = gm.HeisenbergGroup(R, k).to_abstract()
        scan = gm.structure_scan(G)
        if not (scan.order == order and scan.is_p_group and scan.is_two_step):
            problems.append("structure scan: not a two-step p-group of the expected order")
        if len(scan.center) != R.size:
            problems.append(f"structure scan: |Z| = {len(scan.center)}, expected {R.size}")
        if scan.commutator_cyclic:
            values["formula_two_step"] = solver.formula_two_step(G, scan)
            two = solver.construct_faithful_two_step(G)
            values["construct_two_step"] = two.total_dim
            if not two.verified_faithful:
                problems.append("two-step construction kernel check failed")
        return values, problems + _mismatches(values, expected)

    return Instance(name, expected, run)


# -- suite workload ---------------------------------------------------


class TimedInstances(list):
    """The suite's instance list; iterating it records when each instance
    is handed to ``cross_validate``, which times every instance inside a
    single ``chainrep verify`` call."""

    def __init__(self, items, on_next=None):
        super().__init__(items)
        self.marks = []
        self.on_next = on_next

    def __iter__(self):
        self.marks = []
        for item in super().__iter__():
            if self.on_next is not None:
                self.on_next(item["name"])
            self.marks.append(time.perf_counter())
            yield item
        self.marks.append(time.perf_counter())


def _orbit_check(inst, values) -> list:
    if "oracle" not in values:
        return ["oracle route missing"]
    bound = _orbit_size(inst["modulus"], inst["multipliers"])
    if values["oracle"] < bound:
        return [f"oracle {values['oracle']} below the orbit bound {bound}"]
    faithful = inst.get("h_order") in (None, bound)
    if faithful and values["oracle"] != bound:
        return [f"oracle {values['oracle']} != orbit bound {bound} for a faithful action"]
    return []


CORE_ROUTES = ("formula", "solver", "construct", "formula_two_step", "construct_two_step",
               "oracle", "solver_catalog")


def check_suite_result(inst, rr, expected) -> list:
    """Problems with one ``verify`` result entry."""
    if rr is None:
        return ["missing from the verify output"]
    problems = []
    if "error" in rr:
        problems.append(rr["error"])
    if not rr.get("match"):
        problems.append("verify reports a mismatch")
    values = rr.get("values", {})
    core = {k: v for k, v in values.items() if k in CORE_ROUTES}
    if not core:
        problems.append("no route produced a value")
    problems += _mismatches(core, expected)
    # cross_validate's default: families built from a ring run the oracle
    # only when asked, table groups unless told not to
    oracle_default = inst["family"] not in ("heisenberg", "unitriangular", "affine")
    if inst.get("oracle", oracle_default) and "oracle" not in values:
        problems.append("oracle route missing")
    if inst["family"] == "semidirect":
        problems += _orbit_check(inst, values)
    return problems


class SuitePass:
    """One ``chainrep verify --suite default --format json`` call on the
    seeded instance order."""

    def __init__(self, suite, order, on_next=None):
        self.name = suite.get("name", "default")
        self.instances = [suite["instances"][i] for i in order]
        self.on_next = on_next

    def run(self, expected_override):
        from chainrep import cli

        timed = TimedInstances(self.instances, self.on_next)
        original = cli.load_default_suite
        cli.load_default_suite = lambda: {"name": self.name, "instances": timed}
        buf = io.StringIO()
        try:
            start = time.perf_counter()
            with redirect_stdout(buf):
                code = cli.main(["verify", "--suite", "default", "--format", "json"])
            wall = time.perf_counter() - start
        finally:
            cli.load_default_suite = original
        out = buf.getvalue()
        results = {}
        try:
            report = json.loads(out)["result"]
            results = {rr["name"]: rr for rr in report["results"]}
        except (ValueError, KeyError, TypeError):
            pass
        rows = []
        marks = timed.marks
        for t, inst in enumerate(self.instances):
            expected = expected_override.get(inst["name"], inst.get("expected"))
            problems = check_suite_result(inst, results.get(inst["name"]), expected)
            seconds = marks[t + 1] - marks[t] if t + 1 < len(marks) else float("nan")
            values = results.get(inst["name"], {}).get("values", {})
            rows.append((inst["name"], seconds, values, problems))
        # exit 1 must be explained by a failing instance; any other code
        # fails them all
        if code != 0 and (code != 1 or not any(row[3] for row in rows)):
            for row in rows:
                row[3].append(f"verify exited {code}")
        return wall, rows, hashlib.sha256(out.encode()).hexdigest()


# -- inputs -----------------------------------------------------------


def build_inputs(workload: str, seed: int, pass_index: int):
    """Everything generated before timing starts for one pass: the ordered
    instances, or for the suite a SuitePass.  The seed fixes the instance
    order; on the oracle workloads the seed and pass index fix one element
    relabelling per instance."""
    order_rng = np.random.default_rng(seed)
    if workload == "suite":
        from chainrep import cli

        suite = cli.load_default_suite()
        return SuitePass(suite, order_rng.permutation(len(suite["instances"])).tolist())
    specs = {"oracle-pgroups": PGROUPS, "oracle-wide": WIDE, "construct-4096": CONSTRUCT}[workload]
    order = order_rng.permutation(len(specs)).tolist()
    if workload == "construct-4096":
        return [_construct_instance(specs[i]) for i in order]
    rng = np.random.default_rng([seed, pass_index])
    return [_oracle_instance(specs[i], rng.permutation(specs[i][4]), workload == "oracle-pgroups")
            for i in order]
