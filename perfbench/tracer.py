"""Timing spans around the public functions of the chainrep modules.

The traced run installs these wrappers inside the benchmark process, so it
executes the same ``cross_validate`` / CLI code path as the untraced run;
``src/`` is not modified.  Spans are kept in memory (name, start, end,
parent span id, tag) and written as JSON lines when the pass ends.

Counters are computed by the benchmark from the objects each call returns
(or was called on); they are not measured inside the program.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from functools import cached_property

# Every span name the traced run reports, in print order.
SPAN_NAMES = (
    "cli.main",
    "oracle.cross_validate",
    "chain_ring.make_ring",
    "group_models.build_table",
    "group_models.conjugacy",
    "group_models.center",
    "group_models.commutator_subgroup",
    "group_models.structure_scan",
    "oracle.CharacterTable",
    "oracle.minimal_normal_witnesses",
    "oracle.min_faithful_exhaustive",
    "oracle.catalog_from_table",
    "char_duality.basis_greedy",
    "mackey_irreps.irrep_catalog",
    "mackey_irreps.mackey_induced_rep",
    "exactrep.MonomialRep.induce",
    "exactrep.DirectSumRep.is_faithful",
    "minfaith_solver.solve_heisenberg",
    "minfaith_solver.solve_pgroup",
    "minfaith_solver.construct_faithful_heisenberg",
    "minfaith_solver.construct_faithful_affine",
    "minfaith_solver.construct_faithful_two_step",
)

# Counters computed from returned objects, with their units.
COUNTER_UNITS = {
    "oracle.classes": "count",
    "oracle.prime_max": "int",
    "oracle.primes_tried": "count",
    "oracle.prime_yield": "ratio",
    "oracle.witnesses": "count",
    "group_models.elements": "count",
    "group_models.table_mb": "MB",
    "mackey_irreps.irreps": "count",
    "exactrep.kernel_elements_checked": "count",
}

SUMMARY_UNITS = {
    "trace.wall_s": "s",
    "untraced.self_s": "s",
    "trace.overhead_s": "s",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit."""
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = "s"
        out[f"{name}.calls"] = "count"
    out.update(COUNTER_UNITS)
    out.update(SUMMARY_UNITS)
    return out


def _is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def primes_tried(order: int, exponent: int, prime: int) -> int:
    """Primes l = 1 (mod exponent) with l^2 > 4|G|, from the first such
    prime up to the prime the table used, inclusive."""
    count = 0
    l = exponent + 1
    while l <= prime:
        if l * l > 4 * order and _is_prime(l):
            count += 1
        l += exponent
    return count


class Tracer:
    """In-memory span recorder.  ``tag`` labels the spans opened while it
    is set (pass index and instance name)."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent id, tag]
        self._stack = []
        self.tag = None
        self.tables = []  # (classes, exponent, order, prime) per CharacterTable
        self.totals = {}

    def add(self, key, value):
        self.totals[key] = self.totals.get(key, 0) + value

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, self.tag]
            self.spans.append(rec)
            self._stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(out, args)
            return out

        return wrapper

    def summary(self) -> dict:
        """Self seconds and calls per span name, counter totals, the
        CharacterTable records and self seconds per instance and span name.
        Self time is a span's duration minus its children's."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        self_s, calls, by_instance = {}, {}, {}
        for sid, (name, start, end, _, tag) in enumerate(self.spans):
            own = (end - start) - child[sid]
            self_s[name] = self_s.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            per = by_instance.setdefault(tag[1] if tag else "", {})
            per[name] = per.get(name, 0.0) + own
        return {"self_s": self_s, "calls": calls, "totals": self.totals, "tables": self.tables,
                "by_instance": by_instance}

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for sid, (name, start, end, parent, tag) in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "tag": tag}) + "\n")


def install(tracer: Tracer) -> None:
    """Replace the traced functions with span wrappers, in the defining
    module and wherever another chainrep module bound the same object."""
    from chainrep import (
        chain_ring,
        char_duality,
        cli,
        exactrep,
        group_models,
        mackey_irreps,
        minfaith_solver,
        oracle,
    )

    modules = (chain_ring, char_duality, cli, exactrep, group_models,
               mackey_irreps, minfaith_solver, oracle)

    def function(module, attr, name, count=None):
        orig = getattr(module, attr)
        new = tracer.wrap(name, orig, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, new)

    def method(cls, attr, name, count=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            setattr(cls, attr, staticmethod(tracer.wrap(name, raw.__func__, count)))
        elif isinstance(raw, cached_property):
            prop = cached_property(tracer.wrap(name, raw.func, count))
            prop.__set_name__(cls, attr)
            setattr(cls, attr, prop)
        else:
            setattr(cls, attr, tracer.wrap(name, raw, count))

    def count_table(G, _args):
        tracer.add("group_models.elements", G.order)
        tracer.add("group_models.table_mb", G.table.nbytes / 1e6)

    def count_character_table(_out, args):
        T = args[0]
        tracer.tables.append((T.r, T.exponent, T.group.order, T.prime))

    def count_kernel(_out, args):
        rep = args[0]
        tracer.add("exactrep.kernel_elements_checked", rep.group.order * len(rep.summands))

    function(cli, "main", "cli.main")
    function(oracle, "cross_validate", "oracle.cross_validate")
    function(chain_ring, "make_ring", "chain_ring.make_ring")
    for cls in (group_models.HeisenbergGroup, group_models.UnitriangularGroup, group_models.AffineGroup):
        method(cls, "to_abstract", "group_models.build_table", count_table)
    for attr in ("general_linear_2", "semidirect_cyclic", "semidirect_cyclic_hom", "quaternion_group"):
        function(group_models, attr, "group_models.build_table", count_table)
    for attr in ("conjugacy", "center", "commutator_subgroup"):
        method(group_models.AbstractGroup, attr, f"group_models.{attr}")
    function(group_models, "structure_scan", "group_models.structure_scan")
    method(oracle.CharacterTable, "__init__", "oracle.CharacterTable", count_character_table)
    function(oracle, "minimal_normal_witnesses", "oracle.minimal_normal_witnesses",
             lambda out, _a: tracer.add("oracle.witnesses", len(out)))
    function(oracle, "min_faithful_exhaustive", "oracle.min_faithful_exhaustive")
    function(oracle, "catalog_from_table", "oracle.catalog_from_table")
    function(char_duality, "basis_greedy", "char_duality.basis_greedy")
    function(mackey_irreps, "irrep_catalog", "mackey_irreps.irrep_catalog",
             lambda out, _a: tracer.add("mackey_irreps.irreps", len(out)))
    function(mackey_irreps, "mackey_induced_rep", "mackey_irreps.mackey_induced_rep")
    method(exactrep.MonomialRep, "induce", "exactrep.MonomialRep.induce")
    method(exactrep.DirectSumRep, "is_faithful", "exactrep.DirectSumRep.is_faithful", count_kernel)
    for attr in ("solve_heisenberg", "solve_pgroup", "construct_faithful_heisenberg",
                 "construct_faithful_affine", "construct_faithful_two_step"):
        function(minfaith_solver, attr, f"minfaith_solver.{attr}")


def layer_metrics(summaries, traced_walls, untraced_walls) -> dict:
    """Per-layer metrics from the ``Tracer.summary()`` of each traced pass,
    each a mean per pass.  The spans' self times plus ``untraced.self_s``
    add up to ``trace.wall_s``."""
    passes = len(summaries)
    out = {}
    span_total = 0.0
    for name in SPAN_NAMES:
        s = sum(x["self_s"].get(name, 0.0) for x in summaries)
        span_total += s
        out[f"{name}.self_s"] = s / passes
        out[f"{name}.calls"] = sum(x["calls"].get(name, 0) for x in summaries) / passes
    tables = [t for x in summaries for t in x["tables"]]
    tried = sum(primes_tried(order, e, prime) for _, e, order, prime in tables)
    out["oracle.classes"] = sum(t[0] for t in tables) / passes
    out["oracle.prime_max"] = max((t[3] for t in tables), default=0)
    out["oracle.primes_tried"] = tried / passes
    out["oracle.prime_yield"] = len(tables) / tried if tried else 0.0
    for key in ("oracle.witnesses", "group_models.elements", "group_models.table_mb",
                "mackey_irreps.irreps", "exactrep.kernel_elements_checked"):
        out[key] = sum(x["totals"].get(key, 0) for x in summaries) / passes
    wall = sum(traced_walls) / passes
    out["trace.wall_s"] = wall
    out["untraced.self_s"] = wall - span_total / passes
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return out


def instance_layers(summaries) -> dict:
    """instance -> span name -> self seconds, mean per traced pass."""
    out = {}
    for x in summaries:
        for inst, spans in x["by_instance"].items():
            per = out.setdefault(inst, {})
            for name, sec in spans.items():
                per[name] = per.get(name, 0.0) + sec / len(summaries)
    return out
