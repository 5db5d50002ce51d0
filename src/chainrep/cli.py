"""Command-line front end.

Subcommands: ``ring`` (chain-ring summary), ``irreps list`` (Heisenberg
irreducible catalog), ``minfaith`` (minimal faithful dimension by
closed form, explicit construction, and/or oracle), ``oracle``
(character tables and exact minimum search for any supported group
specifier), and ``verify`` (full cross-validation suite).

Output formats: human (default), csv, json.  JSON payloads follow the
shipped schema (data/output_schema.json) and are emitted with sorted
keys so identical inputs produce identical bytes.  Exit codes: 0 on
success, 1 on mismatches or failed computations, 2 on parse errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import contextmanager


class SpecParseError(ValueError):
    pass


def _text_value(key, text):
    """The value a suite file would hold for ``key=text``: a table path
    stays text, multipliers are split on '|', text that int() accepts
    becomes that integer, and any other text stays text, for the family
    check to refuse."""
    if key == "table":
        return text
    if key == "multipliers":
        return [_text_value("multiplier", part) for part in text.split("|")]
    try:
        return int(text)
    except ValueError:
        return text


def _ring_from_args(args):
    from .chain_ring import make_ring

    with _parse_errors(f"p={args.p},f={args.f},e={args.e},n={args.n}", "ring"):
        return make_ring(args.p, args.f, _text_value("e", args.e), args.n)


def _e_repr(e):
    import math

    return "inf" if e == math.inf else int(e)


@contextmanager
def _parse_errors(source, what="group", ring_source=None):
    """A ring or group that cannot be built from its parameters, or an
    unreadable table file, is a parse error.  Given ``ring_source``, a
    RingParameterError is reported as a ring not built from it."""
    from .chain_ring import RingParameterError

    try:
        yield
    except (ValueError, OSError) as exc:
        if ring_source is not None and isinstance(exc, RingParameterError):
            source, what = ring_source, "ring"
        raise SpecParseError(f"cannot build {what} from {source!r}: {exc}") from None


def _flag_instance(family, flags):
    """The FamilyInstance of a subcommand's flags: the family's keys only,
    each through _text_value, so --e takes what a spec's e= takes."""
    from .minfaith_solver import FAMILIES, FamilyInstance

    keys = FAMILIES[family].keys
    source = ",".join(f"{key}={flags[key]}" for key in keys)
    ring_source = None if family == "table" else ",".join(f"{key}={flags[key]}" for key in "pfen")
    with _parse_errors(source, ring_source=ring_source):
        return FamilyInstance(family, {key: _text_value(key, flags[key]) for key in keys})


def parse_group_spec(spec: str):
    """'family:key=value,...' -> (AbstractGroup, description).

    Families are the spec names in the family table: heis, unitri, aff,
    gl2, semidirect, quaternion, and table, whose spec is
    'table:<path>' or 'table:path=<path>'.  Each value goes through
    _text_value to FamilyInstance, the check a suite instance takes."""
    from .minfaith_solver import FAMILIES, FamilyInstance

    if ":" not in spec:
        raise SpecParseError(f"group spec {spec!r} lacks a 'family:' prefix")
    name, _, rest = spec.partition(":")
    kv = {}
    if name == "table":  # the rest of a table spec is a file path
        kv["table"] = rest.removeprefix("path=")
    elif rest:
        for part in rest.split(","):
            if "=" not in part:
                raise SpecParseError(f"bad key=value field {part!r} in {spec!r}")
            key, _, text = part.partition("=")
            key = key.strip()
            if key in kv:
                raise SpecParseError(f"group spec {spec!r} repeats key {key!r}")
            kv[key] = _text_value(key, text.strip())
    family = next((f for f, fam in FAMILIES.items() if fam.spec == name), None)
    if family is None:
        raise SpecParseError(f"unknown group family {name!r}")
    with _parse_errors(spec):
        b = FamilyInstance(family, kv)
        b.group.generators  # the oracle's first array of |G| entries: one past memory is refused here
        return b.group, b.family.describe(b)


# -- emission ---------------------------------------------------------


def _emit_json(command, parameters, result):
    print(json.dumps({"command": command, "parameters": parameters, "result": result}, sort_keys=True))


def _emit_csv(rows):
    w = csv.writer(sys.stdout, lineterminator="\n")
    for row in rows:
        w.writerow(row)


# -- subcommand bodies ------------------------------------------------


def _cmd_ring(args) -> int:
    R = _ring_from_args(args)
    result = {
        "p": R.p,
        "f": R.f,
        "e": _e_repr(R.e),
        "n": R.n,
        "q": R.q,
        "xi": R.xi,
        "size": R.size,
        "unit_count": R.unit_count(),
        "d_invariant": R.d_invariant,
        "omega1_generators": R.omega1_generators(),
    }
    if args.format == "json":
        _emit_json("ring", _ring_params(args), result)
    elif args.format == "csv":
        _emit_csv([list(result.keys())[:-1] + ["omega1_generators"]])
        _emit_csv([
            [result[k] for k in list(result.keys())[:-1]]
            + ["|".join(str(x) for x in result["omega1_generators"])]
        ])
    else:
        for k, v in result.items():
            print(f"{k}: {v}")
    return 0


def _ring_params(args):
    out = {"p": args.p, "f": args.f, "e": args.e, "n": args.n}
    if getattr(args, "k", None) is not None:
        out["k"] = args.k
    return out


def _cmd_irreps(args) -> int:
    from .group_models import HeisenbergGroup
    from .mackey_irreps import irrep_catalog

    b = _flag_instance("heisenberg", vars(args))
    H = HeisenbergGroup(b.ring, b.k)
    catalog = irrep_catalog(H)
    agg = {}
    for d in catalog:
        key = (d.orbit_rep, d.level, d.dim)
        agg[key] = agg.get(key, 0) + 1
    rows = []
    for (orbit_rep, level, dim), mult in sorted(agg.items()):
        b_vec, b = orbit_rep
        rows.append(
            {
                "orbit_rep": list(b_vec) + [b],
                "b": b,
                "level": level,
                "dim": dim,
                "multiplicity": mult,
            }
        )
    total = sum(d.dim**2 for d in catalog)
    if total != H.order:
        raise AssertionError(f"irreps list: sum dim^2 = {total}, |G| = {H.order}")
    result = {
        "order": H.order,
        "irrep_count": len(catalog),
        "dim_sq_total": total,
        "catalog": rows,
    }
    if args.format == "json":
        _emit_json("irreps", _ring_params(args), result)
    elif args.format == "csv":
        out = [["orbit_rep", "level", "dim", "multiplicity"]]
        for r in rows:
            out.append(["|".join(str(x) for x in r["orbit_rep"]), r["level"], r["dim"], r["multiplicity"]])
        _emit_csv(out)
    else:
        print(f"order {H.order}, {len(catalog)} irreducibles, sum dim^2 = {total}")
        for r in rows:
            print(
                f"orbit_rep={tuple(r['orbit_rep'])} level={r['level']} "
                f"dim={r['dim']} multiplicity={r['multiplicity']}"
            )
    return 0


def _minfaith_values(target, params):
    """(values dict, solution json or None) for the requested mode.  The
    two-step target is the table family with the two-step routes.  A
    single mode the target has no route for is a parse error.  In mode
    all, a route past a size cap (CapExceededError), the oracle above the
    group cap among them, is left out, with its reason on stderr."""
    from . import oracle as orc
    from .chain_ring import CapExceededError
    from .minfaith_solver import FAMILIES, TWO_STEP_ROUTES, FaithfulSolution

    mode = params["mode"]
    two_step = target == "two-step"

    def oracle(b):  # the group build checks the cap before allocating
        return orc.min_faithful_exhaustive(orc.CharacterTable(b.group))[0]

    routes = {**(TWO_STEP_ROUTES if two_step else FAMILIES[target].routes), "oracle": oracle}
    if mode != "all" and mode not in routes:
        raise SpecParseError(f"{target} has no {mode} route; its routes are {', '.join(routes)}")
    b = _flag_instance("table" if two_step else target, params)
    values = {}
    solution = None
    for key in ("formula", "construct", "oracle") if mode == "all" else (mode,):
        if key in routes:
            try:
                out = routes[key](b)
            except CapExceededError as exc:
                if mode != "all":
                    raise
                print(f"{key} skipped: {exc}", file=sys.stderr)
                continue
            if isinstance(out, FaithfulSolution):
                solution = out.to_json()
                out = out.total_dim
            values[key] = out
    return values, solution


def _cmd_minfaith(args) -> int:
    family = args.target
    params = dict(vars(args))
    for drop in ("func", "format", "target"):
        params.pop(drop, None)
    values, solution = _minfaith_values(family, params)
    agree = len(set(values.values())) <= 1
    m = next(iter(values.values())) if values else None
    result = {"family": family, "values": values, "agree": agree}
    if m is not None:
        result["m"] = m
    if solution is not None:
        result["solution"] = solution
    if args.format == "json":
        _emit_json("minfaith", params, result)
    elif args.format == "csv":
        keys = sorted(values)
        _emit_csv([["family"] + keys, [family] + [values[k] for k in keys]])
    else:
        if m is not None:
            print(m)
        for k in sorted(values):
            print(f"{k}: {values[k]}")
        if solution is not None and solution.get("verified_faithful") is not None:
            print(f"construction faithful: {solution['verified_faithful']}")
        if not agree:
            print("MISMATCH between routes", file=sys.stderr)
    return 0 if agree else 1


def _cmd_oracle(args) -> int:
    from . import oracle as orc

    G, desc = parse_group_spec(args.group)
    T = orc.CharacterTable(G)
    if args.action == "table":
        rows = [[str(x) for x in row] for row in T.to_rows()]
        result = {
            "order": G.order,
            "prime": T.prime,
            "exponent": T.exponent,
            "classes": [
                {"rep": str(G.names[g] if G.names else g), "size": int(s)} for g, s in zip(T.reps, T.sizes)
            ],
            "dims": list(T.dims),
            "rows": rows,
        }
        if args.format == "json":
            _emit_json("oracle-table", {"group": args.group}, result)
        elif args.format == "csv":
            out = [["dim"] + [f"C{j}(size {s})" for j, s in enumerate(T.sizes)]]
            out += rows
            _emit_csv(out)
        else:
            print(f"{desc}: order {G.order}, {T.r} classes, prime {T.prime}")
            for row in rows:
                print("  ".join(row))
        return 0
    m, sel = orc.min_faithful_exhaustive(T)
    result = {
        "m": m,
        "selection_rows": list(sel),
        "selection_dims": [T.dims[c] for c in sel],
    }
    if args.format == "json":
        _emit_json("oracle-minfaith", {"group": args.group}, result)
    elif args.format == "csv":
        _emit_csv([["m", "selection_dims"], [m, "|".join(str(d) for d in result["selection_dims"])]])
    else:
        print(m)
        print(f"selection dims: {result['selection_dims']}")
    return 0


def load_default_suite() -> dict:
    from importlib import resources

    with resources.files("chainrep.data").joinpath("default_suite.json").open() as fh:
        return json.load(fh)


def _cmd_verify(args) -> int:
    from . import oracle as orc

    with _parse_errors(args.suite, "suite"):
        if args.suite == "default":
            suite = load_default_suite()
        else:
            with open(args.suite) as fh:
                suite = json.load(fh)
        report = orc.cross_validate(suite)
    if args.format == "json":
        _emit_json("verify", {"suite": args.suite}, report)
    elif args.format == "csv":
        out = [["name", "match", "expected", "values"]]
        for rr in report["results"]:
            out.append(
                [
                    rr["name"],
                    rr["match"],
                    rr.get("expected", ""),
                    "|".join(f"{k}={v}" for k, v in sorted(rr.get("values", {}).items())),
                ]
            )
        _emit_csv(out)
    else:
        for rr in report["results"]:
            vals = " ".join(
                f"{k}={v}" for k, v in sorted(rr.get("values", {}).items()) if not k.endswith("_dims")
            )
            status = "ok" if rr["match"] else "MISMATCH"
            extra = f"  [{rr['error']}]" if "error" in rr else ""
            if not rr["match"] and "notes" in rr:
                extra += f"  ({'; '.join(rr['notes'])})"
            print(f"{rr['name']}: {status}  {vals}{extra}")
        print(f"suite {report['suite']}: {'all match' if report['ok'] else 'MISMATCHES: ' + ', '.join(report['mismatches'])}")
    return 0 if report["ok"] else 1


# -- argument parsing -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="chainrep",
        description="Minimal faithful dimensions of nilpotent groups over finite chain rings",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def ring_flags(p, with_k=False):
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--f", type=int, default=1)
        p.add_argument("--e", default="1", help="ramification index or 'inf'")
        p.add_argument("--n", type=int, default=1)
        if with_k:
            p.add_argument("--k", type=int, default=1)

    def fmt_flag(p):
        p.add_argument("--format", choices=["human", "csv", "json"], default="human")

    p_ring = sub.add_parser("ring", help="chain ring summary")
    ring_flags(p_ring)
    fmt_flag(p_ring)
    p_ring.set_defaults(func=_cmd_ring)

    p_ir = sub.add_parser("irreps", help="Heisenberg irreducible catalog")
    ir_sub = p_ir.add_subparsers(dest="action", required=True)
    p_list = ir_sub.add_parser("list")
    ring_flags(p_list, with_k=True)
    fmt_flag(p_list)
    p_list.set_defaults(func=_cmd_irreps)

    p_mf = sub.add_parser("minfaith", help="minimal faithful dimension")
    mf_sub = p_mf.add_subparsers(dest="target", required=True)
    for fam, with_k, extra in (
        ("heisenberg", True, None),
        ("unitriangular", False, "size"),
        ("affine", False, None),
    ):
        pp = mf_sub.add_parser(fam)
        ring_flags(pp, with_k=with_k)
        if extra:
            pp.add_argument(f"--{extra}", type=int, required=True)
        pp.add_argument("--mode", choices=["formula", "construct", "oracle", "all"], default="formula")
        fmt_flag(pp)
        pp.set_defaults(func=_cmd_minfaith)
    pp = mf_sub.add_parser("two-step")
    pp.add_argument("--table", required=True, help="JSON file with a multiplication table")
    pp.add_argument("--mode", choices=["formula", "construct", "oracle", "all"], default="formula")
    fmt_flag(pp)
    pp.set_defaults(func=_cmd_minfaith)

    p_or = sub.add_parser("oracle", help="character tables and exact search")
    or_sub = p_or.add_subparsers(dest="action", required=True)
    for action in ("table", "minfaith"):
        pp = or_sub.add_parser(action)
        pp.add_argument("--group", required=True, help="heis:p=3,f=1,e=1,n=2,k=1 / unitri:... / aff:... / gl2:p=3 / semidirect:modulus=8,multipliers=5|7 / quaternion: / table:path")
        fmt_flag(pp)
        pp.set_defaults(func=_cmd_oracle)

    p_v = sub.add_parser("verify", help="cross-validation suite")
    p_v.add_argument("--suite", default="default", help="'default' or a JSON suite path")
    fmt_flag(p_v)
    p_v.set_defaults(func=_cmd_verify)
    return ap


def main(argv=None) -> int:
    from .group_models import group_cap

    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse reports its own errors on code 2
        return int(exc.code or 0)
    try:
        group_cap()
    except ValueError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (SpecParseError, FileNotFoundError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
