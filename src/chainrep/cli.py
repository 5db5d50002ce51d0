"""Command-line front end.

Subcommands: ``ring`` (chain-ring summary), ``irreps list`` (Heisenberg
irreducible catalog), ``minfaith`` (minimal faithful dimension by
closed form, greedy solver, explicit construction, and/or oracle), ``oracle``
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
    from .minfaith_solver import _RING_KEYS, FAMILIES, FamilyInstance

    fam = FAMILIES[family]
    source = ",".join(f"{key}={flags[key]}" for key in fam.keys)
    ring_source = None if fam.ring is None else ",".join(f"{key}={flags[key]}" for key in fam.keys if key in _RING_KEYS)
    with _parse_errors(source, ring_source=ring_source):
        return FamilyInstance(family, {key: _text_value(key, flags[key]) for key in fam.keys})


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
        b.group._generator_inverses  # the oracle's first array of |G| entries: one past memory is refused here
        return b.group, b.family.describe(b)


# -- emission ---------------------------------------------------------


def _emit(args, command, parameters, result, rows, lines) -> None:
    """Print a command's result in its --format: the JSON payload (keys
    sorted), the csv rows, or the human lines."""
    if args.format == "json":
        print(json.dumps({"command": command, "parameters": parameters, "result": result}, sort_keys=True))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(rows)
    else:
        for line in lines:
            print(line)


# -- subcommand bodies ------------------------------------------------


def _cmd_ring(args) -> int:
    from .chain_ring import INF, make_ring
    from .minfaith_solver import _RING_KEYS

    params = {key: vars(args)[key] for key in _RING_KEYS}
    with _parse_errors(",".join(f"{key}={value}" for key, value in params.items()), "ring"):
        R = make_ring(*(_text_value(key, value) for key, value in params.items()))
    result = {
        "p": R.p,
        "f": R.f,
        "e": "inf" if R.e == INF else R.e,
        "n": R.n,
        "q": R.q,
        "xi": R.xi,
        "size": R.size,
        "unit_count": R.unit_count(),
        "d_invariant": R.d_invariant,
        "omega1_generators": R.omega1_generators(),
    }
    out = [list(result), list(result.values())[:-1] + ["|".join(str(x) for x in result["omega1_generators"])]]
    _emit(args, "ring", params, result, out, [f"{k}: {v}" for k, v in result.items()])
    return 0


def _cmd_irreps(args) -> int:
    from .group_models import HeisenbergGroup
    from .mackey_irreps import irrep_catalog

    b = _flag_instance("heisenberg", vars(args))
    H = HeisenbergGroup(b.ring, b.k)
    catalog = irrep_catalog(H)  # which checks that sum count * dim^2 = |G|
    rows = [{"orbit_rep": list(o.orbit_rep[0]) + [o.orbit_rep[1]], "b": o.orbit_rep[1], "level": o.level,
             "dim": o.dim, "multiplicity": o.count} for o in sorted(catalog, key=lambda o: o.orbit_rep)]
    count = sum(o.count for o in catalog)
    result = {"order": H.order, "irrep_count": count, "dim_sq_total": H.order, "catalog": rows}
    out = [["orbit_rep", "level", "dim", "multiplicity"]]
    lines = [f"order {H.order}, {count} irreducibles, sum dim^2 = {H.order}"]
    for r in rows:
        out.append(["|".join(str(x) for x in r["orbit_rep"]), r["level"], r["dim"], r["multiplicity"]])
        lines.append(f"orbit_rep={tuple(r['orbit_rep'])} level={r['level']} dim={r['dim']} multiplicity={r['multiplicity']}")
    _emit(args, "irreps", {key: vars(args)[key] for key in b.family.keys}, result, out, lines)
    return 0


def _cmd_minfaith(args) -> int:
    """Run the target's routes for --mode, oracle on, and judge them
    (minfaith_solver); a mode that no route has is a parse error."""
    from .minfaith_solver import judge, run_routes

    target, mode = args.target, args.mode
    params = {key: value for key, value in vars(args).items() if key not in ("func", "format", "target")}
    run = run_routes(_flag_instance(_TARGETS[target], params), {"two_step": target == "two-step", "oracle": True}, mode)
    if mode != "all" and mode not in run.modes.values():
        raise SpecParseError(f"{target} has no {mode} route; its routes are {', '.join(run.modes.values())}")
    agree, notes = judge(run)
    for note in notes:
        print(note, file=sys.stderr)
    if run.error is not None:
        print(f"error: {run.error}", file=sys.stderr)
        return 1
    values = {run.modes[key]: value for key, value in run.values.items() if key in run.modes}
    m = next(iter(values.values())) if values else None
    result = {"family": target, "values": values, "agree": agree}
    keys = sorted(values)
    lines = [f"{k}: {values[k]}" for k in keys]
    if m is not None:
        result["m"] = m
        lines.insert(0, str(m))
    if notes:
        result["notes"] = notes
    if run.solution is not None:
        result["solution"] = solution = run.solution.to_json()
        if solution.get("verified_faithful") is not None:
            lines.append(f"construction faithful: {solution['verified_faithful']}")
    _emit(args, "minfaith", params, result, [["family"] + keys, [target] + [values[k] for k in keys]], lines)
    if not agree and args.format == "human":
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
        out = [["dim"] + [f"C{j}(size {s})" for j, s in enumerate(T.sizes)]] + rows
        lines = [f"{desc}: order {G.order}, {T.r} classes, prime {T.prime}"] + ["  ".join(row) for row in rows]
    else:
        m, sel = orc.min_faithful_exhaustive(T)
        dims = [T.dims[c] for c in sel]
        result = {"m": m, "selection_rows": list(sel), "selection_dims": dims}
        out = [["m", "selection_dims"], [m, "|".join(str(d) for d in dims)]]
        lines = [str(m), f"selection dims: {dims}"]
    _emit(args, f"oracle-{args.action}", {"group": args.group}, result, out, lines)
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
    out = [["name", "match", "expected", "values"]]
    lines = []
    for rr in report["results"]:
        values = sorted(rr.get("values", {}).items())
        out.append([rr["name"], rr["match"], rr.get("expected", ""), "|".join(f"{k}={v}" for k, v in values)])
        vals = " ".join(f"{k}={v}" for k, v in values if not k.endswith("_dims"))
        status = "ok" if rr["match"] else "MISMATCH"
        extra = f"  [{rr['error']}]" if "error" in rr else ""
        if not rr["match"] and "notes" in rr:
            extra += f"  ({'; '.join(rr['notes'])})"
        lines.append(f"{rr['name']}: {status}  {vals}{extra}")
    lines.append(f"suite {report['suite']}: {'all match' if report['ok'] else 'MISMATCHES: ' + ', '.join(report['mismatches'])}")
    _emit(args, "verify", {"suite": args.suite}, report, out, lines)
    return 0 if report["ok"] else 1


# -- argument parsing -------------------------------------------------


_MODES = ["formula", "solver", "construct", "oracle", "all"]

# The family whose parameters each minfaith target takes as flags, and
# the help of the flags that have one.
_TARGETS = {"heisenberg": "heisenberg", "unitriangular": "unitriangular", "affine": "affine", "two-step": "table"}
_FLAG_HELP = {"e": "ramification index or 'inf'", "table": "JSON file with a multiplication table"}


def build_parser() -> argparse.ArgumentParser:
    from .minfaith_solver import _RING_DEFAULTS, _RING_KEYS, FAMILIES, VALUE_KINDS

    ap = argparse.ArgumentParser(
        prog="chainrep",
        description="Minimal faithful dimensions of nilpotent groups over finite chain rings",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def family_flags(p, keys, defaults):
        """A --key flag for each key, required unless it has a default:
        text where VALUE_KINDS names the key, as the family check converts
        it (so --e defaults to the text "1"), an integer otherwise."""
        for key in keys:
            kind = str if key in VALUE_KINDS else int
            need = {"default": kind(defaults[key])} if key in defaults else {"required": True}
            p.add_argument(f"--{key}", type=kind, help=_FLAG_HELP.get(key), **need)

    def fmt_flag(p):
        p.add_argument("--format", choices=["human", "csv", "json"], default="human")

    p_ring = sub.add_parser("ring", help="chain ring summary")
    family_flags(p_ring, _RING_KEYS, _RING_DEFAULTS)
    fmt_flag(p_ring)
    p_ring.set_defaults(func=_cmd_ring)

    p_ir = sub.add_parser("irreps", help="Heisenberg irreducible catalog")
    ir_sub = p_ir.add_subparsers(dest="action", required=True)
    p_list = ir_sub.add_parser("list")
    family_flags(p_list, FAMILIES["heisenberg"].keys, FAMILIES["heisenberg"].defaults)
    fmt_flag(p_list)
    p_list.set_defaults(func=_cmd_irreps)

    p_mf = sub.add_parser("minfaith", help="minimal faithful dimension")
    mf_sub = p_mf.add_subparsers(dest="target", required=True)
    for target, family in _TARGETS.items():
        pp = mf_sub.add_parser(target)
        family_flags(pp, FAMILIES[family].keys, FAMILIES[family].defaults)
        pp.add_argument("--mode", choices=_MODES, default="formula")
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
