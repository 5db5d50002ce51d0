"""End-to-end command-line tests: output formats, schema conformance,
exit codes, and byte determinism."""

import csv
import hashlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainrep.cli import load_default_suite, main, parse_group_spec

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    with resources.files("chainrep.data").joinpath("output_schema.json").open() as fh:
        return json.load(fh)


def check_schema(schema, payload):
    if jsonschema is not None:
        jsonschema.validate(payload, schema)


# -- ring -------------------------------------------------------------


def test_ring_human(capsys):
    code, out, _ = run_cli(capsys, "ring", "--p", "2", "--e", "inf", "--n", "2")
    assert code == 0
    assert "size: 4" in out
    assert "xi: 2" in out
    assert "d_invariant: 2" in out


def test_ring_json_schema(capsys, schema):
    code, out, _ = run_cli(
        capsys, "ring", "--p", "2", "--f", "2", "--e", "1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["command"] == "ring"
    assert payload["result"]["size"] == 16
    assert payload["result"]["unit_count"] == 12
    assert payload["result"]["d_invariant"] == 2


def test_ring_csv(capsys):
    code, out, _ = run_cli(capsys, "ring", "--p", "3", "--n", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 2
    head = dict(zip(rows[0], rows[1]))
    assert head["size"] == "9"
    assert head["unit_count"] == "6"


# -- irreps -----------------------------------------------------------


def test_irreps_json(capsys, schema):
    code, out, _ = run_cli(
        capsys, "irreps", "list", "--p", "2", "--e", "1", "--n", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    res = payload["result"]
    assert res["order"] == 64
    assert res["irrep_count"] == 22
    assert res["dim_sq_total"] == 64
    assert sum(r["multiplicity"] for r in res["catalog"]) == 22


def test_irreps_csv(capsys):
    code, out, _ = run_cli(
        capsys, "irreps", "list", "--p", "3", "--e", "1", "--n", "1", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["orbit_rep", "level", "dim", "multiplicity"]
    # F_3: 9 linear + 2 of dim 3
    assert sum(int(r[3]) for r in rows[1:]) == 11


def test_irreps_human(capsys):
    code, out, _ = run_cli(capsys, "irreps", "list", "--p", "2", "--k", "2")
    assert code == 0
    assert "sum dim^2 = 32" in out


# -- minfaith ---------------------------------------------------------


def test_minfaith_formula_human(capsys):
    code, out, _ = run_cli(
        capsys, "minfaith", "heisenberg", "--p", "2", "--f", "1", "--e", "inf", "--n", "2", "--k", "1"
    )
    assert code == 0
    assert out.splitlines()[0] == "6"


def test_minfaith_all_modes(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        "minfaith",
        "heisenberg",
        "--p",
        "2",
        "--e",
        "inf",
        "--n",
        "2",
        "--mode",
        "all",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    res = payload["result"]
    assert res["agree"] is True and res["m"] == 6
    assert res["values"]["formula"] == res["values"]["construct"] == res["values"]["oracle"] == 6
    assert res["solution"]["verified_faithful"] is True


def test_minfaith_solver_json(capsys, schema):
    # the greedy solver's summands are catalog descriptors, written as
    # objects that the output schema takes
    argv = ["minfaith", "heisenberg", "--p", "3", "--mode", "solver", "--format", "json"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    check_schema(schema, payload)
    res = payload["result"]
    assert res["values"] == {"solver": 3} and res["solution"]["total_dim"] == 3
    assert res["solution"]["summands"] == [
        {"dim": 3, "lambda_label": [0], "level": 0, "orbit_rep": [[0], 1], "stabilizer_order": 1}
    ]


def test_verify_and_minfaith_read_one_list_of_routes(capsys, monkeypatch, tmp_path, group):
    # a probe route added to the Heisenberg family gives a value in verify
    # and in minfaith --mode all, and both judge it by one rule: a probe one
    # above the closed form makes exactly the Heisenberg instances, and the
    # minfaith call, mismatch.  Each route looks its function up on its
    # module when called, so a rebound two-step construction (as
    # perfbench's tracer rebinds it) is the one both commands run
    from chainrep import minfaith_solver as solver

    calls = []
    construct = solver.construct_faithful_two_step

    def counted(G):
        calls.append(G.order)
        return construct(G)

    def probe(b):
        return solver.formula_heisenberg(b.ring.p, b.ring.f, b.ring.e, b.ring.n, b.k) + offset

    monkeypatch.setattr(solver, "construct_faithful_two_step", counted)
    monkeypatch.setitem(solver.FAMILIES["heisenberg"].routes, "probe", probe)
    instances = load_default_suite()["instances"]
    heisenberg = [inst["name"] for inst in instances if inst["family"] == "heisenberg"]
    assert len(heisenberg) == 9
    for offset in (0, 1):
        calls.clear()
        code, out, err = run_cli(capsys, "verify", "--suite", "default", "--format", "json")
        assert (code, err) == (offset, "")
        report = json.loads(out)["result"]
        for inst, rr in zip(instances, report["results"], strict=True):
            values = rr["values"]
            assert values.get("probe") == (values["formula"] + offset if inst["family"] == "heisenberg" else None), rr
        assert report["mismatches"] == (heisenberg if offset else [])
        assert len(calls) == sum(inst.get("two_step", False) for inst in instances) == 9
        code, out, err = run_cli(capsys, "minfaith", "heisenberg", "--p", "2", "--mode", "all")
        routes = f"construct: 2\nformula: 2\noracle: 2\nprobe: {2 + offset}\nsolver: 2\n"
        mismatch = "MISMATCH between routes\n" if offset else ""
        assert (code, out, err) == (offset, f"2\n{routes}construction faithful: True\n", mismatch)
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"table": group("d4").table.tolist()}))
    code, out, err = run_cli(capsys, "minfaith", "two-step", "--table", str(path), "--mode", "construct")
    assert (code, out, err, calls[9:]) == (0, "2\nconstruct: 2\nconstruction faithful: True\n", "", [8])


def test_an_unfaithful_sum_fails_verify_and_minfaith(capsys, monkeypatch, tmp_path, group):
    # every construction's kernel check raises ConstructionCheckError, so
    # with the check failing verify gives the instance an error entry and
    # exits 1, and minfaith --mode construct exits 1
    from chainrep.exactrep import InducedSum

    monkeypatch.setattr(InducedSum, "is_faithful", lambda self: False)
    unfaithful = "the sum of the models has a nontrivial kernel"
    instance = next(inst for inst in load_default_suite()["instances"] if inst["name"] == "hei3-f2")
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"name": "one", "instances": [instance]}))
    code, out, err = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    assert (code, err) == (1, "")
    assert json.loads(out)["result"]["results"] == [{
        "name": "hei3-f2", "values": {"formula": 2, "solver": 2}, "match": False, "expected": 2,
        "error": f"ConstructionCheckError: heisenberg k=1 over RingSpec(p=2, f=1, e=1, n=1): {unfaithful}",
    }]
    code, out, err = run_cli(capsys, "minfaith", "heisenberg", "--p", "2", "--mode", "construct")
    assert (code, out, err) == (1, "", f"error: ConstructionCheckError: heisenberg k=1 over RingSpec(p=2, f=1, e=1, n=1): {unfaithful}\n")
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"table": group("d4").table.tolist()}))
    code, out, err = run_cli(capsys, "minfaith", "two-step", "--table", str(path), "--mode", "construct")
    assert (code, out, err) == (1, "", f"error: ConstructionCheckError: two-step table group of order 8: {unfaithful}\n")


def test_minfaith_affine(capsys):
    code, out, _ = run_cli(
        capsys, "minfaith", "affine", "--p", "3", "--n", "2", "--mode", "all"
    )
    assert code == 0
    assert out.splitlines()[0] == "6"
    assert "construction faithful: True" in out


def test_minfaith_unitriangular(capsys):
    code, out, _ = run_cli(
        capsys, "minfaith", "unitriangular", "--p", "3", "--size", "4", "--mode", "all"
    )
    assert code == 0
    assert out.splitlines()[0] == "9"


def test_minfaith_unitriangular_size_2(capsys):
    # U_2(R) is (R, +), whose minimum is its generator count f * xi: the
    # closed form agrees with the oracle, and --mode all runs both
    from chainrep.chain_ring import make_ring
    from chainrep.group_models import UnitriangularGroup
    from chainrep.minfaith_solver import formula_unitriangular
    from chainrep.oracle import CharacterTable, min_faithful_exhaustive

    # Z/4, F_2[t]/t^2, F_9, (2, 1, 2, 3), GR(4, 2) and (3, 1, 2, 3)
    cases = [((2, 1, 1, 2), 1), ((2, 1, "inf", 2), 2), ((3, 2, "inf", 1), 2),
             ((2, 1, 2, 3), 2), ((2, 2, 1, 2), 2), ((3, 1, 2, 3), 2)]
    for params, m in cases:
        G = UnitriangularGroup(make_ring(*params), 2).to_abstract()
        assert formula_unitriangular(*params, 2) == min_faithful_exhaustive(CharacterTable(G))[0] == m, params
        argv = [arg for key, value in zip("pfen", params) for arg in (f"--{key}", str(value))]
        code, out, err = run_cli(capsys, "minfaith", "unitriangular", *argv, "--size", "2", "--mode", "all")
        assert (code, out, err) == (0, f"{m}\nformula: {m}\noracle: {m}\n", ""), params


def test_closed_form_builds_no_ring_table(capsys):
    # |G| and the closed form need no N x N ring table, so a ring of
    # 101^2 elements, past the ring table cap, still gets its answer
    for family, m in [(["heisenberg"], 10201), (["affine"], 10100), (["unitriangular", "--size", "3"], 10201)]:
        code, out, err = run_cli(capsys, "minfaith", *family, "--p", "101", "--n", "2")
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == str(m)


def test_mode_all_skips_refusing_routes(capsys):
    # past the group cap the oracle refuses: mode all leaves it out and
    # names it on stderr, while the construction, which builds no matrices
    # there and so needs no ring table, answers past the ring table cap
    # and says on stderr that its sum was not kernel-checked, and the
    # solver reads one entry for each of the 10201 central parameters
    argv = ["minfaith", "heisenberg", "--p", "101", "--n", "2", "--mode"]
    unchecked = "construct not kernel-checked: |G| = 1061520150601 exceeds cap 4096\n"
    code, out, err = run_cli(capsys, *argv, "all")
    assert (code, out) == (0, "10201\nconstruct: 10201\nformula: 10201\nsolver: 10201\n")
    assert err == unchecked + "oracle skipped: |G| = 1061520150601 exceeds cap 4096\n"
    code, out, err = run_cli(capsys, *argv, "construct")
    assert (code, out, err) == (0, "10201\nconstruct: 10201\n", unchecked)
    # the oracle alone above the cap: stdout is the three routes that ran
    argv = ["minfaith", "heisenberg", "--p", "2", "--f", "2", "--n", "3", "--mode", "all"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, "128\nconstruct: 128\nformula: 128\nsolver: 128\n")
    assert err == (
        "construct not kernel-checked: |G| = 262144 exceeds cap 4096\n"
        "oracle skipped: |G| = 262144 exceeds cap 4096\n"
    )


def test_an_unchecked_construction_says_so(capsys, tmp_path, schema):
    # Hei(F_64) has order 2^18, past the group cap: the construction
    # builds no models, and minfaith (on stderr and in its JSON notes) and
    # verify both say that its sum was not kernel-checked
    note = "construct not kernel-checked: |G| = 262144 exceeds cap 4096"
    skipped = "oracle skipped: |G| = 262144 exceeds cap 4096"
    argv = ["minfaith", "heisenberg", "--p", "2", "--f", "6", "--mode", "all"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (0, "384\nconstruct: 384\nformula: 384\nsolver: 384\n")
    assert err == f"{note}\n{skipped}\n"
    code, out, json_err = run_cli(capsys, *argv, "--format", "json")
    payload = json.loads(out)
    check_schema(schema, payload)
    assert (code, json_err, payload["result"]["notes"]) == (0, err, [note, skipped])
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"name": "h", "instances": [{"name": "h", "family": "heisenberg", "p": 2, "f": 6}]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    (rr,) = json.loads(out)["result"]["results"]
    assert (code, rr["match"], rr["notes"]) == (0, True, [note])


def test_ring_index_past_int64_is_a_cap_refusal(capsys):
    # the top digit place of F_{2^64}, 2^63, is past int64: the
    # construction is refused as past a cap, before numpy reads an index,
    # and mode all prints the closed form.  The test is the top place, not
    # the ring size: F_{3^40} is larger than 2^63, but its places are not
    code, out, err = run_cli(capsys, "minfaith", "heisenberg", "--p", "2", "--f", "64", "--mode", "all")
    assert (code, out) == (0, "1180591620717411303424\nformula: 1180591620717411303424\n")
    assert err == (
        f"solver skipped: dual of size {2**64} exceeds the explicit cap 100000\n"
        "construct skipped: digit place 2^63 exceeds int64\n"
        f"oracle skipped: |G| = {2**192} exceeds cap 4096\n"
    )
    code, out, err = run_cli(capsys, "minfaith", "heisenberg", "--p", "3", "--f", "40", "--mode", "construct")
    unchecked = f"construct not kernel-checked: |G| = {3**120} exceeds cap 4096\n"
    assert (code, out, err) == (0, f"{40 * 3**40}\nconstruct: {40 * 3**40}\n", unchecked)


def test_large_rings_are_not_enumerated(capsys, monkeypatch):
    # past the group cap the closed forms and the constructions build no
    # table of the ring and decode few elements from their indices, so
    # rings of 101^4 elements answer at once
    import numpy as np

    from chainrep.chain_ring import RingSpec

    decoded = []
    digits = RingSpec.digits

    def counted(self, idx):
        decoded.append(np.size(idx))
        if sum(decoded) > 1000:
            raise AssertionError("more than 1000 elements decoded")
        return digits(self, idx)

    monkeypatch.setattr(RingSpec, "digits", counted)
    for family, m, order, solver in [
        ("heisenberg", 104060401, 101**12, f"solver skipped: dual of size {101**4} exceeds the explicit cap 100000\n"),
        ("affine", 103030100, 101**4 * 103030100, ""),
    ]:
        code, out, err = run_cli(capsys, "minfaith", family, "--p", "101", "--n", "4", "--mode", "all")
        assert (code, out) == (0, f"{m}\nconstruct: {m}\nformula: {m}\n")
        assert err == (
            f"{solver}construct not kernel-checked: |G| = {order} exceeds cap 4096\n"
            f"oracle skipped: |G| = {order} exceeds cap 4096\n"
        )


def test_construct_json_golden(capsys):
    """`minfaith {heisenberg,affine} --mode construct --format json` on
    the default suite's Heisenberg and affine instances matches the
    committed bytes: totals, summands and certificate vectors."""
    from pathlib import Path

    pins = json.loads((Path(__file__).parent / "data" / "minfaith_construct.json").read_text())
    instances = load_default_suite()["instances"]
    assert sorted(pins) == sorted(i["name"] for i in instances if i["family"] in ("heisenberg", "affine"))
    for name, pin in pins.items():
        code, out, err = run_cli(capsys, *pin["argv"].split())
        assert (code, out, err) == (0, pin["stdout"], ""), name


def test_package_defines_no_scalar_layer(capsys):
    # the scalar ring, the Cyclotomic arithmetic and the scalar group
    # wrappers live in tests/reference.py alone: no chainrep module
    # defines them, nor the names deleted as unused, and the commands
    # print the same bytes without them
    import importlib
    import pkgutil
    from pathlib import Path

    import chainrep
    from chainrep import chain_ring, exactrep, group_models, oracle

    modules = [importlib.import_module(f"chainrep.{m.name}") for m in pkgutil.iter_modules(chainrep.__path__)]
    for name in ("RingElem", "Cyclotomic", "cyc_sum", "index_inverse", "LawGroup", "_Spanned", "_law_group",
                 "ModularPrimeNotFoundError", "MAX_PRIME_TRIES"):
        assert [m.__name__ for m in modules if hasattr(m, name)] == [], name
    removed = {
        chain_ring.RingSpec: "_canon _add_digits _neg_digits _mul_digits element zero one uniformizer "
        "from_int index from_index elements add neg sub mul valuation additive_order units neg_table",
        exactrep.MonomialRep: "character check_homomorphism",
        exactrep.DirectSumRep: "character",
        oracle.CharacterTable: "value",
        group_models.HeisenbergGroup: "mul inv stabilizer_subgroup",
        group_models.UnitriangularGroup: "mul inv",
        group_models.AffineGroup: "mul inv",
        group_models.AbstractGroup: "mul inv conj closure index_of elements to_json",
        group_models._RingFamily: "index_of _add _mul",
    }
    for cls, names in removed.items():
        assert [name for name in names.split() if hasattr(cls, name)] == [], cls
    golden = (Path(__file__).parent / "data" / "verify_default.json").read_text()
    assert run_cli(capsys, "verify", "--suite", "default", "--format", "json") == (0, golden, "")


def test_unallocatable_oracle_mask_is_a_cap_refusal(capsys, monkeypatch):
    # a cap past what memory holds: the oracle runs on the family's law,
    # and its first array of |G| entries, the coordinates that the walk
    # of the generators decodes, is refused before any memory is touched,
    # as a skipped route
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "2000000000000")
    code, out, err = run_cli(capsys, "minfaith", "heisenberg", "--p", "101", "--n", "2", "--mode", "all")
    assert (code, out) == (0, "10201\nformula: 10201\nsolver: 10201\n")
    construct, oracle = err.splitlines()
    assert construct == "construct skipped: ring of size 10201 exceeds table cap 6000"
    assert oracle.startswith("oracle skipped: |G| = 1061520150601: its coordinates cannot be allocated (")
    # the group spec walks the generators, so it is refused at those coordinates
    for action in ("minfaith", "table"):
        code, out, err = run_cli(capsys, "oracle", action, "--group", "heis:p=101,n=2")
        assert (code, out) == (2, "")
        assert err.startswith(
            "parse error: cannot build group from 'heis:p=101,n=2': "
            "|G| = 1061520150601: its coordinates cannot be allocated ("
        )


def test_unallocatable_mask_is_a_cap_refusal(capsys, monkeypatch, tmp_path):
    # the two-step routes and the oracle run on the family's law, whose
    # first array of |G| entries is the scan's mask and the oracle's
    # coordinates: past what numpy can index, each is refused, and every
    # route that needs the group is skipped
    order = 101**12
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", str(order))
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"instances": [
        {"name": "h", "family": "heisenberg", "p": 101, "n": 4, "two_step": True, "oracle": True},
    ]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    (entry,) = json.loads(out)["result"]["results"]
    assert (code, entry["match"], entry["values"]) == (0, True, {"formula": 101**4})
    refused = [
        f"{route} skipped: |G| = {order}: {what} cannot be allocated ("
        for route, what in [("formula_two_step", "a mask of its elements"),
                            ("construct_two_step", "a mask of its elements"), ("oracle", "its coordinates")]
    ]
    notes = entry["notes"][2:]  # after the solver's and the construction's ring caps
    assert len(notes) == 3 and all(note.startswith(want) for note, want in zip(notes, refused)), notes


def test_family_law_past_numpy_is_a_cap_refusal():
    # a family's law decodes rows by gathering from its coordinate arrays,
    # the first array of |G| entries that its product allocates: past
    # what numpy can index they are refused, as the table and the mask are
    from chainrep.chain_ring import CapExceededError, make_ring
    from chainrep.group_models import HeisenbergGroup

    H = HeisenbergGroup(make_ring(2, 1, 1, 1), 32)  # Hei_65(F_2): small ring tables, |G| = 2^65
    refusal = f"|G| = {2**65}: its coordinates cannot be allocated ("
    for call in (lambda: H.product(0, 1), lambda: H.names):
        with pytest.raises(CapExceededError) as info:
            call()
        assert str(info.value).startswith(refusal)


def test_a_mask_past_physical_memory_is_refused_unallocated(monkeypatch):
    # an array's size is compared with physical memory before numpy is
    # asked, so a refusal does not rest on the operating system declining
    # the allocation, which one that overcommits freely would grant
    from chainrep import group_models
    from chainrep.chain_ring import CapExceededError, make_ring

    H = group_models.HeisenbergGroup(make_ring(3, 1, 1, 1))  # |G| = 27, a 27-byte mask
    memory = {"SC_PHYS_PAGES": 13, "SC_PAGE_SIZE": 2}

    def allocate(*args, **kwargs):
        raise AssertionError("an allocation was attempted")

    monkeypatch.setattr(group_models.os, "sysconf", memory.__getitem__)
    monkeypatch.setattr(group_models.np, "zeros", allocate)
    with pytest.raises(CapExceededError) as info:
        H.center
    assert str(info.value) == (
        "|G| = 27: a mask of its elements cannot be allocated (27 bytes exceed the 26 bytes of physical memory)"
    )


def test_an_impossible_mu_is_refused_before_the_linear_rows(monkeypatch):
    # mu's shape (r, r, E) is known once the classes and the exponent are,
    # so it is refused at one byte per entry, its narrowest dtype, before
    # the linear rows and the power classes are paid for
    from chainrep import group_models, oracle
    from chainrep.chain_ring import CapExceededError

    def linear_rows(self):
        raise AssertionError("the linear rows were built")

    monkeypatch.setattr(group_models.os, "sysconf", {"SC_PHYS_PAGES": 25000, "SC_PAGE_SIZE": 4}.__getitem__)
    monkeypatch.setattr(oracle.CharacterTable, "_linear_rows", linear_rows)
    G = group_models.semidirect_cyclic(64, [1])  # Z/64: r = E = 64, and its span mask is 64 bytes
    with pytest.raises(CapExceededError) as info:
        oracle.CharacterTable(G)
    assert str(info.value) == (
        "|G| = 64: its multiplicities mu cannot be allocated (262144 bytes exceed the 100000 bytes of physical memory)"
    )


def test_irreps_past_explicit_cap(capsys):
    # the cap bounds the orbits listed: Hei(Z/101^3) has 4,090,601 of
    # them (Hei(Z/101^2), with 30,401, is a pinned form)
    code, out, err = run_cli(capsys, "irreps", "list", "--p", "101", "--n", "3")
    assert (code, out) == (1, "")
    assert err == "error: CapExceededError: catalog of 4090601 orbits exceeds the explicit cap 100000\n"


def test_minfaith_two_step_table(capsys, tmp_path, group, schema):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"table": group("d4").table.tolist()}))
    code, out, _ = run_cli(
        capsys, "minfaith", "two-step", "--table", str(path), "--mode", "all", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["result"]["m"] == 2
    assert payload["result"]["agree"] is True


def test_minfaith_csv(capsys):
    code, out, _ = run_cli(
        capsys, "minfaith", "heisenberg", "--p", "3", "--e", "1", "--n", "2", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "formula"]
    assert rows[1] == ["heisenberg", "9"]


# -- oracle -----------------------------------------------------------


def test_oracle_table_csv(capsys):
    code, out, _ = run_cli(
        capsys, "oracle", "table", "--group", "gl2:p=3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 9  # header + 8 characters
    assert sorted(int(r[0]) for r in rows[1:]) == [1, 1, 2, 2, 2, 3, 3, 4]


def test_oracle_table_json(capsys, schema):
    code, out, _ = run_cli(
        capsys, "oracle", "table", "--group", "quaternion:", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    res = payload["result"]
    assert res["order"] == 8
    assert sorted(res["dims"]) == [1, 1, 1, 1, 2]
    assert len(res["rows"]) == 5
    assert len(res["classes"]) == 5


# sha256 of `oracle table --format json` stdout: pins the prime, the
# degrees, the row order and every exact value.
TABLE_SHA256 = {
    "gl2:p=3": "5b3e5419a180b1a24f0d8eb3f4418f132bd13046745f4df355277f7b89789bc9",
    "gl2:p=5": "15d2d8a5aea761392d546528d018160441cb0847eff830666d62891bd4966fdb",
    "heis:p=3,f=1,e=1,n=2,k=1": "f592d87a8d758caae8e5d91d7cd5ab8efa802002eef997246785e774674a65c0",
    "semidirect:modulus=27,multipliers=2": "6df1d91c2bf8ae0b0228e95b88d3c906df433b2a40f9031d71c435ad0c08356f",
}


def test_oracle_table_json_bytes_frozen(capsys):
    for spec, digest in TABLE_SHA256.items():
        code, out, _ = run_cli(capsys, "oracle", "table", "--group", spec, "--format", "json")
        assert code == 0, spec
        assert hashlib.sha256(out.encode()).hexdigest() == digest, spec


def test_oracle_minfaith(capsys, schema):
    code, out, _ = run_cli(
        capsys,
        "oracle",
        "minfaith",
        "--group",
        "semidirect:modulus=8,multipliers=7,h_order=4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["result"]["m"] == 3


def test_oracle_minfaith_human(capsys):
    code, out, _ = run_cli(capsys, "oracle", "minfaith", "--group", "heis:p=2,e=1,n=2")
    assert code == 0
    assert out.splitlines()[0] == "4"


def test_group_spec_parsing():
    G, desc = parse_group_spec("semidirect:modulus=4,multipliers=3")
    assert G.order == 8
    G, _ = parse_group_spec("aff:p=2,f=2")
    assert G.order == 12
    G, _ = parse_group_spec("unitri:p=3,size=3")
    assert G.order == 27


def test_group_spec_table_forms(tmp_path, group):
    path = tmp_path / "d4.json"
    path.write_text(json.dumps({"table": group("d4").table.tolist()}))
    for spec in (f"table:{path}", f"table:path={path}"):
        G, desc = parse_group_spec(spec)
        assert G.order == 8
        assert desc == f"table from {path}"


def test_malformed_table_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "table.json"
    for text in (
        '{"table": [[0,1],[1,0', "[1, 2]", '{"names": []}', '{"table": [[0, 1], [0, 1]]}',
        '{"table": [[0, 1], [1, 0]], "names": ["e"]}', '{"table": [[0, 1], [1, 0]], "names": 5}',
    ):
        path.write_text(text)
        for argv in (
            ["oracle", "table", "--group", f"table:{path}"],
            ["minfaith", "two-step", "--table", str(path), "--mode", "all"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, (text, argv)
            assert err.startswith("parse error:") and out == ""


@pytest.mark.parametrize(
    "rows",
    [[[0, 1], [1, False]], [[0, 1], [1, "0"]], [[0.0, 1.9], [1, 0]], [[0, 1], [1, 2**64]]],
    ids=["bool", "string", "float", "too-big"],
)
def test_table_entries_must_be_integers(capsys, tmp_path, rows):
    # numpy reads each of these rows as a table of Z/2 (or overflows):
    # the entries are checked first, as ints in [0, n) and not bools
    path = tmp_path / "table.json"
    path.write_text(json.dumps({"table": rows}))
    for argv in (
        ["oracle", "table", "--group", f"table:{path}"],
        ["minfaith", "two-step", "--table", str(path), "--mode", "all"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("parse error:") and "entries are integers in [0, 2)" in err, argv


# JSON values of every kind, and tables: a cyclic group's table with a
# few entries swapped for near misses (false for 0, "1" for 1, 1.9, 2^64,
# out of range) or for any JSON value.  Strings come from a short list:
# st.text would first build hypothesis's unicode cache, about 1.5 s
WORDS = st.sampled_from(["", "0", "1", "a", "table", "names"])
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False, allow_infinity=False) | WORDS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(WORDS, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _near_tables(draw):
    n = draw(st.integers(1, 3))
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        v = rows[a][b]
        near = [bool(v), str(v), float(v), v + 0.9, 2**64, -1, n]
        rows[a][b] = draw(st.sampled_from(near) | JSON_VALUES)
    return rows


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.fixed_dictionaries({"table": _near_tables()}, optional={"names": st.lists(JSON_VALUES, max_size=3)})
    | st.fixed_dictionaries({"table": JSON_VALUES}, optional={"names": JSON_VALUES})
    | JSON_VALUES
)
def test_fuzzed_tables_never_crash(capsys, tmp_path, obj):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "oracle", "table", "--group", f"table:{path}")
    assert code in (0, 2), err
    if code == 2:
        assert out == "" and err.startswith("parse error:") and err.count("\n") == 1 and err.endswith("\n")
    else:
        assert all(type(x) is int for row in obj["table"] for x in row)


def test_bad_oracle_cap_setting_is_a_parse_error(capsys, tmp_path, monkeypatch):
    path = _tiny_suite(tmp_path, expected=2)
    for bad in ("ten", "0", "-1"):
        monkeypatch.setenv("CHAINREP_ORACLE_CAP", bad)
        for argv in (
            ["oracle", "minfaith", "--group", "quaternion:"],
            ["minfaith", "heisenberg", "--p", "2", "--mode", "all"],
            ["verify", "--suite", str(path)],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err == f"parse error: CHAINREP_ORACLE_CAP must be a positive integer, got {bad!r}\n"


def test_group_spec_errors():
    from chainrep.cli import SpecParseError

    for bad in [
        "nocolon",
        "unknown:p=2",
        "heis:p=notanint",
        "semidirect:modulus=8",
        "heis:junk",
    ]:
        with pytest.raises(SpecParseError):
            parse_group_spec(bad)


# -- verify -----------------------------------------------------------


def _tiny_suite(tmp_path, expected):
    suite = {
        "name": "tiny",
        "instances": [
            {
                "name": "hei3-f2",
                "family": "heisenberg",
                "p": 2,
                "f": 1,
                "e": 1,
                "n": 1,
                "k": 1,
                "expected": expected,
                "oracle": True,
            }
        ],
    }
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    return path


def test_verify_custom_suite_ok(capsys, tmp_path, schema):
    path = _tiny_suite(tmp_path, expected=2)
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    assert payload["result"]["ok"] is True


def test_verify_custom_suite_mismatch(capsys, tmp_path, monkeypatch):
    path = _tiny_suite(tmp_path, expected=5)
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path))
    assert code == 1
    assert "MISMATCH" in out
    # a mismatching instance's human line says why: its only route skipped
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "10")
    instance = {"name": "gl2-f3", "family": "gl2", "p": 3, "expected": 2}
    path.write_text(json.dumps({"name": "cap", "instances": [instance]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path))
    assert code == 1
    assert out.splitlines()[0] == "gl2-f3: MISMATCH    (oracle skipped: |G| = 48 exceeds cap 10; no route gave a value)"
    # an error entry keeps the notes of the routes that ran before it
    monkeypatch.delenv("CHAINREP_ORACLE_CAP")
    instance = {"name": "z9-by-2", "family": "semidirect", "modulus": 9, "multipliers": [2], "two_step": True}
    path.write_text(json.dumps({"name": "error", "instances": [instance]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["result"]["results"] == [{
        "name": "z9-by-2", "values": {"orbit_bound": 6}, "match": False, "notes": ["action faithful"],
        "error": "NotTwoStepError: group is not a p-group",
    }]


def test_verify_csv(capsys, tmp_path):
    path = _tiny_suite(tmp_path, expected=2)
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "match", "expected", "values"]
    assert rows[1][0] == "hei3-f2" and rows[1][1] == "True"


def test_refused_route_is_skipped(capsys, tmp_path, monkeypatch, schema):
    # the unitriangular closed form answers in residue characteristic 2,
    # where the oracle agrees with it; only a cap refuses a route
    cases = {
        "u4-f2": ({"p": 2, "size": 4}, 4),
        "u5-f2": ({"p": 2, "size": 5}, 8),
        "u3-z4": ({"p": 2, "e": 1, "n": 2, "size": 3}, 4),
        "u4-z4": ({"p": 2, "e": 1, "n": 2, "size": 4}, 16),
    }
    instances = [
        dict(params, name=name, family="unitriangular", oracle=True, expected=m)
        for name, (params, m) in cases.items()
    ]
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"name": "char2", "instances": instances}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    check_schema(schema, payload)
    results = payload["result"]["results"]
    assert [rr["name"] for rr in results] == list(cases)
    for rr, (_, m) in zip(results, cases.values()):
        assert rr["match"] is True and rr["values"]["oracle"] == m, rr
        assert rr["values"]["formula"] == m and "error" not in rr, rr
        assert "notes" not in rr, rr
    argv = ["minfaith", "unitriangular", "--p", "2", "--size", "4", "--mode"]
    code, out, err = run_cli(capsys, *argv, "all")
    assert (code, out, err) == (0, "4\nformula: 4\noracle: 4\n", "")
    code, out, err = run_cli(capsys, *argv, "formula")
    assert (code, out, err) == (0, "4\nformula: 4\n", "")
    # an oracle past the group cap is skipped in the same way
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "20")
    instance = {"name": "hei3-f3", "family": "heisenberg", "p": 3, "oracle": True, "expected": 3}
    path.write_text(json.dumps({"name": "cap", "instances": [instance]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path), "--format", "json")
    assert code == 0
    (rr,) = json.loads(out)["result"]["results"]
    assert rr["match"] is True and rr["notes"] == [
        "construct not kernel-checked: |G| = 27 exceeds cap 20",
        "oracle skipped: |G| = 27 exceeds cap 20",
    ], rr


def test_malformed_suite_is_a_parse_error(capsys, tmp_path):
    path = tmp_path / "suite.json"
    for text in (
        '{"instances": [',
        "[1, 2]",
        '{"name": "no instances"}',
        '{"instances": {"name": "d4"}}',
        '{"instances": [7]}',
        '{"instances": [{"name": "d4", "modulus": 4, "multipliers": [3]}]}',
        '{"instances": [{"family": "quaternion"}]}',
        '{"instances": [{"name": 5, "family": "quaternion", "expected": 3}]}',
        '{"instances": [{"name": ["a"], "family": "quaternion"}]}',
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--suite", str(path))
        assert code == 2, text
        assert out == "" and err.startswith("parse error: cannot build suite from"), text


def test_suite_instance_keys_are_checked(capsys, tmp_path):
    # a misspelt, missing or foreign key, a value of the wrong type, or
    # an unknown family, is a parse error naming the instance, not a
    # route mismatch
    path = tmp_path / "suite.json"
    for instance, reason in (
        ({"family": "semidirect", "multiplers": [3]}, "unknown keys multiplers"),
        ({"family": "semidirect", "multipliers": [3]}, "missing keys modulus"),
        ({"family": "heisenberg", "p": 2, "k": 1, "two_step": True, "size": 3}, "unknown keys size"),
        ({"family": "gl2"}, "missing keys p"),
        ({"family": "dihedral", "p": 2}, "unknown family 'dihedral'"),
        ({"family": ["gl2"], "p": 2}, "unknown family ['gl2']"),
        ({"family": "semidirect", "modulus": 8, "multipliers": 3}, "multipliers = 3, not a non-empty list of integers"),
        ({"family": "gl2", "p": "2"}, 'p = "2", not an integer'),
        ({"family": "gl2", "p": 2, "oracle": "no"}, 'oracle = "no", not true or false'),
        ({"family": "semidirect", "modulus": 8, "multipliers": [3], "h_order": True}, "h_order = true, not an integer or null"),
        # well-typed parameters that build no group, caught at load time
        ({"family": "heisenberg", "p": 4}, "no chain ring: p = 4 is not prime"),
        ({"family": "gl2", "p": 4}, "no chain ring: p = 4 is not prime"),
        ({"family": "affine", "p": 2, "n": 0}, "no chain ring: length n = 0 invalid"),
        ({"family": "semidirect", "modulus": 0, "multipliers": [1]}, "modulus must be >= 2"),
        ({"family": "semidirect", "modulus": 8, "multipliers": [3], "h_order": 0}, "h_order must be >= 1"),
        ({"family": "heisenberg", "p": 2, "k": 0}, "k must be >= 1"),
        ({"family": "unitriangular", "p": 2, "size": 1}, "matrix size must be >= 2"),
        ({"family": "semidirect", "modulus": 8, "multipliers": [2]}, "multiplier 2 is not a unit mod 8"),
        ({"family": "semidirect", "modulus": 8, "multipliers": [2], "h_order": 4}, "multiplier 2 is not a unit mod 8"),
        ({"family": "semidirect", "modulus": 8, "multipliers": [3], "h_order": 3}, "multiplier order does not divide h_order"),
    ):
        path.write_text(json.dumps({"instances": [dict(instance, name="x")]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(path))
        assert code == 2 and out == "", instance
        assert err == f"parse error: cannot build suite from {str(path)!r}: instance 'x' has {reason}\n"


def test_h_order_takes_one_multiplier(capsys, tmp_path):
    # with h_order the group is built from one multiplier, so a second one
    # is refused by the spec and the suite alike, not dropped from the
    # group while the orbit bound closes over it
    reason = "multipliers = [7, 3], not one multiplier, with h_order = 2"
    spec = "semidirect:modulus=8,multipliers=7|3,h_order=2"
    code, out, err = run_cli(capsys, "oracle", "minfaith", "--group", spec)
    assert (code, out, err) == (2, "", f"parse error: cannot build group from {spec!r}: {reason}\n")
    path = tmp_path / "suite.json"
    instance = {"name": "x", "family": "semidirect", "modulus": 8, "multipliers": [7, 3], "h_order": 2}
    path.write_text(json.dumps({"instances": [instance]}))
    code, out, err = run_cli(capsys, "verify", "--suite", str(path))
    assert (code, out) == (2, "")
    assert err == f"parse error: cannot build suite from {str(path)!r}: instance 'x' has {reason}\n"


def test_suite_tables_are_read_by_the_check(capsys, tmp_path, monkeypatch, group):
    # the suite check reads each table instance's table: a malformed or
    # missing one is a parse error naming the instance, and a good one
    # is read once, by the check, and not again by the routes
    from chainrep.group_models import AbstractGroup

    from_json = AbstractGroup.from_json
    reads = []
    monkeypatch.setattr(AbstractGroup, "from_json", staticmethod(lambda obj: reads.append(1) or from_json(obj)))
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"instances": [{"name": "d4", "family": "table", "table": {"table": group("d4").table.tolist()}}]}))
    code, out, _ = run_cli(capsys, "verify", "--suite", str(path))
    assert (code, len(reads)) == (0, 1), out
    for table, reason in (
        ({"table": [[0, 1], [1, False]]}, "a group table's entries are integers in [0, 2)"),
        ({"table": [[0, 1], [0, 1]]}, "no two-sided identity"),
        ({"table": [[0, 1], [1, 1]]}, "inverse"),  # a monoid: 1 1 = 1
        (str(tmp_path / "missing.json"), "No such file or directory"),
    ):
        path.write_text(json.dumps({"instances": [{"name": "x", "family": "table", "table": table}]}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(path))
        assert (code, out) == (2, ""), table
        assert err.startswith(f"parse error: cannot build suite from {str(path)!r}: instance 'x' has "), table
        assert reason in err, table


def test_default_suite_loads():
    suite = load_default_suite()
    assert suite["name"] == "default"
    assert len(suite["instances"]) == 23
    names = [i["name"] for i in suite["instances"]]
    assert len(names) == len(set(names))


# -- exit codes and determinism --------------------------------------


def test_exit_code_parse_errors(capsys):
    code, _, err = run_cli(capsys, "ring", "--p", "2", "--e", "bogus")
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(capsys, "oracle", "table", "--group", "wat:x=1")
    assert code == 2
    code, _, err = run_cli(capsys, "minfaith", "two-step", "--table", "/nonexistent.json")
    assert code == 2
    for spec, unknown in (("gl2:p=3,n=2,bogus=1", "bogus, n"), ("quaternion:foo=1", "foo")):
        code, out, err = run_cli(capsys, "oracle", "minfaith", "--group", spec)
        assert code == 2 and out == ""
        assert err.startswith("parse error:") and f"unknown keys {unknown}" in err
    for argv in (
        ["irreps", "list", "--p", "2", "--k", "0"],
        ["minfaith", "heisenberg", "--p", "2", "--k", "0"],
        ["minfaith", "unitriangular", "--p", "3", "--size", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("parse error: cannot build group from"), argv
    # semidirect parameters are range-checked before anything is built
    for params, reason in (
        ("modulus=0,multipliers=1", "modulus must be >= 2"),
        ("modulus=1,multipliers=1", "modulus must be >= 2"),
        ("modulus=-3,multipliers=1", "modulus must be >= 2"),
        ("modulus=8,multipliers=3,h_order=0", "h_order must be >= 1"),
        ("modulus=8,multipliers=3,h_order=-2", "h_order must be >= 1"),
    ):
        spec = f"semidirect:{params}"
        code, out, err = run_cli(capsys, "oracle", "minfaith", "--group", spec)
        assert code == 2 and out == "", spec
        assert err == f"parse error: cannot build group from {spec!r}: {reason}\n"


def test_bad_ring_is_a_parse_error(capsys):
    for ring in (["--p", "4"], ["--p", "2", "--e", "0"], ["--p", "3", "--n", "0"]):
        for argv in (
            ["ring"],
            ["irreps", "list"],
            ["minfaith", "heisenberg"],
            ["minfaith", "unitriangular", "--size", "3"],
            ["minfaith", "affine", "--mode", "all"],
        ):
            code, out, err = run_cli(capsys, *argv, *ring)
            assert code == 2, argv + ring
            assert out == "" and err.startswith("parse error: cannot build ring from"), argv + ring


def test_repeated_spec_key_is_a_parse_error(capsys):
    # the last value used to win, silently
    for spec, key in (("heis:p=2,p=3", "p"), ("semidirect:modulus=8,multipliers=3,multipliers=5", "multipliers")):
        code, out, err = run_cli(capsys, "oracle", "minfaith", "--group", spec)
        assert (code, out) == (2, ""), spec
        assert err == f"parse error: group spec {spec!r} repeats key {key!r}\n"


def test_mode_without_a_route_is_a_parse_error(capsys):
    argv = ["minfaith", "unitriangular", "--p", "3", "--size", "3", "--mode"]
    for fmt in ("human", "json"):
        code, out, err = run_cli(capsys, *argv, "construct", "--format", fmt)
        assert (code, out) == (2, ""), fmt
        assert err == "parse error: unitriangular has no construct route; its routes are formula, oracle\n"
    assert run_cli(capsys, *argv, "all")[:2] == (0, "3\nformula: 3\noracle: 3\n")


def test_suite_flags_and_names_are_checked_at_load(capsys, tmp_path):
    # pgroup_catalog on a group that is not a p-group, or with the oracle
    # off, and a name two instances share, are parse errors, not a
    # mismatch, a silently ignored flag or an ambiguous report
    path = tmp_path / "suite.json"
    z9_units = {"name": "z9-units", "family": "semidirect", "modulus": 9, "multipliers": [2]}
    hei = {"name": "hei", "family": "heisenberg", "p": 2}
    for instances, reason in (
        ([dict(z9_units, pgroup_catalog=True)], "instance 'z9-units' has pgroup_catalog = true, but |G| = 54 is not a prime power"),
        ([dict(hei, pgroup_catalog=True, oracle=False)], "instance 'hei' has pgroup_catalog = true, but the oracle is off"),
        ([dict(hei, pgroup_catalog=True)], "instance 'hei' has pgroup_catalog = true, but the oracle is off"),
        ([dict(hei, name="a"), dict(z9_units, name="a", expected=7)], "instance name 'a' is used twice"),
    ):
        path.write_text(json.dumps({"instances": instances}))
        code, out, err = run_cli(capsys, "verify", "--suite", str(path))
        assert (code, out) == (2, ""), instances
        assert err == f"parse error: cannot build suite from {str(path)!r}: {reason}\n"
    path.write_text(json.dumps({"instances": [dict(hei, pgroup_catalog=True, oracle=True)]}))
    assert run_cli(capsys, "verify", "--suite", str(path))[0] == 0


# Parameter text by key: values the families take (every group they
# build has order at most 729, so each door can run it), wrong kinds, and
# values that define no ring or group.
PARAM_TEXT = {
    "valid": {"p": ["2", "3"], "f": ["1"], "e": ["1", "2", "inf"], "n": ["1", "2"], "k": ["1"], "size": ["3"],
              "modulus": ["4", "8", "9"], "multipliers": ["3", "5", "5|7"], "h_order": ["2", "6"]},
    "kind": {"p": ["x", ""], "f": ["y"], "e": ["Inf", "2.0"], "n": ["z"], "k": ["a"], "size": ["b"],
             "modulus": ["m"], "multipliers": ["", "3|x"], "h_order": ["h"]},
    "no group": {"p": ["4", "1"], "f": ["0"], "e": ["0"], "n": ["0"], "k": ["0"], "size": ["1"],
                 "modulus": ["1", "-3"], "multipliers": ["2"], "h_order": ["0", "3"]},
}
RING_FAMILIES = ("heisenberg", "unitriangular", "affine")


@st.composite
def family_texts(draw):
    """(family, {key: text}): valid text for every family key, then up to
    two faults: a wrong kind, a value that builds no group, a missing key
    or a key the family does not take."""
    from chainrep.minfaith_solver import FAMILIES

    family = draw(st.sampled_from(RING_FAMILIES + ("gl2", "semidirect", "quaternion")))
    keys = FAMILIES[family].keys
    text = {key: draw(st.sampled_from(PARAM_TEXT["valid"][key])) for key in keys}
    for _ in range(draw(st.integers(0, 2))):
        fault = draw(st.sampled_from(["kind", "no group", "missing", "unknown"]))
        if fault == "unknown" or not keys:
            text[draw(st.sampled_from([k for k in PARAM_TEXT["valid"] if k not in keys] + ["bogus"]))] = "1"
        elif fault == "missing":
            text.pop(draw(st.sampled_from(keys)), None)
        else:
            key = draw(st.sampled_from(keys))
            text[key] = draw(st.sampled_from(PARAM_TEXT[fault][key]))
    return family, text


def _suite_value(key, text):
    if key == "multipliers":
        return [_suite_value("", part) for part in text.split("|")]
    return int(text) if text.lstrip("-").isdigit() else text


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(family_texts())
def test_every_door_takes_the_same_parameters(capsys, tmp_path, drawn):
    # an --group spec, a one-instance suite file and, for the ring
    # families, the minfaith flags accept the same parameters, and refuse
    # the others with exit 2 and the same reason
    from chainrep.minfaith_solver import FAMILIES

    family, text = drawn
    fam = FAMILIES[family]
    spec = f"{fam.spec}:" + ",".join(f"{key}={value}" for key, value in text.items())
    path = tmp_path / "suite.json"
    instance = {"name": "x", "family": family, **{key: _suite_value(key, value) for key, value in text.items()}}
    path.write_text(json.dumps({"instances": [instance]}))
    doors = {
        "spec": (["oracle", "minfaith", "--group", spec], rf"cannot build group from {re.escape(repr(spec))}: (.*)"),
        "suite": (["verify", "--suite", str(path)], rf"cannot build suite from {re.escape(repr(str(path)))}: instance 'x' has (?:no chain ring: )?(.*)"),
    }
    argparse_ints = [key for key in text if key != "e"]
    if (
        family in RING_FAMILIES
        and set(text) <= set(fam.keys)
        and all(key in text for key in fam.keys if key not in fam.defaults)
        and all(text[key].isdigit() for key in argparse_ints)
    ):
        flags = [arg for key, value in text.items() for arg in (f"--{key}", value)]
        doors["minfaith"] = (["minfaith", family, *flags, "--mode", "formula"], r"cannot build (?:ring|group) from '[^']*': (.*)")
    outcomes = {}
    for door, (argv, pattern) in doors.items():
        code, out, err = run_cli(capsys, *argv)
        if code == 2:
            match = re.fullmatch(rf"parse error: {pattern}\n", err)
            assert match and out == "", (door, err)
            outcomes[door] = match[1]
        else:
            assert code in (0, 1), (door, err)
            outcomes[door] = "accepted"
    assert len(set(outcomes.values())) == 1, outcomes


def test_exit_code_argparse(capsys):
    assert run_cli(capsys, "no-such-command")[0] == 2
    assert run_cli(capsys, "minfaith", "unitriangular", "--p", "3")[0] == 2  # size missing


def test_exit_code_compute_error(capsys, monkeypatch):
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "10")
    # the oracle route refuses a group over the cap: a computation error
    code, _, err = run_cli(
        capsys, "minfaith", "heisenberg", "--p", "2", "--n", "2", "--mode", "oracle"
    )
    assert code == 1
    assert "CapExceededError" in err
    # cap reached during spec parsing is reported as a parse error instead
    code, _, _ = run_cli(capsys, "oracle", "minfaith", "--group", "heis:p=2,e=1,n=2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "oracle", "table", "--group", "semidirect:modulus=8,multipliers=3"
    )
    assert code == 2
    assert "exceeds cap 10" in err


def test_json_byte_determinism(capsys):
    argv = ["minfaith", "heisenberg", "--p", "2", "--e", "inf", "--n", "2", "--mode", "all", "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    argv = ["oracle", "table", "--group", "gl2:p=3", "--format", "json"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


# -- output bytes -----------------------------------------------------


EMPTY = hashlib.sha256(b"").hexdigest()

# (setup, argv, exit code, sha256 of stdout, sha256 of stderr): every
# subcommand in every format, with the parse-error, cap-refusal, failure
# and mismatch forms, a suite whose instances give no value of m
# (none.json) and an error entry with notes (error.json).  Each runs in
# pin_dir, so the paths in the JSON parameters are the bare file names.
# Setup "cap10" sets CHAINREP_ORACLE_CAP=10; "mismatch" makes the
# unitriangular closed form answer 5, so that minfaith's routes disagree.
PINNED = [
    ("", "ring --p 3 --n 2", 0,
     "9bfc493f9b034f96aad4c2ee29b8a346986639c527ee35eea025a8363e851ab2",
     EMPTY),
    ("", "ring --p 3 --n 2 --format csv", 0,
     "a9fb85cf8c6ef0f5bd74f8525f18d93b6569e6434a7b8e6dbd103d626fa16598",
     EMPTY),
    ("", "ring --p 3 --n 2 --format json", 0,
     "7cf1e41af917edbfad594169bca56964db803498a3a58edd8a5a8a57fcb52d7f",
     EMPTY),
    ("", "ring --p 2 --e inf --n 3 --format json", 0,
     "405745c6653789a4d695072ab959792d79091395f8899615711c0dd4d46b11bb",
     EMPTY),
    ("", "ring --p 4", 2,
     EMPTY,
     "df1796a47b0a045d06ad91a304caed1ac86b1da576400ebf9e98154977a43c0b"),
    ("", "irreps list --p 2 --n 2", 0,
     "d25dead43dfee52a469e0bd8d6cc09776f35192aab2665b8ccfa5ad7d6a75196",
     EMPTY),
    ("", "irreps list --p 2 --n 2 --format csv", 0,
     "a2de4cccda8cbd8746a16e110c926b858640d72a73f0cd58bfe4a20667738c59",
     EMPTY),
    ("", "irreps list --p 2 --n 2 --format json", 0,
     "ac73e0164dc3ac3f0eb99f88b6dc12a44f3bbb90219b7ff5fc14070c1993ee96",
     EMPTY),
    ("", "irreps list --p 101 --n 2", 0,
     "f8ef762502b865d7839f253d2d9f6e64b0f184e24903c2e0d38a4c0da17f2a74",
     EMPTY),
    ("", "irreps list --p 101 --n 3", 1,
     EMPTY,
     "8930738311c721d067f76718ea4ca38cf1852e4c49fd22d38a5cdb6845d3e92b"),
    ("", "minfaith heisenberg --p 2 --n 2 --mode all", 0,
     "814a3e2f3f34412e795cf670851f93b833eb112f60ed86d0c4d072f003c05473",
     EMPTY),
    ("", "minfaith heisenberg --p 2 --n 2 --mode all --format csv", 0,
     "7c51db120d62140c3ceec3e6ed7d9fc23f3eee0d308014c317b1150f5955d637",
     EMPTY),
    ("", "minfaith heisenberg --p 2 --n 2 --mode all --format json", 0,
     "d66c6c6e215fe69560e8a017a39fe256aacaa6a36ce52de1de6c31fb54de5878",
     EMPTY),
    ("", "minfaith heisenberg --p 3", 0,
     "fae2b5aea3586e4b649cca47940dc0230b78590dec853573cec64825441634e2",
     EMPTY),
    ("", "minfaith heisenberg --p 4", 2,
     EMPTY,
     "df1796a47b0a045d06ad91a304caed1ac86b1da576400ebf9e98154977a43c0b"),
    ("", "minfaith heisenberg --p 7 --n 3 --mode solver", 0,
     "9e25b42ec62f79983ce46597d6c52040cb8c65435dea75c8ba3cb5214935a20e",
     EMPTY),
    ("", "minfaith heisenberg --p 2 --mode construct --format json", 0,
     "4480aa76d44d36609bf1f9d950c45064731454464a4d56a13bce02ee3762d459",
     EMPTY),
    ("", "minfaith unitriangular --p 2 --size 4 --mode all", 0,
     "a0d6d276a2c04d470bc98735ac5f1996e8ee3fcf1786cf21ba644c38bad3692b",
     EMPTY),
    ("", "minfaith unitriangular --p 2 --size 4 --mode all --format csv", 0,
     "e8d7e280f8b63ee220203d32ac25cefde5db5729117960cbe3fd02bde033778c",
     EMPTY),
    ("", "minfaith unitriangular --p 2 --size 4 --mode all --format json", 0,
     "b86619e95ebb0a03e03d69411f85850603be47c502c718b41a43f6e5ada657be",
     EMPTY),
    ("", "minfaith unitriangular --p 5 --size 4 --mode all", 0,
     "3edf38b811008d464b2f4eda9cb401b77c2f2d90923ff0355df499cb6994513d",
     "75abd06678b3e9323b332e0b5fee2bc7e07425945f4c527e959ee1d042762a71"),
    ("", "minfaith unitriangular --p 3 --size 3 --mode construct", 2,
     EMPTY,
     "4c5f298b2c3b191eff32a3befa275d02d4ff7d221fe0e9eb84d1ca41869fd4c9"),
    ("", "minfaith unitriangular --p 3", 2,
     EMPTY,
     "36ad6e69a311783ea8af07f7e1afc12b29a6353e256fa53ab0bb308283110bbc"),
    ("", "minfaith affine --p 3 --mode all", 0,
     "5350c134b86d2b9e3bf177867a18cdb1b04301680e6dc5d21f1b06f258e3399b",
     EMPTY),
    ("", "minfaith affine --p 3 --mode all --format csv", 0,
     "7c806dc460e06002b30905d7544e81f8383e59613141c2af2723a5e6eac8a255",
     EMPTY),
    ("", "minfaith affine --p 3 --mode all --format json", 0,
     "df14d00d90ed1edc383d80f5582560d2399daccfc3ec27a9175c1d02e97def1a",
     EMPTY),
    ("", "minfaith two-step --table d4.json --mode all", 0,
     "5350c134b86d2b9e3bf177867a18cdb1b04301680e6dc5d21f1b06f258e3399b",
     EMPTY),
    ("", "minfaith two-step --table d4.json --mode all --format csv", 0,
     "6db618ba95e6d3f8c6034ddb7609687d39dd8ff2b8dd13b870d84b6ee6930d27",
     EMPTY),
    ("", "minfaith two-step --table d4.json --mode all --format json", 0,
     "083d09c3ef330df0d5c52c5f6346b0a7bc0c2e9f96a639deffa9fb7c872c13c8",
     EMPTY),
    ("", "minfaith two-step --table z2.json --mode all", 1,
     EMPTY,
     "20ec450db4aa6d0d3356277d4d30b9942b4fe4ebcf74897c12afada85c612594"),
    ("", "minfaith two-step --table z2.json --mode oracle --format json", 0,
     "567b28a3485caf04fdb70b8bb1b52c1b955b1055075209b8cf41ba511de24a20",
     EMPTY),
    ("mismatch", "minfaith unitriangular --p 2 --size 4 --mode all", 1,
     "d1d5c707a1923eb3fc210134dce3e39449f68d9d857f96ca6ea880556b36b7ca",
     "ab51b2d88caab9be22e99213e325baa4ee709902ea997409f78ae1f4688af079"),
    ("mismatch", "minfaith unitriangular --p 2 --size 4 --mode all --format csv", 1,
     "bbae77593f5947efb1aeed7a38155ac9d1154941b381632436deee38cd2b3831",
     EMPTY),
    ("mismatch", "minfaith unitriangular --p 2 --size 4 --mode all --format json", 1,
     "b7a5b59f63aec474a303bbcdca2016020b536a066eb343d3d2314be80acb1e41",
     EMPTY),
    ("", "oracle table --group gl2:p=3", 0,
     "e94d71b5fb7c0a917712defa2e219bcae4ae29d8f1577ec0fa3f0f16b21061bf",
     EMPTY),
    ("", "oracle table --group gl2:p=3 --format csv", 0,
     "09a2a4edc4438e735538a4fa5e9c2192c718e50a5adb8e2ee16888961adaf162",
     EMPTY),
    ("", "oracle table --group quaternion: --format json", 0,
     "f2eccd3eeb922cf0f7e731e666c68e213892544b6e0313a68fc3720bd58d8d1b",
     EMPTY),
    ("", "oracle table --group wat:x=1", 2,
     EMPTY,
     "cb098f061fa925be912ba7f96da35992a267cf78edab89e24e7cdb94c5c7e5ac"),
    ("", "oracle minfaith --group gl2:p=3", 0,
     "780fd08210826599d922ebcc88471874e15c8de669b54d7d60d9e41178674c92",
     EMPTY),
    ("", "oracle minfaith --group gl2:p=3 --format csv", 0,
     "520647c726f6bfd29c825ddd34ab9227f3132e12f0cf1bab24fb0ec9f8b413d7",
     EMPTY),
    ("", "oracle minfaith --group gl2:p=3 --format json", 0,
     "e08e9eecf9af2718529a756b082800cb16baeee960489d60f2a41d35b2681f2d",
     EMPTY),
    ("", "oracle minfaith --group gl2:p=3,bogus=1", 2,
     EMPTY,
     "310ebca698ffe8cf1a6d76457466fc50fa8be8c02a3e5d0d59dafcab0bad9209"),
    ("", "verify --suite ok.json", 0,
     "702002cef4b6ff695ac4231352d4e92e3f267ec3988225b9de76a52731b91e17",
     EMPTY),
    ("", "verify --suite ok.json --format csv", 0,
     "099515fdd30bbd3c9064f23ac7ea015ef325b6d0b84a501875de99ad6a5fee6a",
     EMPTY),
    ("", "verify --suite ok.json --format json", 0,
     "116574681719c9cd897e854e7c412c16b98c7f31c452c212397f3e862351c6ac",
     EMPTY),
    ("", "verify --suite bad.json", 1,
     "e67d9674409de62810631e2f89d104cde50b426087834afe3cd9173d28bd0757",
     EMPTY),
    ("", "verify --suite bad.json --format csv", 1,
     "85b8ccf29998bbfb0af0ffa10629e1c9cb207505407c64b257b522a74eb156ae",
     EMPTY),
    ("", "verify --suite bad.json --format json", 1,
     "549c899511b03e1e9ef468f19d843dc692a79d8d166c544f4d2afe1d67f5c0f4",
     EMPTY),
    ("cap10", "verify --suite cap.json", 1,
     "a46bafcc3ba9fe69ab85fe09f735b4dc62bb8f0f9054fd1d9a6fc930d9ecc270",
     EMPTY),
    ("cap10", "verify --suite none.json", 1,
     "457f7847c1c5b9e0452f5b4688c40e4e65b628648e59e0d0d10f90ab39f39134",
     EMPTY),
    ("cap10", "verify --suite none.json --format json", 1,
     "81011fd18e3f270011ad5258bf7964e9d0d8a67e8ce2fb593f749762550de010",
     EMPTY),
    ("", "verify --suite error.json", 1,
     "a86e05f8c4090381598bdbcbb62299780a7f05f4e3024839ead9bc58c9dccc0c",
     EMPTY),
    ("", "verify --suite error.json --format json", 1,
     "7c2bd9cb2ffecb9742f374cc14cd21eb50d9358a83f79a6d0631fbce871742b2",
     EMPTY),
    ("", "minfaith heisenberg --p 2 --f 6 --mode all --format json", 0,
     "df67b83d8001bdd5990b03bcce2190d0e862dfbdf3de91fe387add5ad141c980",
     "db7544ada163d2bebcdd4dba57db634c3d7dac9e98cd3e775c8b724983caaeb1"),
    ("cap10", "minfaith heisenberg --p 2 --n 2 --mode oracle", 1,
     EMPTY,
     "4a9d70ed08b4f5ff856f8bb64db1da03335066b0d52c170bd58be2da1fc86641"),
]


@pytest.fixture(scope="module")
def pin_dir(tmp_path_factory):
    """A directory holding the suites and tables the pinned forms read."""
    from chainrep.group_models import semidirect_cyclic

    files = {
        "ok.json": {"name": "pins", "instances": [
            {"name": "hei3-f2", "family": "heisenberg", "p": 2, "oracle": True, "expected": 2},
            {"name": "aff-f3", "family": "affine", "p": 3, "oracle": True, "expected": 2},
            {"name": "z4-by-3", "family": "semidirect", "modulus": 4, "multipliers": [3], "expected": 2},
            {"name": "d4-table", "family": "table", "table": "d4.json", "two_step": True, "expected": 2},
        ]},
        "bad.json": {"name": "bad", "instances": [
            {"name": "hei3-f2", "family": "heisenberg", "p": 2, "expected": 5},
            {"name": "z2", "family": "table", "table": "z2.json", "two_step": True},
        ]},
        "cap.json": {"name": "cap", "instances": [{"name": "gl2-f3", "family": "gl2", "p": 3, "expected": 2}]},
        "none.json": {"name": "none", "instances": [
            {"name": "g", "family": "gl2", "p": 3},
            {"name": "s", "family": "semidirect", "modulus": 4, "multipliers": [3], "oracle": False},
        ]},
        "error.json": {"name": "error", "instances": [
            {"name": "z9-by-2", "family": "semidirect", "modulus": 9, "multipliers": [2], "two_step": True},
        ]},
        "d4.json": {"table": semidirect_cyclic(4, [3]).table.tolist()},
        "z2.json": {"table": [[0, 1], [1, 0]]},
    }
    path = tmp_path_factory.mktemp("pins")
    for name, obj in files.items():
        (path / name).write_text(json.dumps(obj))
    return path


@pytest.mark.parametrize("setup, argv, code, out_sha, err_sha", PINNED, ids=[f"{s} {a}".strip() for s, a, *_ in PINNED])
def test_output_bytes_pinned(capsys, monkeypatch, pin_dir, setup, argv, code, out_sha, err_sha):
    from chainrep import minfaith_solver

    monkeypatch.chdir(pin_dir)
    if setup == "cap10":
        monkeypatch.setenv("CHAINREP_ORACLE_CAP", "10")
    if setup == "mismatch":
        monkeypatch.setattr(minfaith_solver, "formula_unitriangular", lambda *args: 5)
    got, out, err = run_cli(capsys, *argv.split())
    digests = (got, hashlib.sha256(out.encode()).hexdigest(), hashlib.sha256(err.encode()).hexdigest())
    assert digests == (code, out_sha, err_sha), (out, err)


# sha256 of `--help` stdout at 80 columns for each command whose flags
# are made from a family's keys: pins the flags' order, metavars, help and
# which are required
HELP_PINNED = {
    "ring": "16b84913f5b1e3597cb90fade0ac051e3475ab79bb91096a32a606bc8624dd6f",
    "irreps list": "c9d5ba99b5bc1a222fdc625b3728f27d8e906f936794a841341044a424181ed8",
    "minfaith heisenberg": "0c9e204b1cc621f40c9aa2fb231f49d1ac3d05c51aa7136d6012f9d7614c78e9",
    "minfaith unitriangular": "6abe549a3e2c9445c08ad0cf35d17cb685bee8ff27fa78887db15cec55ca001c",
    "minfaith affine": "b7917613f2c4f87e018a3be0a88804286930445b1798fc77625233d2b6381971",
    "minfaith two-step": "c328fff8147faf04a56ca7721cfe329c62c60bc3ab7cf76a12381680faebc9f3",
}


@pytest.mark.parametrize("command", HELP_PINNED)
def test_help_bytes_pinned(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_cli(capsys, *command.split(), "--help")
    assert (code, hashlib.sha256(out.encode()).hexdigest(), err) == (0, HELP_PINNED[command], ""), out


# -- tooling ----------------------------------------------------------


def test_benchmark_tracer_installs():
    # perfbench's tracer wraps functions and methods by name; one that
    # moved or was renamed fails here, not only in a traced benchmark run
    import subprocess
    import sys
    from pathlib import Path

    # and two benchmark instances run with it installed: U_4(F_3) calls
    # formula_unitriangular, Hei(Z/16) formula_two_step(G, scan) and
    # construct_faithful_two_step(G), so a changed signature fails here too
    code = "\n".join([
        'import sys; sys.path[:0] = ["src", "perfbench"]; import tracer, workloads; tracer.install(tracer.Tracer())',
        'for workload, name in [("oracle-pgroups", "U_4(F_3)"), ("construct-4096", "Hei(Z/16)")]:',
        '    (inst,) = [i for i in workloads.build_inputs(workload, 0, 0) if i.name == name]',
        '    values, problems = inst.run()',
        '    assert values and not problems, (name, values, problems)',
    ])
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_numpy_ma_unloaded():
    # numpy 2.4 imports numpy.ma on the first np.unique without return
    # arrays, or np.isin by sorting: 10-13 ms inside the first timed call
    # of a fresh process, which no command needs
    import subprocess
    import sys
    from pathlib import Path

    commands = [
        ["verify", "--suite", "default"],
        ["minfaith", "heisenberg", "--p", "3", "--n", "2", "--mode", "all"],
        ["minfaith", "affine", "--p", "3", "--n", "2", "--mode", "all"],
        ["oracle", "minfaith", "--group", "heis:p=3,n=2"],
    ]
    code = "\n".join([
        'import contextlib, io, sys; sys.path.insert(0, "src"); from chainrep import cli',
        f'for argv in {commands!r}:',
        '    with contextlib.redirect_stdout(io.StringIO()):',
        '        assert cli.main(argv) == 0, argv',
        '    assert "numpy.ma" not in sys.modules, argv',
    ])
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_src_modules_use_every_import():
    # a name a module imports and never reads is left behind by a
    # deletion: each import of src/chainrep, a function's own included,
    # is read somewhere in its module, or listed in __all__
    import ast
    from pathlib import Path

    unused = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "chainrep").glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                read |= set(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in read]
    assert unused == []


def test_src_defines_no_name_only_tests_read():
    # API that only the tests read is left behind by a deletion: each
    # function, class and method of src/chainrep (dunders aside) is named
    # in src/chainrep or perfbench more often than it is defined there.
    # perfbench counts, as its tracer finds what it wraps by name
    import ast
    from collections import Counter
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "chainrep").glob("*.py"))
    files = src + sorted((root / "perfbench").glob("*.py"))
    named = Counter(re.findall(r"\w+", "\n".join(path.read_text() for path in files)))  # \b-bounded words
    defined = {}
    for path in src:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not re.fullmatch(r"__\w+__", node.name):
                defined.setdefault(node.name, []).append(f"{path.name}:{node.lineno} {node.name}")
    unread = [at for name, ats in defined.items() if named[name] <= len(ats) for at in ats]
    assert unread == []
