"""Acceptance gate: the headline results and structural guarantees,
one printed PASS/FAIL line per criterion.

Every comparison here is an exact integer or exact cyclotomic equality
(tolerance zero).  The closed forms, the greedy solver, the explicit
matrix constructions, and the brute-force character-table search are
independent routes; the gate checks that they coincide everywhere they
overlap.
"""

import contextlib
import random

from chainrep.chain_ring import INF
from chainrep.char_duality import character_weights, psi, socle_restriction, spans_dual
from chainrep.exactrep import DirectSumRep, LinearChar, MonomialRep
from chainrep.mackey_irreps import annihilator_indices, irrep_catalog
from chainrep.minfaith_solver import (
    construct_faithful_affine,
    construct_faithful_heisenberg,
    formula_heisenberg,
    formula_unitriangular,
    orbit_lower_bound,
    solve_pgroup,
)
from chainrep.oracle import catalog_from_table, min_faithful_exhaustive
from reference import (
    Cyclotomic,
    SymplecticModule,
    abelian_characters,
    character,
    conductor,
    cyc_sum,
    from_index,
    induced_character_formula,
    levels_lower_bound_audit,
    psi_b,
    schrodinger_dim,
)

HEIS_NAMES = [
    "hei3_f2",
    "hei3_f3",
    "hei3_f4",
    "hei3_f5",
    "hei3_z4",
    "hei3_f2t2",
    "hei3_ram222",
    "hei3_z9",
    "hei3_gr42",
    "hei5_f2",
]

RING_NAMES = [
    "f2",
    "f3",
    "f4",
    "f5",
    "z4",
    "f2t2",
    "ram222",
    "z9",
    "gr42",
    "z8",
    "f3t2",
]


@contextlib.contextmanager
def gate(capsys, label):
    """Print exactly one PASS/FAIL line for a criterion."""
    try:
        yield
    except BaseException as exc:
        with capsys.disabled():
            print(f"[FAIL] {label} :: {type(exc).__name__}: {exc}")
        raise
    else:
        with capsys.disabled():
            print(f"[PASS] {label}")


def _rows(report):
    assert report["ok"], f"default suite mismatches: {report['mismatches']}"
    return {r["name"]: r for r in report["results"]}


def test_criterion_1_heisenberg_endpoints(suite_report, ring, capsys):
    label = (
        "criterion 1: Heisenberg endpoints -- closed form = solver = "
        "construction = search at m = 2,3,5,4,6,6,9 and m = 32"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        endpoint = {
            "hei3-f2": 2,
            "hei3-f3": 3,
            "hei3-f5": 5,
            "hei3-z4": 4,
            "hei3-f2t2": 6,
            "hei3-ram222": 6,
            "hei3-z9": 9,
        }
        for name, m in endpoint.items():
            vals = rows[name]["values"]
            assert rows[name]["match"], rows[name]
            assert (
                vals["formula"]
                == vals["solver"]
                == vals["construct"]
                == vals["oracle"]
                == m
            ), (name, vals)
        # the two order-64 groups are distinguished: Z/4 gives 4, F2[t]/t^2 gives 6
        assert ring("z4").size ** 3 == ring("f2t2").size ** 3 == 64
        assert rows["hei3-z4"]["values"]["oracle"] == 4
        assert rows["hei3-f2t2"]["values"]["oracle"] == 6
        # the ramified quadratic extension of Z/2 is the same ring as F2[t]/t^2:
        # the identity on indices preserves both tables
        assert (ring("ram222").add_table == ring("f2t2").add_table).all()
        assert (ring("ram222").mul_table == ring("f2t2").mul_table).all()
        assert rows["hei3-ram222"]["values"]["oracle"] == 6
        # order-4096 instance: no search, but the construction kernel is checked
        big = rows["hei3-gr42"]
        assert big["match"] and "oracle" not in big["values"]
        assert (
            big["values"]["formula"]
            == big["values"]["solver"]
            == big["values"]["construct"]
            == 32
        )
        sol = construct_faithful_heisenberg(ring("gr42"), 1)
        assert sol.total_dim == 32 and sol.verified_faithful is True


def test_criterion_2_unitriangular(suite_report, capsys):
    label = (
        "criterion 2: unitriangular U3(F3) = 3 and U4(F3) = 9 match the "
        "k-fold Heisenberg form (U4(F5) search skipped: order 15625 "
        "exceeds the 4096 cap; closed form gives 25)"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        assert rows["u3-f3"]["match"] and rows["u4-f3"]["match"]
        assert (
            rows["u3-f3"]["values"]["oracle"]
            == formula_unitriangular(3, 1, 1, 1, 3)
            == formula_heisenberg(3, 1, 1, 1, 1)
            == 3
        )
        assert (
            rows["u4-f3"]["values"]["oracle"]
            == formula_unitriangular(3, 1, 1, 1, 4)
            == formula_heisenberg(3, 1, 1, 1, 2)
            == 9
        )
        # monotone under the corner embedding U3 < U4: searched over F3,
        # closed form over F5
        assert rows["u3-f3"]["values"]["oracle"] <= rows["u4-f3"]["values"]["oracle"]
        assert formula_unitriangular(5, 1, 1, 1, 3) == 5
        assert formula_unitriangular(5, 1, 1, 1, 4) == 25


def test_criterion_3_two_step(suite_report, group, heis, capsys):
    label = (
        "criterion 3: two-step form sqrt([G:Z]) + d'(Z) - 1 = search on "
        "D4, Q8, M16, both extraspecial 27-groups, Hei3(Z/4)"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        want = {
            "d4": 2,
            "q8": 2,
            "m16": 2,
            "m27": 3,
            "hei3-f3": 3,
            "hei3-z4": 4,
        }
        for name, m in want.items():
            vals = rows[name]["values"]
            assert rows[name]["match"], rows[name]
            assert (
                vals["formula_two_step"]
                == vals["construct_two_step"]
                == vals["oracle"]
                == m
            ), (name, vals)
        # the two extraspecial groups of order 27 are genuinely distinct types
        exp3 = heis("hei3_f3").to_abstract()
        exp9 = group("m27")
        assert exp3.order == exp9.order == 27
        assert exp3.exponent == 3 and exp9.exponent == 9


def test_criterion_4_affine(suite_report, ring, capsys):
    label = (
        "criterion 4: affine groups -- search = q^n - q^(n-1) on "
        "Aff(F3), Aff(Z/4), Aff(Z/9), Aff(F4), with kernel-checked "
        "induced constructions of the same degree"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        want = {
            "aff-f3": (3, 1, 2),
            "aff-z4": (2, 2, 2),
            "aff-z9": (3, 2, 6),
            "aff-f4": (4, 1, 3),
        }
        for name, (q, n, m) in want.items():
            assert rows[name]["match"], rows[name]
            assert rows[name]["values"]["oracle"] == m == q**n - q ** (n - 1)
        for rn, m in [("f3", 2), ("z4", 2), ("z9", 6), ("f4", 3)]:
            sol = construct_faithful_affine(ring(rn))
            assert sol.total_dim == m and sol.verified_faithful is True


def test_criterion_5_orbit_bound(suite_report, capsys):
    label = (
        "criterion 5: orbit lower bound -- tight for faithful "
        "multiplier actions (Z/8 with {1,7}: 2; Z/9 with full units: 6), "
        "strict slack when the action factors through a quotient (2 < 3)"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        assert orbit_lower_bound(8, [7]) == (2, True)
        assert rows["d8-16"]["match"] and rows["d8-16"]["values"]["oracle"] == 2
        assert orbit_lower_bound(9, [2]) == (6, True)
        assert rows["z9-units"]["match"] and rows["z9-units"]["values"]["oracle"] == 6
        bound, tight = orbit_lower_bound(8, [7], h_order=4)
        assert (bound, tight) == (2, False)
        hom = rows["z8-by-z4-quotient-action"]
        assert hom["match"] and hom["values"]["oracle"] == 3 > bound


def test_criterion_6_gl2(suite_report, group, capsys):
    label = "criterion 6: GL2(F3) -- search finds m = 2 = q - 1"
    with gate(capsys, label):
        rows = _rows(suite_report)
        assert group("gl2_f3").order == 48
        assert rows["gl2-f3"]["match"]
        assert rows["gl2-f3"]["values"]["oracle"] == 2 == 3 - 1


def test_criterion_7a_catalog_complete(heis, group, capsys):
    label = (
        "criterion 7a: induced-irreducible catalog -- sum of dim^2 = |H| "
        "and catalog size = conjugacy class count on all ten instances "
        "(orders 8 to 4096)"
    )
    with gate(capsys, label):
        for name in HEIS_NAMES:
            H = heis(name)
            cat = irrep_catalog(H)
            assert sum(d.dim**2 for d in cat) == H.order, name
            reps, _, _ = group(name).conjugacy
            assert len(cat) == len(reps), name


def test_criterion_7b_stabilizer_sizes(heis, capsys):
    label = (
        "criterion 7b: stabilizer order = q^(level k) for every central "
        "parameter b in every instance, exhaustively"
    )
    with gate(capsys, label):
        for name in HEIS_NAMES:
            H = heis(name)
            R = H.ring
            for b_idx in range(R.size):
                level = int(R.valuation_table[b_idx])
                ann = annihilator_indices(R, b_idx)
                assert len(ann) == R.q**level
                S = H._rows({H.k + t: ann for t in range(H.k)})
                assert len(S) == R.q ** (level * H.k), (name, b_idx)


def test_criterion_7c_dimension_law(heis, capsys):
    label = (
        "criterion 7c: catalog dimensions -- dim = q^((n - level) k) and "
        "stabilizer order q^(level k) on every descriptor"
    )
    with gate(capsys, label):
        for name in HEIS_NAMES:
            H = heis(name)
            R = H.ring
            for d in irrep_catalog(H):
                assert d.dim == R.q ** ((R.n - d.level) * H.k), (name, d)
                assert d.stabilizer_order == R.q ** (d.level * H.k), (name, d)


def test_criterion_7d_conductor_and_schrodinger(ring, capsys):
    label = (
        "criterion 7d: conductor(psi_b) = n - level for every b in every "
        "test ring; Schrodinger degree = induced degree q^(n - level) "
        "exhaustively in odd residue characteristic"
    )
    with gate(capsys, label):
        for rn in RING_NAMES:
            R = ring(rn)
            for idx in range(R.size):
                chi = psi_b(R, from_index(R, idx))
                assert chi.level == int(R.valuation_table[idx])
                assert conductor(chi) == R.n - chi.level
        for rn in ["f3", "f5", "z9", "f3t2"]:
            R = ring(rn)
            M = SymplecticModule(R, k=1)
            for idx in range(R.size):
                chi = psi_b(R, from_index(R, idx))
                assert schrodinger_dim(M, chi) == R.q ** (R.n - chi.level), (rn, idx)


def _cyclic_subgroup(G, g):
    out = [G.identity]
    x = g
    while x != G.identity:
        out.append(x)
        x = G.product(x, g)
    return sorted(out)


def test_criterion_7e_induced_characters(group, heis, capsys):
    label = (
        "criterion 7e: induced character formula = explicit monomial "
        "matrix traces, every element of every group up to order 512"
    )
    with gate(capsys, label):
        checked = 0
        plans = []
        # rotation / cyclic normal parts of the small semidirect products
        for gname in ["d4", "s3", "m16", "m27", "z9_units", "d8_16"]:
            G = group(gname)
            sub = sorted(i for i, nm in enumerate(G.names) if nm[1] == 1)
            plans.append((G, sub))
        # cyclic subgroup of order 4 in the quaternion group
        q8 = group("q8")
        gen4 = next(i for i, o in enumerate(q8.element_orders) if o == 4)
        plans.append((q8, _cyclic_subgroup(q8, gen4)))
        # centers of the two order-64 Heisenberg groups and the trivial subgroup
        for hname in ["hei3_z4", "hei3_f2t2", "hei3_f3"]:
            G = group(hname)
            plans.append((G, sorted(G.center)))
        plans.append((q8, [q8.identity]))
        for G, sub in plans:
            assert G.order <= 512
            for M, exps in abelian_characters(G, sub):
                chi = LinearChar(M, sub, exps)
                rep = MonomialRep.induce(G, chi)
                vals = [character(rep, g) for g in range(G.order)]
                for g, value in enumerate(induced_character_formula(G, chi)):
                    assert vals[g] == value
                # the kernel from identity rows is the character kernel
                assert DirectSumRep([rep]).kernel().tolist() == [
                    g for g in range(G.order) if vals[g] == vals[G.identity]
                ]
                checked += 1
        assert checked >= 40


def test_criterion_7f_level_profiles(capsys):
    label = (
        "criterion 7f: dimension lower bound holds on 10^4 random "
        "admissible level profiles (no violation)"
    )
    with gate(capsys, label):
        rng = random.Random(0xA1FA)
        cases = [
            (2, 1, INF, 3, 1),
            (3, 1, INF, 2, 1),
            (2, 2, INF, 2, 1),
            (3, 2, 2, 3, 2),
            (2, 1, INF, 4, 2),
        ]
        total = 0
        while total < 10_000:
            p, f, e, n, k = cases[total % len(cases)]
            xi = n if e == INF else min(e, n)
            alphas = [0] * xi
            for _unit in range(f * xi):
                spots = [
                    i
                    for i in range(xi)
                    if all(
                        sum(alphas[j:]) + (1 if j <= i else 0) <= f * (xi - j)
                        for j in range(xi)
                    )
                ]
                alphas[rng.choice(spots)] += 1
            assert levels_lower_bound_audit(p, f, e, n, k, alphas), alphas
            total += 1


def test_criterion_7g_duality_invariants(ring, capsys):
    label = (
        "criterion 7g: additive duality -- b -> psi_b injective, "
        "character sums vanish off b = 0, "
        "restrictions span the socle dual, on all eleven test rings"
    )
    with gate(capsys, label):
        for rn in RING_NAMES:
            R = ring(rn)
            mod, rows = character_weights(R)[0], psi(R, R.mul_table)  # rows[b, x] = psi(b x)
            assert len({tuple(row) for row in rows.tolist()}) == R.size
            add = R.add_table
            assert ((rows[:, add] - rows[:, :, None] - rows[:, None, :]) % mod == 0).all()
            for b, row in enumerate(rows.tolist()):
                s = cyc_sum([Cyclotomic.root(mod, v) for v in row], mod)
                assert s.is_zero() == (b != 0)
            vectors = socle_restriction(R, range(R.size))
            assert spans_dual(vectors, R)
            assert len({tuple(v) for v in vectors.tolist()}) == R.p**R.d_invariant


def test_criterion_8_greedy_equals_search(suite_report, table, capsys):
    label = (
        "criterion 8: greedy socle-basis solver = exhaustive minimal "
        "faithful search on all sixteen p-group instances"
    )
    with gate(capsys, label):
        rows = _rows(suite_report)
        flagged = [r for r in suite_report["results"] if "solver_catalog" in r["values"]]
        assert len(flagged) == 14
        for row in flagged:
            assert row["match"], row
            assert row["values"]["solver_catalog"] == row["values"]["oracle"], row
        # the two remaining p-groups in the suite, run through the same reduction
        for gname, sname in [("d8_16", "d8-16"), ("z8_z4_hom", "z8-by-z4-quotient-action")]:
            T = table(gname)
            m, sel = min_faithful_exhaustive(T)
            entries = catalog_from_table(T)
            gsol = solve_pgroup(entries, entries[0][1].p, len(entries[0][1].coords))
            assert gsol.total_dim == m == rows[sname]["values"]["oracle"], gname
