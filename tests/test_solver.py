"""Closed-form minimal faithful dimensions, the greedy catalog solver,
and the explicit faithful constructions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrep import minfaith_solver
from chainrep.chain_ring import INF, RingParameterError, make_ring
from chainrep.char_duality import DualVector, character_weights, psi
from chainrep.exactrep import ChiNotHomomorphismError, DirectSumRep, LinearChar, MonomialRep
from chainrep.group_models import HeisenbergGroup, UnitriangularGroup, semidirect_cyclic_hom, structure_scan
from chainrep.mackey_irreps import annihilator_indices
from chainrep.minfaith_solver import (
    CommutatorNotCyclicError,
    FaithfulSolution,
    NotTwoStepError,
    PoolDoesNotSpanError,
    construct_faithful_affine,
    construct_faithful_heisenberg,
    construct_faithful_two_step,
    formula_affine,
    formula_heisenberg,
    formula_two_step,
    formula_unitriangular,
    heisenberg_basis_parameters,
    heisenberg_catalog_entries,
    orbit_lower_bound,
    solve_heisenberg,
    solve_pgroup,
)
from reference import ConstraintViolationError, levels_lower_bound_audit
from chainrep.oracle import CharacterTable, min_faithful_exhaustive

HEISENBERG_VALUES = [
    # (p, f, e, n, k) -> m
    ((2, 1, 1, 1, 1), 2),
    ((3, 1, 1, 1, 1), 3),
    ((5, 1, 1, 1, 1), 5),
    ((2, 1, 1, 2, 1), 4),
    ((2, 1, INF, 2, 1), 6),
    ((2, 1, 2, 2, 1), 6),
    ((3, 1, 1, 2, 1), 9),
    ((2, 2, 1, 2, 1), 32),
    ((2, 2, INF, 1, 1), 8),
    ((2, 1, 1, 1, 2), 4),
    ((3, 1, 1, 3, 1), 27),
    ((2, 1, INF, 3, 1), 8 + 4 + 2),
]


def test_formula_heisenberg_frozen():
    for (p, f, e, n, k), m in HEISENBERG_VALUES:
        assert formula_heisenberg(p, f, e, n, k) == m


def test_formula_heisenberg_string_inf():
    assert formula_heisenberg(2, 1, "inf", 2) == 6


def test_formula_heisenberg_validation():
    with pytest.raises(ValueError):
        formula_heisenberg(2, 1, 1, 1, k=0)
    with pytest.raises(RingParameterError):
        formula_heisenberg(6, 1, 1, 1)


def test_formula_unitriangular():
    assert formula_unitriangular(3, 1, 1, 1, 3) == 3
    assert formula_unitriangular(3, 1, 1, 1, 4) == 9
    assert formula_unitriangular(5, 1, 1, 1, 4) == 25
    assert formula_unitriangular(3, 1, 1, 2, 3) == 9
    assert formula_unitriangular(2, 1, 1, 1, 4) == 4
    assert formula_unitriangular(2, 1, 1, 2, 4) == 16
    assert formula_unitriangular(3, 1, 1, 2, 2) == 1  # U_2(Z/9) = Z/9
    with pytest.raises(ValueError):
        formula_unitriangular(3, 1, 1, 1, 1)


def test_unitriangular_upper_bound_is_faithful(ring):
    # the upper bound of formula_unitriangular, built in residue
    # characteristic 2: for each basis parameter b, psi_b of the corner
    # induced from S_b, the matrices whose other first-row entries lie in
    # Ann(b), has degree |R/Ann(b)|^k, and the sum is faithful
    for name, size in [("f2", 4), ("f2", 5), ("z4", 4), ("f2t2", 4)]:
        R = ring(name)
        U = UnitriangularGroup(R, size)
        reps = []
        for b in heisenberg_basis_parameters(R):
            ann = annihilator_indices(R, b)
            rows = U._rows({t: ann if i == 0 and j < size - 1 else range(R.size) for t, (i, j) in enumerate(U.positions)})
            corner = U._decode(rows)[U.pos_index[0, size - 1]]
            chi = LinearChar(character_weights(R)[0], rows, psi(R, R.mul_table[b, corner]))
            reps.append(MonomialRep.induce(U, chi))
            assert reps[-1].degree == (R.size // len(ann)) ** (size - 2)
        assert sum(rep.degree for rep in reps) == formula_unitriangular(R.p, R.f, R.e, R.n, size)
        assert DirectSumRep(reps).is_faithful(), (name, size)


def test_formula_affine():
    assert formula_affine(3, 1, 1) == 2
    assert formula_affine(2, 1, 2) == 2
    assert formula_affine(3, 1, 2) == 6
    assert formula_affine(2, 2, 1) == 3
    assert formula_affine(5, 1, 3) == 100


def test_formula_two_step_values(group):
    assert formula_two_step(group("d4")) == 2
    assert formula_two_step(group("q8")) == 2
    assert formula_two_step(group("m16")) == 2
    assert formula_two_step(group("m27")) == 3
    assert formula_two_step(group("hei3_z4")) == 4
    assert formula_two_step(group("hei3_z9")) == 9


def test_formula_two_step_rejections(group):
    with pytest.raises(NotTwoStepError):
        formula_two_step(group("s3"))  # not a p-group
    with pytest.raises(NotTwoStepError):
        formula_two_step(group("d8_16"))  # class 3
    with pytest.raises(NotTwoStepError):
        formula_two_step(group("z8_cyclic"))  # abelian
    with pytest.raises(CommutatorNotCyclicError):
        formula_two_step(group("hei3_f4"))  # commutator (F_4, +)


def test_levels_audit_accepts_valid_profiles():
    assert levels_lower_bound_audit(2, 1, 1, 2, 1, [1])
    assert levels_lower_bound_audit(2, 1, INF, 2, 1, [1, 1])
    assert levels_lower_bound_audit(2, 1, INF, 2, 1, [2, 0])
    assert levels_lower_bound_audit(2, 2, 1, 2, 1, [2])
    assert levels_lower_bound_audit(3, 1, "inf", 2, 2, [1, 1])


def test_levels_audit_rejects_malformed_profiles():
    with pytest.raises(ConstraintViolationError):
        levels_lower_bound_audit(2, 1, INF, 2, 1, [1])  # wrong length
    with pytest.raises(ConstraintViolationError):
        levels_lower_bound_audit(2, 1, INF, 2, 1, [0, 2])  # suffix overload
    with pytest.raises(ConstraintViolationError):
        levels_lower_bound_audit(2, 1, INF, 2, 1, [3, -1])  # negative entry
    with pytest.raises(ConstraintViolationError):
        levels_lower_bound_audit(2, 2, INF, 2, 1, [1, 1, 1])  # sum != f*xi


def test_levels_audit_random_profiles(rng):
    # every admissible profile dominates the closed form; checked over
    # random parameters with randomly balanced profiles
    cases = [(2, 1, INF, 3, 1), (3, 1, INF, 2, 1), (2, 2, INF, 2, 1), (3, 2, 2, 3, 2)]
    for p, f, e, n, k in cases:
        xi = n if e == INF else min(e, n)
        for _ in range(500):
            alphas = [0] * xi
            # fill respecting suffix bounds by inserting from low levels
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
            assert levels_lower_bound_audit(p, f, e, n, k, alphas)


def test_solver_matches_formula(ring):
    for name, k in [
        ("f2", 1),
        ("f2", 2),
        ("f3", 1),
        ("z4", 1),
        ("f2t2", 1),
        ("ram222", 1),
        ("z9", 1),
        ("gr42", 1),
    ]:
        R = ring(name)
        sol = solve_heisenberg(R, k)
        assert sol.total_dim == formula_heisenberg(R.p, R.f, R.e, R.n, k)
        assert len(sol.certificate) == R.d_invariant


def test_solver_requires_spanning_pool(heis):
    H = heis("hei3_z4")
    entries = [t for t in heisenberg_catalog_entries(H) if set(t[1].coords) == {0}]
    with pytest.raises(PoolDoesNotSpanError):
        solve_pgroup(entries, 2, H.ring.d_invariant)
    with pytest.raises(PoolDoesNotSpanError):
        solve_pgroup([], 2, 1)


def test_solver_greedy_picks_cheapest_spanning_set(heis):
    # over F_2[t]/t^2 the minimum mixes one 4-dim and one 2-dim summand
    H = heis("hei3_f2t2")
    sol = solve_pgroup(heisenberg_catalog_entries(H), 2, 2)
    assert sorted(d.dim for d in sol.summands) == [2, 4]
    assert sol.total_dim == 6


def test_basis_parameters_shape(ring):
    for name in ["z4", "f2t2", "gr42"]:
        R = ring(name)
        params = heisenberg_basis_parameters(R)
        assert len(params) == R.d_invariant
        levels = sorted(R.valuation_table[params].tolist())
        assert levels == sorted(j for _ in range(R.f) for j in range(R.xi))


def test_construct_heisenberg(ring):
    for name, dims in [
        ("z4", [4]),
        ("f2t2", [4, 2]),
        ("ram222", [4, 2]),
        ("z9", [9]),
        ("f3", [3]),
    ]:
        R = ring(name)
        sol = construct_faithful_heisenberg(R)
        assert [s["dim"] for s in sol.summands] == dims
        assert sol.total_dim == formula_heisenberg(R.p, R.f, R.e, R.n, 1)
        assert sol.verified_faithful is True
        assert len(sol.reps) == len(dims)


def test_construct_heisenberg_without_matrices(ring, monkeypatch):
    # Hei(Z/9) has 729 elements: above the cap no matrices are built
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "512")
    sol = construct_faithful_heisenberg(ring("z9"))
    assert sol.reps is None and sol.verified_faithful is None
    assert sol.total_dim == 9


def test_construct_heisenberg_k2(ring):
    sol = construct_faithful_heisenberg(ring("f2"), k=2)
    assert sol.total_dim == 4
    assert sol.verified_faithful is True


def test_construct_two_step(group):
    for name, m in [("d4", 2), ("q8", 2), ("m16", 2), ("m27", 3), ("hei3_z4", 4)]:
        sol = construct_faithful_two_step(group(name))
        assert sol.total_dim == m
        assert sol.verified_faithful is True
        kinds = [s["kind"] for s in sol.summands]
        assert kinds[0] == "induced"
        assert all(k == "linear" for k in kinds[1:])


def test_construct_two_step_rejects(group, monkeypatch):
    with pytest.raises(NotTwoStepError):
        construct_faithful_two_step(group("d8_16"))
    with pytest.raises(CommutatorNotCyclicError):
        construct_faithful_two_step(group("hei3_f4"))
    # a linear summand is checked like the induced one: corrupt the
    # exponents of the one linear summand of Z/8 by Z/4 via 5, whose
    # centre Z/4 x Z/2 has rank 2
    G = semidirect_cyclic_hom(8, 5, 4)
    assert len(construct_faithful_two_step(G).reps) == 2
    original = minfaith_solver.extend_character

    def corrupted(group, *args):
        M, exps = original(group, *args)
        if group is not G:  # a linear summand, a character of G/B
            exps = exps.copy()
            exps[-1] += 1
        return M, exps

    monkeypatch.setattr(minfaith_solver, "extend_character", corrupted)
    with pytest.raises(ChiNotHomomorphismError):
        construct_faithful_two_step(G)


def _check_two_step(G):
    sol = construct_faithful_two_step(G)
    assert sol.verified_faithful is True
    assert sol.total_dim == formula_two_step(G) == min_faithful_exhaustive(CharacterTable(G))[0]


@settings(max_examples=12, derandomize=True, deadline=None)
@given(
    st.sampled_from([2, 3]).flatmap(
        lambda p: st.tuples(st.just(p), st.integers(2, 8), st.integers(1, 7), st.integers(1, p - 1))
    ).filter(lambda t: t[0] ** (t[1] + t[2]) <= 486)
)
def test_construct_two_step_property(params):
    # Z/p^a by Z/p^b through 1 + p^(a-1) u: two-step with commutator
    # subgroup p^(a-1) Z/p^a, cyclic of order p
    p, a, b, u = params
    G = semidirect_cyclic_hom(p**a, 1 + p ** (a - 1) * u, p**b)
    scan = structure_scan(G)
    assert scan.is_two_step and scan.commutator_cyclic
    _check_two_step(G)


def test_construct_two_step_heisenberg_tables(group, ring):
    _check_two_step(group("hei3_z9"))
    _check_two_step(HeisenbergGroup(ring("z8")).to_abstract())


def test_construct_affine(ring):
    for name, m in [("f3", 2), ("z4", 2), ("z9", 6), ("f4", 3)]:
        R = ring(name)
        sol = construct_faithful_affine(R)
        assert sol.total_dim == m == formula_affine(R.p, R.f, R.n)
        assert sol.verified_faithful is True
        assert sol.reps[0].degree == m


def test_orbit_lower_bound():
    assert orbit_lower_bound(4, [3]) == (2, True)
    assert orbit_lower_bound(8, [7]) == (2, True)
    assert orbit_lower_bound(9, [2]) == (6, True)
    assert orbit_lower_bound(8, [3, 5]) == (4, True)
    # action through a proper quotient: bound stays 2, equality lost
    assert orbit_lower_bound(8, [7], h_order=4) == (2, False)
    with pytest.raises(ValueError):
        orbit_lower_bound(8, [2])


def test_solution_json(ring):
    sol = construct_faithful_heisenberg(ring("z4"))
    obj = sol.to_json()
    assert obj["total_dim"] == 4
    assert obj["summands"][0]["dim"] == 4
    assert obj["verified_faithful"] is True
    assert "certificate" in obj
    bare = FaithfulSolution(group="x", total_dim=1, summands=[{"dim": 1}])
    assert "certificate" not in bare.to_json()
