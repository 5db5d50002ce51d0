"""Orbit-method irreducibles of Heisenberg groups: counts, dimension
laws, stabilizers, and explicit induced models."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.chain_ring import make_ring
from chainrep.char_duality import basis_greedy, character_weights, psi
from chainrep.exactrep import LinearChar, MonomialRep, _spread
from chainrep.group_models import HeisenbergGroup
from chainrep.mackey_irreps import (
    extended_character,
    irrep_catalog,
    mackey_induced_rep,
    orbit_count,
)
from chainrep.minfaith_solver import heisenberg_catalog_entries, solve_heisenberg
from test_char_duality import SMALL_RINGS
from reference import (
    Char2UnsupportedError,
    Cyclotomic,
    SymplecticModule,
    annihilator_indices,
    catalog_summary,
    character,
    cyc_sum,
    expand_catalog,
    extended_character_table,
    from_index,
    ideal_of,
    orbit_of,
    psi_b,
    restrict_to_omega1,
    ring_elements,
    ring_one,
    rows_of,
    schrodinger_dim,
    uniformizer,
    valuation,
    word_values,
)

def first_orbit(H, b_idx):
    """The catalog's first orbit representative over b."""
    return next(o.orbit_rep[0] for o in irrep_catalog(H) if o.orbit_rep[1] == b_idx)


CATALOG_COUNTS = {
    "hei3_f2": 5,
    "hei3_f3": 11,
    "hei3_f4": 19,
    "hei3_f5": 29,
    "hei3_z4": 22,
    "hei3_f2t2": 22,
    "hei3_ram222": 22,
    "hei3_z9": 105,
    "hei3_gr42": 316,
    "hei5_f2": 17,
}


def test_catalog_counts_and_sum_of_squares(heis):
    for name, count in CATALOG_COUNTS.items():
        H = heis(name)
        orbits = irrep_catalog(H)
        cat = expand_catalog(H, orbits)
        assert len(cat) == sum(o.count for o in orbits) == count
        assert sum(d.dim**2 for d in cat) == sum(o.count * o.dim**2 for o in orbits) == H.order


def test_catalog_matches_class_count(group, heis):
    # number of irreducibles == number of conjugacy classes
    for name in [
        "hei3_f2",
        "hei3_f3",
        "hei3_f4",
        "hei3_f5",
        "hei3_z4",
        "hei3_f2t2",
        "hei3_ram222",
        "hei5_f2",
        "hei3_z9",
    ]:
        reps, _, _ = group(name).conjugacy
        H = heis(name)
        assert len(expand_catalog(H, irrep_catalog(H))) == len(reps)


def test_dimension_law(heis):
    # dim = q^((n - level) k) throughout the catalog
    for name in CATALOG_COUNTS:
        H = heis(name)
        q, n, k = H.ring.q, H.ring.n, H.k
        for d in expand_catalog(H, irrep_catalog(H)):
            assert d.dim == q ** ((n - d.level) * k)
            assert d.stabilizer_order == q ** (d.level * k)


def test_stabilizer_sizes_exhaustive(heis):
    # |Ann(b)| = q^level, so the y-side stabilizer has size q^(level k)
    for name in ["hei3_z4", "hei3_f2t2", "hei3_z9", "hei3_gr42", "hei5_f2"]:
        H = heis(name)
        R = H.ring
        for b_idx in range(R.size):
            lev = int(R.valuation_table[b_idx])
            ann = annihilator_indices(R, b_idx)
            assert len(ann) == R.q**lev
            # y-side stabilizer directions: Ann(b)^k, of size q^(level k)
            S = rows_of(H, {H.k + t: ann for t in range(H.k)})
            assert len(S) == len(ann) ** H.k == R.q ** (lev * H.k)


def test_orbits_partition_dual(heis):
    for name in ["hei3_z4", "hei3_z9", "hei5_f2"]:
        H = heis(name)
        R = H.ring
        catalog = irrep_catalog(H)
        for b_idx in range(R.size):
            reps = [o.orbit_rep[0] for o in catalog if o.orbit_rep[1] == b_idx]
            seen = set()
            for w in reps:
                orb = orbit_of(H, w, b_idx)
                assert len(orb) == len(ideal_of(R, b_idx)) ** H.k
                assert w == min(orb)
                for v in orb:
                    assert v not in seen
                    seen.add(v)
            assert len(seen) == R.size**H.k


def test_stone_von_neumann_dimension(heis):
    # the irreducibles with primitive central character, level 0 in the
    # catalog, all have the Stone-von Neumann degree [H : A] = q^(nk)
    for name, dim in (("hei3_z9", 9), ("hei5_f2", 4)):
        H = heis(name)
        generic = [d for d in expand_catalog(H, irrep_catalog(H)) if d.level == 0]
        assert {d.dim for d in generic} == {H.ring.q ** (H.ring.n * H.k)} == {dim}
        assert all(psi_b(H.ring, from_index(H.ring, d.orbit_rep[1])).level == 0 for d in generic)
        # and there is one of them per primitive central character
        units = np.flatnonzero(H.ring.valuation_table == 0).tolist()
        assert sorted(d.orbit_rep[1] for d in generic) == units


def test_schrodinger_matches_mackey_dimension(ring):
    # odd residue characteristic: the polarized model dimension agrees
    # with the induced-orbit dimension for every central parameter
    for name in ["f3", "f5", "z9", "f3t2"]:
        R = ring(name)
        M = SymplecticModule(R, k=1)
        for b in ring_elements(R):
            chi = psi_b(R, b)
            lev = valuation(R, b)
            assert schrodinger_dim(M, chi) == R.q ** (R.n - lev)


def test_schrodinger_refuses_char_two(ring):
    M = SymplecticModule(ring("z4"), k=1)
    with pytest.raises(Char2UnsupportedError):
        schrodinger_dim(M, psi_b(ring("z4"), ring_one(ring("z4"))))


def test_catalog_cap(ring):
    # the cap bounds the orbits listed: 33,860 for Hei_11(Z/8), 30,401 for
    # Hei(Z/101^2), 266,372 for Hei_13(Z/8)
    assert orbit_count(ring("z8"), 5) == 33_860
    assert orbit_count(make_ring(101, 1, 1, 2), 1) == 30_401
    H = HeisenbergGroup(ring("z8"), k=6)
    with pytest.raises(ValueError, match="catalog of 266372 orbits exceeds the explicit cap"):
        irrep_catalog(H)


def test_catalog_summary_consistency(ring, heis):
    for name in ["z4", "z9", "gr42"]:
        R = ring(name)
        levels = catalog_summary(R, 1)
        H = heis("hei3_" + name)
        cat = expand_catalog(H, irrep_catalog(H))
        for s in levels:
            at_level = [d for d in cat if d.level == s.level]
            assert len(at_level) == s.irrep_count
            assert all(d.dim == s.dim for d in at_level)
    # counting mode works far beyond the explicit cap
    big = catalog_summary(ring("z8"), 5)
    assert sum(s.dim_sq_total for s in big) == 8**11


# the rings of test_ring_tables_and_psi_property, with k <= 3 where the
# catalog lists at most |R|^(2k) <= 4096 irreducibles one by one
CATALOG_CASES = [(params, k) for params in SMALL_RINGS for k in (1, 2, 3) if params[0] ** (2 * k * params[1] * params[3]) <= 4096]


@seed(20261020)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.sampled_from(CATALOG_CASES))
def test_counted_catalog_property(case):
    # the counted catalog against the closed-form counts of each level,
    # and the solver's pool, one entry per central parameter, against the
    # greedy over every irreducible, with the scalar restriction of psi(b .)
    params, k = case
    R = make_ring(*params)
    H = HeisenbergGroup(R, k)
    catalog = irrep_catalog(H)
    assert len(catalog) == orbit_count(R, k)
    for s in catalog_summary(R, k):
        at_level = [o for o in catalog if o.level == s.level]
        assert len(at_level) == s.num_central_params * s.orbits_per_param
        assert sum(o.count for o in at_level) == s.irrep_count
        assert {o.dim for o in at_level} == {s.dim}
    assert len(heisenberg_catalog_entries(H)) == R.size
    full = expand_catalog(H, catalog)
    vectors = [restrict_to_omega1(psi_b(R, from_index(R, b))) for b in range(R.size)]
    chosen = basis_greedy([vectors[d.orbit_rep[1]] for d in full], [d.dim for d in full], R.p, R.d_invariant)
    assert solve_heisenberg(R, k).summands == [full[i] for i in chosen]


def test_extended_character_is_multiplicative(heis, rng):
    H = heis("hei3_z4")
    R = H.ring
    for b_idx in [ring_one(R).index, uniformizer(R).index, 0]:
        w = first_orbit(H, b_idx)
        chi = extended_character(H, w, b_idx, (0,))
        value = word_values(H, chi)
        rows = sorted(value)
        for _ in range(200):
            a, b = rng.choice(rows), rng.choice(rows)
            ab = int(H.product(a, b))
            assert ab in value
            assert (value[a] + value[b] - value[ab]) % chi.order == 0


def test_extended_character_values(heis):
    # psi(b z + w.x + lambda.y) at every row of H_s, as induction spreads
    # it from the generators, for every b, its first orbit representative
    # w and every lambda label, against sums and products formed with
    # RingElem digit arithmetic
    for name in ["hei3_z4", "hei3_f2t2", "hei3_z9", "hei5_f2", "hei3_gr42"]:
        H = heis(name)
        R, k = H.ring, H.k
        mod, base = character_weights(R)[0], psi(R, np.arange(R.size))
        els = [from_index(R, i) for i in range(R.size)]
        add = np.array([[(a + c).index for c in els] for a in els])
        mul = np.array([[(a * c).index for c in els] for a in els])
        catalog, coords = expand_catalog(H, irrep_catalog(H)), np.array(H.names)
        for b in range(R.size):
            w = first_orbit(H, b)
            ann = annihilator_indices(R, b)
            for lam in sorted({d.lambda_label for d in catalog if d.orbit_rep == (w, b)}):
                chi = extended_character(H, w, b, lam)
                rows, (values,) = _spread(H, [chi], H._cosets(chi.gens)[0])
                c = coords[rows]
                assert len(rows) == R.size ** (k + 1) * len(ann) ** k
                assert np.isin(c[:, k : 2 * k], ann).all()
                acc = mul[b, c[:, 2 * k]]
                for t in range(k):
                    acc = add[add[acc, mul[w[t], c[:, t]]], mul[lam[t], c[:, k + t]]]
                assert chi.order == mod
                assert values.tolist() == np.array(base)[acc].tolist(), (name, b, lam)


# the rings of test_ring_tables_and_psi_property, with k <= 2 where |H| <= 1024
MODEL_CASES = [(params, k) for params in SMALL_RINGS for k in (1, 2) if params[0] ** ((2 * k + 1) * params[1] * params[3]) <= 1024]


@seed(20261020)
@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_extended_character_induces_as_the_formula(data):
    # the model induced from the values at H_s's generators is the model
    # induced from psi(b z + b_vec.x + lambda.y) given at every row of H_s
    params, k = data.draw(st.sampled_from(MODEL_CASES), label="ring, k")
    H = HeisenbergGroup(make_ring(*params), k)
    elems = st.integers(0, H.ring.size - 1)
    b, b_vec, lam = data.draw(st.tuples(elems, st.tuples(*[elems] * k), st.tuples(*[elems] * k)), label="b, b_vec, lambda")
    rho = mackey_induced_rep(H, b_vec, b, lam)
    ref = MonomialRep.induce(H, LinearChar(*extended_character_table(H, b_vec, b, lam)))
    assert rho.degree == ref.degree == H.ring.size ** k // len(annihilator_indices(H.ring, b)) ** k
    assert np.array_equal(rho.sigma, ref.sigma) and np.array_equal(rho.exps, ref.exps)


def test_induced_rep_explicit(heis):
    for name in ["hei3_f3", "hei3_z4"]:
        H = heis(name)
        R = H.ring
        cat = expand_catalog(H, irrep_catalog(H))
        # one representative per level
        for lev in range(R.n + 1):
            d = next(c for c in cat if c.level == lev)
            rho = mackey_induced_rep(H, d.orbit_rep[0], d.orbit_rep[1], d.lambda_label)
            assert rho.degree == d.dim
            # irreducibility: <chi, chi> = |H|
            total = cyc_sum(
                [character(rho, g) * character(rho, g).conjugate() for g in range(H.order)]
            )
            assert total == Cyclotomic.integer(H.order)


def test_induced_rep_central_character(heis):
    H = heis("hei3_z4")
    R = H.ring
    b_idx = ring_one(R).index
    w = first_orbit(H, b_idx)
    rho = mackey_induced_rep(H, w, b_idx)
    mod, chi_b = character_weights(R)[0], psi(R, R.mul_table[b_idx])  # psi(b z) by z
    zero = [0] * H.k
    for z in range(R.size):
        g = tuple(zero + zero + [z])
        row = H._encode(np.asarray([g]).T)[0]
        perm, exps = rho.sigma[row], rho.exps[row]
        assert list(perm) == list(range(rho.degree))  # center acts by scalars
        val = chi_b[z] * (rho.scalar_order // mod)
        assert all(e % rho.scalar_order == val % rho.scalar_order for e in exps)


def test_distinct_lambda_labels_are_orthogonal(heis):
    H = heis("hei3_z4")
    R = H.ring
    b_idx = uniformizer(R).index  # level 1: two orbit reps, two lambdas
    w = first_orbit(H, b_idx)
    cat = [d for d in expand_catalog(H, irrep_catalog(H)) if d.orbit_rep == (w, b_idx)]
    assert len(cat) >= 2
    r1 = mackey_induced_rep(H, w, b_idx, cat[0].lambda_label)
    r2 = mackey_induced_rep(H, w, b_idx, cat[1].lambda_label)
    inner = cyc_sum(
        [character(r1, g) * character(r2, g).conjugate() for g in range(H.order)]
    )
    assert inner.is_zero()
