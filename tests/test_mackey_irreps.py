"""Orbit-method irreducibles of Heisenberg groups: counts, dimension
laws, stabilizers, and explicit induced models."""

import numpy as np
import pytest

from chainrep.char_duality import character_weights, psi
from chainrep.group_models import HeisenbergGroup
from chainrep.mackey_irreps import (
    annihilator_indices,
    extended_character,
    ideal_of,
    irrep_catalog,
    mackey_induced_rep,
    orbit_representatives,
)
from reference import (
    Char2UnsupportedError,
    Cyclotomic,
    SymplecticModule,
    catalog_summary,
    character,
    cyc_sum,
    from_index,
    orbit_of,
    psi_b,
    ring_elements,
    ring_one,
    schrodinger_dim,
    uniformizer,
    valuation,
)

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
        cat = irrep_catalog(H)
        assert len(cat) == count
        assert sum(d.dim**2 for d in cat) == len(H.elements)


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
        assert len(irrep_catalog(heis(name))) == len(reps)


def test_dimension_law(heis):
    # dim = q^((n - level) k) throughout the catalog
    for name in CATALOG_COUNTS:
        H = heis(name)
        q, n, k = H.ring.q, H.ring.n, H.k
        for d in irrep_catalog(H):
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
            S = H.stabilizer_subgroup(ann)
            assert len(S) == len(ann) ** H.k == R.q ** (lev * H.k)


def test_orbits_partition_dual(heis):
    for name in ["hei3_z4", "hei3_z9", "hei5_f2"]:
        H = heis(name)
        R = H.ring
        for b_idx in range(R.size):
            reps = orbit_representatives(H, b_idx)
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
        generic = [d for d in irrep_catalog(H) if d.level == 0]
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
    H = HeisenbergGroup(ring("z8"), k=5)
    with pytest.raises(ValueError, match="explicit cap"):
        irrep_catalog(H)


def test_catalog_summary_consistency(ring, heis):
    for name in ["z4", "z9", "gr42"]:
        R = ring(name)
        levels = catalog_summary(R, 1)
        cat = irrep_catalog(heis("hei3_" + name))
        for s in levels:
            at_level = [d for d in cat if d.level == s.level]
            assert len(at_level) == s.irrep_count
            assert all(d.dim == s.dim for d in at_level)
    # counting mode works far beyond the explicit cap
    big = catalog_summary(ring("z8"), 5)
    assert sum(s.dim_sq_total for s in big) == 8**11


def test_extended_character_is_multiplicative(heis, rng):
    H = heis("hei3_z4")
    R = H.ring
    for b_idx in [ring_one(R).index, uniformizer(R).index, 0]:
        w = orbit_representatives(H, b_idx)[0]
        chi = extended_character(H, w, b_idx, (0,))
        rows = chi.rows.tolist()
        value = dict(zip(rows, chi.exps.tolist()))
        for _ in range(200):
            a, b = rng.choice(rows), rng.choice(rows)
            ab = int(H.product(a, b))
            assert ab in value
            assert (value[a] + value[b] - value[ab]) % chi.order == 0


def test_extended_character_values(heis):
    # psi(b z + w.x + lambda.y) at every row of H_s, for every b, its first
    # orbit representative w and every lambda label, against sums and
    # products formed with RingElem digit arithmetic
    for name in ["hei3_z4", "hei3_f2t2", "hei3_z9", "hei5_f2", "hei3_gr42"]:
        H = heis(name)
        R, k = H.ring, H.k
        mod, base = character_weights(R)[0], psi(R, np.arange(R.size))
        els = [from_index(R, i) for i in range(R.size)]
        add = np.array([[(a + c).index for c in els] for a in els])
        mul = np.array([[(a * c).index for c in els] for a in els])
        catalog, coords = irrep_catalog(H), np.array(H.elements)
        for b in range(R.size):
            w = orbit_representatives(H, b)[0]
            ann = annihilator_indices(R, b)
            for lam in sorted({d.lambda_label for d in catalog if d.orbit_rep == (w, b)}):
                chi = extended_character(H, w, b, lam)
                c = coords[chi.rows]
                assert len(chi.rows) == R.size ** (k + 1) * len(ann) ** k
                assert np.isin(c[:, k : 2 * k], ann).all()
                acc = mul[b, c[:, 2 * k]]
                for t in range(k):
                    acc = add[add[acc, mul[w[t], c[:, t]]], mul[lam[t], c[:, k + t]]]
                assert chi.order == mod
                assert chi.exps.tolist() == np.array(base)[acc].tolist(), (name, b, lam)


def test_induced_rep_explicit(heis):
    for name in ["hei3_f3", "hei3_z4"]:
        H = heis(name)
        R = H.ring
        cat = irrep_catalog(H)
        # one representative per level
        for lev in range(R.n + 1):
            d = next(c for c in cat if c.level == lev)
            rho = mackey_induced_rep(H, d.orbit_rep[0], d.orbit_rep[1], d.lambda_label)
            assert rho.degree == d.dim
            # irreducibility: <chi, chi> = |H|
            total = cyc_sum(
                [character(rho, g) * character(rho, g).conjugate() for g in range(H.order)]
            )
            assert total == Cyclotomic.integer(len(H.elements))


def test_induced_rep_central_character(heis):
    H = heis("hei3_z4")
    R = H.ring
    b_idx = ring_one(R).index
    w = orbit_representatives(H, b_idx)[0]
    rho = mackey_induced_rep(H, w, b_idx)
    mod, chi_b = character_weights(R)[0], psi(R, R.mul_table[b_idx])  # psi(b z) by z
    zero = [0] * H.k
    for z in range(R.size):
        g = tuple(zero + zero + [z])
        row = H.index_of([g])[0]
        perm, exps = rho.sigma[row], rho.exps[row]
        assert list(perm) == list(range(rho.degree))  # center acts by scalars
        val = chi_b[z] * (rho.scalar_order // mod)
        assert all(e % rho.scalar_order == val % rho.scalar_order for e in exps)


def test_distinct_lambda_labels_are_orthogonal(heis):
    H = heis("hei3_z4")
    R = H.ring
    b_idx = uniformizer(R).index  # level 1: two orbit reps, two lambdas
    w = orbit_representatives(H, b_idx)[0]
    cat = [d for d in irrep_catalog(H) if d.orbit_rep == (w, b_idx)]
    assert len(cat) >= 2
    r1 = mackey_induced_rep(H, w, b_idx, cat[0].lambda_label)
    r2 = mackey_induced_rep(H, w, b_idx, cat[1].lambda_label)
    inner = cyc_sum(
        [character(r1, g) * character(r2, g).conjugate() for g in range(H.order)]
    )
    assert inner.is_zero()
