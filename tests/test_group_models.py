"""Group families, table-backed groups, and abelian character tests."""

from itertools import permutations, product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from chainrep.group_models import (
    AbstractGroup,
    AffineGroup,
    CapExceededError,
    HeisenbergGroup,
    UnitriangularGroup,
    _orbit_labels,
    extend_character,
    general_linear_2,
    group_cap,
    quaternion_group,
    semidirect_cyclic,
    semidirect_cyclic_hom,
    structure_scan,
)
from chainrep.chain_ring import make_ring
from chainrep.mackey_irreps import annihilator_indices
from reference import (
    Cyclotomic,
    abelian_characters,
    abelian_polarization,
    cyc_sum,
    family_inv,
    family_mul,
    from_index,
    gl2_law,
    is_group,
    quaternion_law,
    ring_one,
    ring_zero,
    scatter,
    semidirect_hom_law,
    semidirect_law,
    tabulate,
)


# -- Heisenberg models -----------------------------------------------


def test_heisenberg_orders(ring, heis):
    for name, (rname, k) in {
        "hei3_z4": ("z4", 1),
        "hei3_f2t2": ("f2t2", 1),
        "hei5_f2": ("f2", 2),
        "hei3_gr42": ("gr42", 1),
    }.items():
        H = heis(name)
        R = ring(rname)
        assert H.order == R.size ** (2 * k + 1)
        assert len(H.center) == R.size
        assert len(abelian_polarization(H)) == R.size ** (k + 1)
        assert len(H._rows({H.k + t: range(R.size) for t in range(H.k)})) == R.size**k


def test_heisenberg_group_laws(heis, rng):
    for name in ["hei3_z4", "hei3_z9", "hei5_f2", "hei3_gr42"]:
        H = heis(name)
        els = H.names
        e = els[0]
        for _ in range(150):
            g, h, w = rng.choice(els), rng.choice(els), rng.choice(els)
            assert family_mul(H, family_mul(H, g, h), w) == family_mul(H, g, family_mul(H, h, w))
            assert family_mul(H, g, family_inv(H, g)) == e
            assert family_mul(H, family_inv(H, g), g) == e


def test_heisenberg_commutator_form(heis, rng):
    # [g, h] is central with z-part <x_g, y_h> - <x_h, y_g>
    for name in ["hei3_z4", "hei5_f2", "hei3_z9"]:
        H = heis(name)
        R = H.ring
        k = H.k
        for _ in range(120):
            g, h = rng.choice(H.names), rng.choice(H.names)
            c = family_mul(H, family_mul(H, g, h), family_mul(H, family_inv(H, g), family_inv(H, h)))
            assert all(c[t] == 0 for t in range(2 * k))
            acc = ring_zero(R)
            for t in range(k):
                acc = acc + from_index(R, g[t]) * from_index(R, h[k + t])
                acc = acc - from_index(R, h[t]) * from_index(R, g[k + t])
            assert c[2 * k] == acc.index


def test_heisenberg_center_is_commutator(heis):
    H = heis("hei3_z4")
    G = H.to_abstract()
    scan = structure_scan(G)
    assert scan.is_two_step and scan.commutator_cyclic
    assert len(scan.commutator) == len(scan.center) == H.ring.size


def test_heisenberg_to_abstract_names(heis):
    # the plain table group of the family's law, named by its coordinates,
    # finds the family's identity row and inverses from the table alone
    H = heis("hei3_f2t2")
    G = AbstractGroup(H.table, names=H.names, validate=False)
    assert G.order == H.order == 64
    assert G.identity == H.identity and G.names[G.identity] == H.names[0] == (0, 0, 0)
    assert np.array_equal(G.inverse, H.inverse)


def test_a_family_is_its_own_group(ring):
    # to_abstract() is the family itself, whose identity is a row and
    # whose names are coordinates: Aff(F_4)'s identity (0, 1) is row 1
    F4 = AffineGroup(ring("f4"))
    cases = [(HeisenbergGroup(ring("z4")), (0, 0, 0)), (UnitriangularGroup(ring("f3"), 4), (0,) * 6),
             (AffineGroup(ring("z9")), (0, ring_one(ring("z9")).index)), (F4, (0, ring_one(F4.ring).index))]
    for F, identity in cases:
        assert F.to_abstract() is F and isinstance(F, AbstractGroup)
        assert F.names[F.identity] == identity and F._encode(np.asarray([identity]).T).tolist() == [F.identity]
    assert F4.identity == 1


# -- unitriangular models --------------------------------------------


def test_unitriangular_orders(ring):
    U3 = UnitriangularGroup(ring("f3"), 3)
    assert U3.order == 27 and len(U3.center) == 3
    U4 = UnitriangularGroup(ring("f3"), 4)
    assert U4.order == 3**6 and len(U4.center) == 3
    with pytest.raises(ValueError):
        UnitriangularGroup(ring("f3"), 1)


def test_unitriangular_group_laws(ring, rng):
    U = UnitriangularGroup(ring("f3"), 4)
    els = U.names
    for _ in range(120):
        a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
        assert family_mul(U, family_mul(U, a, b), c) == family_mul(U, a, family_mul(U, b, c))
        assert family_mul(U, a, family_inv(U, a)) == U.names[U.identity]


def test_heisenberg_embedding_is_homomorphism(ring, rng):
    # Hei_5 is U_4's pattern of the first row, the last column and the
    # corner: scattered there its product is U_4's, and it is the scalar
    # formula (x1+x2, y1+y2, z1+z2+x1.y2) in the reference ring
    U = UnitriangularGroup(ring("f3"), 4)
    H = HeisenbergGroup(ring("f3"), k=2)
    R, k = H.ring, H.k
    for _ in range(150):
        g, h = rng.choice(H.names), rng.choice(H.names)
        gh = family_mul(H, g, h)
        assert family_mul(U, scatter(U, H.positions, g), scatter(U, H.positions, h)) == scatter(U, H.positions, gh)
        a, b = [from_index(R, c) for c in g], [from_index(R, c) for c in h]
        z = a[2 * k] + b[2 * k]
        for t in range(k):
            z = z + a[t] * b[k + t]
        assert gh == tuple((a[t] + b[t]).index for t in range(2 * k)) + (z.index,)
    assert len(U._rows({U.pos_index[pos]: range(R.size) for pos in H.positions})) == len(H.names)
    # corner entry carries the Heisenberg center
    center = set(U.center)
    assert all(U._encode(np.asarray([scatter(U, H.positions, H.names[z])]).T)[0] in center for z in H.center)


def test_u3_is_heisenberg(ring):
    # size-3 unitriangular group is Hei_3 on the nose
    U = UnitriangularGroup(ring("f3"), 3)
    H = HeisenbergGroup(ring("f3"), k=1)
    imgs = {scatter(U, H.positions, g) for g in H.names}
    assert imgs == set(U.names)


def test_middle_subgroup(ring):
    # the inner block of U_4: the rows zero on Hei_5's pattern
    U = UnitriangularGroup(ring("f3"), 4)
    H = HeisenbergGroup(ring("f3"), k=2)
    middle = np.flatnonzero((U._coords[[U.pos_index[pos] for pos in H.positions]] == 0).all(axis=0))
    assert len(middle) == 3
    members = set(middle.tolist())
    for m in middle.tolist():
        assert m in members


# -- affine models ----------------------------------------------------


def test_affine_orders(ring):
    assert AffineGroup(ring("f3")).order == 6
    assert AffineGroup(ring("z4")).order == 8
    assert AffineGroup(ring("z9")).order == 54
    assert AffineGroup(ring("f4")).order == 12


def test_affine_group_laws(ring, rng):
    A = AffineGroup(ring("z9"))
    els = A.names
    for _ in range(200):
        g, h, w = rng.choice(els), rng.choice(els), rng.choice(els)
        assert family_mul(A, family_mul(A, g, h), w) == family_mul(A, g, family_mul(A, h, w))
        assert family_mul(A, g, family_inv(A, g)) == A.names[A.identity]


def test_affine_translations_normal(ring):
    A = AffineGroup(ring("z4"))
    T = {A.names[t] for t in A.translations}
    for g in A.names:
        for t in T:
            assert family_mul(A, family_mul(A, g, t), family_inv(A, g)) in T


def test_affine_commutator_subgroup_is_the_translations():
    # Aff(F_q)' = R for q > 2.  On Aff(F_8) the commutators of the
    # generators span less than that, and their conjugates by the
    # generators as well: the normal closure takes two rounds
    for args in [(3, 1, 1, 1), (2, 2, 1, 1), (2, 3, 1, 1), (5, 1, 1, 1)]:
        A = AffineGroup(make_ring(*args))
        assert A.to_abstract().commutator_subgroup == A.translations.tolist()


def _check_subgroup_rows(G, rows, size, member):
    """rows: strictly ascending group rows of a subgroup of the given
    size whose elements (as coordinate rows) all satisfy member."""
    assert rows.dtype == np.int64 and (np.diff(rows) > 0).all()
    G._subgroup(rows)
    assert len(rows) == size
    assert member(np.array(G.names)[rows]).all()


def test_family_subgroups_are_ascending_rows(ring, heis):
    for name in ["hei3_f2", "hei3_f3", "hei3_f4", "hei3_f5", "hei3_z4", "hei3_f2t2",
                 "hei3_ram222", "hei3_z9", "hei3_gr42", "hei5_f2"]:
        H = heis(name)
        S, k = H.ring.size, H.k
        x, y, z = (lambda c: c[:, :k]), (lambda c: c[:, k : 2 * k]), (lambda c: c[:, 2 * k])
        _check_subgroup_rows(H, np.array(H.center), S, lambda c: (c[:, : 2 * k] == 0).all(axis=1))
        _check_subgroup_rows(H, abelian_polarization(H), S ** (k + 1), lambda c: (y(c) == 0).all(axis=1))
        _check_subgroup_rows(
            H, H._rows({H.k + t: range(S) for t in range(H.k)}), S**k, lambda c: (x(c) == 0).all(axis=1) & (z(c) == 0)
        )
        for b in range(S):
            ann = annihilator_indices(H.ring, b)
            _check_subgroup_rows(
                H, H._rows({H.k + t: ann for t in range(H.k)}), len(ann) ** k,
                lambda c: (x(c) == 0).all(axis=1) & (z(c) == 0) & np.isin(y(c), ann).all(axis=1),
            )
    for size in (3, 4):
        U = UnitriangularGroup(ring("f3"), size)
        H = HeisenbergGroup(ring("f3"), size - 2)
        last = size - 1
        kept = np.array([i == 0 or j == last for i, j in U.positions])  # first row, last column
        corner = np.array([(i, j) == (0, last) for i, j in U.positions])
        heis = U._rows({U.pos_index[pos]: range(3) for pos in H.positions})
        middle = U._rows({t: range(3) for t in np.flatnonzero(~kept).tolist()})
        _check_subgroup_rows(U, np.array(U.center), 3, lambda c: (c[:, ~corner] == 0).all(axis=1))
        _check_subgroup_rows(U, heis, 3 ** (2 * size - 3), lambda c: (c[:, ~kept] == 0).all(axis=1))
        _check_subgroup_rows(U, middle, 3 ** ((size - 2) * (size - 3) // 2), lambda c: (c[:, kept] == 0).all(axis=1))
        embedded = U._encode(scatter(U, H.positions, H._coords))
        assert heis.tolist() == sorted(embedded.tolist())
    for rname in ["f3", "z4", "z9", "f4"]:
        A = AffineGroup(ring(rname))
        one = ring_one(A.ring).index
        _check_subgroup_rows(A, A.translations, A.ring.size, lambda c: c[:, 1] == one)


def test_affine_f4_is_alternating(group):
    # Aff(F_4) has order 12 with class sizes 1, 3, 4, 4
    G = group("aff_f4")
    _, _, sizes = G.conjugacy
    assert sorted(int(s) for s in sizes) == [1, 3, 4, 4]
    assert G.exponent == 6


# -- abstract table groups -------------------------------------------


def test_abstract_validation_no_identity():
    with pytest.raises(ValueError, match="identity"):
        AbstractGroup([[0, 1], [0, 1]])


def test_abstract_identity_is_the_first_row_fixing_zero():
    # rows 0 and 2 both have g 0 = 0, which a group allows for one row
    # only: the identity is row 0, the first with e 0 = 0, as on a law,
    # and validation refuses it, since row 0 is not 0..n-1 (row 2 is);
    # with column 2 changed as well no row is an identity
    tab = [[0, 2, 0], [2, 1, 1], [0, 1, 2]]
    assert AbstractGroup(tab, validate=False).identity == 0
    with pytest.raises(ValueError, match="no two-sided identity"):
        AbstractGroup(tab)
    with pytest.raises(ValueError, match="no two-sided identity"):
        AbstractGroup([[0, 2, 1], [2, 1, 1], [0, 1, 2]])


def test_abstract_validation_no_inverses():
    tab = [[0, 1, 2], [1, 0, 0], [2, 2, 1]]
    with pytest.raises(ValueError, match="inverse"):
        AbstractGroup(tab)


def test_abstract_validation_nonassociative_loop():
    # order-5 Latin square with identity and two-sided inverses but
    # (1*2)*2 = 3*2 = 4 while 1*(2*2) = 1*0 = 1
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValueError, match="associativity"):
        AbstractGroup(loop)


# Cayley tables of order <= 6 by their element lists and laws.
SMALL_GROUPS = [(range(n), lambda a, b, n=n: (a + b) % n) for n in range(1, 7)] + [
    (range(4), lambda a, b: a ^ b),  # Z/2 x Z/2
    (list(permutations(range(3))), lambda a, b: tuple(a[i] for i in b)),  # S_3
]


@st.composite
def small_tables(draw):
    # a relabelled Cayley table, that table with one or two entries
    # changed, or a random table with an identity row and column forced
    kind = draw(st.sampled_from(["group", "changed", "random"]))
    if kind == "random":
        n = draw(st.integers(1, 6))
        tab = [draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)) for _ in range(n)]
        e = draw(st.integers(0, n - 1))
        for x in range(n):
            tab[e][x] = tab[x][e] = x
        return tab
    els, mul = draw(st.sampled_from(SMALL_GROUPS))
    els = list(els)
    n, label = len(els), draw(st.permutations(range(len(els))))
    tab = [[0] * n for _ in range(n)]
    for a, b in product(range(n), repeat=2):
        tab[label[a]][label[b]] = label[els.index(mul(els[a], els[b]))]
    if kind == "changed":
        for _ in range(draw(st.integers(1, 2))):
            tab[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return tab


@seed(20261019)
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(small_tables())
def test_validation_accepts_exactly_the_group_tables(tab):
    # 150 derandomized tables of order <= 6: the constructor's checks
    # against a search over identities, inverses and all n^3 triples
    want = is_group(tab)
    if want is None:
        with pytest.raises(ValueError):
            AbstractGroup(tab)
    else:
        G = AbstractGroup(tab)
        assert (G.identity, G.inverse.tolist()) == want


def test_abstract_basics(group):
    G = group("d4")
    assert G.order == 8
    for g in range(G.order):
        assert G.product(g, G.inverse[g]) == G.identity
    assert G.exponent == 4
    assert len(G.center) == 2
    reps, class_of, sizes = G.conjugacy
    assert len(reps) == 5
    assert sum(int(s) for s in sizes) == 8
    assert sorted(int(s) for s in sizes) == [1, 1, 2, 2, 2]
    assert len(G.commutator_subgroup) == 2


def test_class_map_consistent(group):
    for name in ["d4", "q8", "gl2_f3", "aff_z9"]:
        G = group(name)
        reps, class_of, sizes = G.conjugacy
        for j, rep in enumerate(reps):
            assert class_of[rep] == j
        import collections

        counts = collections.Counter(int(c) for c in class_of)
        assert [counts[j] for j in range(len(reps))] == [int(s) for s in sizes]
        # classes are closed under conjugation
        for g in range(G.order)[:: max(1, G.order // 16)]:
            for h in range(G.order):
                assert class_of[G.product(G.product(h, g), G.inverse[h])] == class_of[g]


def _reference_conjugacy(G):
    """(reps, class_of, class_sizes) the plain way: one |G|-row conjugate
    set per element not yet in a class."""
    class_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    allg = np.arange(G.order)
    for g in range(G.order):
        if class_of[g] < 0:
            class_of[np.unique(G.table[G.table[allg, g], G.inverse[allg]])] = len(reps)
            reps.append(g)
    return reps, class_of, np.bincount(class_of, minlength=len(reps))


def test_conjugacy_matches_reference(group):
    # orbits under the generators give exactly the classes, neither merged
    # nor split, whatever the numbering of the elements; every class of
    # Z/7 x Z/32 is a singleton, and the trivial group has no generators
    cases = [group("d4"), group("gl2_f3"), semidirect_cyclic_hom(7, 1, 32),
             semidirect_cyclic(64, [3, 5]), group("hei3_gr42"), AbstractGroup([[0]])]
    for i, G in enumerate(cases):
        perm = np.random.default_rng(i).permutation(G.order)
        table = np.empty_like(G.table)
        table[np.ix_(perm, perm)] = perm[G.table]
        H = AbstractGroup(table, validate=False)
        reps, class_of, sizes = H.conjugacy
        ref_reps, ref_class_of, ref_sizes = _reference_conjugacy(H)
        assert reps == ref_reps, G.order
        assert class_of.dtype == ref_class_of.dtype and np.array_equal(class_of, ref_class_of)
        assert sizes.dtype == ref_sizes.dtype and np.array_equal(sizes, ref_sizes)


def _reference_orbit_labels(perms, n):
    """The least member of each row's orbit under the permutations, by a
    search from each row, ascending, that no earlier search reached: for
    permutations what a row reaches is its whole orbit."""
    lab = np.full(n, -1, dtype=np.int64)
    for x in range(n):
        if lab[x] < 0:
            lab[x], front = x, [x]
            while front:
                y = front.pop()
                for p in perms:
                    if lab[p[y]] < 0:
                        lab[p[y]] = x
                        front.append(p[y])
    return lab


@st.composite
def permutation_sets(draw):
    # (n, up to four permutations of range(n)): each a uniform
    # permutation, with a few large orbits, or one cycle through a
    # random subset, which leaves many small ones
    n = draw(st.integers(1, 40))
    perms = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            perms.append(draw(st.permutations(range(n))))
        else:
            cycle = draw(st.lists(st.integers(0, n - 1), unique=True))
            p = list(range(n))
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                p[a] = b
            perms.append(p)
    return n, perms


@seed(20261019)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(permutation_sets())
def test_orbit_labels_match_a_search(case):
    # 200 derandomized sets of 0 to 4 permutations on 1 to 40 rows; the
    # empty set labels each row by itself
    n, perms = case
    lab = _orbit_labels(np.array(perms, dtype=np.int64).reshape(len(perms), n))
    assert lab.dtype == np.int64
    assert lab.tolist() == _reference_orbit_labels(perms, n).tolist()


def test_cosets_of_no_generators_are_the_rows(heis):
    # an empty generator list stays an int64 index, on a table and on a law
    assert _orbit_labels(np.empty((0, 5), dtype=np.int64)).tolist() == list(range(5))
    F = heis("hei3_f3")
    for G in (F, AbstractGroup(F.table, names=F.names, validate=False), AbstractGroup([[0]])):
        assert G._cosets([])[1].tolist() == list(range(G.order))


def test_quotient_by_the_trivial_group_and_by_the_whole_group(group, heis):
    for G in (group("d4"), group("gl2_f3"), heis("hei3_f3").to_abstract()):
        Q, coset_of = G.quotient([G.identity])
        assert coset_of.tolist() == list(range(G.order))
        assert np.array_equal(Q.table, G.table)
        Q, coset_of = G.quotient(range(G.order))
        assert Q.order == 1 and not coset_of.any()


def test_quotient_rejects_a_set_that_is_not_a_subgroup(group):
    # the identity and the class of a reflection of D_4: closed under
    # conjugation, and not under products
    G = group("d4")
    reps, class_of, sizes = G.conjugacy
    flip = next(g for g in range(G.order) if G.element_orders[g] == 2 and sizes[class_of[g]] == 2)
    normal_set = [G.identity] + np.flatnonzero(class_of == class_of[flip]).tolist()
    with pytest.raises(ValueError, match="not a subgroup of distinct rows"):
        G.quotient(normal_set)
    # e, r, r^2, r: as many rows as the normal subgroup <r> they span,
    # with r^3 missing and r repeated
    rot = [i for i, nm in enumerate(G.names) if nm[1] == 1]
    with pytest.raises(ValueError, match="not a subgroup of distinct rows"):
        G.quotient(rot[:-1] + rot[1:2])


def test_quotient_d4_by_center(group):
    G = group("d4")
    Q, coset_of = G.quotient(G.center)
    assert Q.order == 4
    assert Q.exponent == 2  # Klein four group
    assert coset_of[G.identity] == Q.identity


def test_quotient_respects_multiplication(group):
    G = group("q8")
    Q, coset_of = G.quotient(G.center)
    for a in range(G.order):
        for b in range(G.order):
            assert coset_of[G.product(a, b)] == Q.product(coset_of[a], coset_of[b])


def test_closure_and_subgroup(group):
    G = group("d4")
    rot = next(g for g in range(G.order) if G.element_orders[g] == 4)
    sub = np.flatnonzero(G._span([rot])[0])
    assert len(sub) == 4
    assert max(int(G.element_orders[g]) for g in sub) == 4


def test_element_orders(group):
    G = group("q8")
    orders = sorted(int(o) for o in G.element_orders)
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]


def test_json_roundtrip(group):
    G = group("d4")
    G2 = AbstractGroup.from_json({"table": G.table.tolist()})
    assert G2.order == G.order
    assert (G2.table == G.table).all()


def test_from_json_checks_names(group):
    G = group("d4")
    assert AbstractGroup.from_json({"table": G.table.tolist(), "names": list("abcdefgh")}).names[7] == "h"
    for names in (["e"], 5, "abcdefgh"):
        with pytest.raises(ValueError, match="'names' is a list with one entry per row"):
            AbstractGroup.from_json({"table": G.table.tolist(), "names": names})


# -- named constructions ---------------------------------------------


def test_semidirect_families(group):
    assert group("d4").order == 8
    assert group("m16").order == 16
    assert group("m16").exponent == 8
    assert group("d8_16").order == 16
    assert group("z9_units").order == 54
    assert group("m27").order == 27
    assert group("m27").exponent == 9
    assert group("z8_cyclic").order == 8  # trivial action: plain cyclic group


def test_built_tables_are_associative(ring):
    # the builders tabulate a known law without Light's test; run it here
    groups = [semidirect_cyclic(m, mults) for m, mults in [
        (3, [2]), (4, [3]), (8, [3, 5]), (9, [2]), (12, [5, 7]), (15, [2]), (16, [3]),
    ]]
    # the hom variant, faithful and through a proper quotient of Z/h_order
    groups += [semidirect_cyclic_hom(m, a, h) for m, a, h in [
        (5, 2, 4), (8, 7, 4), (9, 4, 6), (7, 2, 9), (16, 1, 3),
    ]]
    groups += [quaternion_group(), general_linear_2(ring("f2")), general_linear_2(ring("f3"))]
    groups += [HeisenbergGroup(ring("z4")).to_abstract(), UnitriangularGroup(ring("f2"), 4).to_abstract()]
    groups += [AffineGroup(ring(r)).to_abstract() for r in ("z4", "z9", "f4", "ram222")]
    for G in groups:
        G._check_associativity()


def test_builders_match_the_scalar_loop(ring):
    # the index-array laws against one scalar product per table entry:
    # same element order, names and int32 table bytes
    cases = [(semidirect_cyclic(*a), tabulate(*semidirect_law(*a))) for a in [
        (3, [2]), (4, [3]), (8, [3, 5]), (9, [2]), (12, [5, 7]), (15, [2]), (16, [3]),
    ]]
    cases += [(semidirect_cyclic_hom(*a), tabulate(*semidirect_hom_law(*a))) for a in [
        (5, 2, 4), (8, 7, 4), (9, 4, 6), (7, 2, 9), (16, 1, 3),
    ]]
    cases += [(quaternion_group(), tabulate(*quaternion_law()))]
    cases += [(general_linear_2(R), tabulate(*gl2_law(R))) for R in (
        ring("f2"), ring("f3"), ring("f5"), make_ring(7, 1, 1, 1),
    )]
    for G, (table, names) in cases:
        assert G.table.dtype == np.int32
        assert G.table.tobytes() == table.tobytes()
        assert G.names == names


# The fields F_q, q <= 7, as make_ring's (p, f).
SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1)]


@st.composite
def built_laws(draw):
    """(group, (names, mul)): a group from semidirect_cyclic,
    semidirect_cyclic_hom or general_linear_2 on drawn parameters, and
    the scalar reference for its names."""
    kind = draw(st.sampled_from(["semidirect", "hom", "gl2"]))
    if kind == "gl2":
        R = make_ring(*draw(st.sampled_from(SMALL_FIELDS)), 1, 1)
        return general_linear_2(R), gl2_law(R)
    modulus = draw(st.integers(2, 40))
    units = [m for m in range(1, modulus) if gcd(m, modulus) == 1]
    if kind == "semidirect":
        args = modulus, draw(st.lists(st.sampled_from(units), min_size=1, max_size=3))
        return semidirect_cyclic(*args), semidirect_law(*args)
    m = draw(st.sampled_from(units))
    order = next(t for t in range(1, modulus) if pow(m, t, modulus) == 1)
    args = modulus, m, order * draw(st.integers(1, 3))
    return semidirect_cyclic_hom(*args), semidirect_hom_law(*args)


@seed(20261031)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(built_laws(), st.data())
def test_built_law_is_the_name_product(built, data):
    # a builder's index-array law against the scalar product of its
    # names: random row pairs, the identity, every inverse, and the table,
    # filled only when read, on drawn rows and the last
    G, (names, mul) = built
    assert G.names == names
    rows = st.integers(0, G.order - 1)
    I, J = (np.array(data.draw(st.lists(rows, min_size=50, max_size=50))) for _ in range(2))
    assert [names[k] for k in G.product(I, J)] == [mul(names[i], names[j]) for i, j in zip(I, J)]
    e = names[G.identity]
    assert all(mul(e, g) == g == mul(g, e) for g in names)
    assert all(mul(g, names[k]) == e == mul(names[k], g) for g, k in zip(names, G.inverse))
    assert "table" not in vars(G)
    T = data.draw(st.lists(rows, min_size=1, max_size=3)) + [G.order - 1]
    assert G.table.dtype == np.int32
    assert G.table[T].tobytes() == tabulate(names, mul, T)[0].tobytes()


# sha256 of to_abstract().table.tobytes() and of repr(names), taken when
# each family still had a scalar product and a separate table loop
FROZEN_FAMILY_TABLES = {
    "hei3_z4": ("29b3104e471515219e5c9371fae21d187cf0915526e0c6820a7ad0c5cf192ec7",
                "438af202d2b4f197fcad55c6381c497c248225c72c8200f5148c9b9af92abb88"),
    "hei5_f2": ("d37c4ea6e0142c3fa9a000af975b21a9ba03feff3969c9782e9dce3ecef7969f",
                "8ce715da449ef41d4f46eca4a9d926ca5093973d19a3fd1a1edc870b582e4f97"),
    "u4_f3": ("f8d64abefb128530779d1ed31e83383ccb0a5e4e69f61ea4db41f37434c39703",
              "33e5a6c38a94d7a1fd72aa6b4938474f6c7afdbebfcb6240316659787672dbf0"),
    "aff_z4": ("dba84c503560792b4c9055e0b717c9730e0cecfd978e92a5d9ac70212be9187f",
               "db371fadca59fa9c0e984d90dc6cc871cca148ecab9246971a81dcfd0b89f8ab"),
    "aff_z9": ("47d1e2674a1c82e91a994ee78e0d2a16c88f18591d453cce95a80e2b9747eddb",
               "e5b3ad8814f87a0f71fe1f60f9a51e8e2aa84e2eeae0da5b39d80dc1f88a6be0"),
    # taken from an earlier row-block fill: large enough that the table,
    # now filled from ``_every``, takes more than one block of rows
    "hei3_gr42": ("e09bf13312708a3a391fcaf1a0b4e4be3cb6835a40ed735005c44fd309ab6ea7",
                  "84284b701ec2bd8bd1d55e79ed85e62e19c05712682104d0b556039eefc4bf95"),
    "u5_f2": ("7b29e899d43c12f6cff33356574a4cc7f0169a3581a7e20854a29c6e955e038f",
              "d2396693f8922ee06f08755de88a0c8fe8cb23348bf351042a50defbfd5a1113"),
}


def test_family_tables_frozen(group):
    # a family's table is AbstractGroup's one fill, from the family's ``_every``
    import hashlib

    from chainrep import group_models

    assert "table" not in vars(group_models._RingFamily)
    for name, (table_sha, names_sha) in FROZEN_FAMILY_TABLES.items():
        G = group(name)
        assert G.table.dtype == np.int32
        assert hashlib.sha256(G.table.tobytes()).hexdigest() == table_sha, name
        assert hashlib.sha256(repr(G.names).encode()).hexdigest() == names_sha, name


def test_family_scalar_and_index_products_agree(ring, heis, rng):
    # scalar mul/inv on tuples and the index-array product run the same
    # law through different plumbing: the codec must line up with elements
    for F in [heis("hei3_z4"), heis("hei5_f2"), UnitriangularGroup(ring("f3"), 4),
              AffineGroup(ring("z9")), AffineGroup(ring("f4"))]:
        els = F.names
        assert len(els) == F.order and F._encode(np.asarray(els).T).tolist() == list(range(F.order))
        G = F.to_abstract()
        for _ in range(60):
            i, j = rng.randrange(F.order), rng.randrange(F.order)
            assert family_mul(F, els[i], els[j]) == els[G.table[i, j]]
            assert family_inv(F, els[i]) == els[G.inverse[i]]
        I = np.array([rng.randrange(F.order) for _ in range(50)])
        J = np.array([rng.randrange(F.order) for _ in range(50)])
        assert (F.product(I, J) == G.table[I, J]).all()


# Ring families of order up to 1024, by the ring size S and residue field
# size q: (builder, |G|).
MESH_FAMILIES = {
    "hei3": (lambda R: HeisenbergGroup(R, 1), lambda S, q: S**3),
    "hei5": (lambda R: HeisenbergGroup(R, 2), lambda S, q: S**5),
    "u3": (lambda R: UnitriangularGroup(R, 3), lambda S, q: S**3),
    "u4": (lambda R: UnitriangularGroup(R, 4), lambda S, q: S**6),
    "aff": (AffineGroup, lambda S, q: S * (S - S // q)),
}


@seed(20151002)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(sorted(MESH_FAMILIES)),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 2),
    st.sampled_from([1, 2, "inf"]),
    st.integers(1, 3),
    st.data(),
)
def test_mesh_table_is_the_law(kind, p, f, e, n, data):
    # the table, filled from the open-mesh ``_every``, against the
    # index-array product on random pairs, and Light's associativity
    # test on the whole table
    build, order = MESH_FAMILIES[kind]
    assume(order(p ** (f * n), p**f) <= 1024)
    F = build(make_ring(p, f, e, n))
    G = F.to_abstract()
    I, J = (np.array(data.draw(st.lists(st.integers(0, F.order - 1), min_size=200, max_size=200)))
            for _ in range(2))
    assert (G.table[I, J] == F.product(I, J)).all()
    AbstractGroup(G.table, validate=True)


# Groups for the mesh kernel _every: each ring family, Aff(F_4) with its
# identity in row 1, and a plain table group.
EVERY_GROUPS = {
    "hei3-z9": lambda: HeisenbergGroup(make_ring(3, 1, 1, 2)),
    "hei5-f3": lambda: HeisenbergGroup(make_ring(3, 1, 1, 1), 2),
    "u3-z4": lambda: UnitriangularGroup(make_ring(2, 1, 1, 2), 3),
    "u4-f3": lambda: UnitriangularGroup(make_ring(3, 1, 1, 1), 4),
    "aff-f4": lambda: AffineGroup(make_ring(2, 2, 1, 1)),
    "aff-z9": lambda: AffineGroup(make_ring(3, 1, 1, 2)),
    "z9-2": lambda: semidirect_cyclic(9, [2]),
}


@seed(20261019)
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(sorted(EVERY_GROUPS)),
    st.booleans(),
    st.lists(st.integers(0, 10**6), max_size=6),
)
@example("hei5-f3", True, [])
@example("aff-f4", False, [])
@example("aff-f4", True, [1, 7, 1, 1])
@example("u4-f3", False, [5, 700, 5])
def test_every_is_the_product(kind, right, draws):
    # _every(J, right) holds x J[i] (or J[i] x) at [i, x]: on a family the
    # law on an open mesh, on a table group one gather, both equal to the
    # index-array product of every row with J
    G = EVERY_GROUPS[kind]()
    J = [d % G.order for d in draws]
    x, col = np.arange(G.order)[None, :], np.array(J, dtype=np.int64)[:, None]
    got = G._every(J, right=right)
    assert got.shape == (len(J), G.order)
    assert (got == (G.product(x, col) if right else G.product(col, x))).all()


def _group_layer(G) -> dict:
    """Everything AbstractGroup's group layer answers about G, as plain
    values; the quotients by the centre and the commutator subgroup as
    (table, coset_of)."""
    reps, class_of, sizes = G.conjugacy
    out = {
        "identity": G.identity,
        "inverse": G.inverse.tolist(),
        "element_orders": G.element_orders.tolist(),
        "exponent": G.exponent,
        "generators": G.generators,
        "center": G.center,
        "conjugacy": (reps, class_of.tolist(), sizes.tolist()),
        "commutator_subgroup": G.commutator_subgroup,
        "scan": vars(structure_scan(G)),
    }
    for key in ("center", "commutator_subgroup"):
        Q, coset_of = G.quotient(out[key])
        out[f"quotient by {key}"] = (Q.table.tolist(), coset_of.tolist())
    return out


@seed(20261018)
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(
    st.sampled_from(sorted(MESH_FAMILIES)),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 2),
    st.sampled_from([1, 2, "inf"]),
    st.integers(1, 3),
)
def test_law_group_is_its_table(kind, p, f, e, n):
    # a ring family's to_abstract() runs the group layer on its law; the
    # same layer on the plain table group of that law answers alike
    build, order = MESH_FAMILIES[kind]
    assume(order(p ** (f * n), p**f) <= 729)
    G = build(make_ring(p, f, e, n)).to_abstract()
    on_law = _group_layer(G)
    assert "table" not in vars(G)  # nothing above read the table
    assert on_law == _group_layer(AbstractGroup(G.table))


def test_construction_builds_no_cayley_table(monkeypatch):
    # the construct-4096 routes of Hei(Z/16) need products only: with the
    # dense table unallocatable they answer as on the table group
    from chainrep import group_models
    from chainrep.minfaith_solver import (
        construct_faithful_heisenberg,
        construct_faithful_two_step,
        formula_two_step,
        solve_heisenberg,
    )

    R = make_ring(2, 1, 1, 4)

    def routes(G):
        scan = structure_scan(G)
        con, two = construct_faithful_heisenberg(R), construct_faithful_two_step(G)
        assert con.verified_faithful and two.verified_faithful
        dims = [solve_heisenberg(R).total_dim, con.total_dim, formula_two_step(G, scan), two.total_dim]
        return dims, vars(scan), [rep.sigma.tolist() for rep in two.reps]

    want = routes(AbstractGroup(HeisenbergGroup(R).to_abstract().table, validate=False))

    def refuse(n):
        raise AssertionError(f"a {n} x {n} table was allocated")

    monkeypatch.setattr(group_models, "_empty_table", refuse)
    G = HeisenbergGroup(R).to_abstract()
    assert G.order == 4096
    assert routes(G) == want
    assert want[0] == [16] * 4


def test_oracle_builds_no_cayley_table(monkeypatch, suite_report):
    # the oracle reads a built group's rows through its law alone: with
    # the dense table unallocatable and the table constructor refused,
    # Hei(GR(4,2)), GL_2(F_7), two semidirect products, Q8 and the
    # abelian U_2(F_2[t]/t^6), whose quotient by its commutator subgroup
    # is itself, get the character table of the plain table group of
    # their law, and the suite instances with the oracle on among them
    # run every route as the default suite does
    from chainrep import group_models
    from chainrep.cli import load_default_suite
    from chainrep.oracle import CharacterTable, cross_validate, min_faithful_exhaustive

    builders = {
        "hei3-gr42": lambda: HeisenbergGroup(make_ring(2, 2, 1, 2)),
        "gl2-f7": lambda: general_linear_2(make_ring(7, 1, 1, 1)),
        "z9-units": lambda: semidirect_cyclic(9, [2]),
        "z8-by-z4-quotient-action": lambda: semidirect_cyclic_hom(8, 7, 4),
        "q8": quaternion_group,
        "u2-f2t6": lambda: UnitriangularGroup(make_ring(2, 1, "inf", 6), 2),
    }

    def oracle(G):
        T = CharacterTable(G)
        return T.prime, min_faithful_exhaustive(T)[0], T.to_rows()

    want = {name: oracle(AbstractGroup(build().table, validate=False)) for name, build in builders.items()}
    names = {"hei3-z4", "z9-units", "z8-by-z4-quotient-action", "q8", "gl2-f3"}
    insts = [inst for inst in load_default_suite()["instances"] if inst["name"] in names]
    entries = [entry for entry in suite_report["results"] if entry["name"] in names]

    def refuse(*args, **kwargs):
        raise AssertionError("a dense table was allocated or a table group built")

    monkeypatch.setattr(group_models, "_empty_table", refuse)
    monkeypatch.setattr(AbstractGroup, "__init__", refuse)
    assert {name: oracle(build()) for name, build in builders.items()} == want
    assert want["hei3-gr42"][:2] == (137, 32) and want["gl2-f7"][1] == 6 and want["u2-f2t6"][1] == 6
    assert len(insts) == 5 and all(inst["oracle"] for inst in insts)
    assert cross_validate({"instances": insts})["results"] == entries


def test_centralizer_memory_is_bounded():
    # _commuting takes its rows a block at a time: the centralizer of
    # Hei(Z/16)'s 256-element greedy maximal abelian subgroup, which is
    # that subgroup, holds a few MB, where the two (256, 4096) products
    # at once peaked at 18.6 MB
    import tracemalloc

    G = HeisenbergGroup(make_ring(2, 1, 1, 4))
    A = G.scan.maximal_abelian  # builds the codec and the ring tables, cached
    tracemalloc.start()
    try:
        C = G.centralizer(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(A) == 256 and C == A
    assert peak < 8e6


def _counted(law, name, calls):
    """law, appending name to calls at each call."""
    def counted(*args, **kwargs):
        calls.append(name)
        return law(*args, **kwargs)
    return counted


def test_scan_law_calls_are_pinned():
    # the structure scan of Hei(F_16) on its law makes exactly this many
    # calls of the family's product and of its mesh kernel _every, which
    # repeat from run to run.  A centralizer recomputed over every
    # generator each round, spans rebuilt from scratch and inverses by
    # squaring to g^(2|G|-1) would make 216 products; centralizers by
    # products, not _every, made 96
    F = HeisenbergGroup(make_ring(2, 4, 1, 1))
    calls = []
    for name in ("product", "_every"):
        setattr(F, name, _counted(getattr(F, name), name, calls))
    scan = structure_scan(F.to_abstract())
    assert (len(scan.center), len(scan.maximal_abelian)) == (16, 256)
    assert (calls.count("product"), calls.count("_every")) == (64, 10)


def test_construction_law_calls_are_pinned(monkeypatch):
    # the explicit construction on Hei(F_16), on its law, makes exactly
    # this many calls of the family's product and of its mesh kernel
    # _every, which repeat from run to run.  Cosets discovered one
    # representative at a time, with one call each, made 164 products;
    # cosets and induction by products, not _every, and one product per
    # generator in the character check made 108
    from chainrep.minfaith_solver import construct_faithful_heisenberg

    calls = []
    for name in ("product", "_every"):
        monkeypatch.setattr(HeisenbergGroup, name, _counted(getattr(HeisenbergGroup, name), name, calls))
    sol = construct_faithful_heisenberg(make_ring(2, 4, 1, 1))
    assert (sol.total_dim, sol.verified_faithful) == (64, True)
    assert (calls.count("product"), calls.count("_every")) == (72, 8)


def test_semidirect_rejects_non_units():
    with pytest.raises(ValueError):
        semidirect_cyclic(8, [2])


def test_semidirect_hom_variant(group):
    G = group("z8_z4_hom")
    assert G.order == 32
    assert len(G.center) == 4
    assert G.exponent == 8
    with pytest.raises(ValueError):
        semidirect_cyclic_hom(8, 2, 4)  # multiplier not a unit
    with pytest.raises(ValueError):
        semidirect_cyclic_hom(8, 3, 3)  # 3^3 = 3 != 1 mod 8


def test_two_step_classification(group):
    assert structure_scan(group("d4")).is_two_step
    assert structure_scan(group("m16")).is_two_step
    assert structure_scan(group("m27")).is_two_step
    assert not structure_scan(group("d8_16")).is_two_step
    assert not structure_scan(group("z9_units")).is_two_step
    assert not structure_scan(group("z8_cyclic")).is_two_step  # abelian


def test_quaternion(group):
    G = group("q8")
    assert G.order == 8 and G.exponent == 4
    scan = structure_scan(G)
    assert scan.is_two_step and scan.commutator_cyclic
    assert len(scan.center) == 2


def test_general_linear(group):
    G = group("gl2_f3")
    assert G.order == 48
    assert G.exponent == 24
    assert len(G.center) == 2
    reps, _, _ = G.conjugacy
    assert len(reps) == 8


def test_gl2_requires_field():
    from chainrep.chain_ring import make_ring

    with pytest.raises(ValueError):
        general_linear_2(make_ring(2, 1, 1, 2))


# -- structure scan ---------------------------------------------------


def test_structure_scan_m27(group):
    G = group("m27")
    scan = structure_scan(G)
    assert scan.is_p_group and scan.p == 3
    assert scan.order == 27 and G.exponent == 9
    assert len(scan.center) == 3
    assert scan.center_invariant_count == 1
    assert sum(G.element_orders[g] in (1, 3) for g in scan.center) == 3
    assert sum(G.conjugacy[2]) == 27


def test_structure_scan_maximal_abelian(group, heis):
    # in a two-step group with cyclic commutator the greedy maximal
    # abelian subgroup satisfies [G : A] = [A : Z]
    for name in ["d4", "q8", "m16", "m27", "hei3_z4", "hei3_z9"]:
        G = group(name)
        scan = structure_scan(G)
        A = scan.maximal_abelian
        assert len(A) * len(A) == G.order * len(scan.center)
        # A really is abelian and self-centralizing
        assert set(G.centralizer(A)) == set(A)


def test_structure_scan_non_p_group(group):
    scan = structure_scan(group("z9_units"))
    assert not scan.is_p_group and scan.p is None


def test_cap_enforcement(heis, monkeypatch):
    # the dense table is refused before it is allocated, on a ring family
    # and on a law group built under a higher cap alike
    from chainrep import group_models

    H, law = heis("hei3_z4"), semidirect_cyclic(27, [2])

    def refuse(n):
        raise AssertionError(f"a {n} x {n} table was allocated")

    monkeypatch.setattr(group_models, "_empty_table", refuse)
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "10")
    assert group_cap() == 10
    for read in (H.to_abstract, lambda: HeisenbergGroup(H.ring, H.k).table, lambda: law.table):
        with pytest.raises(CapExceededError, match="exceeds cap 10"):
            read()


# -- abelian characters ----------------------------------------------


def test_abelian_characters_of_subgroup(group):
    G = group("m16")
    chars = abelian_characters(G, G.center)
    assert len(chars) == len(G.center) == 4
    assert len({tuple(exps.tolist()) for _, exps in chars}) == 4


def test_abelian_characters_orthogonality(make_abelian):
    G = make_abelian((2, 4))
    chars = abelian_characters(G, range(G.order))
    assert len(chars) == 8
    seen = set()
    for M, exps in chars:
        seen.add(tuple(exps[g] for g in range(G.order)))
        total = cyc_sum([Cyclotomic.root(M, exps[g]) for g in range(G.order)])
        if all(exps[g] == 0 for g in range(G.order)):
            assert total == Cyclotomic.integer(8)
        else:
            assert total.is_zero()
    assert len(seen) == 8


def test_extend_character(make_abelian):
    # extend the order-2 character of 2Z/8 over Z/8
    G = make_abelian((8,))
    sub = [g for g in range(G.order) if G.names[g][0] % 2 == 0]
    sub_exps = [(G.names[g][0] // 2) % 2 for g in sub]
    M, exps = extend_character(G, sub, 2, sub_exps, range(G.order))
    # the extension restricts correctly (exps is aligned with the rows)
    t = M // 2
    for g, e in zip(sub, sub_exps):
        assert exps[g] % M == (t * e) % M
    # and is a character of the big group
    for a in range(G.order):
        for b in range(G.order):
            assert (exps[G.product(a, b)] - exps[a] - exps[b]) % M == 0


def _draw_abelian_subgroup(data, make_abelian):
    """(group, elements): the centre, the greedy maximal abelian subgroup
    or a cyclic subgroup of a random semidirect product of order at most
    200, or all of a random direct product of cyclic groups."""
    kind = data.draw(st.sampled_from(["center", "maximal", "cyclic", "abelian"]), label="kind")
    if kind == "abelian":
        orders = data.draw(st.lists(st.integers(2, 6), min_size=1, max_size=3).filter(lambda o: prod(o) <= 72))
        G = make_abelian(orders)
        return G, list(range(G.order))
    modulus = data.draw(st.integers(2, 50), label="modulus")
    # each unit with its multiplicative order, when Z/modulus by it fits
    units = {}
    for u in (u for u in range(1, modulus) if gcd(u, modulus) == 1):
        t = next(t for t in range(1, modulus + 1) if pow(u, t, modulus) == 1)
        if modulus * t <= 200:
            units[u] = t
    m = data.draw(st.sampled_from(sorted(units)), label="multiplier")
    if data.draw(st.booleans(), label="hom"):
        h = units[m] * data.draw(st.integers(1, 200 // (modulus * units[m])), label="h")
        G = semidirect_cyclic_hom(modulus, m, h)
    else:
        G = semidirect_cyclic(modulus, [m])
    if kind == "center":
        return G, G.center
    if kind == "maximal":
        return G, structure_scan(G).maximal_abelian
    return G, np.flatnonzero(G._span([data.draw(st.integers(0, G.order - 1), label="g")])[0]).tolist()


def _check_multiplicative(G, elems, M, exps):
    """exps, aligned with elems, is a character of the subgroup at order
    M: multiplicative through each of its generators, so on all of it."""
    where = {g: i for i, g in enumerate(elems)}
    vals = np.asarray(exps)
    for g in G._span(elems)[1]:
        through = vals[[where[G.product(a, g)] for a in elems]]
        assert np.array_equal(through, (vals + vals[where[g]]) % M)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_abelian_characters_property(make_abelian, data):
    G, A = _draw_abelian_subgroup(data, make_abelian)
    chars = abelian_characters(G, A)
    assert len(chars) == len(A)
    assert len({tuple(exps.tolist()) for _, exps in chars}) == len(A)
    for M, exps in chars:
        _check_multiplicative(G, A, M, exps)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_extend_character_property(make_abelian, data):
    G, A = _draw_abelian_subgroup(data, make_abelian)
    seeds = data.draw(st.lists(st.sampled_from(A), min_size=1, max_size=2), label="seeds")
    S = np.flatnonzero(G._span(seeds)[0]).tolist()
    Ms, sub = data.draw(st.sampled_from(abelian_characters(G, S)), label="chi")
    M, exps = extend_character(G, S, Ms, sub, A)
    assert M % Ms == 0
    where = {g: i for i, g in enumerate(A)}
    assert all((exps[where[s]] - M // Ms * e) % M == 0 for s, e in zip(S, sub))
    _check_multiplicative(G, A, M, exps)
    # values that are not a character: a nonzero value at the identity,
    # or one value moved where the subgroup has more than two elements
    if Ms > 1:
        bad = sub.copy()
        ident = G.identity
        if len(S) > 2:
            ident = data.draw(st.sampled_from(S), label="moved")
        bad[S.index(ident)] = (bad[S.index(ident)] + 1) % Ms
        with pytest.raises(ValueError, match="not a character"):
            extend_character(G, S, Ms, bad, A)


def test_cap_checked_before_allocation(monkeypatch):
    from chainrep.chain_ring import make_ring

    R = make_ring(3, 1, 1, 1)
    H, U, A = HeisenbergGroup(R), UnitriangularGroup(R, 4), AffineGroup(R)

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before the cap check")

    # orders just above the cap: 16, 32, 48, 5, 27, 729 and 6
    cases = [
        (15, lambda: semidirect_cyclic(8, [3])),
        (31, lambda: semidirect_cyclic_hom(8, 7, 4)),
        (47, lambda: general_linear_2(R)),
        (4, lambda: AbstractGroup.from_json({"table": [[0] * 5] * 5})),
        (26, H.to_abstract),
        (728, U.to_abstract),
        (5, A.to_abstract),
    ]
    for name in ("empty", "asarray", "array"):
        monkeypatch.setattr(np, name, refuse)
    for cap, build in cases:
        monkeypatch.setenv("CHAINREP_ORACLE_CAP", str(cap))
        with pytest.raises(CapExceededError):
            build()


def test_group_cap_rejects_bad_settings(monkeypatch):
    for bad in ("ten", "0", "-3", "2.5"):
        monkeypatch.setenv("CHAINREP_ORACLE_CAP", bad)
        with pytest.raises(ValueError, match="CHAINREP_ORACLE_CAP must be a positive integer"):
            group_cap()
