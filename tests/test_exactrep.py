"""Cyclotomic polynomials, the exact cyclotomic reference, and monomial
induced representations."""

from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.chain_ring import CapExceededError, make_ring
from chainrep.exactrep import (
    ChiNotHomomorphismError,
    DirectSumRep,
    InducedSum,
    LinearChar,
    MonomialRep,
    cyclotomic_polynomial,
)
from chainrep.group_models import (
    AbstractGroup,
    HeisenbergGroup,
    semidirect_cyclic,
    semidirect_cyclic_hom,
    structure_scan,
)
from chainrep.minfaith_solver import construct_faithful_heisenberg
from reference import (
    Cyclotomic,
    abelian_characters,
    character,
    check_homomorphism,
    cyc_sum,
    induce_loop,
    induced_character_formula,
    linear_char,
    rows_of,
    sum_character,
    word_values,
)


def test_cyclotomic_polynomial_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_degree_totient():
    # deg Phi_m = euler phi(m)
    def phi(m):
        out = m
        d = 2
        mm = m
        while d * d <= mm:
            if mm % d == 0:
                out -= out // d
                while mm % d == 0:
                    mm //= d
            d += 1
        if mm > 1:
            out -= out // mm
        return out

    for m in range(1, 40):
        assert len(cyclotomic_polynomial(m)) == phi(m) + 1


def test_root_has_exact_order():
    for m in [2, 3, 4, 5, 6, 8, 9, 12, 24]:
        z = Cyclotomic.root(m)
        acc = Cyclotomic.integer(1)
        seen_one_early = False
        for _ in range(m):
            acc = acc * z
            if acc == Cyclotomic.integer(1):
                seen_one_early = seen_one_early or _ < m - 1
        assert acc == Cyclotomic.integer(1)
        assert not seen_one_early


def test_all_roots_sum_to_zero():
    for m in range(2, 13):
        s = cyc_sum([Cyclotomic.root(m, k) for k in range(m)])
        assert s.is_zero()


def test_cross_order_identities():
    assert Cyclotomic.root(2) == Cyclotomic.integer(-1)
    assert Cyclotomic.root(6) == -Cyclotomic.root(3, 2)
    assert Cyclotomic.root(3) + Cyclotomic.root(3, 2) == Cyclotomic.integer(-1)
    assert Cyclotomic.root(4) * Cyclotomic.root(4) == Cyclotomic.integer(-1)
    # zeta_12^3 = i
    z12 = Cyclotomic.root(12)
    assert z12 * z12 * z12 == Cyclotomic.root(4)


def test_conjugate_is_inverse_on_roots():
    for m in [3, 4, 5, 8, 12]:
        for k in range(m):
            z = Cyclotomic.root(m, k)
            assert z * z.conjugate() == Cyclotomic.integer(1)
            assert z.conjugate().conjugate() == z


def test_ring_laws_sampled(rng):
    for m in [4, 6, 12]:
        deg = len(cyclotomic_polynomial(m)) - 1
        for _ in range(60):
            a = Cyclotomic(m, [rng.randrange(-5, 6) for _ in range(deg)])
            b = Cyclotomic(m, [rng.randrange(-5, 6) for _ in range(deg)])
            c = Cyclotomic(m, [rng.randrange(-5, 6) for _ in range(deg)])
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a - b == a + (-b)


def test_long_vector_constructor_reduces():
    # length-m coefficient vectors reduce mod Phi_m
    m = 4
    v = Cyclotomic(m, [0, 0, 1, 0])  # zeta_4^2 = -1
    assert v == Cyclotomic.integer(-1)
    w = Cyclotomic(6, [0, 0, 0, 1, 0, 0])  # zeta_6^3 = -1
    assert w == Cyclotomic.integer(-1)


def test_unhashable():
    with pytest.raises(TypeError):
        hash(Cyclotomic.root(4))


def test_to_str_deterministic():
    assert Cyclotomic.integer(0).to_str() == "0"
    assert Cyclotomic.integer(-2).to_str() == "-2"
    assert Cyclotomic.root(4).to_str() == "z"
    assert (Cyclotomic.integer(1) + Cyclotomic.root(12, 2)).to_str() == "1+z^2"
    assert (-Cyclotomic.root(8, 3)).to_str() == "-z^3"


# -- induced monomial representations --------------------------------


def _rotation_subgroup(G):
    # cyclic normal part of a semidirect-product group; names are
    # (c, multiplier) pairs and the normal part has multiplier 1
    return [i for i, nm in enumerate(G.names) if nm[1] == 1]


def _faithful_rotation_char(G, sub):
    return linear_char(G, 4, sub, [G.names[g][0] for g in sub])


def test_induce_dihedral(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    chi = _faithful_rotation_char(G, sub)
    rho = MonomialRep.induce(G, chi)
    assert rho.degree == 2
    assert check_homomorphism(rho)
    assert DirectSumRep([rho]).kernel().tolist() == [G.identity]
    # character: 2 at identity, -2 at the central rotation, 0 elsewhere
    two, zero = Cyclotomic.integer(2), Cyclotomic.integer(0)
    vals = [character(rho, g) for g in range(G.order)]
    assert vals[G.identity] == two
    assert sum(1 for v in vals if v == -two) == 1
    assert sum(1 for v in vals if v == zero) == 6


def test_induced_character_formula_matches_matrices(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    chi = _faithful_rotation_char(G, sub)
    rho = MonomialRep.induce(G, chi)
    for g, value in zip(range(G.order), induced_character_formula(G, chi)):
        assert character(rho, g) == value


def test_linear_rep_and_direct_sum(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    chi = _faithful_rotation_char(G, sub)
    rho = MonomialRep.induce(G, chi)
    # sign character of the quotient by rotations
    sgn = linear_char(G, 2, range(G.order), [0 if g in sub else 1 for g in range(G.order)])
    lin = MonomialRep.induce(G, sgn)
    assert lin.degree == 1 and check_homomorphism(lin)
    s = DirectSumRep([rho, lin])
    assert isinstance(s, DirectSumRep)
    assert s.is_faithful()
    assert sum_character(s, G.identity) == Cyclotomic.integer(3)
    assert DirectSumRep([rho]).is_faithful()
    assert not DirectSumRep([lin]).is_faithful()
    assert DirectSumRep([lin]).kernel().tolist() == sub == _character_kernel(lin)


def test_linear_reads_rows(group):
    # the exponents land on their own generators, in whatever order they
    # come: here every row is one
    G = group("d4")
    sub = _rotation_subgroup(G)
    sgn = [0 if g in sub else 1 for g in range(G.order)]
    lin = MonomialRep.induce(G, LinearChar(2, range(G.order)[::-1], sgn[::-1]))
    assert lin.exps[:, 0].tolist() == sgn


def test_identity_matrix_detection(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    rho = MonomialRep.induce(G, _faithful_rotation_char(G, sub))
    for g in range(G.order):
        assert rho.identity_rows[g] == (g == G.identity)


def test_induce_past_numpy_is_a_cap_refusal():
    # past what numpy can index, the cosets' images and labels, the first
    # arrays of |G| entries, are refused before either is made, and so
    # before the spread's values: for no generator and for one
    import tracemalloc

    H = HeisenbergGroup(make_ring(2, 1, "inf", 1), 32)  # |G| = 2^65
    for gens in ([], [H.identity]):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError, match="the cosets of a subgroup cannot be allocated"):
                MonomialRep.induce(H, LinearChar(1, gens, [0] * len(gens)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


def test_induce_past_memory_is_a_cap_refusal(monkeypatch):
    # the cosets of <g>, g of order 2 in Z/64, fit in 1500 bytes: two
    # int64 rows of 64; the (|G|, degree) model, 64 x 32 uint8 for sigma,
    # does not, and is refused before numpy is asked
    from chainrep import group_models

    G = semidirect_cyclic(64, [1])
    g = int(np.flatnonzero(G.element_orders == 2)[0])
    monkeypatch.setattr(group_models.os, "sysconf", {"SC_PHYS_PAGES": 1500, "SC_PAGE_SIZE": 1}.__getitem__)
    with pytest.raises(CapExceededError) as info:
        MonomialRep.induce(G, LinearChar(2, [g], [1]))
    assert str(info.value) == (
        "|G| = 64: its induced model of degree 32 cannot be allocated (2048 bytes exceed the 1500 bytes of physical memory)"
    )


def test_core_check_past_memory_is_a_cap_refusal(monkeypatch):
    # the products of Z/64's rows with g, of order 2, fit in 1500 bytes;
    # with the memory figure then at 8 bytes, the first block of
    # conjugates of the trivial character's kernel <g> by the one
    # generator, 1 x 2 int64 rows, does not, and is refused before numpy
    # is asked
    from chainrep import group_models

    G = semidirect_cyclic(64, [1])
    g = int(np.flatnonzero(G.element_orders == 2)[0])
    assert len(G.generators) == 1
    memory = {"SC_PHYS_PAGES": 1500, "SC_PAGE_SIZE": 1}
    monkeypatch.setattr(group_models.os, "sysconf", memory.__getitem__)
    induced = InducedSum(G, [LinearChar(1, [g], [0])])
    assert induced.degrees == [32]
    memory["SC_PHYS_PAGES"] = 8
    with pytest.raises(CapExceededError) as info:
        induced.kernel()
    assert str(info.value) == (
        "|G| = 64: a block of conjugates by its generators cannot be allocated"
        " (16 bytes exceed the 8 bytes of physical memory)"
    )
    memory["SC_PHYS_PAGES"] = 1500
    assert induced.kernel().tolist() == sorted([G.identity, g])


def test_core_mask_past_numpy_is_a_cap_refusal():
    # the kernel mask of a group of order 2^62, 4 EiB, is refused before
    # numpy is asked, as the other arrays of |G| entries are
    import types

    with pytest.raises(CapExceededError, match="a mask of its elements cannot be allocated"):
        InducedSum(types.SimpleNamespace(order=2**62), [])


def test_characters_on_one_generator_list():
    # on Hei(F_3), two characters of <(0,1,0), (0,0,1), (0,1,1)>, whose
    # third generator is the product of the first two, and one of the
    # centre: the second is not multiplicative, and InducedSum names its
    # pair as induction does, whether the centre's list comes first or
    # not, and also when a bad character on a later list (z and z^2 both
    # at zeta_3) comes before it; a good second character gives the
    # models' kernels
    H = HeisenbergGroup(make_ring(3, 1, 1, 1))
    gens = [H.names.index(name) for name in [(0, 1, 0), (0, 0, 1), (0, 1, 1)]]
    centre = LinearChar(3, [H.names.index((0, 0, 1))], [1])
    off = LinearChar(3, [H.names.index((0, 0, 1)), H.names.index((0, 0, 2))], [1, 1])
    good, bad = LinearChar(3, gens, [1, 1, 2]), LinearChar(3, gens, [1, 1, 0])
    with pytest.raises(ChiNotHomomorphismError) as model:
        MonomialRep.induce(H, bad)
    assert str(model.value) == "chi not multiplicative at ((0, 0, 1), (0, 1, 0))"
    for chars in [[good, bad, centre], [centre, good, bad], [good, off, bad]]:
        with pytest.raises(ChiNotHomomorphismError) as induced:
            InducedSum(H, chars)
        assert str(induced.value) == str(model.value), chars
    _assert_core_kernels(H, [good, LinearChar(3, gens, [2, 0, 2]), centre])


def test_induce_rejects_non_character(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    exps = [G.names[g][0] for g in sub]
    exps[exps.index(1)] = 3  # breaks chi(a)chi(b) = chi(ab)
    with pytest.raises(ChiNotHomomorphismError):
        MonomialRep.induce(G, LinearChar(4, sub, exps))  # every row of the subgroup a generator
    # a generator r of order 4 at zeta_4^2 with r^2 at zeta_4, and the
    # identity as a generator at a value other than 1
    r = next(g for g in sub if G.names[g][0] == 1)
    for gens, values in [([r, G.product(r, r)], [2, 1]), ([G.identity], [1])]:
        with pytest.raises(ChiNotHomomorphismError):
            MonomialRep.induce(G, LinearChar(4, gens, values))


def test_non_character_message_names_the_elements():
    # zeta_3^[z != 0] at each row (0, 0, z) of the centre of Hei(F_3),
    # every one a generator, fails at (0, 0, 1)^2: a family names the
    # pair by its coordinates, a table group without names by its rows
    H = HeisenbergGroup(make_ring(3, 1, 1, 1))
    centre = rows_of(H, {2: range(3)})
    for G, pair in [(H, "((0, 0, 1), (0, 0, 1))"), (AbstractGroup(H.table), "(1, 1)")]:
        with pytest.raises(ChiNotHomomorphismError) as info:
            MonomialRep.induce(G, LinearChar(3, centre, [0, 1, 1]))
        assert str(info.value) == f"chi not multiplicative at {pair}"


def test_induce_checks_every_row_past_512():
    # Z/1024 and chi(c) = zeta_1024^c with row 9 off by one: row 9 is
    # one of the 56 rows that 1000 pairs sampled with seed 13 never touch
    G = semidirect_cyclic(1024, [1])
    exps = np.arange(1024)
    exps[9] += 1
    with pytest.raises(ChiNotHomomorphismError):
        MonomialRep.induce(G, LinearChar(1024, np.arange(1024), exps))


def test_check_homomorphism_checks_every_row_past_512():
    # the dihedral group of order 1024, induced from its rotations; row
    # 13, the reflection (6, 511), is one of the 55 rows that 1000 pairs
    # sampled with seed 17 never touch
    G = semidirect_cyclic(512, [511])
    sub = _rotation_subgroup(G)
    rho = MonomialRep.induce(G, linear_char(G, 512, sub, [G.names[g][0] for g in sub]))
    assert check_homomorphism(rho)
    assert G.names[13] == (6, 511)
    for t in range(rho.degree):
        rho.exps[13, t] += 1
        assert not check_homomorphism(rho)
        rho.exps[13, t] -= 1


def test_checks_use_every_generator(group):
    # scaling by zeta_4 on the coset {(1, 1), (1, 3)} (rows 2 and 3) of
    # the first generator, the reflection (0, 3), keeps every relation
    # through that generator: only the rotation (1, 1) catches it
    G = group("d4")
    assert G.generators == [1, 2] and G.product(2, 1) == 3
    sign = np.array([2 * (G.names[g][1] == 3) for g in range(G.order)])
    MonomialRep.induce(G, LinearChar(4, range(G.order), sign))
    sign[[2, 3]] += 1
    with pytest.raises(ChiNotHomomorphismError):
        MonomialRep.induce(G, LinearChar(4, range(G.order), sign))
    rho = MonomialRep.induce(G, _faithful_rotation_char(G, _rotation_subgroup(G)))
    rho.exps[[2, 3]] += 1
    assert not check_homomorphism(rho)


def test_check_homomorphism_rejects_non_invertible(group):
    # every matrix the projection e_0 <- e_0, e_1: multiplicative, yet no
    # homomorphism into GL_2, as rho(1) is not the identity
    G = group("d4")
    sigma = np.zeros((G.order, 2), dtype=np.int64)
    assert not check_homomorphism(MonomialRep(G, 2, 1, sigma, np.zeros_like(sigma)))


def test_check_homomorphism_upcasts_narrow_exponents():
    # uint8 sums wrap modulo 256, and 256 = 1 (mod 3): a defect of -1
    # would read 255 = 0 (mod 3).  One exponent of Hei(F_3)'s model moved
    # by -1 is refused, and so is this map of Z/9 to the cube roots of
    # unity, whose defects are -1 and 3 only
    rho = construct_faithful_heisenberg(make_ring(3, 1, "inf", 1)).reps[0]
    assert rho.scalar_order == 3 and rho.exps.dtype == np.uint8 and check_homomorphism(rho)
    g = rho.group.generators[0]
    rho.exps[g, 0] = (int(rho.exps[g, 0]) - 1) % 3
    assert not check_homomorphism(rho)
    Z = AbstractGroup(np.add.outer(np.arange(9), np.arange(9)) % 9)
    exps = np.array([[0], [1], [2], [0], [2], [0], [2], [0], [2]], dtype=np.uint8)
    assert not check_homomorphism(MonomialRep(Z, 1, 3, np.zeros_like(exps), exps))


def test_trivial_induction_is_regular_rep(group):
    # inducing the trivial character of the trivial subgroup gives the
    # regular representation: character |G| at 1 and 0 elsewhere
    G = group("q8")
    chi = LinearChar(1, [G.identity], [0])
    rho = MonomialRep.induce(G, chi)
    assert rho.degree == G.order
    assert character(rho, G.identity) == Cyclotomic.integer(G.order)
    for g in range(G.order):
        if g != G.identity:
            assert character(rho, g).is_zero()
    assert DirectSumRep([rho]).kernel().tolist() == [G.identity]


def test_induce_from_the_trivial_subgroup_is_the_regular_action(group, heis):
    # no generators: every row is its own coset, and sigma is the product,
    # on a table group, on a family's law and on the table of that law
    F = heis("hei3_f3")
    for G in (group("d4"), F, AbstractGroup(F.table, names=F.names, validate=False)):
        rows = np.arange(G.order)
        rho = MonomialRep.induce(G, LinearChar(1, [G.identity], [0]))
        assert rho.degree == G.order
        assert np.array_equal(rho.sigma, G.product(rows[:, None], rows))
        assert not rho.exps.any()


def _assert_induces_as_the_loop(G, chi, induce=MonomialRep.induce):
    # the loop's values, in the narrowest unsigned dtypes that hold
    # degree - 1 and order - 1
    rho = induce(G, chi)
    sigma, exps = induce_loop(G, chi)
    assert rho.sigma.dtype == np.min_scalar_type(sigma.shape[1] - 1) and np.array_equal(rho.sigma, sigma)
    assert rho.exps.dtype == np.min_scalar_type(chi.order - 1) and np.array_equal(rho.exps, exps)
    return rho


def test_induce_past_uint8():
    # degree 512 from the trivial subgroup of the dihedral group of order
    # 512 gives uint16 sigma; a faithful character of Z/1024 gives uint16
    # exps
    G = semidirect_cyclic(256, [255])
    rho = _assert_induces_as_the_loop(G, LinearChar(1, [G.identity], [0]))
    assert (rho.degree, rho.sigma.dtype, rho.exps.dtype) == (512, np.uint16, np.uint8)
    Z = semidirect_cyclic(1024, [1])
    rho = _assert_induces_as_the_loop(Z, linear_char(Z, 1024, range(1024), [Z.names[g][0] for g in range(1024)]))
    assert (rho.degree, rho.sigma.dtype, rho.exps.dtype) == (1, np.uint8, np.uint16)
    assert rho.exps[:, 0].tolist() == [Z.names[g][0] for g in range(1024)]
    # an order of 2^62 - 1 on Z/3, whose exponents float64 would round:
    # uint64 exps, and the sum of the same character is checked too
    W, m = semidirect_cyclic(3, [1]), 2**62 - 1
    chi = linear_char(W, m, range(3), [W.names[g][0] * (m // 3) for g in range(3)])
    rho = _assert_induces_as_the_loop(W, chi)
    assert (rho.degree, rho.exps.dtype) == (1, np.uint64)
    assert InducedSum(W, [chi]).is_faithful()


def test_induce_in_blocks_equals_one_block(monkeypatch):
    # the subgroup 16 Z/4096 of Z/4096 has 16 cosets; with blocks of 5
    # representatives the induction takes 4 ``_every`` calls, and gives
    # the one-block result
    from chainrep import exactrep

    G = semidirect_cyclic(4096, [1])
    rows = np.flatnonzero([G.names[g][0] % 16 == 0 for g in range(G.order)])
    chi = linear_char(G, 256, rows, [G.names[g][0] // 16 for g in rows])
    one = MonomialRep.induce(G, chi)
    calls = []
    every = type(G)._every
    monkeypatch.setattr(type(G), "_every", lambda self, J, right=True: calls.append(len(J)) or every(self, J, right))
    monkeypatch.setattr(exactrep, "_BLOCK", 5 * G.order)
    blocked = MonomialRep.induce(G, chi)
    assert calls[-4:] == [5, 5, 5, 1] and one.degree == 16
    for a, b in [(one.sigma, blocked.sigma), (one.exps, blocked.exps)]:
        assert a.dtype == b.dtype == np.uint8 and np.array_equal(a, b)


def test_induce_matches_the_discovery_loop(group):
    # the orbit-labelled cosets give the loop's sigma and exps: a
    # character of the center, of a maximal abelian subgroup and of each
    # cyclic subgroup <g> of a few rows, and the trivial character of the
    # trivial group, the commutator subgroup and the group
    for name in ["d4", "q8", "m16", "s3", "z7_z16", "gl2_f3", "u3_f3", "aff_z4", "hei3_z4"]:
        G = group(name)
        scan = structure_scan(G)
        cyclic = [np.flatnonzero(G._span([g])[0]) for g in range(0, G.order, max(1, G.order // 5))]
        for rows in [scan.center, G._maximal_abelian[0]] + cyclic:
            M, exps = abelian_characters(G, rows)[-1]
            _assert_induces_as_the_loop(G, linear_char(G, M, rows, exps))
        for rows in [[G.identity], scan.commutator_subgroup, range(G.order)]:
            _assert_induces_as_the_loop(G, linear_char(G, 1, rows, np.zeros(len(rows))))


def test_constructions_induce_as_the_discovery_loop(monkeypatch, group):
    # every induction of the Heisenberg, affine and two-step constructions,
    # made when their models are first read
    from chainrep.minfaith_solver import (
        construct_faithful_affine,
        construct_faithful_heisenberg,
        construct_faithful_two_step,
    )

    degrees = []

    def checked(G, chi):
        rho = _assert_induces_as_the_loop(G, chi, induce)
        degrees.append(rho.degree)
        return rho

    induce = MonomialRep.induce
    monkeypatch.setattr(MonomialRep, "induce", staticmethod(checked))
    for sol in [
        construct_faithful_heisenberg(make_ring(2, 1, 1, 2)),
        construct_faithful_heisenberg(make_ring(2, 2, "inf", 1)),
        construct_faithful_heisenberg(make_ring(3, 1, "inf", 1), k=2),
        construct_faithful_affine(make_ring(3, 1, 1, 2)),
        construct_faithful_affine(make_ring(2, 2, "inf", 1)),
        construct_faithful_two_step(group("m27")),
        construct_faithful_two_step(group("hei3_z4")),
        construct_faithful_two_step(semidirect_cyclic_hom(4, 3, 4)),
    ]:
        assert sol.verified_faithful and len(sol.reps) == len(sol.summands)
    assert degrees == [4, 4, 4, 9, 6, 3, 3, 4, 2, 1]


def _character_kernel(rep):
    # the kernel by its definition through characters: chi(g) = chi(1)
    one = character(rep, rep.group.identity)
    return [g for g in range(rep.group.order) if character(rep, g) == one]


@settings(max_examples=30, derandomize=True, deadline=None)
@given(st.data())
def test_row_kernel_is_character_kernel(data):
    # random Z/modulus by a unit subgroup, a random cyclic subgroup with a
    # random character, and a linear character through the unit part
    modulus = data.draw(st.integers(2, 30), label="modulus")
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    mults = data.draw(st.lists(st.sampled_from(units), min_size=1, max_size=2), label="mults")
    G = semidirect_cyclic(modulus, mults)
    g = data.draw(st.integers(0, G.order - 1), label="g")
    powers = [G.identity]
    while G.product(powers[-1], g) != G.identity:
        powers.append(G.product(powers[-1], g))
    j = data.draw(st.integers(0, len(powers) - 1), label="j")
    chi = LinearChar(len(powers), [g], [j])
    rep = MonomialRep.induce(G, chi)
    assert DirectSumRep([rep]).kernel().tolist() == _character_kernel(rep)
    top = [h for h, nm in enumerate(G.names) if nm[0] == 0]
    M, exps = data.draw(st.sampled_from(abelian_characters(G, top)), label="linear")
    at = {G.names[h]: e for h, e in zip(top, exps.tolist())}
    lin = MonomialRep.induce(G, linear_char(G, M, range(G.order), [at[0, nm[1]] for nm in G.names]))
    assert DirectSumRep([lin]).kernel().tolist() == _character_kernel(lin)
    both = set(_character_kernel(rep)) & set(_character_kernel(lin))
    assert DirectSumRep([rep, lin]).kernel().tolist() == sorted(both)


# -- the kernel by cores ----------------------------------------------


def _assert_core_kernels(G, chars):
    # InducedSum's degrees and kernel are the models': for the sum, each
    # summand alone and the sum with each summand dropped
    models = [MonomialRep.induce(G, chi) for chi in chars]
    picks = [list(range(len(chars)))] + [[i] for i in range(len(chars))]
    picks += [[j for j in range(len(chars)) if j != i] for i in range(len(chars))] if len(chars) > 1 else []
    for pick in picks:
        induced = InducedSum(G, [chars[i] for i in pick])
        assert induced.degrees == [models[i].degree for i in pick]
        kernel = DirectSumRep([models[i] for i in pick]).kernel()
        assert np.array_equal(induced.kernel(), kernel), pick
        assert induced.is_faithful() == (kernel.tolist() == [G.identity])


def test_core_kernel_is_the_model_kernel_on_every_construction(monkeypatch, group):
    # every construction tier-1 builds, from the default suite and the
    # tests: the characters each hands to InducedSum, whose kernel by
    # cores is the kernel of their models, and not only when trivial
    from chainrep import minfaith_solver
    from chainrep.cli import load_default_suite
    from chainrep.minfaith_solver import (
        construct_faithful_affine,
        construct_faithful_two_step,
        run_routes,
    )
    from chainrep.oracle import _suite_instance

    made = []

    class Recorded(InducedSum):
        def __init__(self, G, chars):
            super().__init__(G, chars)
            made.append((G, self.chars))

    monkeypatch.setattr(minfaith_solver, "InducedSum", Recorded)
    for inst in load_default_suite()["instances"]:
        run = run_routes(_suite_instance(inst), inst, "construct")
        assert run.error is None, inst["name"]
    for params, k in [((2, 1, 1, 2), 1), ((2, 1, "inf", 2), 1), ((2, 1, 2, 2), 1), ((2, 1, 1, 3), 1),
                      ((2, 2, "inf", 1), 1), ((3, 1, "inf", 1), 2), ((2, 4, 1, 1), 1), ((2, 1, 1, 4), 1)]:
        construct_faithful_heisenberg(make_ring(*params), k)
    for params in [(3, 1, 1, 1), (2, 1, 1, 2), (3, 1, 1, 2), (2, 2, 1, 1), (2, 2, "inf", 1)]:
        construct_faithful_affine(make_ring(*params))
    for G in [group("hei3_z4"), group("hei3_z9"), semidirect_cyclic_hom(8, 5, 4), semidirect_cyclic_hom(4, 3, 4),
              HeisenbergGroup(make_ring(2, 1, 1, 3)).to_abstract(), HeisenbergGroup(make_ring(2, 1, 1, 4)).to_abstract()]:
        construct_faithful_two_step(G)
    assert len(made) == 41
    assert sum(len(chars) > 1 for _, chars in made) == 9
    for G, chars in made:
        _assert_core_kernels(G, chars)


@lru_cache(maxsize=None)
def _property_group(spec):
    family, *params = spec
    if family == "heisenberg":
        return HeisenbergGroup(make_ring(*params[:4]), params[4])
    return semidirect_cyclic_hom(*params)


# semidirect_cyclic_hom(modulus, multiplier, h_order) of order at most
# 600, and the tier-1 Heisenberg groups up to order 729, drawn half and half
CORE_GROUPS = (
    [("semidirect", modulus, u, h) for modulus in range(2, 31) for u in range(1, modulus)
     if gcd(u, modulus) == 1 for h in range(1, 601 // modulus) if pow(u, h, modulus) == 1],
    [("heisenberg", *params, k) for params, k in [((2, 1, 1, 1), 1), ((3, 1, 1, 1), 1), ((5, 1, 1, 1), 1),
                                                   ((2, 2, "inf", 1), 1), ((2, 1, 1, 2), 1), ((2, 1, "inf", 2), 1),
                                                   ((2, 1, 2, 2), 1), ((3, 1, 1, 2), 1), ((2, 1, 1, 1), 2)]],
)


def _random_character(data, G, label):
    # a random subgroup, the span of up to three random rows, and on it a
    # random character when it is abelian (one of all its characters), or
    # random values otherwise, which may not be a character
    rows = data.draw(st.lists(st.integers(0, G.order - 1), min_size=1, max_size=3), label=f"{label} rows")
    mask, gens = G._span(rows)
    sub, g = np.flatnonzero(mask), np.array(gens, dtype=np.int64)
    if (G.product(g[:, None], g) == G.product(g, g[:, None])).all():
        M, exps = data.draw(st.sampled_from(abelian_characters(G, sub)), label=f"{label} character")
        return linear_char(G, M, sub, exps)
    m = data.draw(st.integers(1, 6), label=f"{label} order")
    values = st.lists(st.integers(0, m - 1), min_size=len(gens), max_size=len(gens))
    return LinearChar(m, gens, data.draw(values, label=f"{label} values"))


@seed(20261021)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(st.data())
def test_core_kernel_property(data):
    # random characters of random subgroups, two of them on one subgroup
    # (the second a power of the first): InducedSum checks each as
    # induction does, with the same refusal, and its kernel by cores is
    # the models' on every sum, summand and sum less one summand
    G = _property_group(data.draw(st.sampled_from(CORE_GROUPS).flatmap(st.sampled_from), label="group"))
    chars = [_random_character(data, G, "first"), _random_character(data, G, "second")]
    t = data.draw(st.integers(0, 5), label="power")
    chars.insert(1, LinearChar(chars[0].order, chars[0].gens, t * chars[0].exps))
    bad = next((chi for chi in chars if word_values(G, chi) is None), None)
    if bad is None:
        _assert_core_kernels(G, chars)
        return
    with pytest.raises(ChiNotHomomorphismError) as induced:
        InducedSum(G, chars)
    with pytest.raises(ChiNotHomomorphismError) as model:
        MonomialRep.induce(G, bad)
    assert str(induced.value) == str(model.value)


def test_constructions_are_checked_without_models(monkeypatch, group):
    # with induction refused, every construction is still kernel-checked,
    # and its models are induced only when reps is first read
    from chainrep.minfaith_solver import construct_faithful_affine, construct_faithful_two_step

    def refuse(G, chi):
        raise AssertionError("a model was induced")

    monkeypatch.setattr(MonomialRep, "induce", staticmethod(refuse))
    for sol in [construct_faithful_heisenberg(make_ring(2, 4, 1, 1)), construct_faithful_affine(make_ring(3, 1, 1, 2)),
                construct_faithful_two_step(group("hei3_z4"))]:
        assert sol.verified_faithful is True
        with pytest.raises(AssertionError, match="a model was induced"):
            sol.reps
