"""Cyclotomic polynomials, the exact cyclotomic reference, and monomial
induced representations."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrep.chain_ring import CapExceededError, make_ring
from chainrep.exactrep import (
    ChiNotHomomorphismError,
    DirectSumRep,
    LinearChar,
    MonomialRep,
    NotSubgroupError,
    cyclotomic_polynomial,
)
from chainrep.group_models import (
    AbstractGroup,
    HeisenbergGroup,
    semidirect_cyclic,
    semidirect_cyclic_hom,
    structure_scan,
)
from reference import (
    Cyclotomic,
    abelian_characters,
    character,
    check_homomorphism,
    cyc_sum,
    induce_loop,
    induced_character_formula,
    sum_character,
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
    return LinearChar(4, sub, [G.names[g][0] for g in sub])


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
    sgn = LinearChar(2, range(G.order), [0 if g in sub else 1 for g in range(G.order)])
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
    # the exponents land on their own rows, in whatever order they come
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


def test_induce_rejects_non_subgroup(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    # drops one rotation: not closed; repeats one; drops r^3 and repeats
    # r, a list as long as <r> that spans it
    for bad in (sub[:-1], sub + sub[:1], sub[:-1] + sub[1:2]):
        with pytest.raises(NotSubgroupError):
            MonomialRep.induce(G, LinearChar(1, bad, [0] * len(bad)))


def test_induce_past_numpy_is_a_cap_refusal():
    # the subgroup check counts the span's mask, the first array of |G|
    # entries: past what numpy can index, induction is refused as the
    # span is
    H = HeisenbergGroup(make_ring(2, 1, "inf", 1), 32)  # |G| = 2^65
    with pytest.raises(CapExceededError, match="a mask of its elements cannot be allocated"):
        MonomialRep.induce(H, LinearChar(1, [H.identity], [0]))


def test_induce_rejects_non_character(group):
    G = group("d4")
    sub = _rotation_subgroup(G)
    exps = [G.names[g][0] for g in sub]
    exps[exps.index(1)] = 3  # breaks chi(a)chi(b) = chi(ab)
    with pytest.raises(ChiNotHomomorphismError):
        MonomialRep.induce(G, LinearChar(4, sub, exps))


def test_non_character_message_names_the_elements():
    # chi(0, 0, z) = zeta_3^[z != 0] on the centre of Hei(F_3) fails at
    # (0, 0, 1)^2: a family names the pair by its coordinates, a table
    # group without names by its rows
    H = HeisenbergGroup(make_ring(3, 1, 1, 1))
    centre = H._rows({2: range(3)})
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
    rho = MonomialRep.induce(G, LinearChar(512, sub, [G.names[g][0] for g in sub]))
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
    rho = induce(G, chi)
    sigma, exps = induce_loop(G, chi)
    assert rho.sigma.dtype == sigma.dtype and np.array_equal(rho.sigma, sigma)
    assert rho.exps.dtype == exps.dtype and np.array_equal(rho.exps, exps)
    return rho


def test_induce_matches_the_discovery_loop(group):
    # the orbit-labelled cosets give the loop's sigma and exps: a
    # character of the center, of a maximal abelian subgroup and of each
    # cyclic subgroup <g> of a few rows, and the trivial character of the
    # trivial group, the commutator subgroup and the group
    for name in ["d4", "q8", "m16", "s3", "z7_z16", "gl2_f3", "u3_f3", "aff_z4", "hei3_z4"]:
        G = group(name)
        scan = structure_scan(G)
        cyclic = [np.flatnonzero(G._span([g])[0]) for g in range(0, G.order, max(1, G.order // 5))]
        for rows in [scan.center, scan.maximal_abelian] + cyclic:
            M, exps = abelian_characters(G, rows)[-1]
            _assert_induces_as_the_loop(G, LinearChar(M, rows, exps))
        for rows in [[G.identity], scan.commutator, range(G.order)]:
            _assert_induces_as_the_loop(G, LinearChar(1, rows, np.zeros(len(rows))))


def test_constructions_induce_as_the_discovery_loop(monkeypatch, group):
    # every induction of the Heisenberg, affine and two-step constructions
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
        assert sol.verified_faithful
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
    chi = LinearChar(len(powers), powers, [i * j for i in range(len(powers))])
    rep = MonomialRep.induce(G, chi)
    assert DirectSumRep([rep]).kernel().tolist() == _character_kernel(rep)
    top = [h for h, nm in enumerate(G.names) if nm[0] == 0]
    M, exps = data.draw(st.sampled_from(abelian_characters(G, top)), label="linear")
    at = {G.names[h]: e for h, e in zip(top, exps.tolist())}
    lin = MonomialRep.induce(G, LinearChar(M, range(G.order), [at[0, nm[1]] for nm in G.names]))
    assert DirectSumRep([lin]).kernel().tolist() == _character_kernel(lin)
    both = set(_character_kernel(rep)) & set(_character_kernel(lin))
    assert DirectSumRep([rep, lin]).kernel().tolist() == sorted(both)
