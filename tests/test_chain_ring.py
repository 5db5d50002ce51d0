"""Chain-ring arithmetic, filtration structure, and (non-)isomorphism tests."""

import math

import pytest

from chainrep.chain_ring import (
    INF,
    RingParameterError,
    make_ring,
    minimal_irreducible,
)
from reference import unit_inverse_table

SMALL = ["f2", "f3", "f4", "z4", "f2t2", "ram222", "z9", "gr42"]


def test_parameter_validation():
    with pytest.raises(RingParameterError):
        make_ring(4, 1, 1, 1)
    with pytest.raises(RingParameterError):
        make_ring(2, 0, 1, 1)
    with pytest.raises(RingParameterError):
        make_ring(2, 1, 0, 1)
    with pytest.raises(RingParameterError):
        make_ring(2, 1, 1, 0)
    with pytest.raises(RingParameterError):
        make_ring(2, 1, 1.5, 2)


def test_size_and_residue_parameters(ring):
    expected = {
        "f2": (2, 2, 1),
        "f3": (3, 3, 1),
        "f4": (4, 4, 1),
        "z4": (2, 4, 1),
        "f2t2": (2, 4, 2),
        "ram222": (2, 4, 2),
        "z9": (3, 9, 1),
        "gr42": (4, 16, 1),
        "z8": (2, 8, 1),
    }
    for name, (q, size, xi) in expected.items():
        R = ring(name)
        assert (R.q, R.size, R.xi) == (q, size, xi)


def test_string_inf_accepted():
    assert make_ring(2, 1, "inf", 2) == make_ring(2, 1, INF, 2)


def test_minimal_irreducible_frozen():
    # lex-least monic irreducibles, coefficient order (c0, ..., 1)
    assert minimal_irreducible(2, 1) == (0, 1)
    assert minimal_irreducible(2, 2) == (1, 1, 1)
    assert minimal_irreducible(3, 2) == (1, 0, 1)
    assert minimal_irreducible(5, 2) == (2, 0, 1)
    assert minimal_irreducible(2, 3) == (1, 1, 0, 1)


def test_from_int_index_roundtrip(ring):
    for name in SMALL:
        R = ring(name)
        seen = set()
        for idx in range(R.size):
            a = R.from_index(idx)
            assert a.index == idx
            seen.add(a.coords)
        assert len(seen) == R.size
        # from_int hits every residue of the characteristic subring
        char = R.additive_order(R.one)
        imgs = {R.from_int(m).index for m in range(char)}
        assert len(imgs) == char


def test_ring_laws_exhaustive_small(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        els = list(R.elements())
        for a in els:
            for b in els:
                assert (a + b).coords == (b + a).coords
                assert (a * b).coords == (b * a).coords
                assert (a + (-a)).is_zero()
        one = R.one
        for a in els:
            assert (one * a).coords == a.coords
        for a in els[:6]:
            for b in els:
                for c in els:
                    assert ((a + b) + c).coords == (a + (b + c)).coords
                    assert ((a * b) * c).coords == (a * (b * c)).coords
                    assert (a * (b + c)).coords == (a * b + a * c).coords


def test_ring_laws_sampled(ring, rng):
    for name in ["gr42", "f4", "z8"]:
        R = ring(name)
        for _ in range(200):
            a = R.from_index(rng.randrange(R.size))
            b = R.from_index(rng.randrange(R.size))
            c = R.from_index(rng.randrange(R.size))
            assert ((a + b) + c).coords == (a + (b + c)).coords
            assert ((a * b) * c).coords == (a * (b * c)).coords
            assert (a * (b + c)).coords == (a * b + a * c).coords
            assert (a - b).coords == (a + (-b)).coords


def test_characteristic(ring):
    # additive order of 1 is p^ceil(n/e)
    assert ring("f2t2").additive_order(ring("f2t2").one) == 2
    assert ring("z4").additive_order(ring("z4").one) == 4
    assert ring("ram222").additive_order(ring("ram222").one) == 2
    assert ring("gr42").additive_order(ring("gr42").one) == 4
    assert ring("z8").additive_order(ring("z8").one) == 8


def test_valuation_multiplicative(ring, rng):
    for name in SMALL:
        R = ring(name)
        els = list(R.elements())
        for _ in range(300):
            a, b = rng.choice(els), rng.choice(els)
            va, vb = R.valuation(a), R.valuation(b)
            assert R.valuation(a * b) == min(va + vb, R.n)
            assert R.valuation(a + b) >= min(va, vb)
        assert R.valuation(R.zero) == R.n
        for a in els:
            assert a.is_unit() == (R.valuation(a) == 0)


def test_uniformizer_and_ideals(ring):
    for name in SMALL:
        R = ring(name)
        pw = R.one
        for j in range(R.n + 1):
            ideal = R.ideal_indices(j)
            assert len(ideal) == R.q ** (R.n - j)
            assert pw.index in ideal
            pw = pw * R.uniformizer
        assert pw.is_zero()


def test_unit_count_matches_enumeration(ring):
    for name in SMALL:
        R = ring(name)
        assert R.unit_count() == sum(1 for _ in R.units())
        assert R.unit_count() == R.q**R.n - R.q ** (R.n - 1)


def test_unit_inverses(ring):
    for name in ["z4", "f2t2", "z9", "gr42"]:
        R = ring(name)
        for idx, inv in unit_inverse_table(R).items():
            prod = R.from_index(idx) * R.from_index(inv)
            assert prod.coords == R.one.coords


def test_omega1_is_p_torsion(ring):
    for name in SMALL:
        R = ring(name)
        torsion = {a.index for a in R.elements() if R.additive_order(a) in (1, R.p)}
        assert torsion == set(R.ideal_indices(R.n - R.xi))
        assert len(torsion) == R.p**R.d_invariant
        gens = [R.from_index(g) for g in R.omega1_generators()]
        assert len(gens) == R.d_invariant
        for g in gens:
            assert g.index in torsion and not g.is_zero()
        # generators are independent: the p^d sums they generate are distinct
        span = {R.zero.coords}
        for g in gens:
            acc = set()
            for s in span:
                x = R.element(s)
                for _ in range(R.p):
                    acc.add(x.coords)
                    x = x + g
            span = acc
        assert len(span) == R.p**R.d_invariant


def test_tables_agree_with_arithmetic(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        for a in range(R.size):
            ea = R.from_index(a)
            for b in range(R.size):
                eb = R.from_index(b)
                assert int(R.add_table[a, b]) == (ea + eb).index
                assert int(R.mul_table[a, b]) == (ea * eb).index
            assert int(R.neg_table[a]) == (-ea).index
            assert int(R.valuation_table[a]) == R.valuation(ea)


def test_eisenstein_square_is_two(ring):
    # fully ramified quadratic over Z/2: pi^2 = 2 (unit u = 1)
    R = ring("ram222")
    pi2 = R.uniformizer * R.uniformizer
    assert pi2.coords == R.from_int(2).coords


def test_galois_ring_frobenius_like_structure(ring):
    # GR(4, 2): 16 elements, char 4, residue field F_4
    R = ring("gr42")
    assert R.additive_order(R.one) == 4
    assert R.unit_count() == 12
    # p * omega generates the socle together with p
    p_elt = R.from_int(2)
    assert R.valuation(p_elt) == 1


def test_ring_isomorphism_positive(ring):
    # pi^2 = 2 = 0 in the residue-2 truncation: ramified quadratic over
    # Z/2 with n = 2 is the same ring as F_2[t]/t^2.  The two carry the
    # same digit coordinates and the same tables, so the identity map on
    # indices is an isomorphism
    R1, R2 = ring("ram222"), ring("f2t2")
    assert R1.size == R2.size == 4
    assert (R1.add_table == R2.add_table).all()
    assert (R1.mul_table == R2.mul_table).all()


def test_ring_isomorphism_negative(ring):
    # the characteristic (the additive order of 1) tells each pair apart
    for R1, R2, orders in (
        (ring("z4"), ring("f2t2"), (4, 2)),
        (ring("gr42"), make_ring(2, 2, INF, 2), (4, 2)),
        (ring("f4"), ring("z4"), (2, 4)),
    ):
        assert R1.size == R2.size
        assert (R1.additive_order(R1.one), R2.additive_order(R2.one)) == orders


def test_additive_order_table(ring):
    # orders stratify by valuation level
    R = ring("z8")
    for a in R.elements():
        v = R.valuation(a)
        expect = 1 if v >= 3 else 2 ** (3 - v)
        assert R.additive_order(a) == expect
    R = ring("f3t2")
    for a in R.elements():
        assert R.additive_order(a) == (1 if a.is_zero() else 3)
