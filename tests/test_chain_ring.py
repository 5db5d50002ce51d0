"""Chain-ring arithmetic, filtration structure, and (non-)isomorphism tests."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.chain_ring import (
    INF,
    RingParameterError,
    _divide,
    _powers,
    make_ring,
    minimal_irreducible,
)
from reference import (
    additive_order,
    element,
    from_index,
    from_int,
    ring_elements,
    ring_one,
    ring_units,
    ring_zero,
    uniformizer,
    unit_inverse_table,
    valuation,
)

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


def test_minimal_irreducible_is_searched_once(monkeypatch):
    # the polynomial depends on (p, f) alone: a second ring over F_27
    # reuses the first ring's search, whose first candidate x^3 is reducible
    from chainrep import chain_ring

    calls = []
    test = chain_ring._is_irreducible
    monkeypatch.setattr(chain_ring, "_is_irreducible", lambda h, p: calls.append(h) or test(h, p))
    minimal_irreducible.cache_clear()
    make_ring(3, 3, 1, 1)
    searched = len(calls)
    make_ring(3, 3, 1, 1)
    assert searched > 1 and len(calls) == searched


@seed(20261019)
@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-30, 30), max_size=16),
    st.sampled_from((0, 2, 3, 5, 7)),
    st.integers(1, 14),
)
def test_divide_and_powers(low, num, p, count):
    # num = quot * den + rem with len(rem) = deg den, over Z (p = 0) and
    # mod p with every coefficient in [0, p); row s of _powers(den, count)
    # is the remainder of x^s
    den, deg = low + [1], len(low)
    quot, rem = _divide(num, den, p)
    assert len(rem) == deg
    back = [0] * max(len(num), len(quot) + deg)
    for i, c in enumerate(quot):
        for t, v in enumerate(den):
            back[i + t] += c * v
    for t, c in enumerate(rem):
        back[t] += c
    num = num + [0] * (len(back) - len(num))
    if p:
        assert all(0 <= c < p for c in quot + rem)
        num, back = [c % p for c in num], [c % p for c in back]
    assert back == num
    powers = _powers(den, count)
    assert powers.shape == (count, deg)
    for s in range(count):
        assert powers[s].tolist() == _divide([0] * s + [1], den)[1], s


def test_from_int_index_roundtrip(ring):
    for name in SMALL:
        R = ring(name)
        seen = set()
        for idx in range(R.size):
            a = from_index(R, idx)
            assert a.index == idx
            seen.add(a.coords)
        assert len(seen) == R.size
        # from_int hits every residue of the characteristic subring
        char = additive_order(R, ring_one(R))
        imgs = {from_int(R, m).index for m in range(char)}
        assert len(imgs) == char


def test_ring_laws_exhaustive_small(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        els = list(ring_elements(R))
        for a in els:
            for b in els:
                assert (a + b).coords == (b + a).coords
                assert (a * b).coords == (b * a).coords
                assert (a + (-a)).is_zero()
        one = ring_one(R)
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
            a = from_index(R, rng.randrange(R.size))
            b = from_index(R, rng.randrange(R.size))
            c = from_index(R, rng.randrange(R.size))
            assert ((a + b) + c).coords == (a + (b + c)).coords
            assert ((a * b) * c).coords == (a * (b * c)).coords
            assert (a * (b + c)).coords == (a * b + a * c).coords
            assert (a - b).coords == (a + (-b)).coords


def test_characteristic(ring):
    # additive order of 1 is p^ceil(n/e)
    assert additive_order(ring("f2t2"), ring_one(ring("f2t2"))) == 2
    assert additive_order(ring("z4"), ring_one(ring("z4"))) == 4
    assert additive_order(ring("ram222"), ring_one(ring("ram222"))) == 2
    assert additive_order(ring("gr42"), ring_one(ring("gr42"))) == 4
    assert additive_order(ring("z8"), ring_one(ring("z8"))) == 8


def test_valuation_multiplicative(ring, rng):
    for name in SMALL:
        R = ring(name)
        els = list(ring_elements(R))
        for _ in range(300):
            a, b = rng.choice(els), rng.choice(els)
            va, vb = valuation(R, a), valuation(R, b)
            assert valuation(R, a * b) == min(va + vb, R.n)
            assert valuation(R, a + b) >= min(va, vb)
        assert valuation(R, ring_zero(R)) == R.n
        for a in els:
            assert a.is_unit() == (valuation(R, a) == 0)


def test_uniformizer_and_ideals(ring):
    for name in SMALL:
        R = ring(name)
        pw = ring_one(R)
        for j in range(R.n + 1):
            ideal = R.ideal_indices(j)
            assert len(ideal) == R.q ** (R.n - j)
            assert pw.index in ideal
            pw = pw * uniformizer(R)
        assert pw.is_zero()


def test_unit_count_matches_enumeration(ring):
    for name in SMALL:
        R = ring(name)
        assert R.unit_count() == sum(1 for _ in ring_units(R))
        assert R.unit_count() == R.q**R.n - R.q ** (R.n - 1)


def test_unit_inverses(ring):
    for name in ["z4", "f2t2", "z9", "gr42"]:
        R = ring(name)
        for idx, inv in unit_inverse_table(R).items():
            prod = from_index(R, idx) * from_index(R, inv)
            assert prod.coords == ring_one(R).coords


def test_omega1_is_p_torsion(ring):
    for name in SMALL:
        R = ring(name)
        torsion = {a.index for a in ring_elements(R) if additive_order(R, a) in (1, R.p)}
        assert torsion == set(R.ideal_indices(R.n - R.xi))
        assert len(torsion) == R.p**R.d_invariant
        gens = [from_index(R, g) for g in R.omega1_generators()]
        assert len(gens) == R.d_invariant
        for g in gens:
            assert g.index in torsion and not g.is_zero()
        # generators are independent: the p^d sums they generate are distinct
        span = {ring_zero(R).coords}
        for g in gens:
            acc = set()
            for s in span:
                x = element(R, s)
                for _ in range(R.p):
                    acc.add(x.coords)
                    x = x + g
            span = acc
        assert len(span) == R.p**R.d_invariant


def test_tables_agree_with_arithmetic(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        assert R.add_table.dtype == R.mul_table.dtype == np.int64
        for a in range(R.size):
            ea = from_index(R, a)
            for b in range(R.size):
                eb = from_index(R, b)
                assert int(R.add_table[a, b]) == (ea + eb).index
                assert int(R.mul_table[a, b]) == (ea * eb).index
            assert int(R.valuation_table[a]) == valuation(R, ea)


def test_table_build_peaks_near_the_tables():
    # F_2[t]/t^10: 1024 elements, 10 digits; chunks of N * fn digit
    # entries keep the traced peak of the build under three times the
    # two finished tables (16.8 MB), where a whole (N, N, fn) int64 digit
    # array alone would be 84 MB
    import tracemalloc

    R = make_ring(2, 1, INF, 10)
    R.basis_products, R._place
    tracemalloc.start()
    try:
        R._tables
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= 2 * 8 * R.size**2 and peak < 3 * held


def test_eisenstein_square_is_two(ring):
    # fully ramified quadratic over Z/2: pi^2 = 2 (unit u = 1)
    R = ring("ram222")
    pi2 = uniformizer(R) * uniformizer(R)
    assert pi2.coords == from_int(R, 2).coords


def test_galois_ring_frobenius_like_structure(ring):
    # GR(4, 2): 16 elements, char 4, residue field F_4
    R = ring("gr42")
    assert additive_order(R, ring_one(R)) == 4
    assert R.unit_count() == 12
    # p * omega generates the socle together with p
    p_elt = from_int(R, 2)
    assert valuation(R, p_elt) == 1


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
        assert (additive_order(R1, ring_one(R1)), additive_order(R2, ring_one(R2))) == orders


def test_additive_order_table(ring):
    # orders stratify by valuation level
    R = ring("z8")
    for a in ring_elements(R):
        v = valuation(R, a)
        expect = 1 if v >= 3 else 2 ** (3 - v)
        assert additive_order(R, a) == expect
    R = ring("f3t2")
    for a in ring_elements(R):
        assert additive_order(R, a) == (1 if a.is_zero() else 3)
