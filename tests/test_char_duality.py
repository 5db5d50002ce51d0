"""Additive characters, the socle restriction map, and F_p matroid helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chainrep.chain_ring import INF, make_ring
from chainrep.char_duality import (
    AddChar,
    DualVector,
    NotSpanningError,
    basis_greedy,
    character_weights,
    fp_rank,
    psi,
    psi_b,
    restrict_to_omega1,
    spans_dual,
)
from chainrep.exactrep import cyc_sum
from reference import conductor

DUALITY_RINGS = ["f2", "f3", "f4", "f5", "z4", "f2t2", "ram222", "z9", "gr42", "z8"]


# -- the fixed primitive character by enumeration, as a reference ------


def reference_character_data(R):
    """(modulus p^M, exponent per element index) of the fixed primitive
    character, built by enumerating the ring: the trace for unramified
    rings from a search for the roots of the unramified polynomial, the
    digit sum in equal characteristic, the precision blocks when
    ramified."""
    p, f, e, n = R.p, R.f, R.e, R.n
    N = R.size
    digits = np.array([R.from_index(i).coords for i in range(N)], dtype=np.int64)
    if e == INF:
        mod = p
        exps = np.remainder(digits.sum(axis=1), p)
    elif e == 1:
        mod = p**n
        # column values a_i(x) = sum_j c[i][j] p^j per basis unit omega_i
        pw = np.array([p**j for j in range(n)], dtype=np.int64)
        A = np.stack([digits[:, i * n : (i + 1) * n] @ pw for i in range(f)], axis=1)
        if f == 1:
            exps = np.remainder(A[:, 0], mod)
        else:
            tvec = reference_trace_coefficients(R)
            exps = np.remainder(A @ np.array(tvec, dtype=np.int64), mod)
    else:
        M = -(-n // e)
        mod = p**M
        exps = np.zeros(N, dtype=np.int64)
        for i in range(f):
            for j in range(R.xi):
                mj = -(-(n - j) // e)
                t = np.zeros(N, dtype=np.int64)
                l = 0
                while j + e * l < n:
                    t += digits[:, i * n + j + e * l] * p**l
                    l += 1
                exps += t * p ** (M - mj)
        exps = np.remainder(exps, mod)
    socle = [i for i in range(N) if R.valuation_table[i] >= n - 1]
    assert any(exps[i] % mod for i in socle), "base character not primitive"
    return mod, tuple(int(v) for v in exps)


def reference_trace_coefficients(R):
    """Integer power sums T_i = sum of rho^(i-1) over the roots rho of
    the unramified polynomial, found by searching R (e = 1, f >= 2)."""
    f, n, p = R.f, R.n, R.p
    h = R.unramified_poly
    roots = []
    for a in R.elements():
        acc = R.zero
        pw = R.one
        for c in h:
            if c:
                acc = acc + pw * R.from_int(c)
            pw = pw * a
        if acc.is_zero():
            roots.append(a)
    assert len(roots) == f, f"found {len(roots)} roots of the unramified polynomial"
    out = []
    for i in range(f):
        s = R.zero
        for rho in roots:
            pw = R.one
            for _ in range(i):
                pw = pw * rho
            s = s + pw
        # Galois-stable, so s lies in the prime subring
        assert all(s.coords[k * n + j] == 0 for k in range(1, f) for j in range(n))
        out.append(sum(s.coords[j] * p**j for j in range(n)))
    return out


def values(R):
    """Exponents of the fixed primitive character on every element."""
    return psi(R, np.arange(R.size))


def test_psi_matches_enumeration(ring):
    # the digit weights, with the traces from Newton's identities, against
    # the enumerated table and the root search: all three regimes, on the
    # eleven test rings and four Galois rings of degree 3 and 4
    extra = [(2, 3, 1, 2), (3, 3, 1, 1), (2, 4, 1, 1), (2, 3, 1, 3)]
    for R in [ring(name) for name in DUALITY_RINGS + ["f3t2"]] + [make_ring(*t) for t in extra]:
        mod, exps = reference_character_data(R)
        assert character_weights(R)[0] == mod
        assert values(R).tolist() == list(exps), R


# every (p, f, e, n) with at most 256 elements, e in {1, 2, 3, inf}
SMALL_RINGS = [
    (p, f, e, n)
    for p in (2, 3, 5, 7, 11, 13)
    for f in range(1, 9)
    for e in (1, 2, 3, INF)
    for n in range(1, 9)
    if p ** (f * n) <= 256
]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS))
def test_ring_tables_and_psi_property(params):
    # the vectorized digits, valuations and negatives agree with the
    # scalar arithmetic; psi is additive and nontrivial on the socle
    R = make_ring(*params)
    idx = np.arange(R.size)
    elems = list(R.elements())
    assert R.digits(idx).tolist() == [list(x.coords) for x in elems]
    assert R.valuation_table.tolist() == [R.valuation(x) for x in elems]
    assert R.neg_table.tolist() == [(-x).index for x in elems]
    mod, vals = character_weights(R)[0], values(R)
    assert ((vals[:, None] + vals[None, :] - vals[R.add_table]) % mod == 0).all()
    assert psi(R, R.ideal_indices(R.n - 1)).any()


def test_base_character_modulus(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        assert mod == R.additive_order(R.one)
        assert len(base) == R.size
        assert base[0] == 0


def test_base_character_additive(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        add = R.add_table
        for a in range(R.size):
            for b in range(R.size):
                assert base[int(add[a, b])] == (base[a] + base[b]) % mod


def test_base_character_primitive(ring):
    # psi restricts nontrivially to the minimal ideal, so its kernel
    # contains no nonzero ideal
    for name in DUALITY_RINGS:
        R = ring(name)
        base = values(R)
        socle = [i for i in R.ideal_indices(R.n - 1) if i != 0]
        assert any(base[i] != 0 for i in socle)


def test_base_character_family_formulas(ring):
    # unramified truncated-polynomial case: digit sum
    for name in ["f2", "f3", "f4", "f2t2"]:
        R = ring(name)
        p, base = R.p, values(R)
        for x in R.elements():
            assert base[x.index] == sum(x.coords) % p
    # cyclic case Z/p^n: the integer itself
    for name in ["z4", "z9", "z8"]:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        assert mod == R.size
        for m in range(R.size):
            assert base[R.from_int(m).index] == m % mod


def test_psi_b_matches_multiplication(ring):
    for name in ["z4", "f2t2", "z9", "gr42"]:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        for b in R.elements():
            chi = psi_b(R, b)
            assert chi.modulus == mod
            for x in range(R.size):
                assert chi.value_exp(x) == base[int(R.mul_table[b.index, x])]


def test_psi_b_injective(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        seen = {tuple(psi_b(R, b).value_exp(x) for x in range(R.size)) for b in R.elements()}
        assert len(seen) == R.size


def test_level_and_conductor(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        for b in R.elements():
            chi = psi_b(R, b)
            assert chi.level == R.valuation(b)
            assert conductor(chi) == R.n - chi.level
            assert (chi.level == 0) == b.is_unit()
            # ker chi contains the ideal pi^conductor and not the next one up
            ker_ideal = R.ideal_indices(conductor(chi))
            assert all(chi.value_exp(i) == 0 for i in ker_ideal)
            if conductor(chi) > 0:
                bigger = R.ideal_indices(conductor(chi) - 1)
                assert any(chi.value_exp(i) != 0 for i in bigger)


def test_primitive_character_is_b_equals_one(ring):
    R = ring("z9")
    chi = psi_b(R, R.one)
    assert chi.level == 0
    # psi_1 is the fixed character psi itself
    assert [chi.value_exp(x) for x in range(R.size)] == psi(R, np.arange(R.size)).tolist()


def test_nontrivial_characters_sum_to_zero(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        for b in R.elements():
            chi = psi_b(R, b)
            total = cyc_sum([chi(x) for x in range(R.size)])
            if b.is_zero():
                assert total == R.size
            else:
                assert total.is_zero()


def test_transverse_primitive_char_on_nilpotents(ring):
    # over F_2[T]/T^2 the character x -> (-1)^(coefficient of T in x) has
    # b = 1 + T: it is primitive even though it kills the units' span of 1
    R = ring("f2t2")
    b = R.element((1, 1))
    chi = psi_b(R, b)
    assert chi.level == 0
    for x in R.elements():
        assert chi.value_exp(x.index) == x.coords[1]


def test_restriction_vectors(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        d = R.d_invariant
        xi_ideal = set(R.ideal_indices(R.xi))
        vecs = {}
        for b in R.elements():
            v = restrict_to_omega1(psi_b(R, b))
            assert isinstance(v, DualVector)
            assert v.p == R.p and len(v.coords) == d
            vecs[b.index] = v
            # trivial on the socle iff b kills Omega_1, i.e. b in pi^xi R
            assert (set(v.coords) == {0}) == (b.index in xi_ideal)
        # distinct characters of Omega_1: exactly p^d of them
        assert len(set(vecs.values())) == R.p**d
        assert spans_dual(list(vecs.values()), R)


def test_restriction_additive(ring):
    R = ring("gr42")
    add = R.add_table
    p = R.p
    for b1 in R.elements():
        for b2 in R.elements():
            v1 = restrict_to_omega1(psi_b(R, b1)).coords
            v2 = restrict_to_omega1(psi_b(R, b2)).coords
            s = R.from_index(int(add[b1.index, b2.index]))
            vs = restrict_to_omega1(psi_b(R, s)).coords
            assert vs == tuple((a + b) % p for a, b in zip(v1, v2))


def test_fp_rank():
    assert fp_rank([(1, 0), (0, 1)], 2) == 2
    assert fp_rank([(1, 1), (1, 1)], 2) == 1
    assert fp_rank([(1, 2, 0), (2, 1, 0)], 3) == 1  # second = 2 * first mod 3
    assert fp_rank([(1, 2, 0), (0, 1, 1), (0, 0, 0)], 3) == 2
    assert fp_rank([], 5) == 0
    # mod-3 dependence invisible over the integers
    assert fp_rank([(1, 1), (1, 4)], 3) == 1


def test_basis_greedy_minimum_weight():
    vecs = [(1, 0), (0, 1), (1, 1)]
    sel = basis_greedy(vecs, [5, 2, 1], 2, 2)
    assert sel == [2, 1]
    sel = basis_greedy(vecs, [1, 1, 5], 2, 2)
    assert sel == [0, 1]


def test_basis_greedy_not_spanning():
    with pytest.raises(NotSpanningError):
        basis_greedy([(1, 0), (2, 0)], [1, 1], 3, 2)


def test_dual_vector_hashable():
    a = DualVector(2, (1, 0))
    b = DualVector(2, (1, 0))
    assert a == b and len({a, b}) == 1
    with pytest.raises(AttributeError):
        a.coords = (0, 0)
