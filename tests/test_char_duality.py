"""Ring tables, additive characters, the socle restriction map, and F_p
matroid helpers."""

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.chain_ring import INF, make_ring
from chainrep.char_duality import (
    DualVector,
    NotSpanningError,
    basis_greedy,
    character_weights,
    fp_rank,
    psi,
    socle_restriction,
    spans_dual,
)
from reference import (
    Cyclotomic,
    additive_order,
    cyc_sum,
    element,
    from_index,
    from_int,
    psi_b,
    restrict_to_omega1,
    ring_elements,
    ring_one,
    ring_zero,
    valuation,
)

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
    digits = np.array([from_index(R, i).coords for i in range(N)], dtype=np.int64)
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
    for a in ring_elements(R):
        acc = ring_zero(R)
        pw = ring_one(R)
        for c in h:
            if c:
                acc = acc + pw * from_int(R, c)
            pw = pw * a
        if acc.is_zero():
            roots.append(a)
    assert len(roots) == f, f"found {len(roots)} roots of the unramified polynomial"
    out = []
    for i in range(f):
        s = ring_zero(R)
        for rho in roots:
            pw = ring_one(R)
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


@seed(20261018)
@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_RINGS))
def test_ring_tables_and_psi_property(params):
    # the vectorized digits, valuations and products agree
    # with the scalar arithmetic, the product distributes over the sum,
    # psi is additive and nontrivial on the socle, and the linear map
    # restricts every psi(b .) as the scalar reference does
    R = make_ring(*params)
    idx = np.arange(R.size)
    elems = list(ring_elements(R))
    assert R.digits(idx).tolist() == [list(x.coords) for x in elems]
    assert R.valuation_table.tolist() == [valuation(R, x) for x in elems]
    # the rings are commutative: the table is symmetric, and each pair
    # a <= b is checked once against the scalar product
    add, mul = R.add_table, R.mul_table
    assert (mul == mul.T).all()
    upper = R.digits(mul[np.triu_indices(R.size)]).tolist()
    assert upper == [list((a * b).coords) for i, a in enumerate(elems) for b in elems[i:]]
    a, b, c = np.random.default_rng(params[:2]).integers(R.size, size=(3, 200))
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    mod, vals = character_weights(R)[0], values(R)
    assert ((vals[:, None] + vals[None, :] - vals[R.add_table]) % mod == 0).all()
    assert psi(R, R.ideal_indices(R.n - 1)).any()
    vecs = [tuple(v) for v in socle_restriction(R, idx).tolist()]
    assert vecs == [restrict_to_omega1(psi_b(R, b)).coords for b in elems]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.sampled_from(SMALL_RINGS))
def test_ring_table_laws_property(params):
    # the package's own tables, with no scalar reference: on sampled
    # triples both operations associate, index 0 is the zero (additive
    # identity, absorbing for the product) and basis_index(0) a two-sided
    # one
    R = make_ring(*params)
    add, mul, idx = R.add_table, R.mul_table, np.arange(R.size)
    a, b, c = np.random.default_rng(params[:2] + (R.n,)).integers(R.size, size=(3, 500))
    assert (add[add[a, b], c] == add[a, add[b, c]]).all()
    assert (mul[mul[a, b], c] == mul[a, mul[b, c]]).all()
    one = R.basis_index(0)
    assert (mul[one] == idx).all() and (mul[:, one] == idx).all()
    assert (add[0] == idx).all() and (add[:, 0] == idx).all()
    assert not mul[0].any() and not mul[:, 0].any()


def test_restriction_past_the_table_cap():
    # (101, 1, 1, 4) has 101^4 elements, past TABLE_CAP: the linear map
    # against the scalar reference on sampled b
    R = make_ring(101, 1, 1, 4)
    b = np.random.default_rng(101).integers(R.size, size=300)
    vecs = [tuple(v) for v in socle_restriction(R, b).tolist()]
    assert vecs == [restrict_to_omega1(psi_b(R, from_index(R, int(x)))).coords for x in b]


def test_base_character_modulus(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        assert mod == additive_order(R, ring_one(R))
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
        for x in ring_elements(R):
            assert base[x.index] == sum(x.coords) % p
    # cyclic case Z/p^n: the integer itself
    for name in ["z4", "z9", "z8"]:
        R = ring(name)
        mod, base = character_weights(R)[0], values(R)
        assert mod == R.size
        for m in range(R.size):
            assert base[from_int(R, m).index] == m % mod


def characters(R):
    """Row b: exponents of x |-> psi(b x) on every element x."""
    return psi(R, R.mul_table)


def test_psi_b_matches_multiplication(ring):
    # the array form psi(b x) over the multiplication table against the
    # scalar reference character
    for name in ["z4", "f2t2", "z9", "gr42"]:
        R = ring(name)
        rows = characters(R)
        for b in ring_elements(R):
            chi = psi_b(R, b)
            assert chi.modulus == character_weights(R)[0]
            assert [chi.value_exp(x) for x in range(R.size)] == rows[b.index].tolist()


def test_psi_b_injective(ring):
    for name in DUALITY_RINGS:
        R = ring(name)
        assert len({tuple(row) for row in characters(R).tolist()}) == R.size


def test_level_and_conductor(ring):
    # the level of psi(b .) is val(b), 0 exactly for units, and its
    # kernel holds the ideal pi^(n - level) and not the next one up
    for name in DUALITY_RINGS:
        R = ring(name)
        rows = characters(R)
        for b in range(R.size):
            level = int(R.valuation_table[b])
            assert (level == 0) == from_index(R, b).is_unit()
            assert not rows[b, R.ideal_indices(R.n - level)].any()
            if level < R.n:
                assert rows[b, R.ideal_indices(R.n - level - 1)].any()


def test_primitive_character_is_b_equals_one(ring):
    R = ring("z9")
    # psi(1 .) is the fixed character psi itself
    assert (characters(R)[ring_one(R).index] == psi(R, np.arange(R.size))).all()


def test_nontrivial_characters_sum_to_zero(ring):
    for name in ["z4", "f2t2", "ram222", "z9"]:
        R = ring(name)
        mod = character_weights(R)[0]
        for b, row in enumerate(characters(R).tolist()):
            total = cyc_sum([Cyclotomic.root(mod, v) for v in row])
            if b == 0:
                assert total == R.size
            else:
                assert total.is_zero()


def test_transverse_primitive_char_on_nilpotents(ring):
    # over F_2[T]/T^2 the character x -> (-1)^(coefficient of T in x) has
    # b = 1 + T: it is primitive even though it kills the units' span of 1
    R = ring("f2t2")
    b = element(R, (1, 1)).index
    assert R.valuation_table[b] == 0
    assert (characters(R)[b] == R.digits(np.arange(R.size))[:, 1]).all()


def test_restriction_vectors(ring):
    # the linear map against the scalar reference restriction for every
    # b; trivial exactly on pi^xi R, p^d distinct restrictions, spanning
    for name in DUALITY_RINGS + ["f3t2"]:
        R = ring(name)
        d = R.d_invariant
        vecs = socle_restriction(R, np.arange(R.size))
        assert vecs.shape == (R.size, d)
        assert [tuple(v) for v in vecs.tolist()] == [restrict_to_omega1(psi_b(R, b)).coords for b in ring_elements(R)]
        # trivial on the socle iff b kills Omega_1, i.e. b in pi^xi R
        assert np.flatnonzero(~vecs.any(axis=1)).tolist() == R.ideal_indices(R.xi)
        # distinct characters of Omega_1: exactly p^d of them
        assert len({tuple(v) for v in vecs.tolist()}) == R.p**d
        assert spans_dual(vecs, R)


def test_restriction_additive(ring):
    R = ring("gr42")
    vecs = socle_restriction(R, np.arange(R.size))
    assert (socle_restriction(R, R.add_table) == (vecs[:, None] + vecs[None, :]) % R.p).all()


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


def test_character_checks_survive_python_O():
    # python -O strips assert statements: a non-primitive base character,
    # a character value on the socle that is not a p-th root, and an irreps
    # catalog whose squared degrees miss |G| still raise, the last making
    # ``irreps list`` exit 1
    import subprocess
    import sys
    from pathlib import Path

    code = "\n".join([
        'import sys; sys.path[:0] = ["src"]',
        'from chainrep import char_duality as cd, cli, mackey_irreps',
        'from chainrep.chain_ring import RingSpec, make_ring',
        'if not sys.flags.optimize: sys.exit("asserts are on")',
        'weights, catalog = cd.character_weights, mackey_irreps.irrep_catalog',
        'R = RingSpec(3, 1, 1, 2)',
        'R._yred = [[0]]  # the trace weights of Z/9, all zero',
        'cd.character_weights = lambda R: (4, (1, 1))  # psi(2) = i on Z/4',
        'for check, arg in [(weights.__wrapped__, R), (cd._socle_matrix.__wrapped__, make_ring(2, 1, 1, 2))]:',
        '    try:',
        '        check(arg)',
        '    except AssertionError as exc:',
        '        print(exc)',
        'cd.character_weights = weights',
        'mackey_irreps.irrep_catalog = lambda H: catalog(H)[1:]  # one irrep dropped',
        'print(cli.main(["irreps", "list", "--p", "2", "--n", "2"]))',
    ])
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.stdout == "base character not primitive\ncharacter value on p-torsion is not a p-th root\n1\n", proc.stderr
    assert proc.returncode == 0 and proc.stderr == "error: AssertionError: irreps list: sum dim^2 = 63, |G| = 64\n"
