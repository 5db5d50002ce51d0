"""Modular character tables and the independent minimal-dimension search."""

import copy
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, seed, settings
from hypothesis import strategies as st

from chainrep import minfaith_solver as solver
from chainrep import oracle
from chainrep.chain_ring import _is_prime, make_ring
from chainrep.char_duality import _rref
from chainrep.exactrep import _ctx
from chainrep.group_models import (
    AbstractGroup,
    AffineGroup,
    CapExceededError,
    multiplier_closure,
    semidirect_cyclic,
    semidirect_cyclic_hom,
)
from chainrep.oracle import (
    CharacterTable,
    OracleCheckError,
    _eigenvalues,
    _hessenberg,
    _nullspace,
    catalog_from_table,
    cross_validate,
    min_faithful_exhaustive,
    minimal_normal_witnesses,
)
from reference import Cyclotomic, cyc_sum, nullspace_loop, rref_loop, table_value

FROZEN_DIMS = {
    "d4": [1, 1, 1, 1, 2],
    "q8": [1, 1, 1, 1, 2],
    "hei3_f3": [1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3],
    "gl2_f3": [1, 1, 2, 2, 2, 3, 3, 4],
    "aff_z9": [1, 1, 1, 1, 1, 1, 2, 2, 2, 6],
}

FROZEN_PRIMES = {
    "d4": 13,       # 1 mod 4, square > 32
    "hei3_f3": 13,  # 1 mod 3, square > 108
    "gl2_f3": 73,   # 1 mod 24, square > 192
    "hei3_z9": 73,  # 1 mod 9, square > 2916
    "u4_f3": 73,    # 1 mod 9, square > 2916
    "hei3_gr42": 137,  # 1 mod 8, square > 16384
    "gl2_f7": 337,  # 1 mod 336, square > 8064
    "z7_z16": 113,  # 1 mod 112, square > 448
}

EXHAUSTIVE_MIN = {
    "d4": 2,
    "q8": 2,
    "m16": 2,
    "m27": 3,
    "d8_16": 2,
    "z9_units": 6,
    "z8_z4_hom": 3,
    "hei3_f2": 2,
    "hei3_f3": 3,
    "hei3_z4": 4,
    "hei3_f2t2": 6,
    "hei3_ram222": 6,
    "hei5_f2": 4,
    "u3_f3": 3,
    "aff_f3": 2,
    "aff_z4": 2,
    "aff_z9": 6,
    "aff_f4": 3,
    "gl2_f3": 2,
    "hei3_gr42": 32,
    "gl2_f7": 6,  # q - 1, as for GL_2(F_3) and GL_2(F_5)
    "z7_z16": 1,  # Z/7 x Z/16 is cyclic of order 112
}


def test_dims_frozen(table):
    for name, dims in FROZEN_DIMS.items():
        assert sorted(table(name).dims) == dims


def test_prime_selection_frozen(table):
    for name, l in FROZEN_PRIMES.items():
        assert table(name).prime == l


def test_sum_of_squares(table):
    for name in FROZEN_DIMS:
        T = table(name)
        assert sum(d * d for d in T.dims) == T.group.order
        assert T.r == len(T.group.conjugacy[0])


def test_identity_column(table):
    for name in ["d4", "gl2_f3", "aff_z9"]:
        T = table(name)
        for c in range(T.r):
            assert table_value(T, c, T.identity_class) == Cyclotomic.integer(int(T.dims[c]))
        # the trivial character is row of all ones
        triv = [c for c in range(T.r) if all(table_value(T, c, j) == 1 for j in range(T.r))]
        assert len(triv) == 1


def test_row_orthogonality_exact(table):
    for name in ["d4", "hei3_f3", "gl2_f3"]:
        T = table(name)
        sizes = T.sizes
        for a in range(T.r):
            for b in range(a, T.r):
                inner = cyc_sum(
                    [
                        int(sizes[j]) * table_value(T, a, j) * table_value(T, b, j).conjugate()
                        for j in range(T.r)
                    ]
                )
                if a == b:
                    assert inner == Cyclotomic.integer(T.group.order)
                else:
                    assert inner.is_zero()


def test_degrees_divide_order(table):
    for name in FROZEN_DIMS:
        T = table(name)
        for d in T.dims:
            assert T.group.order % d == 0


def scan_eigenvalues(A, l):
    """Reference: every lambda in F_l with a nonzero kernel of A - lambda."""
    d = A.shape[0]
    eye = np.eye(d, dtype=np.int64)
    return [lam for lam in range(l) if _nullspace(A - lam * eye, l)[0].shape[1]]


@st.composite
def matrices_mod_l(draw):
    """(A, l): P D P^-1 with D diagonal (kind 'diag'), a scalar matrix, a
    Jordan form with a block of size >= 2 conjugated by P, or entries
    drawn uniformly."""
    l = draw(st.sampled_from([2, 3, 5, 7, 11, 13]))
    d = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["diag", "scalar", "jordan", "uniform"]))
    entries = st.integers(0, l - 1)

    def square():
        return np.array(draw(st.lists(entries, min_size=d * d, max_size=d * d)), dtype=np.int64).reshape(d, d)

    if kind == "uniform":
        return square(), l
    if kind == "scalar":
        return draw(entries) * np.eye(d, dtype=np.int64), l
    D = np.diag(draw(st.lists(entries, min_size=d, max_size=d))).astype(np.int64)
    if kind == "jordan" and d >= 2:
        k = draw(st.integers(0, d - 2))
        D[k + 1, k + 1] = D[k, k]
        D[k, k + 1] = 1
    # unit lower times unit upper triangular: invertible mod l
    P = (np.tril(square(), -1) + np.eye(d, dtype=np.int64)) @ (np.triu(square(), 1) + np.eye(d, dtype=np.int64)) % l
    R, _ = _rref(np.hstack([P, np.eye(d, dtype=np.int64)]), l)
    return P @ D @ R[:, d:] % l, l


@settings(derandomize=True, max_examples=300, deadline=None)
@given(matrices_mod_l())
def test_eigenvalues_match_lambda_scan(case):
    A, l = case
    H = _hessenberg(A, l)
    assert not np.tril(H, -2).any()
    assert _eigenvalues(A, l).tolist() == scan_eigenvalues(A, l)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(matrices_mod_l())
def test_nullspace_carries_identity_on_free_rows(case):
    A, l = case
    N, free = _nullspace(A, l)
    assert np.array_equal(N[free], np.eye(len(free), dtype=np.int64))
    assert not (A @ N % l).any()
    assert len(free) == A.shape[0] - len(_rref(A, l)[1])


@st.composite
def matrices_over_small_primes(draw):
    """(A, l): an m x n integer matrix and a prime l <= 101, its entries
    in (-l, 2l) so that the reduction mod l is exercised; half of them
    are a product of m x k and k x n factors, of rank at most k (the zero
    matrix for k = 0)."""
    l = draw(st.sampled_from([p for p in range(2, 102) if _is_prime(p)]))
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    entries = st.integers(1 - l, 2 * l - 1)

    def matrix(a, b):
        return np.array(draw(st.lists(entries, min_size=a * b, max_size=a * b)), dtype=np.int64).reshape(a, b)

    if draw(st.booleans()):
        k = draw(st.integers(0, min(m, n) - 1))
        return matrix(m, k) @ matrix(k, n), l
    return matrix(m, n), l


@seed(20261018)
@settings(derandomize=True, max_examples=200, deadline=None)
@given(matrices_over_small_primes())
def test_elimination_matches_the_row_loops(case):
    # the rank-one column clearing and the two-assignment nullspace give
    # what the row-at-a-time loops give, pivots and free columns included
    A, l = case
    R, pivcol = _rref(A, l)
    R_loop, pivcol_loop = rref_loop(A, l)
    assert np.array_equal(R, R_loop) and pivcol == pivcol_loop
    N, free = _nullspace(A, l)
    N_loop, free_loop = nullspace_loop(A, l)
    assert np.array_equal(N, N_loop) and list(free) == free_loop


def roll_verify(T):
    """Reference: exact row orthogonality through the power-coefficient
    tensor P[a, b, t] = sum_j |C_j| sum_u mu_a[j, u] mu_b[j, u - t], one
    (r, rE) @ (rE, r) product over an np.roll copy of mu per t, then
    reduced in a basis of Z[zeta_E]."""
    G, r, E = T.group, T.r, T.exponent
    mu = T.mu.astype(np.int64)  # one cast, not one per product
    assert sum(d * d for d in T.dims) == G.order
    idc = T.identity_class
    for c in range(r):
        assert mu[c, idc, 0] == T.dims[c]
        assert not mu[c, idc, 1:].any()
    w = np.array(T.sizes, dtype=np.int64)
    flat = (mu * w[None, :, None]).reshape(r, -1)
    P = np.empty((r, r, E), dtype=np.int64)
    for t in range(E):
        P[:, :, t] = flat @ np.roll(mu, t, axis=2).reshape(r, -1).T
    deg, _, zpow = _ctx(E)
    reduced = np.tensordot(P, np.array([zpow[t] for t in range(E)], dtype=np.int64), axes=([2], [0]))
    expect = np.zeros((r, r, deg), dtype=np.int64)
    expect[np.arange(r), np.arange(r), 0] = G.order
    assert np.array_equal(reduced, expect), "exact orthogonality failed"


def altered(T, mu=None, dims=None):
    """A copy of the table with some fields replaced, to run _verify on."""
    U = copy.copy(T)
    U.mu = T.mu.copy() if mu is None else mu
    U.dims = list(T.dims) if dims is None else dims
    return U


def shifted(T, c, j, t, t2):
    """mu with one unit of mu[c, j, t] moved to exponent t2."""
    mu = T.mu.copy()
    mu[c, j, t] -= 1
    mu[c, j, t2] += 1
    return mu


def test_verify_accepts_the_reference_tables(table):
    for name in ["d4", "q8", "hei3_f3", "gl2_f3", "aff_z9", "z8_z4_hom", "aff_f4"]:
        T = table(name)
        roll_verify(T)
        T._verify()


def test_verify_rejects_a_shift_on_a_non_rational_class(table):
    T = table("aff_z9")
    E = T.exponent
    units = [k for k in range(1, E) if math.gcd(k, E) == 1]
    # a class moved by some sigma_k, and a row whose value there is not 0
    j = next(j for j in range(T.r) if any(T.power_class[k, j] != j for k in units))
    c = next(c for c in range(T.r) if T.mu[c, j, 0] < T.dims[c])
    t = int(np.nonzero(T.mu[c, j])[0][0])
    with pytest.raises(AssertionError, match="Galois action"):
        altered(T, mu=shifted(T, c, j, t, (t + 1) % E))._verify()


def test_verify_rejects_a_duplicated_row(table):
    # two rows of the same degree: each keeps the Galois action, but
    # their inner product is |G| instead of 0
    T = table("gl2_f3")
    a = next(a for a in range(T.r - 1) if T.dims[a] == T.dims[a + 1])
    mu = T.mu.copy()
    mu[a + 1] = mu[a]
    # 4657 is the least prime = 1 (mod 24) above 2 * 48^2 = 4608
    with pytest.raises(AssertionError, match="orthogonality failed mod 4657"):
        altered(T, mu=mu)._verify()


def test_verify_rejects_a_table_outside_the_bound(table):
    T = table("d4")
    j = next(j for j in range(T.r) if j != T.identity_class)
    c = T.r - 1  # the degree-2 row
    negative = T.mu.astype(np.int64)  # mu is unsigned: a signed copy holds the negative entry
    negative[c, j, 0] -= T.dims[c] + 1
    negative[c, j, 1] += T.dims[c] + 1
    over = T.mu.copy()
    over[c, j, 0] += 1
    idc = T.identity_class
    # a degree-3 row: one more unit at exponent 0 in every class
    grown = T.mu.copy()
    grown[c, :, 0] += 1
    for U, message in [
        (altered(T, mu=negative), "negative multiplicity"),
        (altered(T, mu=over), "do not sum to the degree"),
        (altered(T, mu=shifted(T, c, idc, 0, 1)), "identity column"),
        (altered(T, mu=grown, dims=T.dims[:-1] + [T.dims[-1] + 1]), "degree squares"),
    ]:
        with pytest.raises(AssertionError, match=message):
            U._verify()


def test_verify_rejects_a_multiplicity_off_the_element_order(table):
    # D_4's degree-2 character is 0 = 1 + zeta^2 on a reflection class,
    # of order 2; zeta + zeta^3 is 0 as well and keeps sigma_3, but sits
    # at odd powers of zeta, which a class of order 2 cannot hold, and
    # the orthogonality rows read only the even ones
    T = table("d4")
    c = T.r - 1
    j = next(j for j in range(T.r) if T.sizes[j] == 2 and T.group.element_orders[T.reps[j]] == 2)
    assert T.mu[c, j].tolist() == [1, 0, 1, 0]
    mu = T.mu.copy()
    mu[c, j] = [0, 1, 0, 1]
    with pytest.raises(AssertionError, match=r"^multiplicity at a root of unity whose order does not divide o\(g\) = 2$"):
        altered(T, mu=mu)._verify()


def test_verify_refuses_a_prime_too_large_for_int64():
    # the primes are chosen with r l^2 < 2^63; a bound past any one such
    # prime takes the largest ones, descending, and an exponent above the
    # int64 limit leaves no prime = 1 (mod E) below it at all: |G| = 2^40
    # and E = 2^32, with r = 5 and limit isqrt((2^63 - 1) // 5) < 2^31
    bound = 2 * (2**40) ** 2
    with pytest.raises(AssertionError, match=rf"^the primes l = 1 \(mod {2**32}\) with 5 l\^2 < 2\^63 do not multiply past {bound}$"):
        oracle._verification_primes(bound, 5, 2**32)


def test_verification_primes_past_one_prime():
    # r = 2^20 puts the int64 limit at isqrt((2^63 - 1) // 2^20) =
    # 2965820, below the bound 2^41: no prime suffices alone, two of the
    # largest odd primes under the limit do, and each keeps r l^2 < 2^63
    bound, r = 2**41, 2**20
    top = math.isqrt((2**63 - 1) // r)
    primes = oracle._verification_primes(bound, r, 2)
    assert primes == [2965819, 2965811]
    assert all(_is_prime(l) and r * l * l < 2**63 <= r * (top + 1) ** 2 for l in primes)
    assert math.prod(primes) > bound >= top


def test_table_checks_survive_python_O():
    # python -O strips assert statements: _verify's proof and
    # catalog_from_table's p-group precondition raise explicitly, so a
    # corrupted Q_8 table and a group of order 54 are still refused
    import subprocess
    import sys
    from pathlib import Path

    code = "\n".join([
        'import copy, sys; sys.path[:0] = ["src"]',
        'from chainrep.group_models import quaternion_group, semidirect_cyclic',
        'from chainrep.oracle import CharacterTable, catalog_from_table',
        'if not sys.flags.optimize: sys.exit("asserts are on")',
        'T = copy.copy(CharacterTable(quaternion_group()))',
        'T.mu = T.mu.copy()',
        '(c, j) = next((c, j) for c in range(T.r) for j in range(T.r) if T.mu[c, j, 1])',
        'T.mu[c, j, 1] -= 1; T.mu[c, j, 0] += 1  # one unit of zeta moved to 1',
        'for check, arg in [(type(T)._verify, T), (catalog_from_table, CharacterTable(semidirect_cyclic(9, [2])))]:',
        '    try:',
        '        check(arg)',
        '    except AssertionError as exc:',
        '        print(exc)',
    ])
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "Galois action sigma_3 failed\ncatalog_from_table requires a p-group\n"


def test_verify_checks_primes_past_twice_the_squared_order(table, monkeypatch):
    # |N_ab - |G| delta_ab| <= |G|^2, so primes multiplying past 2|G|^2
    # pin N exactly: one prime, the least l = 1 (mod E) above 2|G|^2,
    # whose r x r product stays in int64
    used = []
    root = oracle._primitive_root_power

    def record(l, E):
        used.append(l)
        return root(l, E)

    monkeypatch.setattr(oracle, "_primitive_root_power", record)
    expect = {"d4": 137, "hei3_gr42": 33554473, "gl2_f7": 8128513, "z7_z16": 25537}
    for name, l in expect.items():
        T = table(name)
        used.clear()
        T._verify()
        bound, E = 2 * T.group.order**2, T.exponent
        assert used == [l]
        assert l > bound and l % E == 1 and _is_prime(l) and T.r * l * l < 2**63
        assert not any(_is_prime(k) for k in range(l - E, bound, -E))


def test_verify_makes_one_product_and_no_int64_copy_of_mu(table):
    # up to the default cap, one verification prime and so one r x r
    # product (the tables above use one each): checked at the tightest
    # orders, with r = |G| and every E dividing |G|.  The rows are formed
    # one element order at a time, so _verify's peak stays below the
    # 8 r^2 E bytes of a single (r, r, E) int64 array (GL_2(F_7): r = 48,
    # E = 336; Z/7 x Z/16: r = E = 112)
    for n in range(4090, 4097):
        for E in (E for E in range(1, n + 1) if n % E == 0):
            assert len(oracle._verification_primes(2 * n * n, n, E)) == 1, (n, E)
    for name in ["gl2_f7", "z7_z16"]:
        T = table(name)
        tracemalloc.start()
        try:
            T._verify()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * T.r**2 * T.exponent, (name, peak)


@st.composite
def semidirect_groups(draw, bound=160):
    """Z/modulus by a unit subgroup, or by Z/h through one unit, of
    order at most the bound."""
    modulus = draw(st.integers(2, 24))
    units = [u for u in range(1, modulus) if math.gcd(u, modulus) == 1]
    if draw(st.booleans()):
        mults = draw(st.lists(st.sampled_from(units), min_size=1, max_size=2))
        assume(modulus * len(multiplier_closure(modulus, mults)) <= bound)
        return semidirect_cyclic(modulus, mults)
    a = draw(st.sampled_from(units))
    h = len(multiplier_closure(modulus, [a])) * draw(st.integers(1, 4))
    assume(modulus * h <= bound)
    return semidirect_cyclic_hom(modulus, a, h)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(semidirect_groups(), st.data())
def test_verify_agrees_with_the_roll_loop(G, data):
    T = CharacterTable(G)
    roll_verify(T)
    T._verify()
    # move one unit of a value at a non-identity class
    c = data.draw(st.integers(0, T.r - 1))
    j = data.draw(st.sampled_from([j for j in range(T.r) if j != T.identity_class]))
    t = data.draw(st.sampled_from(np.nonzero(T.mu[c, j])[0].tolist()))
    t2 = data.draw(st.sampled_from([u for u in range(T.exponent) if u != t]))
    U = altered(T, mu=shifted(T, c, j, t, t2))
    with pytest.raises(AssertionError):
        roll_verify(U)
    with pytest.raises(AssertionError):
        U._verify()


@settings(derandomize=True, max_examples=10, deadline=None)
@given(semidirect_groups())
def test_lift_per_order_matches_the_full_transform(G):
    # Reference: the length-E transform of every power of every class,
    # mu[c, j, t] = (1/E) sum_{s<E} chi_c(g_j^s) z^(-st) mod l, from the
    # modular values chi_c(g) = sum_u mu[c, j, u] z^u of the table itself
    T = CharacterTable(G)
    l, E = T.prime, T.exponent
    z = oracle._primitive_root_power(l, E)
    zpow = np.array([pow(z, u, l) for u in range(E)], dtype=np.int64)
    X = T.mu.astype(np.int64) @ zpow % l
    u = np.arange(E)
    full = np.einsum("csj,st->cjt", X[:, T.power_class], zpow[np.outer(u, -u) % E]) % l * pow(E, -1, l) % l
    assert np.array_equal(full, T.mu)


def test_table_deterministic(group):
    G = group("d4")
    T1 = CharacterTable(G)
    T2 = CharacterTable(G)
    assert (T1.mu == T2.mu).all()
    assert T1.dims == T2.dims


def kernel_rows(T, c):
    """The elements of ker chi_c, ascending."""
    return np.flatnonzero(T.kernels[c][T.class_of]).tolist()


def test_kernels_are_normal_subgroups(table):
    for name in ["d4", "q8", "aff_z9", "gl2_f3", "hei3_f2t2"]:
        T = table(name)
        G = T.group
        kernels = [kernel_rows(T, c) for c in range(T.r)]
        assert len(kernels) == T.r
        for K in kernels:
            assert np.flatnonzero(G._span(K)[0]).tolist() == K
            for g in range(G.order):
                assert set(G.table[G.table[g, K], G.inverse[g]].tolist()) == set(K)
        # trivial character: kernel is everything
        sizes = [len(K) for K in kernels]
        assert max(sizes) == G.order
        # the kernels meet in the identity alone
        assert T.kernels.all(axis=0).tolist() == [j == T.identity_class for j in range(T.r)]
    # a faithful irrep exists iff some kernel is trivial: true for the
    # order-8 groups with cyclic center, false over the non-cyclic center
    def faithful(name):
        T = table(name)
        return [len(kernel_rows(T, c)) == 1 for c in range(T.r)]

    assert any(faithful("q8"))
    assert any(faithful("d4"))
    assert not any(faithful("hei3_f2t2"))


def test_minimal_normal_witnesses(table):
    # the unique minimal normal subgroup of the order-8 two-step groups
    # is the center; the rank-2 socle over F_2[t]/t^2 has 3 lines
    assert len(minimal_normal_witnesses(table("d4"))) == 1
    assert len(minimal_normal_witnesses(table("q8"))) == 1
    assert len(minimal_normal_witnesses(table("hei3_f2t2"))) == 3
    assert len(minimal_normal_witnesses(table("gl2_f3"))) == 1


def reference_witnesses(T):
    """The least non-identity class of each minimal normal subgroup, by
    brute force: the normal closure of each element is the span of its
    conjugates, and the minimal normal subgroups are the closures that
    hold no smaller one."""
    G = T.group
    others = np.arange(G.order) != G.identity
    closures = {
        G._span(G.table[G.table[:, g], G.inverse])[0].tobytes()  # x g x^-1 for every x
        for g in np.flatnonzero(others)
    }
    masks = [np.frombuffer(N, dtype=bool) for N in closures]
    minimal = [N for N in masks if not any(M.sum() < N.sum() and (N | ~M).all() for M in masks)]
    return sorted(int(T.class_of[N & others].min()) for N in minimal)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.data())
def test_witnesses_are_least_classes_of_minimal_normal_subgroups(make_abelian, data):
    if data.draw(st.booleans(), label="abelian"):
        orders = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=4), label="orders")
        assume(math.prod(orders) <= 200)
        G = make_abelian(orders)
    else:
        G = data.draw(semidirect_groups(bound=200))
    T = CharacterTable(G)
    assert minimal_normal_witnesses(T) == reference_witnesses(T)


def test_min_faithful_exhaustive(table):
    for name, m in EXHAUSTIVE_MIN.items():
        got, sel = min_faithful_exhaustive(table(name))
        assert got == m, name
        T = table(name)
        joint = set(kernel_rows(T, sel[0]))
        for c in sel[1:]:
            joint &= set(kernel_rows(T, c))
        assert joint == {T.group.identity}
        assert sum(int(T.dims[c]) for c in sel) == m


def test_min_faithful_exhaustive_frees_its_table(group):
    # the search holds no reference cycle, so a table (and its group) is
    # freed as soon as it is dropped, not at the next garbage collection
    import gc
    import weakref

    T = CharacterTable(group("m16"))
    assert min_faithful_exhaustive(T)[0] == 2
    ref = weakref.ref(T)
    gc.disable()
    try:
        del T
        assert ref() is None
    finally:
        gc.enable()


def test_min_faithful_abelian(make_abelian):
    # abelian groups need one summand per invariant factor
    for orders, m in [((8,), 1), ((2, 4), 2), ((3, 3, 3), 3), ((2, 2), 2), ((6,), 1)]:
        T = CharacterTable(make_abelian(orders))
        got, sel = min_faithful_exhaustive(T)
        assert got == m
        assert all(int(T.dims[c]) == 1 for c in sel)


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.lists(st.integers(2, 12), min_size=1, max_size=4))
def test_min_faithful_abelian_is_the_rank(make_abelian, orders):
    # a faithful sum of an abelian group needs one summand per cyclic
    # factor of its largest elementary abelian section: the most factors
    # any one prime divides
    assume(math.prod(orders) <= 144)
    T = CharacterTable(make_abelian(orders))
    primes = {q for m in orders for q in range(2, m + 1) if m % q == 0 and _is_prime(q)}
    assert min_faithful_exhaustive(T)[0] == max(sum(m % q == 0 for m in orders) for q in primes)
    assert T.stats["class_matrices"] == 0


@lru_cache(maxsize=None)
def cyclic_224():
    """The table of Z/7 x Z/32, cyclic of order 224."""
    return CharacterTable(semidirect_cyclic_hom(7, 1, 32))


def test_rows_match_the_per_entry_values(table):
    # to_rows reduces a row of mu at once, from the reduced powers z^u;
    # each entry's Cyclotomic, reduced by long division, reads the same.
    # An entry's value table_value(T, c, j) is a function of its
    # multiplicities mu[c, j] alone, so the reference formats each
    # distinct one once
    for T in (
        cyclic_224(),
        CharacterTable(AffineGroup(make_ring(13, 1, 1, 1)).to_abstract()),
        table("hei3_gr42"),
    ):
        strings = {}
        for c, j in np.ndindex(T.r, T.r):
            key = T.mu[c, j].tobytes()
            if key not in strings:
                strings[key] = table_value(T, c, j).to_str()
        expect = [[T.dims[c]] + [strings[T.mu[c, j].tobytes()] for j in range(T.r)] for c in range(T.r)]
        assert T.to_rows() == expect


def test_cyclic_224_builds_no_class_matrix():
    # Z/7 x Z/32 is cyclic of order 224: every row is a seeded linear
    # character, so no class matrix is built, and one summand is faithful
    T = cyclic_224()
    assert T.stats == {"linear_rows": 224, "complement_dim": 0, "class_matrices": 0}
    assert T.prime == 449  # the least prime = 1 (mod 224) above 2 sqrt(224)
    assert T.dims == [1] * 224 and T.mu.dtype == np.uint8
    m, (c,) = min_faithful_exhaustive(T)
    assert m == 1 and kernel_rows(T, c) == [T.group.identity]


def test_elementary_abelian_64_needs_six_summands():
    # (Z/2)^6: 63 central witnesses, each row covers half of them, so the
    # per-witness bound is 1; the rank bound settles it at the greedy cover
    i = np.arange(64)
    T = CharacterTable(AbstractGroup(i[:, None] ^ i[None, :]))
    assert T.stats["class_matrices"] == 0
    m, sel = min_faithful_exhaustive(T)
    assert m == 6 and len(sel) == 6
    assert len(minimal_normal_witnesses(T)) == 63


def test_linear_rows_reuse_the_commutator_generators(monkeypatch):
    # G/G' is taken by the generators that commutator_subgroup's closure
    # kept: one span for G's generators and two for the closure (the
    # commutators, then their conjugates), and none to close G' again
    calls = []
    span = AbstractGroup._span
    monkeypatch.setattr(AbstractGroup, "_span", lambda G, *args: calls.append(len(calls)) or span(G, *args))
    G = AffineGroup(make_ring(3, 1, 1, 2)).to_abstract()  # |G| = 54, |G'| = 9 on two generators
    CharacterTable(G)
    assert len(calls) == 3
    rows, gens = G._commutator
    assert rows == G.commutator_subgroup and np.flatnonzero(span(G, gens)[0]).tolist() == rows


def test_stats_count_the_seeded_split(table):
    T = table("hei3_z9")
    assert T.stats == {"linear_rows": 81, "complement_dim": 24, "class_matrices": 15}
    assert T.prime == 73
    assert T.r == 105 and T.mu.dtype == np.uint8


def test_a_failed_split_is_a_check_failure(group, monkeypatch):
    # 73, the least prime = 1 (mod 24) above 2 sqrt(48), splits GL_2(F_3)'s
    # class algebra; a split that finds no eigenvalue there is a fault in
    # the oracle, raised, and no other prime is tried
    eigenvalues = oracle._eigenvalues

    def none_at_73(A, l):
        return eigenvalues(A, l)[: 0 if l == 73 else None]

    monkeypatch.setattr(oracle, "_eigenvalues", none_at_73)
    with pytest.raises(OracleCheckError, match="^class matrix not diagonalizable mod l$"):
        CharacterTable(group("gl2_f3"))


def test_catalog_from_table_pgroup(table):
    T = table("hei3_z4")
    entries = catalog_from_table(T)
    assert len(entries) == T.r
    for dim, vec, row in entries:
        assert int(T.dims[row]) == dim
        assert vec.p == 2


def test_catalog_from_table_rejects_non_p_group(table):
    with pytest.raises(AssertionError):
        catalog_from_table(table("aff_z9"))


def test_catalog_from_table_checks_the_central_values(table):
    # a socle class of M_27 (exponent 9) holds, in each row, one root of
    # unity of order dividing 3, times the degree: with one unit of a
    # degree-3 row's multiplicity moved a step the value is not scalar,
    # and with all three moved it is a 9th root, not a cube root.  Each
    # raises OracleCheckError, which python -O keeps
    T = copy.copy(table("m27"))
    G = T.group
    j = T.class_of[G._span(g for g in G.center if G.element_orders[g] == 3)[1][0]]
    c = T.dims.index(3)
    u = int(T.mu[c, j].argmax())
    for moved, message in [(1, "not a scalar root of unity"), (3, "not a p-th root of unity")]:
        T.mu = table("m27").mu.copy()
        T.mu[c, j, u] -= moved
        T.mu[c, j, u + 1] += moved
        with pytest.raises(OracleCheckError, match=message):
            catalog_from_table(T)


def test_lifting_arrays_past_physical_memory_are_refused(monkeypatch):
    # the multiplicities mu and each element order's lifting arrays F and
    # MU are compared with physical memory before numpy forms them.  On
    # the dihedral group of order 128 (31 rows of degree 2), mu is 35 x
    # 35 x 64 bytes and F and MU for the 16 classes of order 64 are two
    # 31 x 64 x 16 int64 arrays: 256 KB refuses F and MU, 64 KB refuses mu
    from chainrep import group_models

    G = semidirect_cyclic(64, [63])
    for kb, what, size in [(256, "its lifting arrays F and MU", 507_904), (64, "its multiplicities mu", 78_400)]:
        monkeypatch.setattr(group_models.os, "sysconf", {"SC_PHYS_PAGES": kb, "SC_PAGE_SIZE": 1024}.__getitem__)
        with pytest.raises(CapExceededError) as info:
            CharacterTable(G)
        assert str(info.value) == (
            f"|G| = 128: {what} cannot be allocated ({size} bytes exceed the {kb * 1024} bytes of physical memory)"
        )


def test_cap_enforcement(group, monkeypatch):
    G = group("d4")
    monkeypatch.setenv("CHAINREP_ORACLE_CAP", "4")
    with pytest.raises(CapExceededError, match="exceeds cap 4"):
        CharacterTable(G)


def test_cross_validate_ok(suite_report):
    assert suite_report["ok"] is True
    assert suite_report["mismatches"] == []
    assert len(suite_report["results"]) == 23
    for res in suite_report["results"]:
        assert res["match"] is True, res["name"]


def test_cross_validate_core_agreement(suite_report):
    # every instance that ran the oracle agrees with the closed form
    for res in suite_report["results"]:
        vals = res["values"]
        core = {
            k: v
            for k, v in vals.items()
            if k
            in {
                "formula",
                "solver",
                "construct",
                "formula_two_step",
                "construct_two_step",
                "oracle",
                "solver_catalog",
            }
        }
        assert len(set(core.values())) == 1, res["name"]


def test_cross_validate_detects_mismatch():
    suite = {
        "name": "tiny-bad",
        "instances": [
            {
                "name": "hei3-f2-wrong",
                "family": "heisenberg",
                "p": 2,
                "f": 1,
                "e": 1,
                "n": 1,
                "k": 1,
                "expected": 3,
                "oracle": True,
            }
        ],
    }
    report = cross_validate(suite)
    assert report["ok"] is False
    assert report["mismatches"] == ["hei3-f2-wrong"]


def test_cross_validate_tiny_suite(monkeypatch):
    # the two-step routes share the structure facts of the instance's
    # group: its centre is computed once, however often it is read
    from chainrep.group_models import AbstractGroup

    centres, made = [], AbstractGroup.center.func
    monkeypatch.setattr(AbstractGroup.center, "func", lambda G: centres.append(G.order) or made(G))
    suite = {
        "name": "tiny",
        "instances": [
            {
                "name": "aff-f3",
                "family": "affine",
                "p": 3,
                "f": 1,
                "e": 1,
                "n": 1,
                "expected": 2,
                "oracle": True,
            },
            {
                "name": "m27",
                "family": "semidirect",
                "modulus": 9,
                "multipliers": [4],
                "expected": 3,
                "oracle": True,
                "two_step": True,
            },
        ],
    }
    report = cross_validate(suite)
    assert report["ok"] is True
    assert {r["name"] for r in report["results"]} == {"aff-f3", "m27"}
    assert centres == [27]


def test_verify_default_golden(suite_report):
    """The default suite report, serialised as `chainrep verify --suite
    default --format json` prints it, matches the committed bytes."""
    import json
    from pathlib import Path

    golden = (Path(__file__).parent / "data" / "verify_default.json").read_text()
    payload = {"command": "verify", "parameters": {"suite": "default"}, "result": suite_report}
    assert json.dumps(payload, sort_keys=True) + "\n" == golden


ROUTE_FAMILIES = {
    "heisenberg": {"family": "heisenberg", "p": 2, "f": 1, "e": 1, "n": 1, "k": 1},
    "unitriangular": {"family": "unitriangular", "p": 3, "f": 1, "e": 1, "n": 1, "size": 3},
    "affine": {"family": "affine", "p": 3, "f": 1, "e": 1, "n": 1},
    "gl2": {"family": "gl2", "p": 2},
    "semidirect": {"family": "semidirect", "modulus": 4, "multipliers": [3]},
    "semidirect-hom": {"family": "semidirect", "modulus": 8, "multipliers": [7], "h_order": 4},
    "quaternion": {"family": "quaternion"},
    "table": {"family": "table"},
}

ROUTE_NOTES = {"semidirect": ["action faithful"], "semidirect-hom": ["action through a quotient"]}

# (family, oracle flag or None when absent, two_step, value keys).  The
# Heisenberg, unitriangular and affine families run the oracle only when
# it is true; the others run it unless it is false.  The two-step routes
# run whenever two_step is true.
ROUTE_CASES = [
    ("heisenberg", None, False, "construct formula solver"),
    ("heisenberg", None, True, "construct construct_two_step formula formula_two_step solver"),
    ("heisenberg", True, False, "construct formula oracle oracle_selection_dims solver"),
    ("heisenberg", True, True, "construct construct_two_step formula formula_two_step oracle oracle_selection_dims solver"),
    ("heisenberg", False, False, "construct formula solver"),
    ("unitriangular", None, False, "formula"),
    ("unitriangular", True, False, "formula oracle oracle_selection_dims"),
    ("unitriangular", True, True, "construct_two_step formula formula_two_step oracle oracle_selection_dims"),
    ("unitriangular", False, False, "formula"),
    ("affine", None, False, "construct formula"),
    ("affine", True, False, "construct formula oracle oracle_selection_dims"),
    ("affine", False, False, "construct formula"),
    ("gl2", None, False, "oracle oracle_selection_dims"),
    ("gl2", True, False, "oracle oracle_selection_dims"),
    ("gl2", False, False, ""),
    ("semidirect", None, False, "oracle oracle_selection_dims orbit_bound"),
    ("semidirect", None, True, "construct_two_step formula_two_step oracle oracle_selection_dims orbit_bound"),
    ("semidirect", True, False, "oracle oracle_selection_dims orbit_bound"),
    ("semidirect", False, False, "orbit_bound"),
    ("semidirect", False, True, "construct_two_step formula_two_step orbit_bound"),
    ("semidirect-hom", None, False, "oracle oracle_selection_dims orbit_bound"),
    ("semidirect-hom", True, False, "oracle oracle_selection_dims orbit_bound"),
    ("semidirect-hom", False, False, "orbit_bound"),
    ("quaternion", None, False, "oracle oracle_selection_dims"),
    ("quaternion", True, False, "oracle oracle_selection_dims"),
    ("quaternion", False, False, ""),
    ("quaternion", False, True, "construct_two_step formula_two_step"),
    ("table", None, False, "oracle oracle_selection_dims"),
    ("table", None, True, "construct_two_step formula_two_step oracle oracle_selection_dims"),
    ("table", True, False, "oracle oracle_selection_dims"),
    ("table", False, False, ""),
    ("table", False, True, "construct_two_step formula_two_step"),
]


def test_cross_validate_route_selection(group):
    instances = []
    for family, oracle, two_step, _ in ROUTE_CASES:
        inst = dict(ROUTE_FAMILIES[family], name=f"{family}/{oracle}/{two_step}")
        if family == "table":
            inst["table"] = {"table": group("d4").table.tolist()}
        if oracle is not None:
            inst["oracle"] = oracle
        if two_step:
            inst["two_step"] = True
        instances.append(inst)
    report = cross_validate({"name": "routes", "instances": instances})
    # an instance where no route gives a value of m is a mismatch
    empty = ["gl2/False/False", "semidirect/False/False", "semidirect-hom/False/False",
             "quaternion/False/False", "table/False/False"]
    assert report["mismatches"] == empty
    for (family, _, _, keys), rr in zip(ROUTE_CASES, report["results"]):
        assert sorted(rr["values"]) == keys.split(), rr["name"]
        no_value = ["no route gave a value"] if rr["name"] in empty else []
        assert rr.get("notes", []) == ROUTE_NOTES.get(family, []) + no_value, rr["name"]


def test_family_instance_builds_its_group_on_first_use(monkeypatch):
    # |G| = 5000 is past the group cap, but with the oracle off only the
    # orbit bound runs, and it needs no group; the two-step routes need
    # it, and are skipped past the cap.  The orbit bound is no value of m,
    # so the instance is a mismatch
    inst = {"name": "big", "family": "semidirect", "modulus": 5000, "multipliers": [1], "oracle": False}
    monkeypatch.delenv("CHAINREP_ORACLE_CAP", raising=False)
    refusal = "skipped: |G| = 5000 exceeds cap 4096"
    for extra, notes in (
        ({}, ["action faithful"]),
        ({"two_step": True}, ["action faithful", f"formula_two_step {refusal}", f"construct_two_step {refusal}"]),
    ):
        (rr,) = cross_validate({"name": "lazy", "instances": [dict(inst, **extra)]})["results"]
        assert rr["values"] == {"orbit_bound": 1}
        assert rr["notes"] == notes + ["no route gave a value"]
        assert rr["match"] is False
