"""Independent ground truth: exact character tables of small groups by
the modular (Dixon) method, kernel extraction, and an exact minimum
search for faithful direct sums.

The table pipeline works entirely over a prime field F_l with
l = 1 (mod exponent) and l > 2*sqrt(|G|): class-matrix eigenvectors are
split into common one-dimensional eigenspaces, degrees recovered through
the orthogonality sum, and values lifted to exact cyclotomic integers
via root-of-unity multiplicity vectors.

Every table is proved exactly orthonormal before use, without forming a
cyclotomic number.  Nonnegative multiplicities summing to the degrees
bound |chi(g)| by chi(1), so each orthogonality sum N_ab has
|N_ab| <= |G|^2.  The table is checked to carry the Galois action
chi^(sigma_k)(g) = chi(g^k) for generators k of (Z/E)^* (Isaacs,
Character Theory of Finite Groups, ch. 2 and 9); as g -> g^k permutes
the classes and keeps their sizes, every N_ab is then a rational
integer.  N = |G| I is checked modulo the fewest primes l = 1 (mod E)
that multiply past 2|G|^2, which fixes N exactly (Chinese remaindering);
each keeps r l^2 < 2^63, so one r x r int64 product per prime is exact,
and up to the default cap one prime does it, the least above 2|G|^2.
The rows of that product are formed one element order o at a time,
from the multiplicities at multiples of E/o, so no int64 copy of the
whole multiplicity tensor is made.

The split follows Dixon (Numer. Math. 10, 1967) as refined by Schneider
("Dixon's character table algorithm revisited", J. Symbolic Comput. 9,
1990).  The |G/G'| linear characters are written down from the abelian
quotient G/G': along a greedy generator series of it, each generator
takes one of the d_i roots of its relation.  Their rows need no
eigenvector, and their multiplicities are one-hot.  By orthogonality
with the characters of G/G', the central characters
omega(C_j) = |C_j| chi(g_j)/chi(1) of the other rows sum to zero over
each fibre of G -> G/G', and they span that space.  Its basis
e_j - e_(least class of j's fibre), over the classes that are not least
in their fibre, is read off the fibres with no row reduction, and it is
the only space the class matrices split; an abelian group builds none.
Classes are taken in ascending size, ties by index: a class matrix costs
|C_i| r products, and the central classes split a space by central
character first.  The order changes no result, since l = 1 (mod E) does
not divide |G| and the class algebra mod l is split semisimple.  Each
class matrix is one count over its members, in an order of the elements
by class made once per table.  Each common eigenspace carries a basis B
that is the identity on its pivot rows, so a class matrix M restricts to
it as M[pivots] @ B.  A restriction that is scalar leaves the space
whole; otherwise its
eigenvalues are the roots of the characteristic polynomial of a
Hessenberg form, evaluated at all of F_l at once, and nullspaces are
taken only at those roots.  Values are lifted per element order: chi(g^s)
depends on s mod o(g) alone, so the multiplicities at a class of order
o sit at multiples of E/o, and one length-o transform per order among
the class representatives lifts them, at a cost of sum_j r o_j^2 rather
than r^2 E^2.

The minimum search rewrites "trivial kernel intersection" as a weighted
set cover over the minimal normal subgroups (the joint kernel is trivial
iff every minimal normal subgroup escapes some summand's kernel), which
branch-and-bound settles exactly at these sizes.  The minimal normal
subgroups come from the table as well: every normal subgroup is the
intersection of the irreducible kernels that contain it (Isaacs,
Character Theory of Finite Groups, ch. 2), so the normal closure of a
class is the set of classes lying in every kernel that contains it, read
off the boolean kernel matrix."""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .chain_ring import RingParameterError, _factorize, _is_prime
from .char_duality import DualVector, _rref
from .exactrep import _ctx, cyc_str
from .group_models import AbstractGroup, _allocate, _check_cap, _check_memory, _generator_series, multiplier_closure


class OracleCheckError(AssertionError):
    """A table that fails its proof, or a catalog asked of a group that is
    not a p-group.  Raised explicitly, so python -O keeps the check."""


def _check(ok, message: str) -> None:
    if not ok:
        raise OracleCheckError(message)


# -- modular linear algebra ------------------------------------------


def _nullspace(A, l):
    """(column basis N of ker(A) over F_l, free columns): N[free] is the
    identity, and row pc of N is minus the free entries of the reduced
    row whose pivot column is pc."""
    A, pivcol = _rref(A, l)
    n = A.shape[1]
    free = np.delete(np.arange(n), pivcol)
    basis = np.zeros((n, len(free)), dtype=np.int64)
    basis[free, np.arange(len(free))] = 1
    basis[pivcol] = -A[: len(pivcol), free] % l
    return basis, free


def _hessenberg(A, l):
    """An upper Hessenberg matrix similar to A over F_l."""
    H = np.array(A % l, dtype=np.int64)
    d = H.shape[0]
    for k in range(d - 2):
        nz = np.nonzero(H[k + 1 :, k])[0]
        if not len(nz):
            continue
        i = k + 1 + int(nz[0])
        if i != k + 1:
            H[[k + 1, i]] = H[[i, k + 1]]
            H[:, [k + 1, i]] = H[:, [i, k + 1]]
        m = H[k + 2 :, k] * pow(int(H[k + 1, k]), -1, l) % l
        # rows j -= m_j * row k+1, then column k+1 += sum_j m_j * column j
        H[k + 2 :] = (H[k + 2 :] - np.outer(m, H[k + 1])) % l
        H[:, k + 1] = (H[:, k + 1] + H[:, k + 2 :] @ m) % l
    return H


def _eigenvalues(A, l):
    """The roots in F_l of the characteristic polynomial of A, ascending:
    the polynomial of a Hessenberg form, evaluated at every x in F_l at
    once by the recurrence over its leading principal minors."""
    H = _hessenberg(A, l)
    d = H.shape[0]
    x = np.arange(l, dtype=np.int64)
    P = np.empty((d + 1, l), dtype=np.int64)  # P[m](x) = det(x - H[:m, :m])
    P[0] = 1
    beta = np.empty(0, dtype=np.int64)  # beta[i] = H[i+1, i] ... H[m-1, m-2]
    for m in range(1, d + 1):
        k = m - 1
        P[m] = (x - H[k, k]) * P[k] % l
        if k:
            beta = np.append(beta * H[k, k - 1] % l, H[k, k - 1])
            P[m] = (P[m] - (H[:k, k] * beta % l) @ P[:k]) % l
    return np.nonzero(P[d] == 0)[0]


def _prime_above(bound: int, E: int) -> int:
    """The least prime l = 1 (mod E) with l > bound."""
    l = bound // E * E + 1
    while l <= bound or not _is_prime(l):
        l += E
    return l


def _verification_primes(bound: int, r: int, E: int) -> list[int]:
    """The fewest primes l = 1 (mod E) whose product passes the bound,
    each with r l^2 < 2^63, so that an r x r product of residues mod l
    stays in int64: the least such prime above the bound when it is that
    small, else the largest ones, descending.  Up to the default cap the
    bound 2|G|^2 takes one prime: for every |G| <= 4096, every E dividing
    |G| and r = |G|, a sieve finds the least prime above the bound within
    the limit.  Raises OracleCheckError when the primes below the limit
    do not pass the bound."""
    top = math.isqrt((2**63 - 1) // r)  # the largest l with r l^2 < 2^63
    if bound < top:
        l = _prime_above(bound, E)
        if l <= top:
            return [l]
    primes, product = [], 1
    l = (top - 1) // E * E + 1
    while product <= bound:
        _check(l > 1, f"the primes l = 1 (mod {E}) with {r} l^2 < 2^63 do not multiply past {bound}")
        if _is_prime(l):
            primes.append(l)
            product *= l
        l -= E
    return primes


def _unit_generators(E: int) -> list[int]:
    """A generating set of (Z/E)^*: each unit not yet generated by the
    smaller ones."""
    reached, gens = {1}, []
    for k in range(2, E):
        if math.gcd(k, E) == 1 and k not in reached:
            gens.append(k)
            reached = set(multiplier_closure(E, gens))
    return gens


def _primitive_root_power(l: int, E: int) -> int:
    """A fixed primitive E-th root of unity in F_l (l = 1 mod E)."""
    fac = _factorize(l - 1)
    for g in range(2, l):
        if all(pow(g, (l - 1) // pf, l) != 1 for pf in fac):
            return pow(g, (l - 1) // E, l)
    raise OracleCheckError(f"no generator mod {l}")


# -- the character table ---------------------------------------------


class CharacterTable:
    """Exact character table of an abstract group, refused past
    CHAINREP_ORACLE_CAP.  It reads the group through ``product``,
    ``inverse`` and ``identity`` alone, so on a ring family it runs on
    the law and its memory is a few arrays of |G| entries plus ``mu``,
    not a |G|^2 table.

    Attributes: reps/sizes/class_of (classes ordered by least member),
    dims (ascending with the row order), mu (root-multiplicity tensor in
    the smallest unsigned dtype that holds max(dims): mu[c, j, u] is the
    multiplicity of zeta_exponent^u in chi_c(reps[j])), power_class
    (power_class[k, j] is the class of the k-th power of reps[j]),
    kernels (the boolean kernel matrix), prime (the modular prime l),
    and stats, a plain dict of counters: linear_rows (rows seeded from
    G/G'), complement_dim (the dimension left for the class matrices to
    split) and class_matrices (class matrices built, taking the classes
    in ascending size and stopping once every space is a line).

    One prime suffices, the least l = 1 (mod E) with l^2 > 4|G|.  Every
    prime divisor of |G| divides E, so l does not divide |G|, and F_l
    holds the E-th roots of unity: the class algebra mod l is split
    semisimple, its central characters stay distinct, and the class
    matrices split the space into lines.  A degree d <= sqrt|G| < l/2 is
    the only t < l/2 with t^2 = d^2 (mod l), and a multiplicity, at most
    d, is its residue mod l (Dixon, Numer. Math. 10, 1967; Schneider,
    J. Symbolic Comput. 9, 1990).  Each step still checks what it finds
    and raises OracleCheckError, since a failure there is a fault in this
    code, not in the prime."""

    def __init__(self, G: AbstractGroup):
        _check_cap(G.order)
        self.group = G
        reps, class_of, sizes = G.conjugacy
        self.reps = list(reps)
        self.class_of = np.asarray(class_of)
        self.sizes = [int(s) for s in sizes]
        self.r = len(reps)
        self.identity_class = int(self.class_of[G.identity])
        self.exponent = int(G.exponent)
        # before the linear rows and powers: mu is refused at its narrowest dtype
        _check_memory(G.order, "its multiplicities mu", (self.r, self.r, self.exponent), np.uint8)
        lin, fibre = self._linear_rows()
        self.stats = {"linear_rows": len(lin), "complement_dim": self.r - len(lin), "class_matrices": 0}
        self._compute(_prime_above(math.isqrt(4 * G.order), self.exponent), lin, fibre)
        self._verify()

    @cached_property
    def _class_members(self):
        """(members, starts): the elements sorted by class, and the
        position where each class begins among them."""
        members = np.argsort(self.class_of, kind="stable")
        return members, np.cumsum([0] + self.sizes)

    @cached_property
    def _by_order(self) -> list[tuple[int, np.ndarray]]:
        """(o, js) for each element order o of the classes, ascending: js the classes of order o."""
        orders = self.group.element_orders[np.array(self.reps)]
        return [(o, np.flatnonzero(orders == o)) for o in sorted(set(orders.tolist()))]

    def _class_matrix(self, i: int):
        """M[j,k] = #{x in C_i : x^{-1} z_k in C_j}, one count over the
        flat index r j + k."""
        G, r = self.group, self.r
        members, starts = self._class_members
        xinv = G.inverse[members[starts[i] : starts[i + 1]]]
        cls = self.class_of[G.product(xinv[:, None], np.array(self.reps))]
        return np.bincount((cls * r + np.arange(r)).ravel(), minlength=r * r).reshape(r, r)

    def _linear_rows(self):
        """(t, fibre): chi_c(reps[j]) = zeta_E^t[c, j] for the |G/G'|
        linear characters c, and fibre[j] the image of reps[j] in
        Q = G/G'.  These are the characters of the abelian group Q.  Along
        a greedy generator series of Q, with relative orders d_i and
        relations g_i^(d_i) = prod_k g_k^(rel_k), a character's value at
        g_i, as an exponent v_i mod M (the exponent of Q), solves
        d_i v_i = rel . v (mod M): once the earlier values fix the right
        side c, the solutions are c/d_i + k M/d_i for 0 <= k < d_i."""
        G = self.group
        Q, coset_of = G.quotient(G._commutator[1])
        _, orders, relations, exps, M = _generator_series(Q, np.arange(Q.order))
        values = np.zeros((1, 0), dtype=np.int64)  # one row per character
        for d, rel in zip(orders, relations):
            c = values @ np.asarray(rel, dtype=np.int64) % M
            roots = c[:, None] // d + np.arange(d) * (M // d)
            values = np.column_stack([np.repeat(values, d, axis=0), roots.ravel()])
        fibre = coset_of[self.reps]
        return values @ exps[fibre].T % M * (self.exponent // M), fibre

    def _compute(self, l: int, lin, fibre):
        G = self.group
        r = self.r
        # 1. split the complement of the linear eigenlines into common
        # eigenlines.  A space is (B, piv) with B[piv] the identity, so M
        # restricted to it is M[piv] @ B; a child B @ N has its identity
        # at piv[free].  The complement holds the vectors that sum to zero
        # over each fibre of G -> G/G', with basis e_j - e_(least class of
        # j's fibre) over the classes j that are not least.  Classes are
        # taken smallest first: a class matrix costs |C_i| r products, and
        # the central classes split a space by central character.
        least = np.full(len(lin), r)
        np.minimum.at(least, fibre, np.arange(r))
        lead = least[fibre]
        piv = np.flatnonzero(lead != np.arange(r))
        B = np.zeros((r, len(piv)), dtype=np.int64)
        B[piv, np.arange(len(piv))] = 1
        B[lead[piv], np.arange(len(piv))] = l - 1
        spaces = [(B, piv)] if len(piv) else []
        for i in np.argsort(self.sizes, kind="stable").tolist():
            if all(len(piv) == 1 for _, piv in spaces):
                break
            if i == self.identity_class:
                continue
            M = self._class_matrix(i) % l
            self.stats["class_matrices"] += 1
            nxt = []
            for B, piv in spaces:
                d = len(piv)
                if d == 1:
                    nxt.append((B, piv))
                    continue
                A = (M[piv] @ B) % l
                eye = np.eye(d, dtype=np.int64)
                if np.array_equal(A, A[0, 0] * eye):  # one eigenvalue: no split
                    nxt.append((B, piv))
                    continue
                found = 0
                for lam in _eigenvalues(A, l):
                    N, free = _nullspace(A - lam * eye, l)
                    nxt.append(((B @ N) % l, piv[free]))
                    found += N.shape[1]
                _check(found == d, "class matrix not diagonalizable mod l")
            spaces = nxt
        _check(all(len(piv) == 1 for _, piv in spaces), "class algebra did not fully split")
        # 2. normalize to central-character rows omega
        omegas = np.empty((len(spaces), r), dtype=np.int64)
        for c, (B, _) in enumerate(spaces):
            v = B[:, 0] % l
            piv = int(v[self.identity_class])
            _check(piv != 0, "eigenline vanishes at identity")
            omegas[c] = (v * pow(piv, -1, l)) % l
        # 3. degrees through the orthogonality sum
        inv_sizes = np.array([pow(s, -1, l) for s in self.sizes], dtype=np.int64)
        invcls = self.class_of[self.group.inverse[np.array(self.reps)]]
        sums = (omegas * omegas[:, invcls] % l * inv_sizes % l).sum(axis=1) % l
        _check(bool(sums.all()), "degenerate orthogonality sum")
        dsq = np.array([self.group.order * pow(int(s), -1, l) % l for s in sums], dtype=np.int64)
        # the least degree t <= sqrt|G| with t^2 = dsq mod l, at once for every row
        t = np.arange(1, math.isqrt(self.group.order) + 1, dtype=np.int64)
        hit = t * t % l == dsq[:, None]
        _check(bool(hit.any(axis=1).all()), "no degree matches the modular square")
        dims = (hit.argmax(axis=1) + 1).tolist()
        _check(len(lin) + sum(d * d for d in dims) == self.group.order, "degree squares do not sum to |G|")
        # 4. modular character values, then exact lifting.  A linear row
        # is one-hot at its exponent.  chi(g^s) depends on s mod o(g)
        # alone, so for a class of element order o the multiplicities sit
        # at multiples of E/o, and one length-o transform lifts them:
        # mu[c, j, (E/o) u] = (1/o) sum_{s<o} chi_c(g_j^s) w^(-su), w = z^(E/o).
        dcol = np.array(dims, dtype=np.int64)[:, None, None]
        X = dcol[:, :, 0] * omegas % l * inv_sizes % l
        E = self.exponent
        power_class = np.empty((E, r), dtype=np.int64)
        reps = np.array(self.reps)
        pw = np.full(r, G.identity, dtype=np.int64)  # pw[j] = reps[j]^s
        for s in range(E):
            power_class[s] = self.class_of[pw]
            pw = G.product(pw, reps)
        dims = [1] * len(lin) + dims
        mu = _allocate(G.order, "its multiplicities mu", (r, r, E), np.min_scalar_type(max(dims)))
        mu[np.arange(len(lin))[:, None], np.arange(r), lin] = 1
        z_root = _primitive_root_power(l, E)
        rows = np.arange(len(lin), r)
        for o, js in self._by_order:
            w = pow(z_root, E // o, l)
            s = np.arange(o)
            wmat = np.array([pow(w, -u, l) for u in range(o)], dtype=np.int64)[np.outer(s, s) % o]
            _check_memory(G.order, "its lifting arrays F and MU", (2, len(X), o, len(js)), np.int64)
            F = X[:, power_class[:o, js]]  # (c, s, j)
            MU = np.einsum("csj,su->cju", F, wmat) % l * pow(o, -1, l) % l
            _check((MU <= dcol).all(), "lifted multiplicity exceeds the degree")
            _check((MU.sum(axis=2) == dcol[:, :, 0]).all(), "multiplicities do not sum to the degree")
            mu[np.ix_(rows, js, E // o * s)] = MU
        # 5. deterministic row order: by dimension, then value data (the
        # big-endian bytes of an unsigned row compare as its values do)
        big = mu.dtype.newbyteorder(">")
        order = sorted(range(r), key=lambda c: (dims[c], mu[c].astype(big).tobytes()))
        self.dims = [dims[c] for c in order]
        self.mu = mu[order]
        self.prime = l
        self.power_class = power_class

    def _verify(self):
        """Prove that the lifted table is exactly orthonormal, without
        forming a cyclotomic number, or raise OracleCheckError.

        (0) mu >= 0, each mu[c, j] sums to dims[c], the identity column
            is (d, 0, ..., 0) and the squared degrees sum to |G|.  Then
            |chi_a(g)| <= d_a, so |N_ab| <= |G| d_a d_b <= |G|^2 for
            N_ab = sum_j |C_j| chi_a(g_j) conj(chi_b(g_j)).
        (a) For each k in a generating set of (Z/E)^*, the table carries
            the Galois action chi^(sigma_k)(g) = chi(g^k):
            mu[c, class(g_j^k), k u mod E] = mu[c, j, u], checked over
            the classes of one element order at a time.
        (b) For gcd(k, E) = 1, g -> g^k permutes the classes and keeps
            their sizes, so by (a) every sigma_k fixes N_ab, which is
            then a rational integer.
        (c) Under zeta -> z, a primitive E-th root of unity mod a prime
            l = 1 (mod E), N = |G| I holds mod l, checked with one r x r
            product per prime, over the fewest primes that multiply past
            2|G|^2 (_verification_primes): one prime up to the default
            cap.  Then N = |G| I exactly.  X[c, j] = chi_c(g_j) and
            Y[c, j] = conj(chi_c(g_j)) mod l are formed one element order
            o at a time, from the multiplicities at multiples of E/o,
            after checking that a class of order o holds no other.

        The cost is r^2 E per generator, r^2 E for the order check, r
        sum_j o(g_j) for X and Y, and r^3 per prime."""
        G, r, E, mu = self.group, self.r, self.exponent, self.mu
        dims = np.array(self.dims, dtype=np.int64)
        idc = self.identity_class
        # (0) the bound
        _check((mu >= 0).all(), "negative multiplicity")
        _check((mu.sum(axis=2) == dims[:, None]).all(), "multiplicities do not sum to the degree")
        _check(np.array_equal(mu[:, idc, 0], dims) and not mu[:, idc, 1:].any(), "identity column")
        _check(int(dims @ dims) == G.order, "degree squares do not sum to |G|")
        # (a) the Galois action, one element order at a time: g -> g^k
        # keeps the order of g, so it maps the classes js of one order
        # among themselves
        u = np.arange(E)
        for k in _unit_generators(E):
            pc, ku = self.power_class[k], k * u % E
            for _, js in self._by_order:
                galois = mu[:, pc[js, None], ku]
                _check(np.array_equal(galois, mu[:, js]), f"Galois action sigma_{k} failed")
        # (c) N = |G| I modulo primes l = 1 (mod E), from the classes of
        # each element order o: mu[:, js, (E/o) s], the multiplicity of w^s
        # for w = zeta^(E/o)
        sizes = np.array(self.sizes, dtype=np.int64)
        blocks = []
        for o, js in self._by_order:
            block = mu[:, js].reshape(r, len(js), o, E // o)
            _check(not block[:, :, :, 1:].any(), f"multiplicity at a root of unity whose order does not divide o(g) = {o}")
            blocks.append((o, js, np.ascontiguousarray(block[:, :, :, 0])))
        for l in _verification_primes(2 * G.order**2, r, E):
            zl = _primitive_root_power(l, E)
            X, Y = np.empty((2, r, r), dtype=np.int64)
            for o, js, part in blocks:
                w = np.array([pow(zl, E // o * s, l) for s in range(o)], dtype=np.int64)
                X[:, js] = part @ w % l
                Y[:, js] = part @ w[-np.arange(o) % o] % l
            N = (X * sizes % l) @ Y.T % l
            _check(np.array_equal(N, G.order % l * np.eye(r, dtype=np.int64)), f"orthogonality failed mod {l}")

    # -- exact values and kernels ------------------------------------

    @cached_property
    def kernels(self) -> np.ndarray:
        """kernels[c, j]: class j lies in ker chi_c, i.e. chi_c(C_j) =
        chi_c(1), all of whose multiplicity sits at zeta^0."""
        return self.mu[:, :, 0] == np.array(self.dims)[:, None]

    def to_rows(self):
        """CSV-ready rows: dim then exact values by class.  A row's values
        are reduced at once, as the sum of their nonzero multiplicities
        times the rows z^u of the reduced powers, and each value is
        formatted from its nonzero coefficients."""
        zpow = _ctx(self.exponent)[2]
        out = []
        for c in range(self.r):
            j, u = np.nonzero(self.mu[c])
            vals = np.zeros((self.r, zpow.shape[1]), dtype=np.int64)
            np.add.at(vals, j, self.mu[c, j, u, None].astype(np.int64) * zpow[u])
            j, t = np.nonzero(vals)
            cuts = np.searchsorted(j, np.arange(self.r + 1)).tolist()
            terms = list(zip(t.tolist(), vals[j, t].tolist()))
            out.append([self.dims[c]] + [cyc_str(terms[a:b]) for a, b in zip(cuts, cuts[1:])])
        return out


# -- minimal normal subgroups and the exact minimum -------------------


def minimal_normal_witnesses(T: CharacterTable) -> list:
    """One witness class index per minimal normal subgroup: its lowest
    non-identity class.  A normal subgroup is the intersection of the
    irreducible kernels that contain it, so class i lies in the normal
    closure N_j of class j iff no kernel holds j without i, and no
    element closure is needed.  N_j is minimal iff every non-identity
    class in it has closure N_j.  N is contained in a kernel iff the
    witness class is, so coverage checks reduce to kernel columns, here
    packed into bitsets W[j] over the rows: class i lies in N_j iff
    W[j] & ~W[i] is empty."""
    W = np.packbits(T.kernels, axis=0).T.copy()
    outside = ~W
    inside = np.empty((T.r, T.r), dtype=bool)  # inside[j, i]: class i lies in N_j
    for j in range(T.r):
        inside[j] = ~(W[j] & outside).any(axis=1)
    nontrivial = np.arange(T.r) != T.identity_class
    sub = inside & nontrivial
    minimal = ~(sub & ~inside.T).any(axis=1)
    least = sub.argmax(axis=1) == np.arange(T.r)
    return np.flatnonzero(nontrivial & minimal & least).tolist()


def min_faithful_exhaustive(T: CharacterTable):
    """(minimum total dimension, row selection) over direct sums with
    trivial kernel: exact branch-and-bound set cover over the minimal
    normal subgroups.

    A node (rows chosen, rows pool[start:] still available, pool sorted
    by degree) is pruned once its cost plus a lower bound on the cost of
    any completion reaches the best cover found.  The bound is the larger
    of two:
    (a) each uncovered witness needs an available row that covers it, so
        the completion costs at least the largest, over uncovered
        witnesses, of the least degree of such a row;
    (b) fix a prime q.  The central subgroups of order q are minimal
        normal, the lines of Omega_1(Z)_q, and those left uncovered are
        the lines of W = (joint kernel) n Omega_1(Z)_q, so
        #uncovered = (q^w - 1)/(q - 1) for w = dim W.  An irreducible
        row is scalar on the central W, so it restricts to W as its
        degree times a linear character, whose kernel has codimension at
        most 1 in W.  Covering every line takes W to 0, so at least
        w = log_q((q - 1) #uncovered + 1) more rows are needed, which
        cost at least the w least available degrees,
        pool[start:start + w].
    Both bounds are valid, so no strictly cheaper cover is pruned.  By
    (a) a node's bound is at least the degree of pool[start], the next
    row taken, so every cover reached is strictly cheaper than the best
    one so far, and a stronger bound only skips subtrees that hold
    none: the search meets the same improving covers in the same order
    and returns the same selection as with (a) alone."""
    witnesses = minimal_normal_witnesses(T)
    s = len(witnesses)
    if s == 0:  # trivial group
        return 0, ()
    full = (1 << s) - 1
    # coverage mask per row: witness bits whose class escapes the kernel
    # (Python ints, as s may pass 63)
    cover = [sum(1 << u for u in np.flatnonzero(row).tolist()) for row in ~T.kernels[:, witnesses]]
    # dedupe: cheapest row per coverage mask, drop useless rows
    best_row = {}
    for c in range(T.r):
        m = cover[c]
        if m and (m not in best_row or T.dims[c] < T.dims[best_row[m]]):
            best_row[m] = c
    pool = sorted(best_row.values(), key=lambda c: (T.dims[c], c))
    # greedy initial solution: repeatedly fix the scarcest witness
    chosen = []
    covered = 0
    while covered != full:
        u = min(
            (u for u in range(s) if not (covered >> u) & 1),
            key=lambda u: sum(1 for c in pool if (cover[c] >> u) & 1),
        )
        cands = [c for c in pool if (cover[c] >> u) & 1 and c not in chosen]
        _check(cands, "regular representation must cover every witness")
        pick = min(cands, key=lambda c: (T.dims[c], c))
        chosen.append(pick)
        covered |= cover[pick]
    best = [sum(T.dims[c] for c in chosen), tuple(sorted(chosen))]
    # (b): the witness bits of the central subgroups of order q, by q, and
    # the dimension w of a space with (q^w - 1)/(q - 1) lines
    central = {}
    for u, j in enumerate(witnesses):
        if T.sizes[j] == 1:
            q = int(T.group.element_orders[T.reps[j]])
            central[q] = central.get(q, 0) | 1 << u
    rank = {q: {(q**w - 1) // (q - 1): w for w in range(mask.bit_count().bit_length() + 1)} for q, mask in central.items()}
    prefix = np.cumsum([0] + [T.dims[c] for c in pool]).tolist()

    def bound(covered, start):
        need = 0
        for q, mask in central.items():
            w = rank[q][(mask & ~covered).bit_count()]
            if start + w > len(pool):
                return None
            need = max(need, prefix[start + w] - prefix[start])
        for u in range(s):
            if (covered >> u) & 1:
                continue
            options = [T.dims[pool[i]] for i in range(start, len(pool)) if (cover[pool[i]] >> u) & 1]
            if not options:
                return None
            need = max(need, min(options))
        return need

    def dfs(start, covered, cost, sel):
        if covered == full:
            best[:] = cost, tuple(sorted(sel))  # cheaper than best, by the bound
            return
        lb = bound(covered, start)
        if lb is None or cost + lb >= best[0]:
            return
        c = pool[start]
        if cover[c] & ~covered:
            dfs(start + 1, covered | cover[c], cost + T.dims[c], sel + [c])
        dfs(start + 1, covered, cost, sel)

    dfs(0, 0, 0, [])
    del dfs  # it refers to itself: a cycle that would hold T until the next garbage collection
    return best[0], best[1]


def catalog_from_table(T: CharacterTable):
    """(dim, DualVector, row) entries for a p-group: each character's
    central character restricted to a fixed basis of the socle
    Omega_1(Z(G)).  Feeds the greedy basis solver."""
    G = T.group
    primes = list(_factorize(G.order))
    _check(len(primes) == 1, "catalog_from_table requires a p-group")
    p = primes[0]
    orders = G.element_orders
    gens = G._span(g for g in G.center if orders[g] == p)[1]
    step = T.exponent // p
    V = T.mu[:, T.class_of[gens], :]  # (row, generator, root exponent)
    t = V.argmax(axis=2)
    scalar = (np.count_nonzero(V, axis=2) == 1) & (V.max(axis=2) == np.array(T.dims)[:, None])
    _check(scalar.all(), "central class value is not a scalar root of unity")
    _check((t % step == 0).all(), "central class value is not a p-th root of unity")
    coords = (t // step % p).tolist()
    return [(T.dims[c], DualVector(p, tuple(coords[c])), c) for c in range(T.r)]


# -- cross validation -------------------------------------------------


# What a suite instance may hold besides its name, family and family
# parameters.
SUITE_FLAGS = ("expected", "oracle", "two_step", "pgroup_catalog")


def _suite_instance(inst: dict):
    """The FamilyInstance of a suite instance (solver.FamilyInstance, the
    one parameter check, with the suite flags allowed).  Raises
    ValueError naming the instance for whatever that check refuses, and
    for ``pgroup_catalog`` set on an instance whose oracle is off or whose
    |G| is not a prime power."""
    from . import minfaith_solver as solver

    params = {key: value for key, value in inst.items() if key not in ("name", "family")}
    try:
        b = solver.FamilyInstance(inst["family"], params, SUITE_FLAGS)
        if inst.get("pgroup_catalog", False):
            if not inst.get("oracle", b.family.oracle):
                raise ValueError("pgroup_catalog = true, but the oracle is off")
            if len(_factorize(b.order)) != 1:
                raise ValueError(f"pgroup_catalog = true, but |G| = {b.order} is not a prime power")
        return b
    except RingParameterError as exc:
        raise ValueError(f"instance {inst['name']!r} has no chain ring: {exc}") from None
    except (ValueError, OSError) as exc:
        raise ValueError(f"instance {inst['name']!r} has {exc}") from None


def cross_validate(suite: dict) -> dict:
    """Check every instance of a suite, then run each through the routes
    that apply and report agreement.  The check builds each instance once
    and, before any route runs, raises ValueError for a suite that is not
    an object whose ``instances`` is a list of objects with a string
    ``name`` and a ``family``, for a name two instances share, or for the
    first malformed instance (_suite_instance).
    Each instance's routes are those solver.routes lists for it and its
    flags, run by solver.run_routes and judged by solver.judge against
    its ``expected``."""
    from . import minfaith_solver as solver

    instances = suite.get("instances") if isinstance(suite, dict) else None
    if not isinstance(instances, list) or not all(
        isinstance(inst, dict) and isinstance(inst.get("name"), str) and "family" in inst for inst in instances
    ):
        raise ValueError("a suite is a JSON object whose 'instances' is a list of objects with a string 'name' and a 'family'")
    names = [inst["name"] for inst in instances]
    for t, name in enumerate(names):
        if name in names[:t]:
            raise ValueError(f"instance name {name!r} is used twice")
    built = [_suite_instance(inst) for inst in instances][::-1]
    results = []
    for inst in suite["instances"]:  # popped, so each built instance is freed once it has run
        run = solver.run_routes(built.pop(), inst)
        expected = inst.get("expected")
        match, notes = solver.judge(run, expected)
        entry = {"name": inst["name"], "values": run.values, "match": match}
        if expected is not None:
            entry["expected"] = expected
        if notes:
            entry["notes"] = notes
        if run.error is not None:
            entry["error"] = run.error
        results.append(entry)
        del run  # else its solution (the models, and so the group) lives through the next run
    mismatches = [rr["name"] for rr in results if not rr["match"]]
    return {
        "suite": suite.get("name", "unnamed"),
        "results": results,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
