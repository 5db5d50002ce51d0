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
integer.  N = |G| I is checked modulo primes l = 1 (mod E) until they
multiply past 2|G|^2, which fixes N exactly (Chinese remaindering).

The split follows Dixon and Schneider: each common eigenspace carries a
basis B that is the identity on its pivot rows, so a class matrix M
restricts to it as M[pivots] @ B.  A restriction that is scalar leaves
the space whole; otherwise its eigenvalues are the roots of the
characteristic polynomial of a Hessenberg form, evaluated at all of F_l
at once, and nullspaces are taken only at those roots.

The minimum search rewrites "trivial kernel intersection" as a weighted
set cover over the minimal normal subgroups (the joint kernel is trivial
iff every minimal normal subgroup escapes some summand's kernel), which
branch-and-bound settles exactly at these sizes.  The minimal normal
subgroups come from the table as well: every normal subgroup is the
intersection of the irreducible kernels that contain it (Isaacs,
Character Theory of Finite Groups, ch. 2), so the normal closure of a
class is the AND of the kernel class masks that contain it."""

from __future__ import annotations

import math
import operator
from functools import reduce

import numpy as np

from .chain_ring import _factorize, _is_prime
from .char_duality import DualVector
from .exactrep import Cyclotomic
from .group_models import (
    AbstractGroup,
    CapExceededError,
    Char2UnsupportedError,
    group_cap,
)


class ModularPrimeNotFoundError(RuntimeError):
    pass


MAX_PRIME_TRIES = 8


# -- modular linear algebra ------------------------------------------


def _rref(A, l):
    """Gauss-Jordan elimination over F_l: (reduced row echelon form of A,
    pivot columns)."""
    A = np.array(A % l, dtype=np.int64)
    m, n = A.shape
    row = 0
    pivcol = []
    for col in range(n):
        if row == m:
            break
        pr = None
        for i in range(row, m):
            if A[i, col] % l:
                pr = i
                break
        if pr is None:
            continue
        if pr != row:
            A[[row, pr]] = A[[pr, row]]
        A[row] = (A[row] * pow(int(A[row, col]), -1, l)) % l
        for i in range(m):
            if i != row and A[i, col]:
                A[i] = (A[i] - A[i, col] * A[row]) % l
        pivcol.append(col)
        row += 1
    return A, pivcol


def _nullspace(A, l):
    """(column basis N of ker(A) over F_l, free columns): N[free] is the
    identity."""
    A, pivcol = _rref(A, l)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivcol]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for t, fc in enumerate(free):
        basis[fc, t] = 1
        for rr, pc in enumerate(pivcol):
            basis[pc, t] = (-A[rr, fc]) % l
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


def _unit_generators(E: int) -> list[int]:
    """A generating set of (Z/E)^*: each unit not yet generated by the
    smaller ones."""
    reached, gens = {1}, []
    for k in range(2, E):
        if math.gcd(k, E) != 1 or k in reached:
            continue
        gens.append(k)
        front = reached
        while front:
            front = {a * g % E for a in front for g in gens} - reached
            reached |= front
    return gens


def _primitive_root_power(l: int, E: int) -> int:
    """A fixed primitive E-th root of unity in F_l (l = 1 mod E)."""
    fac = _factorize(l - 1)
    for g in range(2, l):
        if all(pow(g, (l - 1) // pf, l) != 1 for pf in fac):
            return pow(g, (l - 1) // E, l)
    raise ModularPrimeNotFoundError(f"no generator mod {l}")


# -- the character table ---------------------------------------------


class CharacterTable:
    """Exact character table of an abstract group.

    Attributes: reps/sizes/class_of (classes ordered by least member),
    dims (ascending with the row order), chars (rows of Cyclotomic
    values over zeta_exponent), mu (integer root-multiplicity tensor),
    power_class (power_class[k, j] is the class of the k-th power of
    reps[j]), kernel class masks, and the modular prime actually used."""

    def __init__(self, G: AbstractGroup, cap: int | None = None):
        cap = cap or group_cap()
        if G.order > cap:
            raise CapExceededError(f"|G| = {G.order} exceeds oracle cap {cap}")
        self.group = G
        reps, class_of, sizes = G.conjugacy
        self.reps = list(reps)
        self.class_of = np.asarray(class_of)
        self.sizes = [int(s) for s in sizes]
        self.r = len(reps)
        self.identity_class = int(self.class_of[G.identity])
        self.exponent = int(G.exponent)
        last_err = None
        l = self._first_prime()
        for _ in range(MAX_PRIME_TRIES):
            try:
                self._compute(l)
                break
            except ModularPrimeNotFoundError as exc:
                last_err = exc
                l = self._next_prime(l)
        else:
            raise ModularPrimeNotFoundError(
                f"no workable prime after {MAX_PRIME_TRIES} tries: {last_err}"
            )
        self._verify()

    # prime selection: l = 1 (mod exponent), l > 2 sqrt|G|
    def _first_prime(self) -> int:
        E = self.exponent
        l = E + 1
        while not (_is_prime(l) and l * l > 4 * self.group.order):
            l += E
        return l

    def _next_prime(self, l: int) -> int:
        l += self.exponent
        while not _is_prime(l):
            l += self.exponent
        return l

    def _class_matrix(self, i: int):
        """M[j,k] = #{x in C_i : x^{-1} z_k in C_j}."""
        G = self.group
        members = np.nonzero(self.class_of == i)[0]
        xinv = G.inverse[members]
        prod = G.table[np.ix_(xinv, np.array(self.reps))]
        cls = self.class_of[prod]
        M = np.zeros((self.r, self.r), dtype=np.int64)
        cols = np.broadcast_to(np.arange(self.r), cls.shape)
        np.add.at(M, (cls, cols), 1)
        return M

    def _compute(self, l: int):
        G = self.group
        r = self.r
        # 1. split the class algebra into common eigenlines.  A space is
        # (B, piv) with B[piv] the identity, so M restricted to it is
        # M[piv] @ B; a child B @ N has its identity at piv[free].
        spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
        for i in range(r):
            if all(len(piv) == 1 for _, piv in spaces):
                break
            if i == self.identity_class:
                continue
            M = self._class_matrix(i) % l
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
                if found != d:
                    raise ModularPrimeNotFoundError("class matrix not diagonalizable mod l")
            spaces = nxt
        if not all(len(piv) == 1 for _, piv in spaces):
            raise ModularPrimeNotFoundError("class algebra did not fully split")
        # 2. normalize to central-character rows omega
        omegas = np.empty((r, r), dtype=np.int64)
        for c, (B, _) in enumerate(spaces):
            v = B[:, 0] % l
            piv = int(v[self.identity_class])
            if piv == 0:
                raise ModularPrimeNotFoundError("eigenline vanishes at identity")
            omegas[c] = (v * pow(piv, -1, l)) % l
        # 3. degrees through the orthogonality sum
        inv_sizes = np.array([pow(s, -1, l) for s in self.sizes], dtype=np.int64)
        invcls = self.class_of[self.group.inverse[np.array(self.reps)]]
        order_mod = self.group.order % l
        dims = []
        for c in range(r):
            s = int(np.sum(omegas[c] * omegas[c][invcls] % l * inv_sizes % l) % l)
            if s == 0:
                raise ModularPrimeNotFoundError("degenerate orthogonality sum")
            dsq = order_mod * pow(s, -1, l) % l
            d = None
            t = 1
            while t * t <= self.group.order:
                if t * t % l == dsq:
                    d = t
                    break
                t += 1
            if d is None:
                raise ModularPrimeNotFoundError("no degree matches the modular square")
            dims.append(d)
        if sum(d * d for d in dims) != self.group.order:
            raise ModularPrimeNotFoundError("degree squares do not sum to |G|")
        # 4. modular character values, then exact lifting
        X = np.empty((r, r), dtype=np.int64)
        for c in range(r):
            X[c] = np.array(dims[c], dtype=np.int64) * omegas[c] % l * inv_sizes % l
        E = self.exponent
        power_class = np.empty((E, r), dtype=np.int64)
        for j, z in enumerate(self.reps):
            pw = self.group.identity
            for s in range(E):
                power_class[s, j] = self.class_of[pw]
                pw = int(self.group.table[pw, z])
        z_root = _primitive_root_power(l, E)
        zmat = np.empty((E, E), dtype=np.int64)
        for s in range(E):
            zs = pow(z_root, (-s) % (l - 1), l)
            acc = 1
            for t in range(E):
                zmat[s, t] = acc
                acc = acc * zs % l
        invE = pow(E, -1, l)
        V = X[:, power_class]  # (c, s, j)
        MU = np.einsum("csj,st->cjt", V % l, zmat % l) % l * invE % l
        MU = np.asarray(MU, dtype=np.int64)
        dcol = np.array(dims, dtype=np.int64)[:, None, None]
        if np.any(MU > dcol):
            raise ModularPrimeNotFoundError("lifted multiplicity exceeds the degree")
        if np.any(MU.sum(axis=2) != dcol[:, :, 0]):
            raise ModularPrimeNotFoundError("multiplicities do not sum to the degree")
        # 5. deterministic row order: by dimension, then value data
        order = sorted(range(r), key=lambda c: (dims[c], MU[c].reshape(-1).tolist()))
        self.dims = [dims[c] for c in order]
        self.mu = MU[order]
        self.prime = l
        self.power_class = power_class

    def _verify(self):
        """Prove that the lifted table is exactly orthonormal, without
        forming a cyclotomic number.

        (0) mu >= 0, each mu[c, j] sums to dims[c], the identity column
            is (d, 0, ..., 0) and the squared degrees sum to |G|.  Then
            |chi_a(g)| <= d_a, so |N_ab| <= |G| d_a d_b <= |G|^2 for
            N_ab = sum_j |C_j| chi_a(g_j) conj(chi_b(g_j)).
        (a) For each k in a generating set of (Z/E)^*, the table carries
            the Galois action chi^(sigma_k)(g) = chi(g^k):
            mu[c, class(g_j^k), k u mod E] = mu[c, j, u].
        (b) For gcd(k, E) = 1, g -> g^k permutes the classes and keeps
            their sizes, so by (a) every sigma_k fixes N_ab, which is
            then a rational integer.
        (c) Under zeta -> z, a primitive E-th root of unity mod a prime
            l = 1 (mod E), N = |G| I holds mod l, checked with one r x r
            product per prime from the table's own prime upwards, until
            the primes multiply past 2|G|^2.  Then N = |G| I exactly.

        The cost is r^2 E per generator and r^3 per prime."""
        G, r, E, mu = self.group, self.r, self.exponent, self.mu
        dims = np.array(self.dims, dtype=np.int64)
        idc = self.identity_class
        # (0) the bound
        assert (mu >= 0).all(), "negative multiplicity"
        assert (mu.sum(axis=2) == dims[:, None]).all(), "multiplicities do not sum to the degree"
        assert np.array_equal(mu[:, idc, 0], dims) and not mu[:, idc, 1:].any(), "identity column"
        assert int(dims @ dims) == G.order, "degree squares do not sum to |G|"
        # (a) the Galois action, one (r, r, E) gather at a time
        u = np.arange(E)
        for k in _unit_generators(E):
            pc = self.power_class[k]
            assert np.array_equal(mu[:, pc[:, None], (k * u % E)[None, :]], mu), (
                f"Galois action sigma_{k} failed"
            )
        # (c) N = |G| I modulo primes l = 1 (mod E)
        sizes = np.array(self.sizes, dtype=np.int64)
        l, modulus = self.prime, 1
        while modulus <= 2 * G.order**2:
            assert r * l * l < 2**63, "prime too large for int64 products"
            z = np.empty(E, dtype=np.int64)  # z[u] = z^u mod l
            z[0] = 1
            zl = _primitive_root_power(l, E)
            for t in range(1, E):
                z[t] = z[t - 1] * zl % l
            X = (mu @ z) % l
            Y = (mu @ z[-u % E]) % l
            N = (X * sizes % l) @ Y.T % l
            assert np.array_equal(N, G.order % l * np.eye(r, dtype=np.int64)), (
                f"orthogonality failed mod {l}"
            )
            modulus *= l
            l = self._next_prime(l)

    # -- exact values and kernels ------------------------------------

    def value(self, c: int, j: int) -> Cyclotomic:
        return Cyclotomic(self.exponent, self.mu[c, j].tolist())

    def kernel_class_mask(self, c: int) -> int:
        """Bitmask over classes j with chi_c(C_j) = chi_c(1)."""
        mask = 0
        for j in range(self.r):
            if self.mu[c, j, 0] == self.dims[c] and not self.mu[c, j, 1:].any():
                mask |= 1 << j
        return mask

    def kernel_elements(self, c: int) -> frozenset:
        mask = self.kernel_class_mask(c)
        return frozenset(
            int(g)
            for g in range(self.group.order)
            if (mask >> int(self.class_of[g])) & 1
        )

    def kernel_lattice(self) -> list:
        """Per-irrep kernels as element sets; each verified to be a
        subgroup, with trivial overall intersection."""
        kers = [self.kernel_elements(c) for c in range(self.r)]
        for K in kers:
            assert self.group.closure(sorted(K)) == sorted(K), "kernel not closed"
        inter = set(kers[0])
        for K in kers[1:]:
            inter &= K
        assert inter == {self.group.identity}, "kernel lattice intersection nontrivial"
        return kers

    def to_rows(self):
        """CSV-ready rows: dim then exact values by class."""
        out = []
        for c in range(self.r):
            out.append([self.dims[c]] + [self.value(c, j).to_str() for j in range(self.r)])
        return out


# -- minimal normal subgroups and the exact minimum -------------------


def minimal_normal_witnesses(T: CharacterTable) -> list:
    """One witness class index per minimal normal subgroup: its lowest
    non-identity class.  A normal subgroup is the intersection of the
    irreducible kernels that contain it, so the normal closure of class
    j is the AND of the kernel class masks with bit j set, and no
    element closure is needed.  N is contained in a kernel iff the
    witness class is, so coverage checks reduce to kernel masks."""
    kernels = [T.kernel_class_mask(c) for c in range(T.r)]
    normal = {}  # class j -> class mask of its normal closure
    for j in range(T.r):
        if j != T.identity_class:
            normal[j] = reduce(operator.and_, (k for k in kernels if k >> j & 1))
    masks = set(normal.values())
    witness = {}
    for j, N in normal.items():
        if not any(M != N and M & N == M for M in masks):
            witness.setdefault(N, j)
    return sorted(witness.values())


def min_faithful_exhaustive(T: CharacterTable):
    """(minimum total dimension, row selection) over direct sums with
    trivial kernel: exact branch-and-bound set cover over the minimal
    normal subgroups."""
    witnesses = minimal_normal_witnesses(T)
    s = len(witnesses)
    if s == 0:  # trivial group
        return 0, ()
    full = (1 << s) - 1
    # coverage mask per row: witness bits whose class escapes the kernel
    cover = []
    for c in range(T.r):
        kmask = T.kernel_class_mask(c)
        m = 0
        for u, j in enumerate(witnesses):
            if not (kmask >> j) & 1:
                m |= 1 << u
        cover.append(m)
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
        assert cands, "regular representation must cover every witness"
        pick = min(cands, key=lambda c: (T.dims[c], c))
        chosen.append(pick)
        covered |= cover[pick]
    best = [sum(T.dims[c] for c in chosen), tuple(sorted(chosen))]

    def bound(covered, start):
        need = 0
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
            if cost < best[0] or (cost == best[0] and tuple(sorted(sel)) < best[1]):
                best[0] = cost
                best[1] = tuple(sorted(sel))
            return
        lb = bound(covered, start)
        if lb is None or cost + lb >= best[0]:
            return
        c = pool[start]
        if cover[c] & ~covered:
            dfs(start + 1, covered | cover[c], cost + T.dims[c], sel + [c])
        dfs(start + 1, covered, cost, sel)

    dfs(0, 0, 0, [])
    return best[0], best[1]


def catalog_from_table(T: CharacterTable):
    """(dim, DualVector, row) entries for a p-group: each character's
    central character restricted to a fixed basis of the socle
    Omega_1(Z(G)).  Feeds the greedy basis solver."""
    G = T.group
    primes = list(_factorize(G.order))
    assert len(primes) == 1, "catalog_from_table requires a p-group"
    p = primes[0]
    orders = G.element_orders
    gens = G._span(g for g in G.center if orders[g] == p)[1]
    E = T.exponent
    step = E // p
    entries = []
    for c in range(T.r):
        coords = []
        for g in gens:
            j = int(T.class_of[g])
            nz = np.nonzero(T.mu[c, j])[0]
            assert len(nz) == 1 and T.mu[c, j, nz[0]] == T.dims[c], (
                "central class value is not a scalar root of unity"
            )
            t = int(nz[0])
            assert t % step == 0
            coords.append((t // step) % p)
        entries.append((T.dims[c], DualVector(p, tuple(coords)), c))
    return entries


# -- cross validation -------------------------------------------------


# What a suite instance may hold besides its family's parameters.
SUITE_KEYS = ("name", "family", "expected", "oracle", "two_step", "pgroup_catalog")


def cross_validate(suite: dict, cap: int | None = None) -> dict:
    """Run every instance of a suite through each applicable route and
    report agreement.  The family's own routes (closed form, greedy
    solver, explicit construction, orbit bound) always run.  The
    Heisenberg, unitriangular and affine families build their table
    group only when ``oracle`` is true; the others are given by their
    group and run the oracle search unless ``oracle`` is false.  Given
    the group, ``two_step`` adds the two-step closed form and
    construction, and ``pgroup_catalog`` the greedy solver on the
    oracle's catalog.  A family route that refuses the instance
    (Char2UnsupportedError) is left out, with a "skipped" note."""
    from . import minfaith_solver as solver

    def value(out, notes):
        if isinstance(out, solver.FaithfulSolution):
            if out.verified_faithful is False:
                notes.append("construction kernel check failed")
            return out.total_dim
        return out

    results = []
    for inst in suite["instances"]:
        name = inst["name"]
        family = inst["family"]
        values = {}
        notes = []
        try:
            b = solver.FamilyInstance(family, inst, cap)
            fam = b.family
            for key, route in fam.routes.items():
                try:
                    values[key] = value(route(b), notes)
                except Char2UnsupportedError as exc:  # a route that refuses
                    notes.append(f"{key} skipped: {exc}")
            if fam.bound is not None:
                values["orbit_bound"], eq = fam.bound(b)
                notes.append("action faithful" if eq else "action through a quotient")
            oracle = inst.get("oracle", fam.oracle)
            if fam.oracle or oracle:  # otherwise no group is built
                if inst.get("two_step", False):
                    for key, route in solver.TWO_STEP_ROUTES.items():
                        values[f"{key}_two_step"] = value(route(b), notes)
                if oracle:
                    T = CharacterTable(b.group, cap=cap)
                    m, sel = min_faithful_exhaustive(T)
                    values["oracle"] = m
                    values["oracle_selection_dims"] = [T.dims[c] for c in sel]
                    if inst.get("pgroup_catalog", False):
                        entries = catalog_from_table(T)
                        p, dprime = entries[0][1].p, len(entries[0][1].coords)
                        values["solver_catalog"] = solver.solve_pgroup(entries, p, dprime).total_dim
        except Exception as exc:  # mismatch bookkeeping, not control flow
            results.append(
                {
                    "name": name,
                    "values": values,
                    "error": f"{type(exc).__name__}: {exc}",
                    "match": False,
                }
            )
            continue

        expected = inst.get("expected")
        core = {k: v for k, v in values.items() if k not in ("orbit_bound", "oracle_selection_dims")}
        match = len(set(core.values())) <= 1
        if "orbit_bound" in values and "oracle" in values:
            if values["oracle"] < values["orbit_bound"]:
                match = False
                notes.append("oracle fell below the orbit lower bound")
        if expected is not None and core and set(core.values()) != {expected}:
            match = False
        if expected is not None and not core:
            # orbit-bound-only instances: compare expected to the oracle
            match = values.get("oracle") == expected
        entry = {"name": name, "values": values, "match": bool(match)}
        if expected is not None:
            entry["expected"] = expected
        if notes:
            entry["notes"] = notes
        results.append(entry)
    mismatches = [rr["name"] for rr in results if not rr["match"]]
    return {
        "suite": suite.get("name", "unnamed"),
        "results": results,
        "mismatches": mismatches,
        "ok": not mismatches,
    }
