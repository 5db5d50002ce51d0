"""Independent references that the tests compare the package against.

None of these is reached by a command or a route: each recomputes, by
a different method, a value the package computes (or a bound its closed
forms satisfy), so a test can check one against the other.  Methods of
the package's classes appear here as functions of the instance.

Two of them are whole scalar layers that the package computes only in
array form.  ``RingElem`` and the digit functions add and multiply one
element at a time by carrying a digit tuple in a loop, where RingSpec
builds its lookup tables from carried digit arrays and the basis-product
tensor.  ``Cyclotomic`` adds and multiplies exact values in Z[zeta_m] as
reduced coefficient vectors, where the oracle holds root-of-unity
multiplicities and reduces a whole row at once.  The group helpers
(``index_inverse``, ``family_mul``, ``family_inv``) multiply and invert
one element at a time through a family's law, and ``tabulate`` and the
``*_law`` helpers multiply the names of a distinguished group one pair
at a time, where its builder writes an index-array law.  ``rref_loop`` and
``nullspace_loop`` eliminate over F_l one row and one entry at a time,
where the package clears a pivot column with one rank-one update."""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from chainrep.chain_ring import INF, RingParameterError, RingSpec, _divide
from chainrep.char_duality import DualVector, character_weights
from chainrep.exactrep import LinearChar, _ctx, cyc_str
from chainrep.group_models import HeisenbergGroup, _generator_series, _relation_value
from chainrep.mackey_irreps import EXPLICIT_CAP, ideal_of
from chainrep.minfaith_solver import formula_heisenberg


# -- the scalar ring ------------------------------------------------------


def canon(R: RingSpec, acc: list[int]) -> tuple[int, ...]:
    """The canonical digit tuple of an integer digit list, carried in
    place column by column: a carry out of digit (i, j) moves to
    (i, j + e), as p = pi^e, and falls off past column n - 1."""
    p, e, n, f = R.p, R.e, R.n, R.f
    for j in range(n):
        for i in range(f):
            pos = i * n + j
            c = acc[pos] % p
            carry = (acc[pos] - c) // p
            acc[pos] = c
            if carry and e != INF and j + e < n:
                acc[i * n + j + e] += carry
    return tuple(acc)


def add_digits(R: RingSpec, a, b) -> tuple[int, ...]:
    return canon(R, [x + y for x, y in zip(a, b)])


def neg_digits(R: RingSpec, a) -> tuple[int, ...]:
    return canon(R, [-x for x in a])


def mul_digits(R: RingSpec, a, b) -> tuple[int, ...]:
    """The product of two digit tuples: digit (i, j) times digit (i2, j2)
    lands on column j + j2 as the row y^(i + i2) mod the unramified
    polynomial, then carries."""
    f, n = R.f, R.n
    acc = [0] * (f * n)
    yred = R._yred
    for i in range(f):
        for j in range(n):
            ca = a[i * n + j]
            if not ca:
                continue
            for i2 in range(f):
                row = yred[i + i2]
                for j2 in range(n - j):
                    cb = b[i2 * n + j2]
                    if not cb:
                        continue
                    c = ca * cb
                    jj = j + j2
                    for t in range(f):
                        if row[t]:
                            acc[t * n + jj] += c * row[t]
    return canon(R, acc)


@dataclass(frozen=True)
class RingElem:
    """An element of a RingSpec, held as its canonical digit tuple, with
    the scalar digit arithmetic as its operators."""

    ring: RingSpec
    coords: tuple[int, ...]

    def __add__(self, other):
        return RingElem(self.ring, add_digits(self.ring, self.coords, other.coords))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return RingElem(self.ring, neg_digits(self.ring, self.coords))

    def __mul__(self, other):
        return RingElem(self.ring, mul_digits(self.ring, self.coords, other.coords))

    def __repr__(self):
        return f"<{'.'.join(str(c) for c in self.coords)}>"

    @property
    def index(self) -> int:
        """The digits read as a base-p number, first digit most
        significant."""
        p = self.ring.p
        return sum(c * p ** (len(self.coords) - 1 - t) for t, c in enumerate(self.coords))

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_unit(self) -> bool:
        return valuation(self.ring, self) == 0


def element(R: RingSpec, coords) -> RingElem:
    coords = tuple(int(c) for c in coords)
    if len(coords) != R.f * R.n or any(c < 0 or c >= R.p for c in coords):
        raise RingParameterError(f"bad coordinate vector {coords}")
    return RingElem(R, coords)


def ring_zero(R: RingSpec) -> RingElem:
    return RingElem(R, (0,) * (R.f * R.n))


def ring_one(R: RingSpec) -> RingElem:
    return from_int(R, 1)


def uniformizer(R: RingSpec) -> RingElem:
    """pi: digit 1 in column 1 (zero when n = 1)."""
    c = [0] * (R.f * R.n)
    if R.n >= 2:
        c[1] = 1
    return RingElem(R, tuple(c))


def from_int(R: RingSpec, m: int) -> RingElem:
    """Image of the rational integer m."""
    acc = [0] * (R.f * R.n)
    acc[0] = m
    return RingElem(R, canon(R, acc))


def from_index(R: RingSpec, idx: int) -> RingElem:
    if not 0 <= idx < R.size:
        raise RingParameterError(f"index {idx} out of range")
    fn = R.f * R.n
    return RingElem(R, tuple((idx // R.p ** (fn - 1 - t)) % R.p for t in range(fn)))


def ring_elements(R: RingSpec):
    for idx in range(R.size):
        yield from_index(R, idx)


def valuation(R: RingSpec, a: RingElem) -> int:
    """min j with a nonzero digit in column j; n for the zero element."""
    n = R.n
    best = n
    for i in range(R.f):
        for j in range(n):
            if j >= best:
                break
            if a.coords[i * n + j]:
                best = j
                break
    return best


def additive_order(R: RingSpec, a: RingElem) -> int:
    v = valuation(R, a)
    if v >= R.n:
        return 1
    if R.e == INF:
        return R.p
    return R.p ** (-(-(R.n - v) // R.e))


def ring_units(R: RingSpec):
    for a in ring_elements(R):
        if valuation(R, a) == 0:
            yield a


# -- cyclotomic integers ---------------------------------------------------


class Cyclotomic:
    """An element of Z[zeta_m] in the canonical power-basis
    representation: coeffs has length deg(Phi_m) and two values are
    equal iff their vectors agree after promotion to a common order."""

    __slots__ = ("order", "coeffs")
    __hash__ = None

    def __init__(self, order: int, coeffs):
        deg, phi_poly, _ = _ctx(order)
        coeffs = list(coeffs)
        if len(coeffs) != deg:
            coeffs = _divide(coeffs, phi_poly)[1]
        self.order = order
        self.coeffs = tuple(map(int, coeffs))

    @staticmethod
    def root(m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k."""
        _, _, zpow = _ctx(m)
        return Cyclotomic(m, zpow[k % m])

    @staticmethod
    def integer(v: int, order: int = 1) -> "Cyclotomic":
        deg, _, _ = _ctx(order)
        return Cyclotomic(order, [v] + [0] * (deg - 1))

    def promote(self, order: int) -> "Cyclotomic":
        if order == self.order:
            return self
        assert order % self.order == 0
        step = order // self.order
        raw = [0] * order
        for j, c in enumerate(self.coeffs):
            raw[(j * step) % order] += c
        return Cyclotomic(order, raw)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.integer(int(other))
        m = math.lcm(self.order, other.order)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._pair(other)
        raw = [0] * (2 * len(a.coeffs))  # never deg long, so reduced
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    raw[i + j] += ca * cb
        return Cyclotomic(a.order, raw)

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        m = self.order
        _, _, zpow = _ctx(m)
        deg = len(self.coeffs)
        out = [0] * deg
        for j, c in enumerate(self.coeffs):
            if c:
                for t, z in enumerate(zpow[(m - j) % m]):
                    out[t] += c * z
        return Cyclotomic(m, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return f"Cyc({self.order}, {self.to_str()})"

    def to_str(self) -> str:
        """Deterministic human form, z standing for zeta_order."""
        return cyc_str((j, c) for j, c in enumerate(self.coeffs) if c)


def cyc_sum(values, order: int = 1) -> Cyclotomic:
    acc = Cyclotomic.integer(0, order)
    for v in values:
        acc = acc + v
    return acc


def table_value(T, c: int, j: int) -> Cyclotomic:
    """chi_c at class j of a CharacterTable, from its multiplicities
    mu[c, j] reduced by long division."""
    return Cyclotomic(T.exponent, T.mu[c, j].tolist())


# -- rings and additive characters ------------------------------------


def unit_inverse_table(R: RingSpec) -> dict[int, int]:
    """Unit index -> index of its inverse, by search in the mul table."""
    mul = R.mul_table
    one = ring_one(R).index
    out = {}
    for u in range(R.size):
        if R.valuation_table[u] == 0:
            out[u] = int(np.nonzero(mul[u] == one)[0][0])
    return out


class AddChar:
    """The additive character psi_b of a chain ring, evaluated pointwise."""

    def __init__(self, R: RingSpec, b: RingElem):
        self.ring = R
        self.b = b
        self.level = valuation(R, b)
        self.modulus, self._weights = character_weights(R)

    def value_exp(self, x) -> int:
        """Exponent of psi(b x); x is a RingElem or an element index."""
        if not isinstance(x, RingElem):
            x = element(self.ring, self.ring.digits(x))
        return sum(c * w for c, w in zip((self.b * x).coords, self._weights)) % self.modulus

    def __call__(self, x) -> Cyclotomic:
        return Cyclotomic.root(self.modulus, self.value_exp(x))

    def __eq__(self, other):
        return (
            isinstance(other, AddChar)
            and self.ring == other.ring
            and self.b.coords == other.b.coords
        )

    def __hash__(self):
        return hash((self.ring, self.b.coords))

    def __repr__(self):
        return f"AddChar(b={self.b!r}, level={self.level})"


def psi_b(R: RingSpec, b: RingElem) -> AddChar:
    """The character x |-> psi(b x)."""
    return AddChar(R, b)


def restrict_to_omega1(chi: AddChar) -> DualVector:
    R = chi.ring
    p = R.p
    scale = chi.modulus // p
    coords = []
    for g in R.omega1_generators():
        v = chi.value_exp(g)
        assert v % scale == 0, "character value on p-torsion is not a p-th root"
        coords.append((v // scale) % p)
    return DualVector(p, tuple(coords))


def conductor(chi: AddChar) -> int:
    """Ideal index of the largest ideal inside ker chi: n - level."""
    return chi.ring.n - chi.level


# -- Heisenberg orbits and level counts --------------------------------


def abelian_polarization(H: HeisenbergGroup) -> np.ndarray:
    """A = {(x, 0, z)}: the fixed maximal abelian subgroup."""
    k, S = H.k, range(H.ring.size)
    return H._rows({t: S for t in (*range(k), 2 * k)})


def orbit_of(H: HeisenbergGroup, b_vec: tuple, b_idx: int) -> list[tuple]:
    add = H.ring.add_table
    shifts = product(ideal_of(H.ring, b_idx), repeat=H.k)
    return sorted({tuple(int(add[v, s]) for v, s in zip(b_vec, shift)) for shift in shifts})


@dataclass(frozen=True)
class LevelSummary:
    level: int
    num_central_params: int
    orbits_per_param: int
    lambdas_per_orbit: int
    dim: int

    @property
    def irrep_count(self) -> int:
        return self.num_central_params * self.orbits_per_param * self.lambdas_per_orbit

    @property
    def dim_sq_total(self) -> int:
        return self.irrep_count * self.dim * self.dim


def catalog_summary(R: RingSpec, k: int) -> list[LevelSummary]:
    """Counts per level without enumerating the dual; exact for any
    parameter size."""
    q, n = R.q, R.n
    out = []
    for i in range(n + 1):
        num_b = q ** (n - i) - q ** (n - i - 1) if i < n else 1
        out.append(
            LevelSummary(
                level=i,
                num_central_params=num_b,
                orbits_per_param=q ** (i * k),
                lambdas_per_orbit=q ** (i * k),
                dim=q ** ((n - i) * k),
            )
        )
    total = sum(s.dim_sq_total for s in out)
    assert total == q ** (n * (2 * k + 1)), "catalog does not exhaust the group"
    return out


# -- the Schrodinger model ----------------------------------------------


@dataclass(frozen=True)
class SymplecticModule:
    """V = R^{2k} with the standard symplectic pairing."""

    ring: RingSpec
    k: int

    def pairing_index(self, v: tuple, w: tuple) -> int:
        R = self.ring
        add, mul, neg = R.add_table, R.mul_table, R.neg_table
        acc = 0
        for t in range(self.k):
            acc = add[acc, mul[v[t], w[self.k + t]]]
            acc = add[acc, neg[mul[v[self.k + t], w[t]]]]
        return int(acc)

    def radical_of_ideal(self, ideal_index: int) -> list[tuple]:
        """V(a) = {v : <v, V> inside pi^ideal_index R}, computed by
        pairing against the standard basis vectors."""
        R = self.ring
        cut = min(ideal_index, R.n)
        basis = []
        for t in range(2 * self.k):
            e = [0] * (2 * self.k)
            e[t] = ring_one(R).index
            basis.append(tuple(e))
        out = []
        for v in product(range(R.size), repeat=2 * self.k):
            if all(R.valuation_table[self.pairing_index(v, e)] >= cut for e in basis):
                out.append(v)
        return out


class Char2UnsupportedError(ValueError):
    """Raised by schrodinger_dim, which is not offered in residue
    characteristic 2."""


def schrodinger_dim(M: SymplecticModule, chi: AddChar) -> int:
    """sqrt of [V : V(conductor chi)], the dimension of the attached
    two-step model; refuses residue characteristic 2."""
    R = M.ring
    if R.p == 2:
        raise Char2UnsupportedError("halving is unavailable in residue characteristic 2")
    if R.size ** (2 * M.k) > EXPLICIT_CAP:
        raise ValueError("module too large for explicit radical computation")
    rad = M.radical_of_ideal(conductor(chi))
    total = R.size ** (2 * M.k)
    quot, rem = divmod(total, len(rad))
    assert rem == 0
    root = math.isqrt(quot)
    assert root * root == quot, "index of the radical is not a perfect square"
    return root


# -- level profiles -------------------------------------------------------


class ConstraintViolationError(ValueError):
    pass


def levels_lower_bound_audit(p: int, f: int, e, n: int, k: int, alphas) -> bool:
    """Check one level profile: alphas[i] spanning vectors taken at
    level i must satisfy the suffix bounds, and the resulting dimension
    total must dominate the closed form."""
    if e == "inf":
        e = INF
    xi = n if e == INF else min(e, n)
    q = p**f
    alphas = list(alphas)
    if len(alphas) != xi or any(a < 0 for a in alphas):
        raise ConstraintViolationError(f"profile {alphas} malformed for xi = {xi}")
    if sum(alphas) != f * xi:
        raise ConstraintViolationError(f"profile {alphas} does not have f*xi entries")
    for i in range(xi):
        if sum(alphas[i:]) > f * (xi - i):
            raise ConstraintViolationError(
                f"profile {alphas} packs too many vectors at levels >= {i}"
            )
    total = sum(alphas[i] * q ** (k * (n - i)) for i in range(xi))
    return total >= formula_heisenberg(p, f, e, n, k)


# -- groups, characters and induction -------------------------------------


def abelian_characters(group, rows):
    """All characters of the abelian subgroup with these rows as (order
    M, exponent array aligned with rows) pairs, M the subgroup's
    exponent: every choice of a value per generator of the greedy
    series, deterministically ordered."""
    _, orders, relations, exps, M = _generator_series(group, rows)
    choices = [[]]
    for d, rel in zip(orders, relations):
        choices = [
            v + [_relation_value(rel, v, M) // d + k * (M // d)] for v in choices for k in range(d)
        ]
    return [(M, exps @ np.array(v, dtype=np.int64) % M) for v in choices]


def index_inverse(group, I):
    """Row indices of the inverses of the elements with row indices I:
    I^(2|G| - 1), as g^|G| = 1, by squaring under ``group.product``."""
    out, e = None, 2 * group.order - 1
    while True:
        if e & 1:
            out = I if out is None else group.product(out, I)
        e >>= 1
        if not e:
            return out
        I = group.product(I, I)


def family_mul(F, g, h) -> tuple:
    """The product of two elements of a ring family, as coordinate
    tuples, by its law."""
    return tuple(int(c) for c in F._law(g, h))


def family_inv(F, g) -> tuple:
    """The inverse of an element of a ring family, as a coordinate tuple,
    by ``index_inverse`` on its row."""
    return tuple(int(c) for c in F._decode(index_inverse(F, F._encode(g))))


# -- the distinguished groups, one product of names at a time -----------


def tabulate(els, mul, rows=None):
    """The dense int32 table of the law mul on the element list els, or
    its rows listed in rows, one scalar product per entry, and els."""
    pos = {g: i for i, g in enumerate(els)}
    rows = range(len(els)) if rows is None else rows
    table = np.empty((len(rows), len(els)), dtype=np.int32)
    for r, i in enumerate(rows):
        table[r] = [pos[mul(els[i], h)] for h in els]
    return table, els


def semidirect_law(modulus, multipliers):
    """(names, mul) of semidirect_cyclic: the pairs (c, m) in row order,
    and (c1, m1)(c2, m2) = (c1 + m1 c2, m1 m2)."""
    from chainrep.group_models import multiplier_closure

    def mul(g, h):
        return (g[0] + g[1] * h[0]) % modulus, g[1] * h[1] % modulus

    return [(c, m) for c in range(modulus) for m in multiplier_closure(modulus, multipliers)], mul


def semidirect_hom_law(modulus, multiplier, h_order):
    """(names, mul) of semidirect_cyclic_hom: the pairs (c, t) in row
    order, and (c1, t1)(c2, t2) = (c1 + multiplier^t1 c2, t1 + t2)."""
    def mul(g, h):
        return (g[0] + pow(multiplier, g[1], modulus) * h[0]) % modulus, (g[1] + h[1]) % h_order

    return [(c, t) for c in range(modulus) for t in range(h_order)], mul


def quaternion_law():
    """(names, mul) of quaternion_group: (axis, sign) pairs, multiplied
    by the rules ij = k, jk = i, ki = j and i^2 = j^2 = k^2 = -1."""
    basis = {
        ("1", "1"): ("1", 1), ("1", "i"): ("i", 1), ("1", "j"): ("j", 1), ("1", "k"): ("k", 1),
        ("i", "1"): ("i", 1), ("j", "1"): ("j", 1), ("k", "1"): ("k", 1),
        ("i", "i"): ("1", -1), ("j", "j"): ("1", -1), ("k", "k"): ("1", -1),
        ("i", "j"): ("k", 1), ("j", "i"): ("k", -1),
        ("j", "k"): ("i", 1), ("k", "j"): ("i", -1),
        ("k", "i"): ("j", 1), ("i", "k"): ("j", -1),
    }

    def mul(g, h):
        ax, s = basis[(g[0], h[0])]
        return ax, s * g[1] * h[1]

    return [(ax, s) for ax in ("1", "i", "j", "k") for s in (1, -1)], mul


def gl2_law(R: RingSpec):
    """(names, mul) of general_linear_2(R): the invertible (a, b, c, d)
    in radix order over the field's element indices, and the matrix
    product through the ring tables, one entry at a time."""
    q = R.size
    mul, add, neg = R.mul_table.tolist(), R.add_table.tolist(), R.neg_table.tolist()

    def matmul(x, y):
        (a, b, c, d), (e, f, g, h) = x, y
        return (
            add[mul[a][e]][mul[b][g]],
            add[mul[a][f]][mul[b][h]],
            add[mul[c][e]][mul[d][g]],
            add[mul[c][f]][mul[d][h]],
        )

    return [(a, b, c, d) for a, b, c, d in product(range(q), repeat=4) if add[mul[a][d]][neg[mul[b][c]]]], matmul


def character(rep, row) -> Cyclotomic:
    """The trace of a MonomialRep at the element with this row."""
    _, _, zpow = _ctx(rep.scalar_order)
    fixed = rep.sigma[row] == np.arange(rep.degree)
    return Cyclotomic(rep.scalar_order, zpow[rep.exps[row, fixed]].sum(axis=0))


def sum_character(rep, row) -> Cyclotomic:
    """The trace of a DirectSumRep at the element with this row."""
    return cyc_sum([character(s, row) for s in rep.summands])


def check_homomorphism(rep) -> bool:
    """rho(1) = 1 and rho(g s) = rho(g) rho(s) for every row g and each
    generator s of the group of a MonomialRep: by induction on the word
    length of the right factor, rho is then a homomorphism."""
    G, m = rep.group, rep.scalar_order
    g = np.arange(G.order)
    if not rep.identity_rows[G.identity]:
        return False
    for s in G.generators:
        gs, ss = G.product(g, s), rep.sigma[s]
        # rho(g) rho(s) e_t = zeta^(exps[s, t] + exps[g, ss[t]]) e_sigma[g, ss[t]]
        if (rep.sigma[:, ss] != rep.sigma[gs]).any():
            return False
        if ((rep.exps[s] + rep.exps[:, ss] - rep.exps[gs]) % m).any():
            return False
    return True


def induced_character_formula(group, chi: LinearChar) -> list[Cyclotomic]:
    """Independent evaluation of the induced character at every row g:
    the sum of chi(r^-1 g r) over coset representatives r (the least row
    of each left coset) with r^-1 g r in the subgroup.  The
    representatives and their inverses are found once per character."""
    value = dict(zip(chi.rows.tolist(), chi.exps.tolist()))
    reps = np.unique(group.product(np.arange(group.order)[:, None], chi.rows[None, :]).min(axis=1))
    rows = np.arange(group.order)[:, None]
    conj = group.product(index_inverse(group, reps)[None, :], group.product(rows, reps[None, :]))
    return [
        cyc_sum([Cyclotomic.root(chi.order, value[w]) for w in ws if w in value], chi.order)
        for ws in conj.tolist()
    ]


def induce_loop(group, chi: LinearChar) -> tuple[np.ndarray, np.ndarray]:
    """(sigma, exps) of the representation induced from chi, by the
    discovery loop MonomialRep.induce ran before it labelled cosets as
    orbits: the first row not yet in a coset is the least of a new one,
    whose members rep * sub come from one product per representative."""
    sub, vals, n = chi.rows, chi.exps, group.order
    coset_of = np.full(n, -1, dtype=np.int64)
    a_of = np.empty(n, dtype=np.int64)
    reps, positions = [], np.arange(len(sub))
    for g in range(n):
        if coset_of[g] < 0:
            w = group.product(g, sub)
            coset_of[w] = len(reps)
            a_of[w] = positions
            reps.append(g)
    assert not (coset_of < 0).any() and len(reps) * len(sub) == n, "cosets do not partition the group"
    w = group.product(np.arange(n)[:, None], np.array(reps)[None, :])
    return coset_of[w], vals[a_of[w]]


# -- F_l elimination ------------------------------------------------------


def rref_loop(A, l):
    """Gauss-Jordan elimination over F_l: (reduced row echelon form of A,
    pivot columns), one row at a time."""
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


def nullspace_loop(A, l):
    """(column basis N of ker(A) over F_l, free columns): N[free] is the
    identity, filled one entry at a time."""
    A, pivcol = rref_loop(A, l)
    n = A.shape[1]
    free = [c for c in range(n) if c not in pivcol]
    basis = np.zeros((n, len(free)), dtype=np.int64)
    for t, fc in enumerate(free):
        basis[fc, t] = 1
        for rr, pc in enumerate(pivcol):
            basis[pc, t] = (-A[rr, fc]) % l
    return basis, free
