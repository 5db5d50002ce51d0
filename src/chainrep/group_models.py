"""Group models: Heisenberg, unitriangular and affine groups over a
chain ring, plus table-backed abstract groups for oracle work.

Family elements are tuples of ring element indices, so they hash and
sort canonically.  Each family writes its group law once, as a numpy
function on coordinates through the ring lookup tables, and numbers its
elements by a codec between coordinates and row indices, rows in
``elements`` order.  The scalar ``mul``, the index-array ``product`` used
by induction and ``to_abstract`` (a dense multiplication table for
groups up to the configured cap, which is what the character-table
oracle consumes, evaluated on an open mesh of coordinates) all evaluate
that one law.  The distinguished table groups (semidirect products of
cyclic groups, Q8 and GL_2) likewise write their law once, on row-index
arrays, and their tables are filled a block of rows at a time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain_ring import CapExceededError, RingSpec, _factorize


def group_cap() -> int:
    """The largest group order built or tabulated: CHAINREP_ORACLE_CAP
    when set, else 4096.  Raises ValueError for a setting that is not a
    positive integer."""
    value = os.environ.get("CHAINREP_ORACLE_CAP")
    if not value:
        return 4096
    cap = int(value) if value.strip().isdecimal() else 0
    if cap < 1:
        raise ValueError(f"CHAINREP_ORACLE_CAP must be a positive integer, got {value!r}")
    return cap


def _check_cap(order: int):
    """Refuse to build a group of this order; called before allocating."""
    cap = group_cap()
    if order > cap:
        raise CapExceededError(f"|G| = {order} exceeds cap {cap}")


# -- the ring families ------------------------------------------------


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


# Entries of a table block: the laws hold a few int64 arrays of a block
# at once, a few MB.
_BLOCK = 250_000


def _empty_table(n: int) -> np.ndarray:
    """An unfilled n x n int32 table; numpy's refusal to allocate it
    (too big for an array, or for memory) is a cap refusal."""
    try:
        return np.empty((n, n), dtype=np.int32)
    except (ValueError, MemoryError) as exc:
        raise CapExceededError(f"|G| = {n}: its table cannot be allocated ({exc})") from None


def _index_table(n: int, product, names, width: int = 1) -> "AbstractGroup":
    """The dense table of the index-array law ``product`` on rows
    0..n-1, filled a block of rows at a time; ``names`` label the rows
    and the caller vouches for the law.  The law holds about width + 2
    int64 arrays of a block at once, so a block has _BLOCK // width
    entries."""
    table, idx = _empty_table(n), np.arange(n)
    rows = max(1, _BLOCK // (n * width))
    for lo in range(0, n, rows):
        table[lo : lo + rows] = product(idx[lo : lo + rows, None], idx[None, :])
    return AbstractGroup(table, names=names, validate=False)


def _family_table(self) -> "AbstractGroup":
    """The dense multiplication table of a ring family, from its law on
    an open mesh; names are the family elements.  Row indices are the
    codec's digits, so the table is viewed with shape radices + radices:
    with w digits, digit t of the left factor runs along axis t and of
    the right factor along axis w + t.  Each coordinate of the law's
    output then spans only the axes it depends on, and ``_encode``
    broadcasts them to the full-size block of the view.  A block fixes as
    few leading digits of the left factor as keep it within _BLOCK
    entries."""
    _check_cap(self.order)
    n, radices = self.order, [len(v) for v in self._digits]
    lead = 0
    while lead < len(radices) and n * math.prod(radices[lead:]) > _BLOCK:
        lead += 1
    table = _empty_table(n)
    view = table.reshape(radices + radices)
    mesh = np.ix_(*self._digits[lead:], *self._digits)
    free, right = list(mesh[: len(radices) - lead]), list(mesh[len(radices) - lead :])
    for fixed in np.ndindex(*radices[:lead]):
        left = [v[d] for v, d in zip(self._digits, fixed)] + free
        view[fixed] = self._encode(self._law(left, right))
    return AbstractGroup(table, names=self.elements, validate=False)


class _Spanned:
    """Spans of rows, written against ``product``, ``index_of`` and
    ``identity``, which the ring families and the table groups share."""

    def _span(self, seed) -> tuple[np.ndarray, list[int]]:
        """Greedy closure: (member mask of the subgroup generated by the
        rows seed, the seed rows that enlarged it, in seed order).  Each
        kept row grows the mask breadth-first by right multiplication with
        the kept rows, which in a finite group reaches every product."""
        mask = np.zeros(self.order, dtype=bool)
        mask[self.index_of([self.identity])] = True
        gens = []
        for g in seed:
            if mask[g]:
                continue
            gens.append(int(g))
            front = np.flatnonzero(mask)
            while len(front):
                prod = self.product(front[:, None], np.array(gens)).ravel()
                front = np.unique(prod[~mask[prod]])
                mask[front] = True
        return mask, gens

    @cached_property
    def generators(self) -> list[int]:
        """A generating set: each row that is not yet generated by the
        smaller ones."""
        return self._span(range(self.order))[1]


class _RingFamily(_Spanned):
    """What the ring families share.  Each family writes its product
    once, as ``_law`` on coordinates (one integer or one numpy array per
    coordinate), and numbers its elements by a codec ``_encode`` /
    ``_decode`` between coordinates and row indices; the default codec
    is a radix over the ring size, first coordinate most significant.
    ``_digits`` holds, per radix digit, the coordinate value of each
    digit value.  Scalar ``mul`` and ``inv``, the index-array ``product``
    and the ``to_abstract`` table all come from the law, and rows follow
    ``elements``.  Each family class binds ``to_abstract`` in its own
    namespace, which is where perfbench's tracer looks for it."""

    @cached_property
    def _digits(self) -> list[np.ndarray]:
        return [np.arange(self.ring.size)] * len(self.identity)

    # the ring's N x N tables, built on first use of the law: |G| and
    # the closed forms need none
    @cached_property
    def _add(self) -> np.ndarray:
        return self.ring.add_table.astype(np.int64)

    @cached_property
    def _mul(self) -> np.ndarray:
        return self.ring.mul_table.astype(np.int64)

    def _encode(self, coords):
        idx = 0
        for c in coords:
            idx = idx * self.ring.size + c
        return idx

    def _decode(self, idx):
        S, w = self.ring.size, len(self.identity)
        return [idx // S ** (w - 1 - t) % S for t in range(w)]

    @cached_property
    def elements(self) -> list[tuple]:
        return list(zip(*(c.tolist() for c in self._decode(np.arange(self.order)))))

    def index_of(self, elems) -> np.ndarray:
        """Row indices of a list of elements."""
        return self._encode(np.asarray(elems, dtype=np.int64).T)

    def _rows(self, free) -> np.ndarray:
        """Rows, ascending, of the elements whose coordinate t runs over
        the ring indices free[t] and whose other coordinates are the
        identity's."""
        axes = [np.asarray(free.get(t, [c]), dtype=np.int64) for t, c in enumerate(self.identity)]
        return np.sort(self._encode([a.ravel() for a in np.meshgrid(*axes, indexing="ij")]))

    def product(self, I, J) -> np.ndarray:
        """Row indices of the products of the elements with row indices
        I and J (numpy broadcasting)."""
        return self._encode(self._law(self._decode(I), self._decode(J)))

    def mul(self, g, h):
        return tuple(int(c) for c in self._law(g, h))

    def inv(self, g):
        return tuple(int(c) for c in self._decode(index_inverse(self, self._encode(g))))


# -- Heisenberg groups -----------------------------------------------


class HeisenbergGroup(_RingFamily):
    """Hei_{2k+1}(R): triples (x, y, z) with x, y in R^k, z in R, and
    (x1,y1,z1)(x2,y2,z2) = (x1+x2, y1+y2, z1+z2+x1.y2)."""

    def __init__(self, R: RingSpec, k: int = 1):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.ring = R
        self.k = k
        self.order = R.size ** (2 * k + 1)
        self.identity = (0,) * (2 * k + 1)

    def __repr__(self):
        return f"HeisenbergGroup({self.ring!r}, k={self.k})"

    def _law(self, g, h):
        k, add, mul = self.k, self._add, self._mul
        z = add[g[2 * k], h[2 * k]]
        for t in range(k):
            z = add[z, mul[g[t], h[k + t]]]
        return [add[g[t], h[t]] for t in range(2 * k)] + [z]

    to_abstract = _family_table

    @cached_property
    def center(self) -> np.ndarray:
        """Z = {(0, 0, z)}."""
        return self._rows({2 * self.k: range(self.ring.size)})

    def stabilizer_subgroup(self, ann_indices) -> np.ndarray:
        """L_s = {(0, y, 0) : every y_t in the given ideal}."""
        return self._rows({self.k + t: ann_indices for t in range(self.k)})


# -- unitriangular groups --------------------------------------------


class UnitriangularGroup(_RingFamily):
    """Upper unitriangular size x size matrices over R; elements are
    tuples of the strictly-upper entries in row-major order."""

    def __init__(self, R: RingSpec, size: int):
        if size < 2:
            raise ValueError("matrix size must be >= 2")
        self.ring = R
        self.size = size
        self.positions = [(i, j) for i in range(size) for j in range(i + 1, size)]
        self.pos_index = {pos: t for t, pos in enumerate(self.positions)}
        self.nentries = len(self.positions)
        self.order = R.size**self.nentries
        self.identity = (0,) * self.nentries

    def __repr__(self):
        return f"UnitriangularGroup({self.ring!r}, size={self.size})"

    def _law(self, a, b):
        add, mul, pos = self._add, self._mul, self.pos_index
        out = []
        for i, j in self.positions:
            c = add[a[pos[i, j]], b[pos[i, j]]]
            for t in range(i + 1, j):
                c = add[c, mul[a[pos[i, t]], b[pos[t, j]]]]
            out.append(c)
        return out

    to_abstract = _family_table

    def _block_rows(self, entries) -> np.ndarray:
        """Rows of the matrices supported on the given (i, j) entries."""
        S = range(self.ring.size)
        return self._rows({self.pos_index[pos]: S for pos in entries})

    @cached_property
    def center(self) -> np.ndarray:
        """Matrices supported on the top-right corner entry."""
        return self._block_rows([(0, self.size - 1)])

    def embed_heisenberg(self, g) -> tuple:
        """Image of a Hei_{2k+1} element (k = size-2): x fills the first
        row, y the last column, z the corner."""
        k = self.size - 2
        out = [0] * self.nentries
        for t in range(k):
            out[self.pos_index[(0, 1 + t)]] = g[t]
            out[self.pos_index[(1 + t, self.size - 1)]] = g[k + t]
        out[self.pos_index[(0, self.size - 1)]] = g[2 * k]
        return tuple(out)

    @cached_property
    def heisenberg_subgroup(self) -> np.ndarray:
        """The image of ``embed_heisenberg``: the first row and last column."""
        return self._block_rows([(i, j) for i, j in self.positions if i == 0 or j == self.size - 1])

    @cached_property
    def middle_subgroup(self) -> np.ndarray:
        """Unitriangular matrices of the inner (size-2) block."""
        return self._block_rows([(i, j) for i, j in self.positions if i > 0 and j < self.size - 1])


# -- affine groups ----------------------------------------------------


class AffineGroup(_RingFamily):
    """Aff(R) = R join R^*: pairs (a, u) acting as x |-> a + u x, with
    (a1,u1)(a2,u2) = (a1 + u1 a2, u1 u2).  Row a*|R^*| + i holds (a, u)
    for the i-th unit u."""

    def __init__(self, R: RingSpec):
        self.ring = R
        self.order = R.size * R.unit_count()
        self.identity = (0, R.basis_index(0))

    @cached_property
    def _units(self) -> np.ndarray:
        """The units, ascending, listed on first use of the law."""
        return np.flatnonzero(self.ring.valuation_table == 0)

    @cached_property
    def _unit_pos(self) -> np.ndarray:
        pos = np.full(self.ring.size, -1, dtype=np.int64)
        pos[self._units] = np.arange(len(self._units))
        return pos

    @cached_property
    def _digits(self) -> list[np.ndarray]:
        return [np.arange(self.ring.size), self._units]

    def __repr__(self):
        return f"AffineGroup({self.ring!r})"

    def _law(self, g, h):
        (a1, u1), (a2, u2) = g, h
        return [self._add[a1, self._mul[u1, a2]], self._mul[u1, u2]]

    def _encode(self, coords):
        a, u = coords
        return a * len(self._units) + self._unit_pos[u]

    def _decode(self, idx):
        return [idx // len(self._units), self._units[idx % len(self._units)]]

    to_abstract = _family_table

    @cached_property
    def translations(self) -> np.ndarray:
        """{(a, 1)}: the normal subgroup R."""
        return self._rows({0: range(self.ring.size)})


# -- abstract table groups -------------------------------------------


class AbstractGroup(_Spanned):
    """A finite group given by its dense multiplication table.  Elements
    are 0..n-1; ``names`` optionally attaches labels (family tuples)."""

    def __init__(self, table, names=None, validate=True):
        table = np.asarray(table)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        self.table = table
        self.order = n
        self.names = list(names) if names is not None else None
        ident = None
        rng = np.arange(n)
        for g in range(n):
            if np.array_equal(table[g], rng):
                ident = g
                break
        if ident is None or not np.array_equal(table[:, ident], rng):
            raise ValueError("no two-sided identity")
        self.identity = ident
        # the first identity in each row, a block of rows at a time; with n
        # identities in all, no row holds a second
        inv = np.empty(n, dtype=np.int64)
        count, rows = 0, max(1, _BLOCK // n)
        for lo in range(0, n, rows):
            hit = table[lo : lo + rows] == ident
            inv[lo : lo + rows] = hit.argmax(axis=1)
            count += np.count_nonzero(hit)
        if count != n or (table[rng, inv] != ident).any() or (table[inv, rng] != ident).any():
            raise ValueError("inverses missing or not two-sided")
        self.inverse = inv
        if validate:
            self._check_associativity()

    @property
    def elements(self):
        return list(range(self.order))

    def mul(self, a, b):
        return int(self.table[a, b])

    def index_of(self, elems) -> np.ndarray:
        return np.asarray(elems, dtype=np.int64)

    def product(self, I, J) -> np.ndarray:
        return self.table[I, J]

    def inv(self, a):
        return int(self.inverse[a])

    def conj(self, h, g):
        return int(self.table[self.table[h, g], self.inverse[h]])

    def _check_associativity(self):
        # Light's test: associativity on a generating set implies it
        # everywhere
        for a in self.generators:
            left = self.table[:, self.table[a, :]]
            right = self.table[self.table[:, a], :]
            if not np.array_equal(left, right):
                raise ValueError(f"associativity fails through element {a}")

    def closure(self, seed) -> list[int]:
        """The subgroup generated by seed, ascending."""
        return np.nonzero(self._span(seed)[0])[0].tolist()

    @cached_property
    def element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.zeros(n, dtype=np.int64)
        cur = np.arange(n)
        orders[self.identity] = 1
        step = 1
        idx = np.arange(n)
        while np.any(orders == 0):
            step += 1
            cur = self.table[cur, idx]
            hit = (orders == 0) & (cur == self.identity)
            orders[hit] = step
            if step > n:
                raise ValueError("order computation ran away")
        return orders

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*set(self.element_orders.tolist()))

    @cached_property
    def center(self) -> list[int]:
        return self.centralizer(self.generators)

    @cached_property
    def conjugacy(self):
        """(reps, class_of, class_sizes): reps ascending by least member.
        Classes are the orbits under conjugation by the generators.  Each
        element's label, at first itself, falls to the least label of its
        conjugates by a generator, and pointer jumping (lab = lab[lab])
        shortens the chains, until nothing changes; then every label is
        the least member of its class."""
        perms = self._conjugates(self.generators, np.arange(self.order))
        lab = np.arange(self.order)
        while True:
            low = np.minimum(lab, lab[perms].min(axis=0, initial=self.order))
            low = low[low]
            if np.array_equal(low, lab):
                break
            lab = low
        reps, class_of, sizes = np.unique(lab, return_inverse=True, return_counts=True)
        return reps.tolist(), class_of, sizes

    @cached_property
    def commutator_subgroup(self) -> list[int]:
        """The normal closure of the commutators of the generators: modulo
        it the generators commute, so the quotient is abelian."""
        X = self.generators
        comm = self.table[self._conjugates(X, X), self.inverse[X]]  # x y x^-1 y^-1
        mask, gens = self._span(comm.ravel())
        while True:
            conj = self._conjugates(X, gens).ravel()
            if mask[conj].all():
                return np.nonzero(mask)[0].tolist()
            mask, gens = self._span(gens + conj[~mask[conj]].tolist())

    def _conjugates(self, X, elems) -> np.ndarray:
        """x s x^-1 at [x, s] for x in X and s in elems."""
        X = np.asarray(X, dtype=np.int64)[:, None]
        return self.table[self.table[X, np.asarray(elems, dtype=np.int64)], self.inverse[X]]

    def centralizer(self, elems) -> list[int]:
        mask = np.ones(self.order, dtype=bool)
        for s in elems:
            mask &= self.table[:, s] == self.table[s, :]
        return [int(g) for g in np.nonzero(mask)[0]]

    def quotient(self, normal_elems):
        """(quotient group, coset_of array); normal_elems must be a
        normal subgroup.  Cosets are numbered by their least element."""
        N = np.asarray(normal_elems, dtype=np.int64)
        if not np.isin(self._conjugates(self.generators, N), N).all():
            raise ValueError("subgroup is not normal")
        least = self.table[:, N].min(axis=1)  # of the coset gN
        reps = np.unique(least)
        coset_of = np.searchsorted(reps, least)
        qt = coset_of[self.table[np.ix_(reps, reps)]]
        return AbstractGroup(qt, validate=False), coset_of

    def to_json(self) -> dict:
        return {"table": self.table.tolist()}

    @staticmethod
    def from_json(obj) -> "AbstractGroup":
        rows = obj.get("table") if isinstance(obj, dict) else None
        if not isinstance(rows, list):
            raise ValueError("a group table is a JSON object whose 'table' is a list of rows")
        _check_cap(len(rows))
        names = obj.get("names")
        if names is not None and (not isinstance(names, list) or len(names) != len(rows)):
            raise ValueError("a group table's 'names' is a list with one entry per row")
        n = len(rows)
        for row in rows:  # before numpy, which would read false, "0" or 1.9 as an integer
            if not isinstance(row, list) or len(row) != n:
                raise ValueError("table must be square")
            if set(map(type, row)) != {int} or min(row) < 0 or max(row) >= n:
                raise ValueError(f"a group table's entries are integers in [0, {n})")
        return AbstractGroup(np.asarray(rows, dtype=np.int64), names=names, validate=True)


# -- distinguished abstract groups -----------------------------------


def multiplier_closure(modulus: int, multipliers) -> list[int]:
    """The subgroup of (Z/modulus)^* generated by the multipliers, sorted;
    raises ValueError for a modulus below 2 or a multiplier that is not a
    unit."""
    if modulus < 2:
        raise ValueError("modulus must be >= 2")
    gens = sorted({m % modulus for m in multipliers})
    for m in gens:
        if math.gcd(m, modulus) != 1:
            raise ValueError(f"multiplier {m} is not a unit mod {modulus}")
    mults, frontier = {1}, {1}
    while frontier:
        frontier = {a * m % modulus for a in frontier for m in gens} - mults
        mults |= frontier
    return sorted(mults)


def semidirect_cyclic(modulus: int, multipliers) -> AbstractGroup:
    """Z/modulus acted on by the unit subgroup generated by the given
    multipliers: elements (c, m), (c1,m1)(c2,m2) = (c1+m1*c2, m1*m2).
    Row c*|H| + i holds (c, m) for the i-th unit m of the subgroup H."""
    ms = multiplier_closure(modulus, multipliers)
    h = len(ms)
    _check_cap(modulus * h)
    units = np.array(ms, dtype=np.int64)
    pos = np.zeros(modulus, dtype=np.int64)
    pos[units] = np.arange(h)

    def product(I, J):
        m1 = units[I % h]
        return (I // h + m1 * (J // h)) % modulus * h + pos[m1 * units[J % h] % modulus]

    return _index_table(modulus * h, product, [(c, m) for c in range(modulus) for m in ms])


def semidirect_hom_order(modulus: int, multiplier: int, h_order: int) -> int:
    """|G| of semidirect_cyclic_hom(modulus, multiplier, h_order), with
    its parameter checks: h_order >= 1, modulus >= 2, a unit multiplier
    whose order divides h_order.  Builds no table."""
    if h_order < 1:
        raise ValueError("h_order must be >= 1")
    multiplier_closure(modulus, [multiplier])  # modulus >= 2 and a unit multiplier
    if pow(multiplier % modulus, h_order, modulus) != 1:
        raise ValueError("multiplier order does not divide h_order")
    return modulus * h_order


def semidirect_cyclic_hom(modulus: int, multiplier: int, h_order: int) -> AbstractGroup:
    """Z/modulus acted on by Z/h_order through c -> multiplier*c; the
    action may factor through a proper quotient of Z/h_order.  Row
    c*h_order + t holds (c, t)."""
    _check_cap(semidirect_hom_order(modulus, multiplier, h_order))
    m = multiplier % modulus
    mt = np.array([pow(m, t, modulus) for t in range(h_order)], dtype=np.int64)

    def product(I, J):
        c = (I // h_order + mt[I % h_order] * (J // h_order)) % modulus
        return c * h_order + (I + J) % h_order

    return _index_table(
        modulus * h_order, product, [(c, t) for c in range(modulus) for t in range(h_order)]
    )


def quaternion_group() -> AbstractGroup:
    """Q8 with elements (+-1, +-i, +-j, +-k).  Row 2a + s holds the a-th
    of 1, i, j, k with sign (-1)^s."""
    # ij = k, jk = i, ki = j and every square of i, j, k is -1: the axis
    # of a product is the XOR of the axes, and neg[a, b] its extra sign
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])

    def product(I, J):
        a, b = I // 2, J // 2
        return 2 * (a ^ b) + (I ^ J ^ neg[a, b]) % 2

    return _index_table(8, product, [(ax, s) for ax in ("1", "i", "j", "k") for s in (1, -1)])


def general_linear_2(R: RingSpec) -> AbstractGroup:
    """GL_2 over a residue field (n = 1 rings only; oracle-scale).
    Elements are (a, b, c, d) for the matrix [[a, b], [c, d]], in radix
    order over the field's element indices."""
    if R.n != 1:
        raise ValueError("general_linear_2 supports fields only")
    q = R.size
    _check_cap((q * q - 1) * (q * q - q))
    add, mul = R.add_table.astype(np.int64), R.mul_table.astype(np.int64)
    quad = np.indices((q,) * 4).reshape(4, -1)
    a, b, c, d = quad
    coords = quad[:, add[mul[a, d], R.neg_table[mul[b, c]]] != 0]
    n = coords.shape[1]
    pos = np.zeros(q**4, dtype=np.int64)  # radix index -> row
    pos[((coords[0] * q + coords[1]) * q + coords[2]) * q + coords[3]] = np.arange(n)

    def product(I, J):
        (a, b, c, d), (e, f, g, h) = coords[:, I], coords[:, J]
        entries = (
            add[mul[a, e], mul[b, g]],
            add[mul[a, f], mul[b, h]],
            add[mul[c, e], mul[d, g]],
            add[mul[c, f], mul[d, h]],
        )
        radix = 0
        for x in entries:
            radix = radix * q + x
        return pos[radix]

    return _index_table(n, product, list(zip(*coords.tolist())), width=4)


# -- structure scan ---------------------------------------------------


@dataclass
class StructureScan:
    order: int
    is_p_group: bool
    p: int | None
    center: list
    center_invariant_count: int
    commutator: list
    is_two_step: bool
    commutator_cyclic: bool
    maximal_abelian: list


def structure_scan(G: AbstractGroup) -> StructureScan:
    _check_cap(G.order)
    n = G.order
    facs = _factorize(n)
    is_p = len(facs) == 1
    p = next(iter(facs)) if is_p else None

    center = G.center
    comm = G.commutator_subgroup
    cset = set(center)
    two_step = all(g in cset for g in comm) and len(comm) > 1
    comm_orders = [int(G.element_orders[g]) for g in comm]
    comm_cyclic = max(comm_orders) == len(comm) if len(comm) > 1 else True

    # d(Z): the largest rank of the socle of a Sylow subgroup of Z, whose
    # greedy generators are a basis
    rank = max((len(G._span(g for g in center if G.element_orders[g] == q)[1]) for q in facs), default=0)

    # greedy maximal abelian: extend the center by commuting elements
    S, gens = G._span(center)
    while True:
        extra = [g for g in G.centralizer(gens) if not S[g]]
        if not extra:
            break
        S, gens = G._span(gens + extra[:1])
    max_ab = np.nonzero(S)[0].tolist()

    return StructureScan(
        order=n,
        is_p_group=is_p,
        p=p,
        center=center,
        center_invariant_count=rank,
        commutator=comm,
        is_two_step=two_step,
        commutator_cyclic=comm_cyclic,
        maximal_abelian=max_ab,
    )


# -- characters of abelian subgroups ---------------------------------


def _generator_series(group, rows, seed=()):
    """Greedy generator series of the abelian subgroup A generated by the
    rows seed and rows: (picks, orders, relations, exps, M).  Candidates
    are seed then rows, and each that is not yet generated becomes the
    next generator g_i; picks holds its position among the candidates,
    orders its relative order d_i (the least d with g_i^d in
    <g_1..g_{i-1}>) and relations the exponent vector of g_i^{d_i} over
    the earlier generators.  Row a of exps is the exponent vector of
    candidate a (0 <= e_i < d_i), and M is the exponent of A."""
    cand = np.concatenate([np.asarray(seed, dtype=np.int64), np.asarray(rows, dtype=np.int64)])
    ident = int(group.index_of([group.identity])[0])
    where = np.full(group.order, -1, dtype=np.int64)  # position in members
    where[ident] = 0
    members, exps = np.array([ident]), np.zeros((1, 0), dtype=np.int64)
    picks, orders, relations, M = [], [], [], 1
    for a, g in enumerate(cand.tolist()):
        if where[g] >= 0:
            continue
        powers, x = [ident], g
        while where[x] < 0:
            powers.append(x)
            x = int(group.product(x, g))
        d = o = len(powers)
        picks.append(a)
        orders.append(d)
        relations.append(exps[where[x]].tolist())
        while x != ident:  # the order of g is d_i times that of g^{d_i}
            x, o = int(group.product(x, g)), o + 1
        M = math.lcm(M, o)
        members = group.product(members[:, None], np.array(powers)[None, :]).ravel()
        where[members] = np.arange(len(members))
        exps = np.column_stack([np.repeat(exps, d, axis=0), np.tile(np.arange(d), len(members) // d)])
    return picks, orders, relations, exps[where[cand]], M


def _relation_value(relation, values, M) -> int:
    """chi(g_i^{d_i}) as an exponent mod M, from its exponent vector over
    generators with the given values."""
    return sum(r * v for r, v in zip(relation, values)) % M


def extend_character(group, sub, sub_order, sub_exps, big):
    """Extend a character of a subgroup (rows sub, exponents sub_exps
    aligned with them at the stated root order) over a larger abelian
    subgroup with rows big, at order M the lcm of sub_order and the
    exponent: (M, exponent array aligned with big).  The greedy series
    seeded with the subgroup fixes the seed generators' values and takes
    the least value at each later one.  Raises ValueError when the seed
    values are not a character of the subgroup."""
    picks, orders, relations, exps, M = _generator_series(group, big, seed=sub)
    M = math.lcm(M, sub_order)
    seed = M // sub_order * np.asarray(sub_exps, dtype=np.int64) % M
    values = []
    for a, d, rel in zip(picks, orders, relations):
        c = _relation_value(rel, values, M)
        if a >= len(seed):
            values.append(c // d)
        elif (d * seed[a] - c) % M:
            raise ValueError("seed values are not a character of the subgroup")
        else:
            values.append(int(seed[a]))
    vals = exps @ np.array(values, dtype=np.int64) % M
    if ((vals[: len(seed)] - seed) % M).any():
        raise ValueError("seed values are not a character of the subgroup")
    return M, vals[len(seed) :]
