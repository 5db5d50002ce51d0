"""Group models: Heisenberg, unitriangular and affine groups over a
chain ring, plus abstract groups, given by a table or by a family's law.

A ring family is itself an AbstractGroup on rows 0..|G|-1.  Each family
writes its group law once, as a numpy function on coordinates that
gathers from the ring's add and mul tables, which the ring builds on
first use of a law: the Heisenberg and unitriangular groups share
one, the upper unitriangular product on a pattern of entries, Hei_{2k+1}
being the first row, last column and corner of U_{k+2}.  A family
numbers its elements by a codec between coordinates (tuples of ring
element indices, listed in ``names``) and rows.  The codec decodes rows
by a gather from one array of |G| entries per coordinate, built on
first use and refused past physical memory or what numpy can allocate,
as the cap is.  A family's ``product`` is that one law: the structure
scan, the constructions and the character-table oracle need only
products, so none of them builds a |G|^2 table.  The distinguished
groups (semidirect products of cyclic groups, Q8 and GL_2) and the
quotients are laws too, written once on row-index arrays
(``from_law``): only a JSON table is a dense table group, whose
constructor only checks it.  Every group, a table group too, finds its
identity (the row e with e 0 = 0) and its inverses (the walk g, g^2,
... that gives the element orders) on first use.  AbstractGroup's group
layer (spans, element orders, centralizers, classes, the commutator
subgroup, quotients and the structure scan) is written once, against
``product``, ``inverse`` and ``identity``, and ``_every``, the product
of every row with a few rows, which a family evaluates on an open mesh.
Conjugacy classes, quotient cosets and the cosets of an induction are
orbits of the rows under a few permutations, each labelled by its least
member by one loop, ``_orbit_labels``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chain_ring import CapExceededError, RingSpec, _factorize


class NotSubgroupError(ValueError):
    pass


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


# Entries of a table block: the laws hold a few int64 arrays of a block
# at once, a few MB.
_BLOCK = 250_000


def _check_memory(n: int, what: str, shape, dtype):
    """Refuse, as a cap refusal, an array for a group of order n that is
    larger than physical memory, before numpy is asked: the refusal then
    does not rest on how the system overcommits memory."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if size > memory:
        raise CapExceededError(f"|G| = {n}: {what} cannot be allocated ({size} bytes exceed the {memory} bytes of physical memory)")


def _allocate(n: int, what: str, shape, dtype) -> np.ndarray:
    """np.zeros(shape, dtype), an array for a group of order n, past
    ``_check_memory``; numpy's own refusal (too big for an array, or for
    the memory free) is a cap refusal too."""
    _check_memory(n, what, shape, dtype)
    try:
        return np.zeros(shape, dtype=dtype)
    except (ValueError, MemoryError) as exc:
        raise CapExceededError(f"|G| = {n}: {what} cannot be allocated ({exc})") from None


def _distinct(values) -> np.ndarray:
    """The distinct entries of an integer array, ascending.  np.unique
    would do, but in numpy 2.4 its first call imports numpy.ma."""
    values = np.sort(values, axis=None)
    keep = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def _orbit_labels(images) -> np.ndarray:
    """The least member of each row's orbit under permutations of the
    rows, images[i, x] the image of row x under the i-th (an empty
    (0, n) array fixes every row).  Each label falls to the least label
    among its images, and pointer jumping (lab = lab[lab]) shortens the
    chains, until nothing changes: then each cycle, so each orbit, has one."""
    n = images.shape[1]
    lab = np.arange(n)
    while True:
        low = np.minimum(lab, lab[images].min(axis=0, initial=n))
        low = low[low]
        if np.array_equal(low, lab):
            return lab
        lab = low


def _empty_table(n: int) -> np.ndarray:
    """An n x n int32 table, to be filled."""
    return _allocate(n, "its table", (n, n), np.int32)


# -- abstract groups -------------------------------------------------


class AbstractGroup:
    """A finite group on the elements 0..n-1, given by its dense
    multiplication table, which the constructor checks unless validate is
    false, or by an index-array law (``from_law``), whose table is filled
    on first use; ``names`` optionally attaches labels.  Either way the
    identity and the inverses are worked out from ``product`` on first
    use.  Past the constructors everything is written against
    ``product``, ``inverse`` and ``identity`` only, so a ring family, a
    subclass with its own law, runs it too."""

    def __init__(self, table, names=None, validate=True):
        table = np.asarray(table)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ValueError("table must be square")
        self.table = table
        self.order = n
        self.names = list(names) if names is not None else None
        if validate:
            e, rng = self.identity, np.arange(n)
            if not (np.array_equal(table[e], rng) and np.array_equal(table[:, e], rng)):
                raise ValueError(f"no two-sided identity: row {e}, the first with e 0 = 0 if any, is not one")
            inv = self.inverse
            if (table[rng, inv] != e).any() or (table[inv, rng] != e).any():
                raise ValueError("inverses missing or not two-sided")
            self._check_associativity()

    @classmethod
    def from_law(cls, order: int, product, names) -> "AbstractGroup":
        """The group on rows 0..order-1 whose ``product`` is the index-array
        law product(I, J); the caller vouches for the law."""
        G = cls.__new__(cls)
        G.order, G.product, G.names = order, product, names
        return G

    @cached_property
    def identity(self) -> int:
        """The row e with e 0 = 0, which in a group holds for e alone."""
        return int(np.argmax(self._every([0])[0] == 0))

    @cached_property
    def inverse(self) -> np.ndarray:
        return self._power_walk[1]

    @cached_property
    def table(self) -> np.ndarray:
        """The dense table of the law, which the package never reads: filled
        for the benchmark or a test a block of rows J at a time, as ``_every(J, right=False)``."""
        _check_cap(self.order)
        table, idx = _empty_table(self.order), np.arange(self.order)
        rows = max(1, _BLOCK // self.order)
        for lo in range(0, self.order, rows):
            table[lo : lo + rows] = self._every(idx[lo : lo + rows], right=False)
        return table

    def product(self, I, J) -> np.ndarray:
        return self.table[I, J]

    def _every(self, J, right=True) -> np.ndarray:
        """(len(J), |G|): x J[i] at [i, x] for every row x, or J[i] x when
        right is false."""
        J, x = np.asarray(J, dtype=np.int64)[:, None], np.arange(self.order)
        return self.product(x, J) if right else self.product(J, x)

    def _span(self, seed, base=None) -> tuple[np.ndarray, list[int]]:
        """Greedy closure: (member mask of the subgroup generated by the
        rows seed, the seed rows that enlarged it, in seed order).  With
        base, the (mask, rows) of a subgroup, the closure of that subgroup
        and seed, which extends base in place.  Each kept row g grows the
        mask breadth-first: the subgroup so far times g, then each new
        layer times every kept row, which in a finite group reaches every
        product.  The mask is the first array of |G| entries that the
        structure scan and the constructions allocate on a ring family."""
        if base is None:
            mask = _allocate(self.order, "a mask of its elements", (self.order,), bool)
            mask[self.identity] = True
            gens = []
        else:
            mask, gens = base
        for g in seed:
            if mask[g]:
                continue
            gens.append(int(g))
            front, right = np.flatnonzero(mask), np.array([g])  # closed under the earlier rows
            while len(front):
                prod = self.product(front[:, None], right).ravel()
                front = _distinct(prod[~mask[prod]])
                mask[front] = True
                right = np.array(gens)
        return mask, gens

    def _subgroup(self, rows) -> tuple[np.ndarray, list[int]]:
        """``_span`` of the distinct rows of a subgroup; raises
        NotSubgroupError unless they are distinct and their span has no other."""
        mask, gens = self._span(rows)
        if np.count_nonzero(mask) != len(rows) or len(_distinct(rows)) != len(rows):
            raise NotSubgroupError("not a subgroup of distinct rows")
        return mask, gens

    def _cosets(self, gens) -> tuple[np.ndarray, np.ndarray]:
        """(reps, coset_of) of the left cosets x<gens>, the orbits of right
        multiplication by the rows gens, whose images x s are one
        ``_every``: reps the least row of each, ascending, and coset_of[x]
        the position of x's among them."""
        least = _orbit_labels(self._every(gens))
        reps = np.flatnonzero(least == np.arange(self.order))
        return reps, np.searchsorted(reps, least)

    @cached_property
    def generators(self) -> list[int]:
        """A generating set: each row that is not yet generated by the
        smaller ones."""
        return self._span(range(self.order))[1]

    def _check_associativity(self):
        # Light's test: associativity on a generating set implies it
        # everywhere
        for a in self.generators:
            left = self.table[:, self.table[a, :]]
            right = self.table[self.table[:, a], :]
            if not np.array_equal(left, right):
                raise ValueError(f"associativity fails through element {a}")

    @cached_property
    def _power_walk(self) -> tuple[np.ndarray, np.ndarray]:
        """(element orders, inverses) from one walk g, g^2, ... over the
        rows whose order is still open: at the first step s at which g^s
        is the identity, s is the order of g and g^(s-1) its inverse."""
        n, e = self.order, self.identity
        orders = np.zeros(n, dtype=np.int64)
        inverse = np.empty(n, dtype=np.int64)
        orders[e], inverse[e] = 1, e
        live = np.flatnonzero(np.arange(n) != e)
        power, step = live, 1  # power = live^step
        while len(live):
            step += 1
            if step > n:
                raise ValueError(f"inverses missing: the powers of row {live[0]} never reach the identity")
            nxt = self.product(power, live)
            done = nxt == e
            orders[live[done]] = step
            inverse[live[done]] = power[done]
            live, power = live[~done], nxt[~done]
        return orders, inverse

    @cached_property
    def element_orders(self) -> np.ndarray:
        return self._power_walk[0]

    @cached_property
    def exponent(self) -> int:
        return math.lcm(*set(self.element_orders.tolist()))

    @cached_property
    def center(self) -> list[int]:
        return self.centralizer(self.generators)

    @cached_property
    def conjugacy(self):
        """(reps, class_of, class_sizes): reps ascending by least member.
        Classes are the orbits under conjugation by the generators, each
        labelled by its least member (``_orbit_labels``).  The image
        x s x^-1 of each row s is y x^-1 at y = x s, a gather from one
        ``_every`` at the rows of another."""
        X = self.generators
        images = np.take_along_axis(self._every(self.inverse[X]), self._every(X, right=False), axis=1)
        lab = _orbit_labels(images)
        reps, class_of, sizes = np.unique(lab, return_inverse=True, return_counts=True)
        return reps.tolist(), class_of, sizes

    @cached_property
    def commutator_subgroup(self) -> list[int]:
        """The normal closure of the commutators of the generators: modulo
        it the generators commute, so the quotient is abelian."""
        X = self.generators
        comm = self.product(self._conjugates(X, X), self.inverse[X])  # x y x^-1 y^-1
        mask, gens = self._span(comm.ravel())
        new = gens
        while new:  # conjugates of the earlier generators are already in
            done = len(gens)
            mask, gens = self._span(self._conjugates(X, new).ravel(), (mask, gens))
            new = gens[done:]
        return np.flatnonzero(mask).tolist()

    def _conjugates(self, X, elems) -> np.ndarray:
        """x s x^-1 at [x, s] for x in X and s in elems."""
        X = np.asarray(X, dtype=np.int64)[:, None]
        return self.product(self.product(X, np.asarray(elems, dtype=np.int64)), self.inverse[X])

    def centralizer(self, elems) -> list[int]:
        return np.flatnonzero(self._commuting(elems, np.ones(self.order, dtype=bool))).tolist()

    def _commuting(self, elems, mask) -> np.ndarray:
        """mask, narrowed in place to the rows that commute with every row
        of elems: x s = s x, both sides one ``_every`` on a block of elems
        that keeps each within _BLOCK entries."""
        elems, rows = np.asarray(elems, dtype=np.int64), max(1, _BLOCK // self.order)
        for lo in range(0, len(elems), rows):
            block = elems[lo : lo + rows]
            mask &= (self._every(block) == self._every(block, right=False)).all(axis=0)
        return mask

    def quotient(self, normal_elems):
        """(quotient group, coset_of array) for the distinct rows N of a
        normal subgroup, which holds when G's generators conjugate N's
        into N, as x<S>x^-1 = <xSx^-1>.  The cosets gN, orbits of right
        multiplication by N's generators, are numbered by least element,
        and the quotient is the law gN hN = (g h)N on those least rows."""
        N = np.asarray(normal_elems, dtype=np.int64)
        member, gens = self._subgroup(N)
        if not member[self._conjugates(self.generators, gens)].all():
            raise ValueError("subgroup is not normal")
        reps, coset_of = self._cosets(gens)
        Q = AbstractGroup.from_law(len(reps), lambda I, J: coset_of[self.product(reps[I], reps[J])], None)
        return Q, coset_of

    @cached_property
    def scan(self) -> "StructureScan":
        """The structure scan (``structure_scan``), made once per group."""
        _check_cap(self.order)
        n = self.order
        facs = _factorize(n)
        is_p = len(facs) == 1
        p = next(iter(facs)) if is_p else None

        center = self.center
        comm = self.commutator_subgroup
        cset = set(center)
        two_step = all(g in cset for g in comm) and len(comm) > 1
        comm_orders = [int(self.element_orders[g]) for g in comm]
        comm_cyclic = max(comm_orders) == len(comm) if len(comm) > 1 else True

        # d(Z): the largest rank of the socle of a Sylow subgroup of Z, whose
        # greedy generators are a basis
        rank = max((len(self._span(g for g in center if self.element_orders[g] == q)[1]) for q in facs), default=0)

        # greedy maximal abelian: extend the center by the least element
        # that commutes with every generator so far, and not yet generated.
        # C is their centralizer, G itself while they lie in the center,
        # narrowed by each new generator.
        S, gens = self._span(center)
        C = np.ones(n, dtype=bool)
        while True:
            extra = np.flatnonzero(C & ~S)
            if not len(extra):
                break
            g = int(extra[0])
            S, gens = self._span([g], (S, gens))
            C = self._commuting([g], C)
        max_ab = np.flatnonzero(S).tolist()

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


# -- the ring families ------------------------------------------------


def _itself(self) -> "_RingFamily":
    """The family, which is its own AbstractGroup; refused past the cap."""
    _check_cap(self.order)
    return self


class _RingFamily(AbstractGroup):
    """What the ring families share: an AbstractGroup on rows 0..|G|-1
    given by its parameters, not by a table.  Each family writes its
    product once, as ``_law`` on coordinates (one integer or one numpy
    array per coordinate), and numbers its elements by a codec
    ``_encode`` / ``_decode`` between coordinates and rows.  The law
    gathers from ``ring.add_table`` and ``ring.mul_table``, built on its
    first use, so |G| and the closed forms need neither.  The default
    codec is a radix over the ring size, first coordinate most
    significant.  ``_digits`` holds, per radix digit, the coordinate
    value of each digit value, and ``_decode`` gathers from ``_coords``,
    the coordinates of every row, which they fill.  ``_identity`` is the
    identity's coordinates and ``names`` the coordinates of each row.
    ``product`` is the law and ``_every`` the law of every row with a few
    on an open mesh of coordinates.  ``to_abstract`` is the family itself;
    each family class binds it in its own namespace, which is where
    perfbench's tracer looks for it."""

    @cached_property
    def identity(self) -> int:
        return int(self._encode(self._identity))

    @cached_property
    def _digits(self) -> list[np.ndarray]:
        return [np.arange(self.ring.size)] * len(self._identity)

    def _encode(self, coords):
        idx = 0
        for c in coords:
            idx = idx * self.ring.size + c
        return idx

    @cached_property
    def _coords(self) -> np.ndarray:
        """(w, |G|) int64: coordinate t of the element in each row, which
        ``_decode`` gathers.  Row indices are mixed-radix numbers over the
        ``_digits``, so coordinate t, seen with one axis per digit, varies
        along axis t alone and is filled by broadcasting."""
        radices = [len(v) for v in self._digits]
        w = len(radices)
        coords = _allocate(self.order, "its coordinates", (w, self.order), np.int64)
        view = coords.reshape([w] + radices)
        for t, v in enumerate(self._digits):
            view[t] = v.reshape([-1 if u == t else 1 for u in range(w)])
        return coords

    def _decode(self, idx):
        return self._coords.take(idx, axis=1)

    @cached_property
    def names(self) -> list[tuple]:
        return list(zip(*self._coords.tolist()))

    def _rows(self, free) -> np.ndarray:
        """Rows, ascending, of the elements whose coordinate t runs over
        the ring indices free[t] and whose other coordinates are the
        identity's."""
        axes = [np.asarray(free.get(t, [c]), dtype=np.int64) for t, c in enumerate(self._identity)]
        return np.sort(self._encode([a.ravel() for a in np.meshgrid(*axes, indexing="ij")]))

    def product(self, I, J) -> np.ndarray:
        """Rows of the products of the elements in rows I and J (numpy
        broadcasting), from the law."""
        return self._encode(self._law(self._decode(I), self._decode(J)))

    def _every(self, J, right=True) -> np.ndarray:
        """AbstractGroup's ``_every`` from the law on an open mesh: with w
        digits, digit t of x runs along axis 1 + t and the coordinates of
        J along axis 0, so each coordinate of the law's output spans only
        the axes it depends on, and ``_encode`` broadcasts them to
        (len(J), |G|)."""
        J, radices = np.asarray(J, dtype=np.int64), [len(v) for v in self._digits]
        mesh = [m[None] for m in np.ix_(*self._digits)]
        rows = self._decode(J).reshape(len(radices), len(J), *[1] * len(radices))
        out = self._encode(self._law(mesh, rows) if right else self._law(rows, mesh))
        return np.broadcast_to(out, (len(J), *radices)).reshape(len(J), self.order)


# -- upper unitriangular groups on a pattern of entries ----------------


class _PatternGroup(_RingFamily):
    """Upper unitriangular matrices over R whose strictly-upper entries
    off the pattern ``positions`` are zero; an element is the tuple of
    its entries at the positions.  The pattern is closed under the
    product (with (i, s) and (s, j) it holds (i, j)), so the law is the
    matrix product restricted to it: entry (i, j) of g h is
    g_ij + h_ij + sum_s g_is h_sj over the (i, s), (s, j) in the pattern,
    whose coordinate pairs ``_terms`` lists once per group."""

    def __init__(self, R: RingSpec, positions):
        self.ring = R
        self.positions = list(positions)
        self.pos_index = {pos: t for t, pos in enumerate(self.positions)}
        self.order = R.size ** len(self.positions)
        self._identity = (0,) * len(self.positions)
        self._terms = [[(self.pos_index[i, s], self.pos_index[s, j]) for s in range(i + 1, j)
                        if (i, s) in self.pos_index and (s, j) in self.pos_index] for i, j in self.positions]

    def _law(self, g, h):
        add, mul, out = self.ring.add_table, self.ring.mul_table, []
        for t, terms in enumerate(self._terms):
            c = add[g[t], h[t]]
            for u, v in terms:
                c = add[c, mul[g[u], h[v]]]
            out.append(c)
        return out


class HeisenbergGroup(_PatternGroup):
    """Hei_{2k+1}(R): triples (x, y, z) with x, y in R^k and z in R, the
    pattern of U_{k+2}(R) that puts x in the first row, y in the last
    column and z in the corner, as the paper embeds it."""

    def __init__(self, R: RingSpec, k: int = 1):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        super().__init__(R, [(0, 1 + t) for t in range(k)] + [(1 + t, k + 1) for t in range(k)] + [(0, k + 1)])

    def __repr__(self):
        return f"HeisenbergGroup({self.ring!r}, k={self.k})"

    to_abstract = _itself


class UnitriangularGroup(_PatternGroup):
    """Upper unitriangular size x size matrices over R; elements are
    tuples of the strictly-upper entries in row-major order."""

    def __init__(self, R: RingSpec, size: int):
        if size < 2:
            raise ValueError("matrix size must be >= 2")
        self.size = size
        super().__init__(R, [(i, j) for i in range(size) for j in range(i + 1, size)])

    def __repr__(self):
        return f"UnitriangularGroup({self.ring!r}, size={self.size})"

    to_abstract = _itself


# -- affine groups ----------------------------------------------------


class AffineGroup(_RingFamily):
    """Aff(R) = R join R^*: pairs (a, u) acting as x |-> a + u x, with
    (a1,u1)(a2,u2) = (a1 + u1 a2, u1 u2).  Row a*|R^*| + i holds (a, u)
    for the i-th unit u."""

    def __init__(self, R: RingSpec):
        self.ring = R
        self.order = R.size * R.unit_count()
        self._identity = (0, R.basis_index(0))

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
        add, mul = self.ring.add_table, self.ring.mul_table
        return [add[a1, mul[u1, a2]], mul[u1, u2]]

    def _encode(self, coords):
        a, u = coords
        return a * len(self._units) + self._unit_pos[u]

    to_abstract = _itself

    @cached_property
    def translations(self) -> np.ndarray:
        """{(a, 1)}: the normal subgroup R."""
        return self._rows({0: range(self.ring.size)})


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

    return AbstractGroup.from_law(modulus * h, product, [(c, m) for c in range(modulus) for m in ms])


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

    names = [(c, t) for c in range(modulus) for t in range(h_order)]
    return AbstractGroup.from_law(modulus * h_order, product, names)


def quaternion_group() -> AbstractGroup:
    """Q8 with elements (+-1, +-i, +-j, +-k).  Row 2a + s holds the a-th
    of 1, i, j, k with sign (-1)^s."""
    # ij = k, jk = i, ki = j and every square of i, j, k is -1: the axis
    # of a product is the XOR of the axes, and neg[a, b] its extra sign
    neg = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])

    def product(I, J):
        a, b = I // 2, J // 2
        return 2 * (a ^ b) + (I ^ J ^ neg[a, b]) % 2

    return AbstractGroup.from_law(8, product, [(ax, s) for ax in ("1", "i", "j", "k") for s in (1, -1)])


def general_linear_2(R: RingSpec) -> AbstractGroup:
    """GL_2 over a residue field (n = 1 rings only; oracle-scale).
    Elements are (a, b, c, d) for the matrix [[a, b], [c, d]], in radix
    order over the field's element indices.  Row i of a product is row i
    of the left factor times the right one, a gather from vN."""
    if R.n != 1:
        raise ValueError("general_linear_2 supports fields only")
    q = R.size
    _check_cap((q * q - 1) * (q * q - q))
    add, mul = R.add_table, R.mul_table
    quad = np.indices((q,) * 4).reshape(4, -1)
    a, b, c, d = quad
    coords = quad[:, mul[a, d] != mul[b, c]]  # ad - bc != 0: indices are canonical
    n = coords.shape[1]
    pos = np.zeros(q**4, dtype=np.int64)  # radix index -> row
    top, bot = coords[0] * q + coords[1], coords[2] * q + coords[3]
    pos[top * q * q + bot] = np.arange(n)
    x, y = np.divmod(np.arange(q * q)[:, None], q)
    e, f, g, h = coords  # vN: radix index x q + y of the row vector (x, y) times each element
    vN = add[mul[x, e], mul[y, g]] * q + add[mul[x, f], mul[y, h]]

    def product(I, J):
        return pos[vN[top[I], J] * (q * q) + vN[bot[I], J]]

    return AbstractGroup.from_law(n, product, list(zip(*coords.tolist())))


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
    """Center, commutator subgroup, two-step and cyclicity flags, the
    socle rank of Z and a greedy maximal abelian subgroup of G, made once
    per group and cached on it (``G.scan``)."""
    return G.scan


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
    ident = group.identity
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
