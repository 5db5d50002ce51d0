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
facts, the constructions and the character-table oracle need only
products, so none of them builds a |G|^2 table.  The distinguished
groups (semidirect products of cyclic groups, Q8 and GL_2) and the
quotients are laws too, written once on row-index arrays
(``from_law``): only a JSON table is a dense table group, whose
constructor only checks it.  Every group, a table group too, finds its
identity (the row e with e 0 = 0) on first use, and the orders and
inverses of the rows it reads by one walk g, g^2, ...: the oracle walks
every row, the group layer the generators, and the structure facts the
centre and commutator rows.  AbstractGroup's group layer (spans by
cosets, element orders, centralizers, classes, the commutator
subgroup, quotients and the structure facts, each cached when first
read) is written once, against
``product``, ``inverse`` and ``identity``, and ``_every``, the product
of every row with a few rows, which a family evaluates on an open mesh.
Conjugacy classes, quotient cosets and the cosets of an induction are
orbits of the rows under a few permutations, each labelled by its least
member by one loop, ``_orbit_labels``.
"""

from __future__ import annotations

import math
import os
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
        and seed, which extends base in place.  The seed rows already in
        the mask are skipped in bulk.  Each kept row g grows the closed
        subgroup H so far by right cosets H c (Dimino's algorithm; G.
        Butler, Fundamental Algorithms for Permutation Groups, LNCS 559):
        the first candidate is g, and each layer is one law call that
        makes the cosets H c of its candidates c, one per coset (by least
        member), and their products c s with every kept row s, the next
        layer's candidates.  The layers stop when every such product lies
        in a coset made: h c s = h (c s), so the union is then closed under
        the kept rows, the subgroup they generate.  The mask is made by
        ``_allocate``, so one past memory is refused before numpy is asked."""
        if base is None:
            mask = _allocate(self.order, "a mask of its elements", (self.order,), bool)
            mask[self.identity] = True
            gens = []
        else:
            mask, gens = base
        if isinstance(seed, range):  # after the mask: a range past memory is refused as it is
            seed = np.arange(seed.start, seed.stop, seed.step)
        seed = seed.astype(np.int64, copy=False) if isinstance(seed, np.ndarray) else np.fromiter(seed, dtype=np.int64)
        at = 0
        while True:
            new = np.flatnonzero(~mask[seed[at:]])
            if not len(new):
                return mask, gens
            at += int(new[0])
            gens.append(int(seed[at]))
            H, right, cand = np.flatnonzero(mask), np.array(gens), seed[at : at + 1]
            h, r = len(H), len(right)
            while len(cand):
                c = len(cand)
                # H x cand, then cand x right, as flat index arrays
                prod = self.product(np.concatenate([H.repeat(c), cand.repeat(r)]),
                                    np.concatenate([cand[None].repeat(h, 0).ravel(), right[None].repeat(c, 0).ravel()]))
                cosets, nxt = prod[: h * c].reshape(h, c), prod[h * c :].reshape(c, r)
                if h > 1 and c > 1:  # candidates may share a coset: keep one per least member
                    least = cosets.min(axis=0)
                    order = np.argsort(least, kind="stable")
                    keep = np.ones(c, dtype=bool)
                    np.not_equal(least[order[1:]], least[order[:-1]], out=keep[1:])
                    cosets, nxt = cosets[:, order[keep]], nxt[order[keep]]
                mask[cosets] = True
                nxt = nxt.ravel()
                cand = _distinct(nxt[~mask[nxt]])

    def _cosets(self, gens) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(images, reps, coset_of) of the left cosets x<gens>, the orbits
        of right multiplication by the rows gens: images the one
        ``_every(gens)``, x gens[i] at [i, x], reps the least row of each
        coset, ascending, and coset_of[x] the position of x's among them.
        A group whose images and labels would not fit in memory is refused
        before either is made."""
        _check_memory(self.order, "the cosets of a subgroup", (len(gens) + 1, self.order), np.int64)
        images = self._every(gens)
        least = _orbit_labels(images)
        reps = np.flatnonzero(least == np.arange(self.order))
        return images, reps, np.searchsorted(reps, least)

    @cached_property
    def generators(self) -> list[int]:
        """A generating set, which the classes, the centre, the commutator
        closure and the kernel check by cores conjugate by: each row not yet
        generated by the smaller ones (a pattern group lists its own)."""
        return self._span(range(self.order))[1]

    def _check_associativity(self):
        # Light's test: associativity on a generating set implies it
        # everywhere
        for a in self.generators:
            left = self.table[:, self.table[a, :]]
            right = self.table[self.table[:, a], :]
            if not np.array_equal(left, right):
                raise ValueError(f"associativity fails through element {a}")

    def _walk(self, rows) -> tuple[np.ndarray, np.ndarray]:
        """(orders, inverses) of the rows, aligned with them, from one walk
        g, g^2, ... over the rows whose order is still open: at the first
        step s at which g^s is the identity, s is the order of g and
        g^(s-1) its inverse."""
        rows = np.asarray(rows, dtype=np.int64)
        e = self.identity
        orders = np.ones(len(rows), dtype=np.int64)
        inverse = np.full(len(rows), e, dtype=np.int64)
        live = np.flatnonzero(rows != e)
        base = power = rows[live]  # power = base^step
        step = 1
        while len(live):
            step += 1
            if step > self.order:
                raise ValueError(f"inverses missing: the powers of row {base[0]} never reach the identity")
            nxt = self.product(power, base)
            done = nxt == e
            orders[live[done]] = step
            inverse[live[done]] = power[done]
            live, base, power = live[~done], base[~done], nxt[~done]
        return orders, inverse

    @cached_property
    def _power_walk(self) -> tuple[np.ndarray, np.ndarray]:
        """(element orders, inverses) of every row, which the oracle reads;
        the group layer walks only the rows it reads."""
        return self._walk(np.arange(self.order))

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
        images = np.take_along_axis(self._every(self._generator_inverses), self._every(X, right=False), axis=1)
        lab = _orbit_labels(images)
        reps, class_of, sizes = np.unique(lab, return_inverse=True, return_counts=True)
        return reps.tolist(), class_of, sizes

    @cached_property
    def commutator_subgroup(self) -> list[int]:
        """The normal closure of the commutators of the generators: modulo
        it the generators commute, so the quotient is abelian."""
        comm = self.product(self._conjugates(self.generators), self._generator_inverses)  # x y x^-1 y^-1
        mask, gens = self._span(comm.ravel())
        new = gens
        while new:  # conjugates of the earlier generators are already in
            done = len(gens)
            mask, gens = self._span(self._conjugates(new).ravel(), (mask, gens))
            new = gens[done:]
        rows = np.flatnonzero(mask).tolist()
        self.__dict__["_commutator"] = rows, gens  # the cached pair below
        return rows

    @cached_property
    def _commutator(self) -> tuple[list[int], list[int]]:
        """(rows, generators) of the commutator subgroup, as its closure
        grew them.  That closure caches this pair as it runs, so its time
        is the ``commutator_subgroup`` property's."""
        self.commutator_subgroup
        return self.__dict__["_commutator"]

    @cached_property
    def _generator_inverses(self) -> np.ndarray:
        """The generators' inverses, aligned with them, walked alone."""
        return self._walk(self.generators)[1]

    def _conjugates(self, elems) -> np.ndarray:
        """x s x^-1 at [i, s] for the i-th generator x and s in elems."""
        X = np.asarray(self.generators, dtype=np.int64)[:, None]
        return self.product(self.product(X, np.asarray(elems, dtype=np.int64)), self._generator_inverses[:, None])

    def centralizer(self, elems) -> list[int]:
        return np.flatnonzero(self._commuting(elems, self._full_mask())).tolist()

    def _full_mask(self) -> np.ndarray:
        """A mask of every row, past ``_allocate``: the centre's first array of |G| entries."""
        return ~_allocate(self.order, "a mask of its elements", (self.order,), bool)

    def _commuting(self, elems, mask) -> np.ndarray:
        """mask, narrowed in place to the rows that commute with every row
        of elems: x s = s x, both sides one ``_every`` on a block of elems
        that keeps each within _BLOCK entries."""
        elems, rows = np.asarray(elems, dtype=np.int64), max(1, _BLOCK // self.order)
        for lo in range(0, len(elems), rows):
            block = elems[lo : lo + rows]
            mask &= (self._every(block) == self._every(block, right=False)).all(axis=0)
        return mask

    def quotient(self, gens):
        """(quotient group, coset_of array) by the subgroup N generated by
        the rows gens, which is normal when G's generators conjugate gens
        into N, as x<S>x^-1 = <xSx^-1>.  The cosets gN, orbits of right
        multiplication by gens, are numbered by least element, and the
        quotient is the law gN hN = (g h)N on those least rows."""
        gens = np.asarray(gens, dtype=np.int64)
        _, reps, coset_of = self._cosets(gens)
        if (coset_of[self._conjugates(gens)] != coset_of[self.identity]).any():
            raise ValueError("subgroup is not normal")
        Q = AbstractGroup.from_law(len(reps), lambda I, J: coset_of[self.product(reps[I], reps[J])], None)
        return Q, coset_of

    @cached_property
    def p(self) -> int | None:
        """The prime of a p-group; None unless |G| is a prime power."""
        facs = _factorize(self.order)
        return next(iter(facs)) if len(facs) == 1 else None

    @cached_property
    def is_p_group(self) -> bool:
        return self.p is not None

    @cached_property
    def is_two_step(self) -> bool:
        """Whether the commutator subgroup is nontrivial and central; the
        centre is read first, so a group past memory is refused at its mask."""
        cset = set(self.center)
        comm = self.commutator_subgroup
        return len(comm) > 1 and all(g in cset for g in comm)

    @cached_property
    def commutator_cyclic(self) -> bool:
        """Whether the commutator subgroup is cyclic: some row of it has its order."""
        comm = self.commutator_subgroup
        return len(comm) == 1 or int(self._walk(comm)[0].max()) == len(comm)

    @cached_property
    def center_invariant_count(self) -> int:
        """d(Z): the largest rank of the socle of a Sylow subgroup of the
        centre, whose greedy generators are a basis."""
        Z = np.asarray(self.center, dtype=np.int64)
        orders = self._walk(Z)[0]
        return max((len(self._span(Z[orders == q])[1]) for q in _factorize(self.order)), default=0)

    @cached_property
    def _maximal_abelian(self) -> tuple[list[int], list[int]]:
        """(rows, generators) of the greedy maximal abelian subgroup that
        the two-step construction induces from: the center extended by the
        least element that commutes with every generator so far, and not
        yet generated.  C is their centralizer, G itself while they lie in
        the center, narrowed by each new generator."""
        S, gens = self._span(self.center)
        C = self._full_mask()
        while True:
            extra = np.flatnonzero(C & ~S)
            if not len(extra):
                return np.flatnonzero(S).tolist(), gens
            g = int(extra[0])
            S, gens = self._span([g], (S, gens))
            C = self._commuting([g], C)

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


def structure_scan(G: AbstractGroup) -> AbstractGroup:
    """G itself, refused past the cap: its structure facts are cached
    properties, each computed when first read."""
    _check_cap(G.order)
    return G


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
    on an open mesh of coordinates.  ``to_abstract`` is ``structure_scan``,
    the family itself; each family class binds it in its own namespace,
    which is where perfbench's tracer looks for it."""

    @cached_property
    def identity(self) -> int:
        return int(self._encode(self._identity))

    @cached_property
    def _digits(self) -> list[np.ndarray]:
        return [np.arange(self.ring.size)] * len(self._identity)

    def _encode(self, coords):
        """The radix terms c_t s^(w-1-t), summed from the smallest array
        up, so only the last sums take the full broadcast shape."""
        return sum(sorted((c * self.ring.size**t for t, c in enumerate(coords[::-1])), key=np.size))

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

    def _axis_rows(self, free) -> np.ndarray:
        """Rows of the elements that differ from the identity in one
        coordinate t alone, which takes each ring index in free[t], in
        the order free lists them."""
        axis = np.repeat(list(free), [len(v) for v in free.values()])
        value = np.concatenate(list(free.values())).astype(np.int64)
        return self._encode([np.where(axis == t, value, c) for t, c in enumerate(self._identity)])

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
    whose coordinate pairs ``_terms`` lists once per group, s ascending,
    by pairing each (i, s) with the entries (s, j) of row s, when first
    read: |G| and the closed forms need none of them."""

    def __init__(self, R: RingSpec, positions):
        self.ring = R
        self.positions = list(positions)
        self.pos_index = {pos: t for t, pos in enumerate(self.positions)}
        self.order = R.size ** len(self.positions)
        self._identity = (0,) * len(self.positions)

    @cached_property
    def _terms(self) -> list[list[tuple[int, int]]]:
        rows, terms = {}, [[] for _ in self.positions]
        for s, j in self.positions:
            rows.setdefault(s, []).append((j, self.pos_index[s, j]))
        for i, s in sorted(self.positions):
            for j, sj in rows.get(s, ()):
                terms[self.pos_index[i, j]].append((self.pos_index[i, s], sj))
        return terms

    @cached_property
    def generators(self) -> list[int]:
        """The elementary rows E_ij(b) at the positions whose entry is no
        product of two others (empty ``_terms``: Hei's first row and last
        column, U's superdiagonal), b over R's ``additive_generators``,
        with no closure.  They generate, as (R, +) is generated by the b and
        every other entry is reached by [E_is(1), E_sj(b)] = E_ij(b)."""
        gens = self.ring.additive_generators()
        return self._axis_rows({t: gens for t, terms in enumerate(self._terms) if not terms}).tolist()

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

    to_abstract = structure_scan


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

    to_abstract = structure_scan


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

    to_abstract = structure_scan


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


# -- characters of abelian subgroups ---------------------------------


def _generator_series(group, rows):
    """Greedy generator series of the abelian subgroup A generated by the
    rows: (picks, orders, relations, exps, M).  Each row that is not yet
    generated becomes the next generator g_i; picks holds its position
    among the rows, orders its relative order d_i (the least d with g_i^d
    in <g_1..g_{i-1}>) and relations the exponent vector of g_i^{d_i}
    over the earlier generators.  Row a of exps is the exponent vector of
    row a (0 <= e_i < d_i), and M is the exponent of A, the lcm of the
    generators' orders d_i |g_i^{d_i}|, the latter from one walk."""
    cand = np.asarray(rows, dtype=np.int64)
    ident = group.identity
    where = np.full(group.order, -1, dtype=np.int64)  # position in members
    where[ident] = 0
    members, exps = np.array([ident]), np.zeros((1, 0), dtype=np.int64)
    picks, orders, relations, tops = [], [], [], []
    for a, g in enumerate(cand.tolist()):
        if where[g] >= 0:
            continue
        powers, x = [ident], g
        while where[x] < 0:
            powers.append(x)
            x = int(group.product(x, g))
        d = len(powers)
        picks.append(a)
        orders.append(d)
        relations.append(exps[where[x]].tolist())
        tops.append(x)
        members = group.product(members[:, None], np.array(powers)[None, :]).ravel()
        where[members] = np.arange(len(members))
        exps = np.column_stack([np.repeat(exps, d, axis=0), np.tile(np.arange(d), len(members) // d)])
    M = math.lcm(*(np.array(orders, dtype=np.int64) * group._walk(tops)[0]).tolist())
    return picks, orders, relations, exps[where[cand]], M


def extend_character(group, sub, sub_order, sub_exps, big):
    """Extend a character of a subgroup (rows sub, exponents sub_exps
    aligned with them at the stated root order) over a larger abelian
    subgroup with rows big, at order M the lcm of sub_order and the
    exponent: (M, exponent array aligned with big).  The greedy series
    seeded with the subgroup fixes the seed generators' values and takes
    the least value at each later one.  Raises ValueError when the seed
    values are not a character of the subgroup."""
    cand = np.concatenate([np.asarray(sub, dtype=np.int64), np.asarray(big, dtype=np.int64)])
    picks, orders, relations, exps, M = _generator_series(group, cand)
    M = math.lcm(M, sub_order)
    seed = M // sub_order * np.asarray(sub_exps, dtype=np.int64) % M
    values = []
    for a, d, rel in zip(picks, orders, relations):
        c = sum(r * v for r, v in zip(rel, values)) % M  # chi(g_i^{d_i})
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
