"""Exact representation bookkeeping: cyclotomic polynomials, monomial
representations, induction from one-dimensional characters, kernels and
direct sums.

Character values live in Z[zeta_m].  Row s of ``_ctx(m)``'s array holds
zeta_m^s as an integer coefficient vector reduced modulo the m-th
cyclotomic polynomial, so a value given by its root-of-unity
multiplicities (the oracle's ``mu``) reduces by one product with it,
and ``cyc_str`` prints the reduced vector.  Representations built here
are monomial (permutation matrices with root-of-unity scalars), which
is all the induction machinery ever produces from a linear character.
Group elements are named by their rows 0..|G|-1 only: a linear
character is two aligned int64 arrays, rows that generate its subgroup
and its root-of-unity exponents at them; a representation is two
(|G|, degree) arrays, sigma and exps, indexed by row, each in the
narrowest unsigned dtype that holds its values (``np.min_scalar_type``
of degree - 1 and of m - 1: uint8 up to 256); only an error message
names an element by ``group.names``.  Arithmetic on exponents upcasts
first, as unsigned sums wrap.
Induction reads the cosets (orbits of right multiplication by the
generators) and the character's spread and check from one
``group._every`` of the generators, and fills the arrays from
index-array products (``group.product``, and ``group._every`` for every
row times a block of the coset representatives), with no loop over the
rows and no int64 array of the models' size; the kernel is the rows
equal to (arange(degree), 0), an integer test that for these exact
matrices is chi(g) = chi(1).

Checks are exact, on generators: induction spreads chi from the
identity along right multiplication by the generators, over the
subgroup they generate, and requires chi(x s) = chi(x) chi(s) for every
row x of it and each generator s, which by induction on word length
makes chi multiplicative.

A sum of induced models is checked without the models (``InducedSum``):
the kernel of Ind_S^G chi is the core of ker chi, the largest normal
subgroup of G inside it (Isaacs, Character Theory of Finite Groups,
ch. 5), so a sum's kernel, the intersection of its summands', is the
core of the intersection K of the characters' kernels.  The check takes
each ker chi from one spread of all the characters on chi's generators,
and drops from K every row that G's generators conjugate out of it,
round after round, a block at a time, until none is dropped.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain_ring import _divide, _powers
from .group_models import _BLOCK, _allocate, _check_memory, _distinct


class ChiNotHomomorphismError(ValueError):
    pass


# -- cyclotomic polynomials ------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (c0, ..., 1) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            num, rem = _divide(num, cyclotomic_polynomial(d))
            if any(rem):
                raise AssertionError("non-exact cyclotomic division")
    return tuple(num)


@lru_cache(maxsize=None)
def _ctx(m: int):
    """(deg Phi_m, Phi_m, zpow): row s of the read-only (m, deg) array
    zpow holds z^s reduced mod Phi_m (``_powers``).  The coefficients
    stay small (at most 15 in absolute value for every m < 1200 and for
    m = 4290), far inside int64."""
    phi_poly = cyclotomic_polynomial(m)
    zpow = _powers(phi_poly, m)
    zpow.flags.writeable = False
    return len(phi_poly) - 1, phi_poly, zpow


def cyc_str(terms) -> str:
    """Deterministic human form of sum c z^j over the (j, c) terms, j
    ascending and c nonzero."""
    out = ""
    for j, c in terms:
        mon = "z" if j == 1 else f"z^{j}"
        term = str(c) if j == 0 else mon if c == 1 else f"-{mon}" if c == -1 else f"{c}*{mon}"
        out += term if not out or term.startswith("-") else "+" + term
    return out or "0"


# -- linear characters and monomial representations ------------------


class LinearChar:
    """A one-dimensional character of the subgroup generated by the rows
    gens, given by its root-of-unity exponents there: chi(gens[i]) =
    zeta_order^exps[i], gens and exps aligned int64 arrays.  Induction
    checks that these values extend to a character."""

    def __init__(self, order: int, gens, exps):
        self.order = order
        self.gens = np.asarray(gens, dtype=np.int64)
        self.exps = np.asarray(exps, dtype=np.int64) % order


def _spread(group, chars, images):
    """(sub, vals): the rows of the subgroup <gens>, ascending, and at
    vals[c] the exponents there of chars[c], characters on the generators
    s of images (images[j, x] = x s_j).  One breadth-first pass from the
    identity, at 0, spreads them all, one gather per round: a row first
    reached in a round takes chi(x s_j) = chi(x) + chi.exps[j] from its
    last such step in (generator, front) order, reduced mod chi.order in
    the narrowest unsigned dtype, added in uint64: no wrap, no float.  Then
    chi(x s_j) = chi(x) + chi.exps[j] must hold for every row x of the
    subgroup and each j, which by induction on the word length of the
    right factor makes chi multiplicative.  An error names the first bad
    character, then its first bad pair by generator, then by row."""
    exps, m = np.array([chi.exps for chi in chars], dtype=np.uint64).T, np.array([chi.order for chi in chars], dtype=np.uint64)
    at = np.zeros((group.order, len(chars)), dtype=np.min_scalar_type(m.max() - 1))
    seen, last = np.zeros(group.order, dtype=bool), np.empty(group.order, dtype=np.int64)
    front = np.array([group.identity])
    seen[front] = True
    while len(front):
        nxt = images[:, front].ravel()
        fresh = np.flatnonzero(~seen[nxt])
        last[nxt[fresh]] = fresh
        rows = _distinct(nxt[fresh])
        seen[rows] = True
        step = last[rows]
        at[rows] = (at[front[step % len(front)]] + exps[step // len(front)]) % m
        front = rows
    sub = np.flatnonzero(seen)
    ends = images[:, sub]
    for chi, vals, e, mod in zip(chars, at.T, exps.T, m):
        bad = np.argwhere((vals[sub] + e[:, None]) % mod != vals[ends])
        if len(bad):  # the first generator with a bad pair, then the first row
            j, i = bad[0]
            names = group.names or range(group.order)
            raise ChiNotHomomorphismError(f"chi not multiplicative at ({names[sub[i]]!r}, {names[chi.gens[j]]!r})")
    return sub, at[sub].T


class MonomialRep:
    """A monomial representation: for the element in row g of the group
    a permutation sigma[g] of the basis and scalar exponents exps[g],
    rho(g) e_t = zeta^exps[g, t] e_sigma[g, t].  sigma and exps are
    (|G|, degree) arrays of unsigned integers, exps reduced mod
    scalar_order."""

    def __init__(self, group, degree, scalar_order, sigma, exps):
        self.group = group
        self.degree = degree
        self.scalar_order = scalar_order
        self.sigma = sigma
        self.exps = exps

    @staticmethod
    def induce(group, chi: LinearChar) -> "MonomialRep":
        """Induction of the linear character chi from the subgroup its
        generators chi.gens generate to the whole group.  One
        ``group._every(chi.gens)``, the products x s of every row x with
        each generator s, gives the cosets, orbits of right
        multiplication by the generators, and ``_spread`` reads it again
        for chi on the subgroup's rows sub, checking exactly that chi is
        a character.  The coset representatives are the least row of
        each coset; for each row w, w = reps[coset_of[w]] * h for one h in
        sub, and chi_at[w] = chi(h), placed by one product of reps and
        sub.  The products g reps[t] of every row g are one
        ``group._every`` per block of representatives that keeps it
        within _BLOCK entries, written straight into the narrow sigma and
        exps, which ``_allocate`` makes: a model past memory is refused."""
        m = chi.order
        images, reps, coset_of = group._cosets(chi.gens)
        sub, (vals,) = _spread(group, [chi], images)
        n, degree = group.order, len(reps)
        chi_at = np.empty(n, dtype=np.min_scalar_type(m - 1))
        chi_at[group.product(reps[:, None], sub)] = vals
        coset_of = coset_of.astype(np.min_scalar_type(degree - 1))
        sigma = _allocate(n, f"its induced model of degree {degree}", (n, degree), coset_of.dtype)
        exps = _allocate(n, f"its induced model of degree {degree}", (n, degree), chi_at.dtype)
        step = max(1, _BLOCK // n)
        for lo in range(0, degree, step):
            w = group._every(reps[lo : lo + step]).T
            sigma[:, lo : lo + step] = coset_of[w]
            exps[:, lo : lo + step] = chi_at[w]
        return MonomialRep(group, degree, m, sigma, exps)

    @property
    def identity_rows(self) -> np.ndarray:
        """Mask of the rows whose matrix is the identity: the kernel.  exps
        is reduced mod scalar_order, so a scalar is 1 when its exponent is 0."""
        return ((self.sigma == np.arange(self.degree)) & (self.exps == 0)).all(axis=1)


class DirectSumRep:
    """A direct sum of monomial representations over a common group."""

    def __init__(self, summands):
        if not summands:
            raise ValueError("a direct sum needs a summand")
        self.summands = list(summands)
        self.group = summands[0].group
        self.degree = sum(s.degree for s in summands)

    def kernel(self) -> np.ndarray:
        """Rows, ascending, whose matrix is the identity."""
        return np.flatnonzero(np.logical_and.reduce([s.identity_rows for s in self.summands]))

    def is_faithful(self) -> bool:
        return self.kernel().tolist() == [self.group.identity]


class InducedSum:
    """The direct sum of the representations induced from the linear
    characters chars, each of the subgroup its generators generate,
    checked without its models.  The characters given by one list of
    generators share one ``_every`` of them and one ``_spread``, which
    checks each as ``MonomialRep.induce`` does; the lists are taken in the
    order they first appear, so with bad characters on several lists the
    error names the first bad one of the first such list.  ``degrees`` are
    the summands' indices |G| / |S|, the degrees of their models."""

    def __init__(self, group, chars):
        self.group, self.chars = group, list(chars)
        self._inside = ~_allocate(group.order, "a mask of its elements", (group.order,), bool)  # the intersection of the characters' kernels
        lists, degree = {}, {}
        for chi in self.chars:
            lists.setdefault(chi.gens.tobytes(), []).append(chi)
        for key, same in lists.items():
            width = 8 * len(same[0].gens) + 9 + len(same) * np.min_scalar_type(max(c.order for c in same) - 1).itemsize  # bytes a row: images, last, seen, values
            _check_memory(group.order, "the products with a subgroup's generators and their spread", (width, group.order), np.uint8)
            sub, vals = _spread(group, same, group._every(same[0].gens))
            self._inside &= np.bincount(sub[(vals == 0).all(axis=0)], minlength=group.order) > 0
            degree[key] = group.order // len(sub)
        self.degrees = [degree[chi.gens.tobytes()] for chi in self.chars]

    def kernel(self) -> np.ndarray:
        """Rows, ascending, whose matrix is the identity in every summand.
        The kernel of Ind chi is the core of ker chi (Isaacs, Character
        Theory of Finite Groups, ch. 5), a sum's kernel is the intersection
        of its summands', and the cores of subgroups meet in the core of
        their intersection, so this is the core of the intersection K of
        the characters' kernels: the largest subset of K that conjugation
        by G's generators keeps inside it, as one closed under them is
        closed under G.  Each round drops the rows s of K with some
        x s x^-1 outside K, x a generator, a block of s at a time, until a
        round drops none; with only the identity left there is nothing to check."""
        G, inside = self.group, self._inside.copy()
        keep = np.flatnonzero(inside)
        while (keep != G.identity).any():
            cols = max(1, _BLOCK // len(G.generators))
            stays = np.ones(len(keep), dtype=bool)
            for lo in range(0, len(keep), cols):
                rows = keep[lo : lo + cols]
                block = _allocate(G.order, "a block of conjugates by its generators", (len(G.generators), len(rows)), np.int64)
                block[:] = G._conjugates(rows)
                stays[lo : lo + cols] = inside[block].all(axis=0)
            if stays.all():
                break
            inside[keep[~stays]] = False
            keep = keep[stays]
        return keep

    def is_faithful(self) -> bool:
        return self.kernel().tolist() == [self.group.identity]

    def models(self) -> list:
        """The summands' monomial models, by ``MonomialRep.induce``."""
        return [MonomialRep.induce(self.group, chi) for chi in self.chars]
