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
character is two aligned int64 arrays, the rows of its subgroup and its
root-of-unity exponents there, and a representation is two
(|G|, degree) integer arrays, sigma and exps, indexed by row; only an
error message names an element by ``group.names``.
Induction finds the cosets as orbits (``group._cosets``) and fills the
arrays from index-array products (``group.product``, and
``group._every`` for every row times the coset representatives), with
no loop over the rows; the kernel is the rows equal to
(arange(degree), 0), an integer test that for these exact matrices is
chi(g) = chi(1).

Checks are exact, on generators: induction requires the greedy span of
the subgroup's rows to be those rows, and chi(x s) = chi(x) chi(s) for
every row x and each generator s of the span, which by induction on word
length makes chi multiplicative.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .chain_ring import _divide, _powers
from .group_models import NotSubgroupError  # noqa: F401 (induce raises it, through group._subgroup)


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
            assert not any(rem), "non-exact cyclotomic division"
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
    """A one-dimensional character of a subgroup, tabulated as root-of-
    unity exponents on the subgroup's group rows: chi(rows[i]) =
    zeta_order^exps[i], rows and exps aligned int64 arrays."""

    def __init__(self, order: int, rows, exps):
        self.order = order
        self.rows = np.asarray(rows, dtype=np.int64)
        self.exps = np.asarray(exps, dtype=np.int64) % order


def _check_character(group, sub, vals, m, gens):
    """vals[i]: the exponent of chi at the element with row index sub[i];
    gens: rows generating the subgroup.  chi(x s) = chi(x) chi(s) for
    every x and each generator s makes chi multiplicative, by induction
    on the word length of the right factor.  One product gives x s for
    every pair; an error names the first bad pair by generator, then by
    subgroup row."""
    pos = np.full(group.order, -1, dtype=np.int64)
    pos[sub] = np.arange(len(sub))
    if vals[pos[group.identity]] % m != 0:
        raise ChiNotHomomorphismError("chi(identity) != 1")
    gens = np.asarray(gens, dtype=np.int64)
    prod = group.product(sub[:, None], gens)
    bad = np.argwhere(((vals[:, None] + vals[pos[gens]] - vals[pos[prod]]) % m).T)
    if len(bad):  # the first generator with a bad pair, then the first row
        j, i = bad[0]
        names = group.names or range(group.order)
        a, b = names[sub[i]], names[gens[j]]
        raise ChiNotHomomorphismError(f"chi not multiplicative at ({a!r}, {b!r})")


class MonomialRep:
    """A monomial representation: for the element in row g of the group
    a permutation sigma[g] of the basis and scalar exponents exps[g],
    rho(g) e_t = zeta^exps[g, t] e_sigma[g, t].  sigma and exps are
    (|G|, degree) integer arrays."""

    def __init__(self, group, degree, scalar_order, sigma, exps):
        self.group = group
        self.degree = degree
        self.scalar_order = scalar_order
        self.sigma = sigma
        self.exps = exps

    @staticmethod
    def induce(group, chi: LinearChar) -> "MonomialRep":
        """Induction of the linear character chi from its subgroup (the
        rows chi.rows) to the whole group, after checking exactly, on
        generators, that the rows form a subgroup and chi is a character
        of it.  The coset representatives are the least row of each left
        coset, an orbit of right multiplication by the subgroup's
        generators; for each row w, w = reps[coset_of[w]] * sub[a_of[w]],
        and the products g reps[t] of every row g are one
        ``group._every``."""
        m, sub, vals = chi.order, chi.rows, chi.exps
        gens = group._subgroup(sub)[1]
        _check_character(group, sub, vals, m, gens)
        reps, coset_of = group._cosets(gens)
        a_of = np.empty(group.order, dtype=np.int64)
        a_of[group.product(reps[:, None], sub)] = np.arange(len(sub))
        w = group._every(reps).T
        return MonomialRep(group, len(reps), m, coset_of[w], vals[a_of[w]])

    @property
    def identity_rows(self) -> np.ndarray:
        """Mask of the rows whose matrix is the identity: the kernel."""
        return ((self.sigma == np.arange(self.degree)) & (self.exps % self.scalar_order == 0)).all(axis=1)


class DirectSumRep:
    """A direct sum of monomial representations over a common group."""

    def __init__(self, summands):
        assert summands
        self.summands = list(summands)
        self.group = summands[0].group
        self.degree = sum(s.degree for s in summands)

    def kernel(self) -> np.ndarray:
        """Rows, ascending, whose matrix is the identity."""
        return np.flatnonzero(np.logical_and.reduce([s.identity_rows for s in self.summands]))

    def is_faithful(self) -> bool:
        return self.kernel().tolist() == [self.group.identity]
