"""Independent references that the tests compare the package against.

None of these is reached by a command or a route: each recomputes, by
a different method, a value the package computes (or a bound its closed
forms satisfy), so a test can check one against the other.  Methods of
the package's classes appear here as functions of the instance."""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from chainrep.chain_ring import INF, RingElem, RingSpec
from chainrep.char_duality import DualVector, character_weights
from chainrep.exactrep import Cyclotomic, LinearChar, cyc_sum
from chainrep.group_models import (
    HeisenbergGroup,
    _generator_series,
    _relation_value,
    index_inverse,
)
from chainrep.mackey_irreps import EXPLICIT_CAP, ideal_of
from chainrep.minfaith_solver import formula_heisenberg


# -- rings and additive characters ------------------------------------


def unit_inverse_table(R: RingSpec) -> dict[int, int]:
    """Unit index -> index of its inverse, by search in the mul table."""
    mul = R.mul_table
    one = R.index(R.one)
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
        self.level = R.valuation(b)
        self.modulus, self._weights = character_weights(R)

    def value_exp(self, x) -> int:
        """Exponent of psi(b x); x is a RingElem or an element index."""
        if not isinstance(x, RingElem):
            x = self.ring.element(self.ring.digits(x))
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
            e[t] = R.one.index
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


# -- characters and induction ---------------------------------------------


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


def induced_character_formula(group, chi: LinearChar, g) -> Cyclotomic:
    """Independent evaluation of the induced character at row g: sum of
    chi(r^-1 g r) over coset representatives r (the least row of each
    left coset) with r^-1 g r in the subgroup."""
    value = dict(zip(chi.rows.tolist(), chi.exps.tolist()))
    reps = np.unique(group.product(np.arange(group.order)[:, None], chi.rows[None, :]).min(axis=1))
    conj = group.product(index_inverse(group, reps), group.product(g, reps)).tolist()
    return cyc_sum([Cyclotomic.root(chi.order, value[w]) for w in conj if w in value], chi.order)
