"""Irreducible representations of Heisenberg groups over chain rings
via the orbit method on the dual of the fixed maximal abelian subgroup.

Characters of A = {(x, 0, z)} are psi_{w,b}(x,0,z) = psi(w.x + b z).
The complement L = {(0,y,0)} acts by psi_{w,b} |-> psi_{w + b y, b}, so
orbits at central parameter b are cosets of (bR)^k, the stabilizer is
Ann(b)^k, and the induced representation attached to an orbit plus a
stabilizer character has dimension q^{(n-i)k} where i = val(b).  The
catalog is counted, not listed: one entry per orbit, with the number of
its stabilizer characters, each of which gives one irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .chain_ring import CapExceededError, RingSpec
from .char_duality import character_weights, psi
from .exactrep import LinearChar, MonomialRep
from .group_models import HeisenbergGroup

EXPLICIT_CAP = 100_000


@dataclass(frozen=True)
class IrrepDescriptor:
    """One irreducible: an orbit and a stabilizer character's label."""
    orbit_rep: tuple  # (b_vec indices, b index)
    level: int
    dim: int
    lambda_label: tuple
    stabilizer_order: int


@dataclass(frozen=True)
class OrbitDescriptor:
    """One orbit, with one irreducible per stabilizer character."""
    orbit_rep: tuple  # (b_vec indices, b index)
    level: int
    dim: int
    count: int


def coset_representatives(R: RingSpec, level: int) -> list[int]:
    """The least index in each coset of pi^level R in R, ascending: the
    elements with no digit at pi^j for j >= level.  Carries run up in j,
    so adding pi^level R keeps the digits below the level, and the least
    member of a coset has none above it."""
    places = [R.basis_index(i * R.n + j) for i in range(R.f) for j in range(min(level, R.n))]
    return [sum(c * w for c, w in zip(digits, places)) for digits in product(range(R.p), repeat=len(places))]


def orbit_count(R: RingSpec, k: int) -> int:
    """The catalog's length, sum over b of |R/bR|^k, by level i = val b."""
    q, n = R.q, R.n
    return q ** (n * k) + sum((q ** (n - i) - q ** (n - i - 1)) * q ** (i * k) for i in range(n))


def irrep_catalog(H: HeisenbergGroup) -> list[OrbitDescriptor]:
    """One descriptor per orbit, b ascending and then its lex-least
    representative w, one per coset of (bR)^k in R^k.  The stabilizer
    characters are labelled by the same cosets, so they number |R/bR|^k.
    Refuses more than EXPLICIT_CAP orbits before reading the ring, and
    raises AssertionError unless sum count * dim^2 = |G|."""
    R, k = H.ring, H.k
    if orbit_count(R, k) > EXPLICIT_CAP:
        raise CapExceededError(f"catalog of {orbit_count(R, k)} orbits exceeds the explicit cap {EXPLICIT_CAP}")
    reps = [list(product(coset_representatives(R, level), repeat=k)) for level in range(R.n + 1)]
    out = [OrbitDescriptor((w, b), level, R.q ** ((R.n - level) * k), len(reps[level]))
           for b, level in enumerate(R.valuation_table.tolist()) for w in reps[level]]
    total = sum(o.count * o.dim**2 for o in out)
    if total != H.order:
        raise AssertionError(f"irrep catalog: sum count * dim^2 = {total}, |G| = {H.order}")
    return out


def central_irreps(H: HeisenbergGroup) -> list[IrrepDescriptor]:
    """The first irreducible over each central parameter b, b ascending:
    orbit representative and stabilizer label 0.  Every irreducible over
    b has dim |bR|^k and central character psi(b .).  Refuses a
    ring of more than EXPLICIT_CAP elements before reading it."""
    R, k = H.ring, H.k
    if R.size > EXPLICIT_CAP:
        raise CapExceededError(f"dual of size {R.size} exceeds the explicit cap {EXPLICIT_CAP}")
    zero = (0,) * k
    return [IrrepDescriptor((zero, b), level, R.q ** ((R.n - level) * k), zero, R.q ** (level * k))
            for b, level in enumerate(R.valuation_table.tolist())]


# -- explicit induced models -----------------------------------------


def extended_character(H: HeisenbergGroup, b_vec: tuple, b_idx: int, lam_label: tuple) -> LinearChar:
    """The linear character psi_{b_vec, b} x lambda on H_s = A . L_s:
    (x, y, z) -> psi(b z + b_vec.x + lam_label.y) for y in Ann(b)^k.
    Its generators are the elementary rows of H_s: one coordinate a digit
    basis element of R, or of Ann(b) = pi^(n - val b) R for y, the
    others 0, since (x, y, z) = (x, 0, 0)(0, y, 0)(0, 0, z - x.y).  Its
    value at one is psi of the coordinate's coefficient (b_vec[t],
    lam_label[t] or b) times the basis element."""
    R, k = H.ring, H.k
    mul = R.mul_table  # the ring table cap refuses before any row is listed
    level = R.n - int(R.valuation_table[b_idx])
    free = {t: R.ideal_basis(0 if t < k or t == 2 * k else level) for t in range(2 * k + 1)}
    coef = np.repeat([*b_vec, *lam_label, b_idx], [len(v) for v in free.values()])
    values = psi(R, mul[coef, np.concatenate(list(free.values())).astype(np.int64)])
    return LinearChar(character_weights(R)[0], H._axis_rows(free), values)


def mackey_induced_rep(
    H: HeisenbergGroup, b_vec: tuple, b_idx: int, lam_label: tuple | None = None
) -> MonomialRep:
    """Explicit monomial model of the irreducible attached to the orbit
    of psi_{b_vec, b} and the stabilizer character lambda."""
    if lam_label is None:
        lam_label = (0,) * H.k
    return MonomialRep.induce(H, extended_character(H, b_vec, b_idx, lam_label))
