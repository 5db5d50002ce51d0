"""Irreducible representations of Heisenberg groups over chain rings
via the orbit method on the dual of the fixed maximal abelian subgroup.

Characters of A = {(x, 0, z)} are psi_{w,b}(x,0,z) = psi(w.x + b z).
The complement L = {(0,y,0)} acts by psi_{w,b} |-> psi_{w + b y, b}, so
orbits at central parameter b are cosets of (bR)^k, the stabilizer is
Ann(b)^k, and the induced representation attached to an orbit plus a
stabilizer character has dimension q^{(n-i)k} where i = val(b).  The
catalog enumerates one entry per (orbit, stabilizer character) pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .chain_ring import CapExceededError, RingSpec
from .char_duality import character_weights, psi
from .exactrep import LinearChar, MonomialRep
from .group_models import HeisenbergGroup, _distinct

EXPLICIT_CAP = 100_000


@dataclass(frozen=True)
class IrrepDescriptor:
    orbit_rep: tuple  # (b_vec indices, b index)
    level: int
    dim: int
    lambda_label: tuple
    stabilizer_order: int


def annihilator_indices(R: RingSpec, b_idx: int) -> list[int]:
    """Indices of Ann(b) = {y : b y = 0} = pi^(n - val b) R."""
    return R.ideal_indices(R.n - int(R.valuation_table[b_idx]))


def ideal_of(R: RingSpec, b_idx: int) -> list[int]:
    """Indices of the principal ideal b R = pi^(val b) R."""
    return R.ideal_indices(int(R.valuation_table[b_idx]))


def _coset_reps(R: RingSpec, ideal: list[int], k: int) -> list[tuple]:
    """The lex-least representatives of the cosets of ideal^k in R^k,
    ascending."""
    least = _distinct(R.add_table[:, ideal].min(axis=1)).tolist()
    return list(product(least, repeat=k))


def orbit_representatives(H: HeisenbergGroup, b_idx: int) -> list[tuple]:
    """Lex-least representatives of the orbits of L on characters with
    central parameter b: cosets of (bR)^k."""
    return _coset_reps(H.ring, ideal_of(H.ring, b_idx), H.k)


def irrep_catalog(H: HeisenbergGroup) -> list[IrrepDescriptor]:
    """One descriptor per irreducible: orbit representative plus a
    character label of the stabilizer.  Refuses a dual past
    EXPLICIT_CAP."""
    R = H.ring
    if R.size ** (H.k + 1) > EXPLICIT_CAP:
        raise CapExceededError(f"dual of size {R.size ** (H.k + 1)} exceeds the explicit cap {EXPLICIT_CAP}")
    out = []
    for b_idx in range(R.size):
        level = int(R.valuation_table[b_idx])
        ann = annihilator_indices(R, b_idx)
        # dim = [L : stabilizer] = orbit size = |bR|^k
        dim = len(ideal_of(R, b_idx)) ** H.k
        # lambda labels: coset reps of pi^level R ... duality for Ann(b)
        lam_labels = _coset_reps(R, R.ideal_indices(level), H.k)
        for w in orbit_representatives(H, b_idx):
            for lab in lam_labels:
                out.append(
                    IrrepDescriptor(
                        orbit_rep=(w, b_idx),
                        level=level,
                        dim=dim,
                        lambda_label=lab,
                        stabilizer_order=len(ann) ** H.k,
                    )
                )
    return out


# -- explicit induced models -----------------------------------------


def extended_character(H: HeisenbergGroup, b_vec: tuple, b_idx: int, lam_label: tuple) -> LinearChar:
    """The linear character psi_{b_vec, b} x lambda on H_s = A . L_s:
    (x, y, z) -> psi(b z + b_vec.x + lam_label.y) for y in Ann(b)^k."""
    R, k = H.ring, H.k
    add, mul = R.add_table, R.mul_table  # the ring table cap refuses before any row is listed
    S = range(R.size)
    ann = annihilator_indices(R, b_idx)
    rows = H._rows({t: S if t < k or t == 2 * k else ann for t in range(2 * k + 1)})
    c = H._decode(rows)
    acc = mul[b_idx, c[2 * k]]
    for t in range(k):
        acc = add[add[acc, mul[b_vec[t], c[t]]], mul[lam_label[t], c[k + t]]]
    return LinearChar(character_weights(R)[0], rows, psi(R, acc))


def mackey_induced_rep(
    H: HeisenbergGroup, b_vec: tuple, b_idx: int, lam_label: tuple | None = None
) -> MonomialRep:
    """Explicit monomial model of the irreducible attached to the orbit
    of psi_{b_vec, b} and the stabilizer character lambda."""
    if lam_label is None:
        lam_label = (0,) * H.k
    return MonomialRep.induce(H, extended_character(H, b_vec, b_idx, lam_label))
