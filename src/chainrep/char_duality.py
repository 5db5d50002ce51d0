"""Additive characters of finite chain rings and their restriction to
the p-torsion subgroup.

The fixed primitive character psi is a linear form in the digits: a
modulus p^M and one weight per digit position, with psi(x) =
zeta_{p^M}^(digits(x) . w).  The weights are all 1 mod p (the digit sum)
in equal characteristic, the Galois-ring trace (the trace of the
multiplication map) for unramified rings, and for ramified rings a
coefficient-precision construction (the additive group decomposes as a
sum of cyclic p-groups whose j-th block has precision ceil((n-j)/e);
the character weights each block accordingly).  Every additive character is then x |-> psi(b x) for a
unique b, of level val(b); its values are psi over the row b of the
multiplication table, and nothing here enumerates the ring.

Restricting psi(b .) to the p-torsion subgroup Omega_1(R,+) and reading
off zeta_p-exponents at the canonical generators gives an F_p vector of
length f*xi.  b |-> vector is linear, so it is one (f*n) x (f*xi)
matrix applied to b's digits, and it identifies R / pi^xi R with the
dual of Omega_1."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain_ring import INF, RingSpec


class NotSpanningError(ValueError):
    """Raised when a vector pool fails to span the dual space."""


@lru_cache(maxsize=None)
def character_weights(R: RingSpec) -> tuple[int, tuple[int, ...]]:
    """(modulus p^M, weight per digit position) of the fixed primitive
    character: psi(x) = zeta_{p^M}^(digits(x) . w)."""
    p, f, e, n = R.p, R.f, R.e, R.n
    if e == INF:
        mod = p
        w = [1] * (f * n)
    elif e == 1:
        # Tr(omega_i): the trace of multiplication by y^i, whose column
        # t is the row y^(i+t) of _yred
        mod = p**n
        w = [sum(R._yred[i + t][t] for t in range(f)) * p**j for i in range(f) for j in range(n)]
    else:
        # column c is place c // e of block c mod e, whose precision
        # ceil((n - c mod e)/e) is -((n - c % e) // -e)
        M = -(-n // e)
        mod = p**M
        w = [p ** (c // e + M + (n - c % e) // -e) for _ in range(f) for c in range(n)]
    w = tuple(v % mod for v in w)
    # primitivity: nontrivial somewhere on the socle pi^(n-1) R, whose
    # elements have digits in column n-1 only
    if not any(w[i * n + n - 1] for i in range(f)):
        raise AssertionError("base character not primitive")
    return mod, w


def psi(R: RingSpec, idx) -> np.ndarray:
    """Exponents of the fixed primitive character on the elements with
    indices idx, mod the modulus of character_weights(R)."""
    mod, w = character_weights(R)
    return R.digits(idx) @ np.array(w, dtype=np.int64) % mod


@lru_cache(maxsize=None)
def _socle_matrix(R: RingSpec) -> np.ndarray:
    """Row t: the F_p coordinates of psi(beta_t .) on Omega_1, for the
    digit basis element beta_t.  psi(beta_t g) at a socle generator g is
    psi of the carried digits of the basis product, a multiple of p^(M-1)
    since beta_t g is p-torsion."""
    mod, w = character_weights(R)
    gens = R.digits(R.omega1_generators())
    prods = R._canon_array(np.einsum("gq,tqr->tgr", gens, R.basis_products))
    exps = prods @ np.array(w, dtype=np.int64) % mod
    scale = mod // R.p
    if (exps % scale).any():
        raise AssertionError("character value on p-torsion is not a p-th root")
    return exps // scale


def socle_restriction(R: RingSpec, b) -> np.ndarray:
    """F_p coordinates of x |-> psi(b x) restricted to Omega_1(R, +),
    read at the generators omega_i pi^(n-xi+j) in (i, j)-lexicographic
    order, for the elements with indices b: one more axis, of length
    f*xi.  The restriction is additive in b, and b = sum c_t beta_t over
    its digits c, so this is digits(b) @ _socle_matrix(R) mod p, and no
    character value is formed."""
    return R.digits(b) @ _socle_matrix(R) % R.p


@dataclass(frozen=True)
class DualVector:
    """F_p coordinates of a character restricted to Omega_1(R, +), read
    at the generators omega_i pi^(n-xi+j) in (i, j)-lexicographic order."""

    p: int
    coords: tuple[int, ...]


# -- F_p linear algebra helpers --------------------------------------


def _rref(A, l):
    """Gauss-Jordan elimination over F_l: (reduced row echelon form of A,
    pivot columns).  The reduced form does not depend on which nonzero
    entry is taken as pivot, so the largest is.  Each pivot column is
    cleared by one rank-one update, A -= f (x) A[row] with f the column
    and f[row] = 0, which leaves the rows that do not hold it as they
    are."""
    A = np.array(A % l, dtype=np.int64)
    m, n = A.shape
    row = 0
    pivcol = []
    for col in range(n):
        if row == m:
            break
        pr = row + int(A[row:, col].argmax())
        if not A[pr, col]:
            continue
        if pr != row:
            A[[row, pr]] = A[[pr, row]]
        A[row] = A[row] * pow(int(A[row, col]), -1, l) % l
        f = A[:, col].copy()
        f[row] = 0
        A -= np.outer(f, A[row])
        A %= l
        pivcol.append(col)
        row += 1
    return A, pivcol


def _independent(vectors, p: int) -> list[int]:
    """Positions of the vectors (tuples or DualVectors) that lie outside
    the F_p span of the vectors before them, in order: the pivot columns
    of the matrix with the vectors as columns."""
    rows = [v.coords if isinstance(v, DualVector) else v for v in vectors]
    if not rows:
        return []
    return _rref(np.array(rows, dtype=np.int64).T, p)[1]


def fp_rank(vectors, p: int) -> int:
    return len(_independent(vectors, p))


def spans_dual(vectors, R: RingSpec) -> bool:
    """Do the restricted characters span the full dual of Omega_1?"""
    return fp_rank(vectors, R.p) == R.d_invariant


def basis_greedy(vectors, weights, p: int, dim: int) -> list[int]:
    """Minimum-weight spanning subset of the given F_p vectors, greedy
    by (weight, position); exact by the matroid exchange property.
    Returns selected positions; raises NotSpanningError if the pool
    does not span a space of the stated dimension."""
    order = sorted(range(len(vectors)), key=lambda i: (weights[i], i))
    chosen = []
    for t in _independent([vectors[i] for i in order], p):
        chosen.append(order[t])
        if len(chosen) == dim:
            return chosen
    raise NotSpanningError(f"pool spans rank {len(chosen)} < {dim}")
