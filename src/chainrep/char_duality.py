"""Additive characters of finite chain rings and their restriction to
the p-torsion subgroup.

A fixed primitive character psi is built per ring family: via the
Galois-ring trace for unramified rings, the digit-sum for equal
characteristic, and a coefficient-precision construction for ramified
rings (the additive group decomposes as a sum of cyclic p-groups whose
j-th block has precision ceil((n-j)/e); the character weights each
block accordingly).  Every additive character is then psi_b : x |->
psi(b x) for a unique b, and level(psi_b) = val(b).

Restricting psi_b to the p-torsion subgroup Omega_1(R,+) and reading
off zeta_p-exponents at the canonical generators gives an F_p vector of
length f*xi; b |-> vector is linear and identifies R / pi^xi R with the
dual of Omega_1."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .chain_ring import INF, RingElem, RingSpec
from .exactrep import Cyclotomic


class NotSpanningError(ValueError):
    """Raised when a vector pool fails to span the dual space."""


@lru_cache(maxsize=None)
def base_character_data(R: RingSpec) -> tuple[int, tuple[int, ...]]:
    """(modulus p^M, exponent tuple) of the fixed primitive character."""
    p, f, e, n = R.p, R.f, R.e, R.n
    N = R.size
    digits = np.array([R.from_index(i).coords for i in range(N)], dtype=np.int64)
    if e == INF:
        mod = p
        exps = np.remainder(digits.sum(axis=1), p)
    elif e == 1:
        mod = p**n
        # column values a_i(x) = sum_j c[i][j] p^j per basis unit omega_i
        pw = np.array([p**j for j in range(n)], dtype=np.int64)
        A = np.stack([digits[:, i * n : (i + 1) * n] @ pw for i in range(f)], axis=1)
        if f == 1:
            exps = np.remainder(A[:, 0], mod)
        else:
            tvec = _trace_coefficients(R)
            exps = np.remainder(A @ np.array(tvec, dtype=np.int64), mod)
    else:
        M = -(-n // e)
        mod = p**M
        exps = np.zeros(N, dtype=np.int64)
        for i in range(f):
            for j in range(R.xi):
                mj = -(-(n - j) // e)
                t = np.zeros(N, dtype=np.int64)
                l = 0
                while j + e * l < n:
                    t += digits[:, i * n + j + e * l] * p**l
                    l += 1
                exps += t * p ** (M - mj)
        exps = np.remainder(exps, mod)
    # primitivity: nontrivial somewhere on the socle pi^(n-1) R
    socle = [i for i in range(N) if R.valuation_table[i] >= n - 1]
    assert any(exps[i] % mod for i in socle), "base character not primitive"
    return mod, tuple(int(v) for v in exps)


def _trace_coefficients(R: RingSpec) -> list[int]:
    """Integer power sums T_i = sum of rho^(i-1) over the roots rho of
    the unramified polynomial inside R (e = 1, f >= 2)."""
    f, n, p = R.f, R.n, R.p
    h = R.unramified_poly
    roots = []
    for a in R.elements():
        acc = R.zero
        pw = R.one
        for c in h:
            if c:
                acc = acc + pw * R.from_int(c)
            pw = pw * a
        if acc.is_zero():
            roots.append(a)
    assert len(roots) == f, f"found {len(roots)} roots of the unramified polynomial"
    out = []
    for i in range(f):
        s = R.zero
        for rho in roots:
            pw = R.one
            for _ in range(i):
                pw = pw * rho
            s = s + pw
        # Galois-stable, so s lies in the prime subring
        assert all(s.coords[k * n + j] == 0 for k in range(1, f) for j in range(n))
        out.append(sum(s.coords[j] * p**j for j in range(n)))
    return out


class AddChar:
    """The additive character psi_b of a chain ring."""

    def __init__(self, R: RingSpec, b: RingElem):
        self.ring = R
        self.b = b
        self.level = R.valuation(b)
        mod, base = base_character_data(R)
        self.modulus = mod
        row = R.mul_table[R.index(b)]
        self.exps = np.array([base[int(x)] for x in row], dtype=np.int64)

    def value_exp(self, x) -> int:
        idx = x if isinstance(x, int) else self.ring.index(x)
        return int(self.exps[idx])

    def __call__(self, x) -> Cyclotomic:
        return Cyclotomic.root(self.modulus, self.value_exp(x))

    def is_primitive(self) -> bool:
        return self.level == 0

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

    def to_json(self) -> dict:
        return {"b": list(self.b.coords), "level": self.level}


def primitive_character(R: RingSpec) -> AddChar:
    """The fixed primitive character, psi_b with b = 1."""
    return AddChar(R, R.one)


def psi_b(R: RingSpec, b: RingElem) -> AddChar:
    """The character x |-> psi(b x)."""
    return AddChar(R, b)


def conductor(chi: AddChar) -> int:
    """Ideal index of the largest ideal inside ker chi: n - level."""
    return chi.ring.n - chi.level


@dataclass(frozen=True)
class DualVector:
    """F_p coordinates of a character restricted to Omega_1(R, +), read
    at the generators omega_i pi^(n-xi+j) in (i, j)-lexicographic order."""

    p: int
    coords: tuple[int, ...]


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


# -- F_p linear algebra helpers --------------------------------------


def _rref(A, l):
    """Gauss-Jordan elimination over F_l: (reduced row echelon form of A,
    pivot columns)."""
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
