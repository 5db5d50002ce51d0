"""Exact arithmetic in finite chain rings.

A ring is fixed by four parameters (p, f, e, n): the residue
characteristic p, the inertia degree f, the ramification index e
(``INF`` for equal characteristic) and the length n of the quotient.
Concretely the ring is W[x]/(x^e - p, x^n) where W is the Galois ring
of characteristic p^ceil(n/e) with residue field F_{p^f}; the three
familiar regimes are e = 1 (Galois rings, including Z/p^n), e = INF
(F_q[T]/(T^n)) and 1 < e < INF (ramified quotients, Eisenstein unit
fixed to 1).

Elements are named by indices: x = sum c[i][j] * omega_i * pi^j with
0 <= c[i][j] < p, omega_i = y^(i-1) running over a fixed basis of the
unramified part and pi the uniformizer, has the canonical digit vector
c, read as a base-p number.  Arithmetic runs on index arrays through
lookup tables, each built by carrying digit vectors to that normal form
(``_canon_array``), so equality of elements is equality of indices.
The add and mul tables are int64 and the only copy: every group law
gathers from them directly.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

INF = math.inf

# Rings up to this size get dense add/mul lookup tables, int64: at the
# cap the two take 2 x 8 x 6000^2 bytes, about 576 MB.
TABLE_CAP = 6000


class RingParameterError(ValueError):
    """Raised for parameter tuples that do not define a chain ring."""


class CapExceededError(ValueError):
    """Raised, before allocating, for a table or catalog past its size cap."""


def _factorize(m: int) -> dict[int, int]:
    """Prime factorization of m >= 1 by trial division: prime -> exponent,
    primes ascending."""
    out = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _is_prime(m: int) -> bool:
    return m > 1 and _factorize(m) == {m: 1}


def _divide(num, den, p=0):
    """(quotient, remainder) of num by the monic den, as coefficient
    lists; the remainder has length deg den.  With p, over F_p: every
    coefficient of both is reduced into [0, p)."""
    num, deg = list(num), len(den) - 1
    num += [0] * (deg - len(num))
    quot = [0] * max(len(num) - deg, 0)
    terms = [(t - deg, v) for t, v in enumerate(den[:deg]) if v]
    for d in range(len(num) - 1, deg - 1, -1):
        c = num[d] % p if p else num[d]
        if c:
            quot[d - deg] = c
            for t, v in terms:  # x^d = -sum den_t x^(d - deg + t) mod den
                num[d + t] -= c * v
    rem = num[:deg]
    return quot, [c % p for c in rem] if p else rem


def _powers(den, count) -> np.ndarray:
    """Row s of the (count, deg den) int64 array holds x^s mod the monic
    den, by x^(s+1) = x * x^s: shift up one place and fold the top
    coefficient back with x^deg = -sum den_t x^t."""
    deg = len(den) - 1
    low = np.array(den[:deg], dtype=np.int64)
    out = np.zeros((count, deg), dtype=np.int64)
    out[0, 0] = 1
    for s in range(1, count):
        out[s, 1:] = out[s - 1, :-1]
        out[s] -= out[s - 1, -1] * low
    return out


def _poly_mulmod(a, b, h, p):
    # product of a, b mod (h, p); h monic
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _divide(out, h, p)[1]


def _poly_gcd(a, b, p):
    # monic gcd of a and a nonzero b over F_p
    while True:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _divide(a, b, p)[1]
        while b and b[-1] == 0:
            b.pop()
        if not b:
            return a


def _is_irreducible(h, p) -> bool:
    # h monic of degree f over F_p; irreducible iff gcd(x^(p^d) - x, h)
    # is trivial for every d <= f//2
    f = len(h) - 1
    for d in range(1, f // 2 + 1):
        # x^(p^d) mod h via square-and-multiply; at least one product,
        # so acc has the f coefficients of a remainder
        exp = p**d
        acc = [1]
        base = [0, 1]
        while exp:
            if exp & 1:
                acc = _poly_mulmod(acc, base, h, p)
            base = _poly_mulmod(base, base, h, p)
            exp >>= 1
        acc[1] -= 1
        if len(_poly_gcd(acc, h, p)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def minimal_irreducible(p: int, f: int) -> tuple[int, ...]:
    """Monic irreducible of degree f over F_p whose lower-coefficient
    digits, read as a base-p integer, are smallest.  Returns coefficient
    tuple (c0, ..., c_{f-1}, 1), searched once per (p, f)."""
    for k in range(p**f):
        low = [(k // p**t) % p for t in range(f)]
        h = tuple(low) + (1,)
        if _is_irreducible(list(h), p):
            return h
    raise RingParameterError(f"no irreducible of degree {f} mod {p}")


class RingSpec:
    """A finite chain ring with canonical digit coordinates.

    Instances are immutable in spirit; lookup tables are cached lazily.
    Equality and hashing go by the defining parameters.
    """

    def __init__(self, p: int, f: int, e, n: int):
        if not _is_prime(p):
            raise RingParameterError(f"p = {p} is not prime")
        if not (isinstance(f, int) and f >= 1):
            raise RingParameterError(f"inertia degree f = {f} invalid")
        if not (isinstance(n, int) and n >= 1):
            raise RingParameterError(f"length n = {n} invalid")
        if e != INF and not (isinstance(e, int) and e >= 1):
            raise RingParameterError(f"ramification e = {e} invalid")
        self.p = p
        self.f = f
        self.e = e
        self.n = n
        self.q = p**f
        self.xi = n if e == INF else min(e, n)
        self.size = self.q**n
        self.unramified_poly = minimal_irreducible(p, f)
        self._fn = f * n
        self._radix = tuple(p ** (self._fn - 1 - t) for t in range(self._fn))

    # -- identity ----------------------------------------------------

    def __repr__(self):
        e = "inf" if self.e == INF else self.e
        return f"RingSpec(p={self.p}, f={self.f}, e={e}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, RingSpec)
            and (self.p, self.f, self.e, self.n) == (other.p, other.f, other.e, other.n)
        )

    def __hash__(self):
        return hash((self.p, self.f, self.e, self.n))

    # -- the unramified basis ----------------------------------------

    @cached_property
    def _yred(self) -> list[list[int]]:
        """Row s: y^s mod h for 0 <= s <= 2f-2, integer (unreduced)
        coefficients."""
        return _powers(self.unramified_poly, 2 * self.f - 1).tolist()

    # -- distinguished subsets ---------------------------------------

    def unit_count(self) -> int:
        return self.q**self.n - self.q ** (self.n - 1)

    def ideal_basis(self, j: int) -> list[int]:
        """Indices of the digit basis elements omega_i pi^j' of the ideal
        pi^j R, j <= j' < n, (i, j')-lexicographic.  They generate it
        additively: an element of it is the sum of c[i][j'] copies of each,
        its digits below j being 0."""
        return [self.basis_index(i * self.n + t) for i in range(self.f) for t in range(j, self.n)]

    @property
    def d_invariant(self) -> int:
        """Minimal generator count of (R, +): f * xi."""
        return self.f * self.xi

    def additive_generators(self) -> list[int]:
        """Indices of omega_i pi^j, i < f, j < xi, (i, j)-lexicographic: f xi generators of (R, +)."""
        return [self.basis_index(i * self.n + j) for i in range(self.f) for j in range(self.xi)]

    def basis_index(self, pos: int) -> int:
        """Index of the digit basis element beta_pos = omega_i pi^j, pos =
        i*n + j: digit 1 at position pos, 0 elsewhere.  beta_0 is 1."""
        return self._radix[pos]

    def omega1_generators(self) -> list[int]:
        """Indices of the f*xi generators omega_i * pi^(n-xi+j),
        (i, j)-lexicographic: the digit basis of pi^(n-xi) R."""
        return self.ideal_basis(self.n - self.xi)

    # -- lookup tables ------------------------------------------------

    @cached_property
    def _place(self) -> np.ndarray:
        return np.array(self._radix, dtype=np.int64)

    def digits(self, idx) -> np.ndarray:
        """Digit vectors of the elements with indices idx: an int64 array
        with one more axis, of length f*n: digit c[i][j] at position
        i*n + j.  Raises CapExceededError if the largest place p^(fn-1) is past int64."""
        if self._radix[0] >= 2**63:
            raise CapExceededError(f"digit place {self.p}^{self._fn - 1} exceeds int64")
        return np.asarray(idx, dtype=np.int64)[..., None] // self._place % self.p

    def _canon_array(self, acc):
        # acc: [..., fn] int64, reduced in place column by column
        p, e, n, f = self.p, self.e, self.n, self.f
        for j in range(n):
            for i in range(f):
                pos = i * n + j
                c = np.remainder(acc[..., pos], p)
                if e != INF and j + e < n:  # the carry is kept only here
                    acc[..., i * n + j + e] += (acc[..., pos] - c) // p
                acc[..., pos] = c
        return acc

    @cached_property
    def basis_products(self) -> np.ndarray:
        """BP[s, t]: digits of beta_s * beta_t before carrying, so the
        product of digit vectors a and b is sum a_s b_t BP[s, t], carried."""
        f, n = self.f, self.n
        BP = np.zeros((self._fn, self._fn, self._fn), dtype=np.int64)
        for i in range(f):
            for j in range(n):
                for i2 in range(f):
                    for j2 in range(n - j):
                        row = self._yred[i + i2]
                        for t in range(f):
                            BP[i * n + j, i2 * n + j2, t * n + j + j2] += row[t]
        return BP

    @cached_property
    def _tables(self):
        N = self.size
        if N > TABLE_CAP:
            raise CapExceededError(f"ring of size {N} exceeds table cap {TABLE_CAP}")
        D, fn = self.digits(np.arange(N)), self._fn
        BP = self.basis_products.reshape(fn, -1)
        add = np.empty((N, N), dtype=np.int64)
        mul = np.empty((N, N), dtype=np.int64)
        chunk = max(1, 2_000_000 // (N * fn))  # (chunk, N, fn) digit arrays of 2M entries
        for lo in range(0, N, chunk):
            hi = min(N, lo + chunk)
            raw = D[lo:hi, None, :] + D[None, :, :]
            add[lo:hi] = self._canon_array(raw) @ self._place
            # sum_{s,t} a_s b_t BP[s, t] as two matrix products: over s, then t
            raw = D @ (D[lo:hi] @ BP).reshape(hi - lo, fn, fn)
            mul[lo:hi] = self._canon_array(raw) @ self._place
        return add, mul

    @property
    def add_table(self) -> np.ndarray:
        return self._tables[0]

    @property
    def mul_table(self) -> np.ndarray:
        return self._tables[1]

    @cached_property
    def valuation_table(self) -> np.ndarray:
        """Valuation by index: the first column with a nonzero digit."""
        nonzero = self.digits(np.arange(self.size)).reshape(-1, self.f, self.n).any(axis=1)
        return np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), self.n)


def make_ring(p: int, f: int, e, n: int) -> RingSpec:
    """Validated constructor; accepts e = INF (or the string 'inf')."""
    if e == "inf":
        e = INF
    return RingSpec(p, f, e, n)

