"""Exact representation bookkeeping: cyclotomic integers, monomial
representations, induction from one-dimensional characters, kernels and
direct sums.

Character values live in Z[zeta_m], held as integer coefficient vectors
reduced modulo the m-th cyclotomic polynomial, so equality of values is
equality of tuples at a common order.  Representations built here are
monomial (permutation matrices with root-of-unity scalars), which is
all the induction machinery ever produces from a linear character.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


class NotSubgroupError(ValueError):
    pass


class ChiNotHomomorphismError(ValueError):
    pass


# -- cyclotomic integers ---------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Coefficients (c0, ..., 1) of the m-th cyclotomic polynomial."""
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    for d in range(1, m):
        if m % d == 0:
            div = cyclotomic_polynomial(d)
            num = _exact_div(num, div)
    return tuple(num)


def _exact_div(num, den):
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for d in range(len(num) - 1, dd - 1, -1):
        c = num[d]
        if c == 0:
            continue
        assert den[dd] == 1
        out[d - dd] = c
        for t in range(dd + 1):
            num[d - dd + t] -= c * den[t]
    assert not any(num), "non-exact cyclotomic division"
    return out


@lru_cache(maxsize=None)
def _ctx(m: int):
    phi_poly = cyclotomic_polynomial(m)
    deg = len(phi_poly) - 1
    zpow = []
    for s in range(m):
        raw = [0] * (s + 1)
        raw[s] = 1
        zpow.append(tuple(_reduce(raw, phi_poly, deg)))
    return deg, phi_poly, tuple(zpow)


def _reduce(raw, phi_poly, deg):
    raw = list(raw)
    if len(raw) < deg:
        raw += [0] * (deg - len(raw))
    for d in range(len(raw) - 1, deg - 1, -1):
        c = raw[d]
        if c:
            raw[d] = 0
            for t in range(deg):
                raw[d - deg + t] -= c * phi_poly[t]
    return raw[:deg]


class Cyclotomic:
    """An element of Z[zeta_m] in the canonical power-basis
    representation: coeffs has length deg(Phi_m) and two values are
    equal iff their vectors agree after promotion to a common order."""

    __slots__ = ("order", "coeffs")
    __hash__ = None

    def __init__(self, order: int, coeffs):
        deg, phi_poly, _ = _ctx(order)
        coeffs = list(coeffs)
        if len(coeffs) != deg:
            coeffs = _reduce(coeffs, phi_poly, deg)
        self.order = order
        self.coeffs = tuple(int(c) for c in coeffs)

    @staticmethod
    def root(m: int, k: int = 1) -> "Cyclotomic":
        """zeta_m^k."""
        _, _, zpow = _ctx(m)
        return Cyclotomic(m, zpow[k % m])

    @staticmethod
    def integer(v: int, order: int = 1) -> "Cyclotomic":
        deg, _, _ = _ctx(order)
        return Cyclotomic(order, [v] + [0] * (deg - 1))

    def promote(self, order: int) -> "Cyclotomic":
        if order == self.order:
            return self
        assert order % self.order == 0
        step = order // self.order
        raw = [0] * order
        for j, c in enumerate(self.coeffs):
            raw[(j * step) % order] += c
        return Cyclotomic(order, raw)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.integer(int(other))
        m = self.order * other.order // gcd(self.order, other.order)
        return self.promote(m), other.promote(m)

    def __add__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-x for x in self.coeffs])

    def __sub__(self, other):
        a, b = self._pair(other)
        return Cyclotomic(a.order, [x - y for x, y in zip(a.coeffs, b.coeffs)])

    def __mul__(self, other):
        a, b = self._pair(other)
        deg, phi_poly, _ = _ctx(a.order)
        raw = [0] * (2 * deg)
        for i, ca in enumerate(a.coeffs):
            if ca:
                for j, cb in enumerate(b.coeffs):
                    raw[i + j] += ca * cb
        return Cyclotomic(a.order, _reduce(raw, phi_poly, deg))

    __rmul__ = __mul__

    def conjugate(self) -> "Cyclotomic":
        m = self.order
        _, _, zpow = _ctx(m)
        deg = len(self.coeffs)
        out = [0] * deg
        for j, c in enumerate(self.coeffs):
            if c:
                for t, z in enumerate(zpow[(m - j) % m]):
                    out[t] += c * z
        return Cyclotomic(m, out)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other):
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    def __repr__(self):
        return f"Cyc({self.order}, {self.to_str()})"

    def to_str(self) -> str:
        """Deterministic human form, z standing for zeta_order."""
        terms = []
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if j == 0:
                terms.append(str(c))
            else:
                mon = "z" if j == 1 else f"z^{j}"
                if c == 1:
                    terms.append(mon)
                elif c == -1:
                    terms.append(f"-{mon}")
                else:
                    terms.append(f"{c}*{mon}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += t if t.startswith("-") else "+" + t
        return out


def cyc_sum(values, order: int = 1) -> Cyclotomic:
    acc = Cyclotomic.integer(0, order)
    for v in values:
        acc = acc + v
    return acc


# -- linear characters and monomial representations ------------------


class LinearChar:
    """A one-dimensional character of a subgroup, tabulated as root-of-
    unity exponents: chi(a) = zeta_order^exps[a]."""

    def __init__(self, order: int, exps: dict):
        self.order = order
        self.exps = {a: e % order for a, e in exps.items()}

    def __call__(self, a) -> Cyclotomic:
        return Cyclotomic.root(self.order, self.exps[a])

    def value_exp(self, a) -> int:
        return self.exps[a]


def _check_subgroup(group, elems, exhaustive_cap=512):
    import random

    eset = set(elems)
    if group.identity not in eset:
        raise NotSubgroupError("identity missing")
    for a in elems:
        if group.inv(a) not in eset:
            raise NotSubgroupError(f"inverse of {a!r} missing")
    if len(elems) <= exhaustive_cap:
        pairs = ((a, b) for a in elems for b in elems)
    else:
        rng = random.Random(11)
        pairs = ((rng.choice(elems), rng.choice(elems)) for _ in range(1000))
    for a, b in pairs:
        if group.mul(a, b) not in eset:
            raise NotSubgroupError("not closed under multiplication")


def _check_character(group, elems, chi, exhaustive_cap=512):
    import random

    m = chi.order
    if chi.value_exp(group.identity) % m != 0:
        raise ChiNotHomomorphismError("chi(identity) != 1")
    if len(elems) <= exhaustive_cap:
        pairs = ((a, b) for a in elems for b in elems)
    else:
        rng = random.Random(13)
        pairs = ((rng.choice(elems), rng.choice(elems)) for _ in range(1000))
    for a, b in pairs:
        if (chi.value_exp(a) + chi.value_exp(b) - chi.value_exp(group.mul(a, b))) % m:
            raise ChiNotHomomorphismError(f"chi not multiplicative at ({a!r}, {b!r})")


class MonomialRep:
    """A monomial representation: for each group element a permutation
    sigma of the basis and scalar exponents, rho(g) e_t =
    zeta^exps[t] e_sigma[t]."""

    def __init__(self, group, degree, scalar_order, maps):
        self.group = group
        self.degree = degree
        self.scalar_order = scalar_order
        self.maps = maps  # elem -> (sigma tuple, exps tuple)

    @staticmethod
    def induce(group, sub_elems, chi: LinearChar, check=True) -> "MonomialRep":
        """Induction of the linear character chi from the subgroup with
        element list sub_elems to the whole group."""
        if check:
            _check_subgroup(group, sub_elems)
            _check_character(group, sub_elems, chi)
        elements = group.elements
        coset_of = {}
        reps = []
        for g in elements:
            if g in coset_of:
                continue
            t = len(reps)
            reps.append(g)
            for a in sub_elems:
                coset_of[group.mul(g, a)] = t
        if len(coset_of) != len(elements):
            raise NotSubgroupError("cosets do not partition the group")
        deg = len(reps)
        m = chi.order
        rep_inv = [group.inv(r) for r in reps]
        maps = {}
        for g in elements:
            sigma = [0] * deg
            exps = [0] * deg
            for t in range(deg):
                w = group.mul(g, reps[t])
                s = coset_of[w]
                a = group.mul(rep_inv[s], w)
                sigma[t] = s
                exps[t] = chi.value_exp(a) % m
            maps[g] = (tuple(sigma), tuple(exps))
        return MonomialRep(group, deg, m, maps)

    @staticmethod
    def linear(group, chi: LinearChar) -> "MonomialRep":
        """A one-dimensional character of the full group as a degree-1 rep."""
        maps = {g: ((0,), (chi.value_exp(g),)) for g in group.elements}
        return MonomialRep(group, 1, chi.order, maps)

    def apply(self, g):
        return self.maps[g]

    def character(self, g) -> Cyclotomic:
        sigma, exps = self.maps[g]
        _, _, zpow = _ctx(self.scalar_order)
        deg = len(zpow[0])
        acc = [0] * deg
        for t in range(self.degree):
            if sigma[t] == t:
                for i, z in enumerate(zpow[exps[t]]):
                    acc[i] += z
        return Cyclotomic(self.scalar_order, acc)

    def is_identity_matrix(self, g) -> bool:
        sigma, exps = self.maps[g]
        m = self.scalar_order
        return all(sigma[t] == t and exps[t] % m == 0 for t in range(self.degree))

    def check_homomorphism(self, exhaustive_cap=512) -> bool:
        import random

        els = self.group.elements
        if len(els) <= exhaustive_cap:
            pairs = ((a, b) for a in els for b in els)
        else:
            rng = random.Random(17)
            pairs = ((rng.choice(els), rng.choice(els)) for _ in range(1000))
        for a, b in pairs:
            sa, ea = self.maps[a]
            sb, eb = self.maps[b]
            sab, eab = self.maps[self.group.mul(a, b)]
            for t in range(self.degree):
                if sa[sb[t]] != sab[t]:
                    return False
                if (eb[t] + ea[sb[t]] - eab[t]) % self.scalar_order:
                    return False
        return True

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "scalar_order": self.scalar_order,
            "matrices": [
                {"perm": list(self.maps[g][0]), "exps": list(self.maps[g][1])}
                for g in self.group.elements
            ],
        }


def induced_character_formula(group, sub_elems, chi: LinearChar, g) -> Cyclotomic:
    """Independent evaluation of the induced character at g: sum of
    chi(r^-1 g r) over coset representatives r with r^-1 g r in the
    subgroup."""
    sub = set(sub_elems)
    coset_of = {}
    reps = []
    for h in group.elements:
        if h in coset_of:
            continue
        reps.append(h)
        for a in sub_elems:
            coset_of[group.mul(h, a)] = len(reps) - 1
    acc = Cyclotomic.integer(0, chi.order)
    for r in reps:
        w = group.mul(group.inv(r), group.mul(g, r))
        if w in sub:
            acc = acc + chi(w)
    return acc


def kernel_of(rep: MonomialRep) -> list:
    """Elements with chi(g) = chi(identity), which for these exact
    values picks out exactly the kernel."""
    ident_val = rep.character(rep.group.identity)
    return [g for g in rep.group.elements if rep.character(g) == ident_val]


class DirectSumRep:
    """A direct sum of monomial representations over a common group."""

    def __init__(self, summands):
        assert summands
        self.summands = list(summands)
        self.group = summands[0].group
        self.degree = sum(s.degree for s in summands)

    def character(self, g) -> Cyclotomic:
        return cyc_sum([s.character(g) for s in self.summands])

    def kernel(self) -> list:
        kern = None
        for s in self.summands:
            k = set(kernel_of(s))
            kern = k if kern is None else kern & k
        return [g for g in self.group.elements if g in kern]

    def is_faithful(self) -> bool:
        return self.kernel() == [self.group.identity]
