"""Minimal faithful dimension: closed forms, the greedy p-group
solver, and explicit faithful models.

The closed forms: for Heisenberg groups over a chain ring the minimum
is sum_{i<xi} f q^{k(n-i)}; unitriangular groups of size k+2 match the
Heisenberg value in every residue characteristic; affine groups give
q^n - q^{n-1}; a two-step p-group with cyclic commutator subgroup gives
sqrt([G:Z]) + d'(Z) - 1.

The solver reduces the p-group problem to a minimum-weight spanning
subset of restricted central characters in the dual of the p-torsion
of the center, which the dimension-greedy choice solves exactly by the
matroid exchange property."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .chain_ring import INF, RingSpec, _factorize, make_ring
from .char_duality import (
    DualVector,
    NotSpanningError,
    basis_greedy,
    character_weights,
    psi,
    socle_restriction,
    spans_dual,
)
from .exactrep import DirectSumRep, LinearChar, MonomialRep
from .group_models import (
    AbstractGroup,
    AffineGroup,
    HeisenbergGroup,
    StructureScan,
    UnitriangularGroup,
    extend_character,
    general_linear_2,
    group_cap,
    multiplier_closure,
    quaternion_group,
    semidirect_cyclic,
    semidirect_cyclic_hom,
    semidirect_hom_order,
    structure_scan,
)
from .mackey_irreps import irrep_catalog, mackey_induced_rep


class NotTwoStepError(ValueError):
    pass


class CommutatorNotCyclicError(ValueError):
    pass


class NonSquareIndexError(ValueError):
    pass


class PoolDoesNotSpanError(NotSpanningError):
    pass


# -- closed forms -----------------------------------------------------


def formula_heisenberg(p: int, f: int, e, n: int, k: int = 1) -> int:
    """sum_{i<xi} f * q^(k(n-i)) for Hei_{2k+1}(R)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if e == "inf":
        e = INF
    xi = n if e == INF else min(e, n)
    q = p**f
    if not isinstance(xi, int):
        raise ValueError("bad parameters")
    make_ring(p, f, e, n)  # parameter validation
    return sum(f * q ** (k * (n - i)) for i in range(xi))


def formula_unitriangular(p: int, f: int, e, n: int, size: int) -> int:
    """m(U_{k+2}(R)) = m(Hei_{2k+1}(R)) for matrix size k+2, in every
    residue characteristic.  Lower bound: embed_heisenberg puts
    Hei_{2k+1}(R) in U_{k+2}(R).  Upper bound: for each basis parameter
    b of heisenberg_basis_parameters, psi(b g_{1,k+2}) is a character of
    S_b = {g : g_{1j} in Ann(b) for 1 < j < k+2}, since b kills the cross
    terms of the corner entry, and its induced representation has degree
    [U : S_b] = |R/Ann(b)|^k.  The centre is the corner, inside every
    S_b, where the induced sum restricts to copies of psi(b .), which are
    jointly faithful there; a nontrivial normal subgroup of a p-group
    meets the centre, so the sum is faithful, and its degree is the
    Heisenberg sum.  No step halves.  Sizes from 2: U_2(R) is (R, +),
    whose minimum is its generator count f * xi, the sum at k = 0."""
    if size < 2:
        raise ValueError("matrix size must be >= 2")
    if size == 2:
        return make_ring(p, f, e, n).d_invariant
    return formula_heisenberg(p, f, e, n, k=size - 2)


def formula_affine(p: int, f: int, n: int) -> int:
    """q^n - q^(n-1): the unit count of the ring."""
    q = p**f
    return q**n - q ** (n - 1)


def formula_two_step(G: AbstractGroup, scan: StructureScan | None = None) -> int:
    """sqrt([G:Z]) + d'(Z) - 1 for a two-step p-group with cyclic
    commutator subgroup."""
    scan = scan or structure_scan(G)
    if not scan.is_p_group:
        raise NotTwoStepError("group is not a p-group")
    if not scan.is_two_step:
        raise NotTwoStepError("commutator subgroup is not central (or is trivial)")
    if not scan.commutator_cyclic:
        raise CommutatorNotCyclicError("commutator subgroup is not cyclic")
    index = G.order // len(scan.center)
    root = math.isqrt(index)
    if root * root != index:
        raise NonSquareIndexError(f"[G:Z] = {index} is not a perfect square")
    return root + scan.center_invariant_count - 1


# -- solver -----------------------------------------------------------


@dataclass
class FaithfulSolution:
    """A minimal faithful direct sum: summand descriptors, total
    dimension, and (when materialized) explicit monomial models with a
    verified trivial kernel."""

    group: str
    total_dim: int
    summands: list
    certificate: list | None = None
    reps: list | None = field(default=None, repr=False)
    verified_faithful: bool | None = None

    def to_json(self) -> dict:
        out = {
            "group": self.group,
            "total_dim": self.total_dim,
            "summands": [_summand_json(s) for s in self.summands],
        }
        if self.certificate is not None:
            out["certificate"] = [list(v) for v in self.certificate]
        if self.verified_faithful is not None:
            out["verified_faithful"] = self.verified_faithful
        return out


def _summand_json(s):
    if isinstance(s, dict):
        return s
    return {"summand": repr(s)}


def solve_pgroup(entries, p: int, ambient_dim: int) -> FaithfulSolution:
    """Greedy minimum: entries are (dim, dual vector, payload) triples
    covering the complete irreducible catalog of a p-group; returns the
    dimension-greedy spanning selection, which is exact."""
    dims = [t[0] for t in entries]
    vecs = [t[1] for t in entries]
    if not entries:
        raise PoolDoesNotSpanError("empty catalog")
    try:
        chosen = basis_greedy(vecs, dims, p, ambient_dim)
    except NotSpanningError as exc:
        raise PoolDoesNotSpanError(str(exc)) from None
    total = sum(dims[i] for i in chosen)

    def _coords(v):
        return tuple(v.coords) if isinstance(v, DualVector) else tuple(v)

    return FaithfulSolution(
        group="p-group catalog",
        total_dim=total,
        summands=[entries[i][2] for i in chosen],
        certificate=[_coords(vecs[i]) for i in chosen],
    )


def heisenberg_catalog_entries(H: HeisenbergGroup):
    """(dim, DualVector, descriptor) per catalog irrep: the restriction
    of its central character psi(b .) to Omega_1."""
    p, catalog = H.ring.p, irrep_catalog(H)
    vectors = socle_restriction(H.ring, [desc.orbit_rep[1] for desc in catalog]).tolist()
    return [(desc.dim, DualVector(p, tuple(v)), desc) for desc, v in zip(catalog, vectors)]


def solve_heisenberg(R: RingSpec, k: int = 1) -> FaithfulSolution:
    H = HeisenbergGroup(R, k)
    sol = solve_pgroup(heisenberg_catalog_entries(H), R.p, R.d_invariant)
    sol.group = f"heisenberg k={k} over {R!r}"
    return sol


# -- explicit constructions ------------------------------------------


def heisenberg_basis_parameters(R: RingSpec) -> list[int]:
    """Indices of the central parameters b_ij = omega_i pi^j, i < f,
    j < xi, (i, j)-lexicographic, whose characters restrict to a basis of
    the dual of Omega_1."""
    return [R.basis_index(i * R.n + j) for i in range(R.f) for j in range(R.xi)]


def construct_faithful_heisenberg(R: RingSpec, k: int = 1) -> FaithfulSolution:
    """Direct sum over the basis parameters b_ij of the induced model
    with trivial orbit and stabilizer character.  Emits explicit
    monomial matrices and verifies the kernel when |G| is within
    group_cap()."""
    H = HeisenbergGroup(R, k)
    params = heisenberg_basis_parameters(R)
    vectors = socle_restriction(R, params).tolist()
    if not spans_dual(vectors, R):
        raise PoolDoesNotSpanError("basis parameters fail to span (internal error)")
    summands = []
    total = 0
    for t, digits in enumerate(R.digits(params).tolist()):
        j = t % R.xi  # b_ij has level j
        dim = R.q ** (k * (R.n - j))
        total += dim
        summands.append({"b": digits, "level": j, "dim": dim})
    expected = formula_heisenberg(R.p, R.f, R.e, R.n, k)
    assert total == expected, "construction total deviates from the closed form"
    reps = None
    verified = None
    if H.order <= group_cap():
        reps = [mackey_induced_rep(H, (0,) * k, b, (0,) * k) for b in params]
        assert [r.degree for r in reps] == [s["dim"] for s in summands]
        verified = DirectSumRep(reps).is_faithful()
    return FaithfulSolution(
        group=f"heisenberg k={k} over {R!r}",
        total_dim=total,
        summands=summands,
        certificate=[tuple(v) for v in vectors],
        reps=reps,
        verified_faithful=verified,
    )


def construct_faithful_two_step(G: AbstractGroup) -> FaithfulSolution:
    """Induced character from a maximal abelian subgroup A through a
    character chi1 faithful on the cyclic commutator subgroup B, plus r-1
    linear characters through G/B dual to a basis of the socle of the
    image of ker(chi1) on the center Z (ker(chi1) meets B trivially, so it
    maps into G/B injectively).  The sum's kernel meets the socle
    Omega_1(Z) inside ker(chi1), where the linear characters are jointly
    faithful, so not at all; in a p-group every nontrivial normal
    subgroup meets Omega_1(Z), so the kernel is trivial.  Each summand,
    linear ones included, is built by MonomialRep.induce, which checks its
    character exactly."""
    scan = structure_scan(G)
    target = formula_two_step(G, scan)
    Z, B, A = scan.center, scan.commutator, scan.maximal_abelian
    # chi1 on A: b -> zeta_|B| for a generator b of B
    b = next(g for g in B if G.element_orders[g] == len(B))
    MA, expsA = extend_character(G, [b], len(B), [1], A)
    rho = MonomialRep.induce(G, LinearChar(MA, A, expsA))
    assert rho.degree == G.order // len(A)
    assert rho.degree**2 == G.order // len(Z), (
        "maximal abelian does not sit halfway between center and group"
    )
    reps = [rho]
    Q, coset_of = G.quotient(B)
    kernel = sorted(set(coset_of[Z][expsA[np.searchsorted(A, Z)] == 0].tolist()))  # Z in A, both ascending
    basis = Q._span(g for g in kernel if Q.element_orders[g] == scan.p)[1]
    for unit in np.eye(len(basis), dtype=np.int64):
        MQ, expsQ = extend_character(Q, basis, scan.p, unit, range(Q.order))
        reps.append(MonomialRep.induce(G, LinearChar(MQ, range(G.order), expsQ[coset_of])))
    total = sum(rep.degree for rep in reps)
    assert total == target, f"construction reached {total}, closed form {target}"
    verified = DirectSumRep(reps).is_faithful()
    return FaithfulSolution(
        group=f"two-step table group of order {G.order}",
        total_dim=total,
        summands=[{"kind": "induced", "dim": rho.degree}]
        + [{"kind": "linear", "dim": 1} for _ in reps[1:]],
        reps=reps,
        verified_faithful=verified,
    )


def construct_faithful_affine(R: RingSpec) -> FaithfulSolution:
    """Induce the fixed primitive character of the translation subgroup
    up to Aff(R): a faithful model of dimension q^n - q^(n-1), with
    explicit matrices and a verified kernel when |G| is within
    group_cap()."""
    Aff = AffineGroup(R)
    target = formula_affine(R.p, R.f, R.n)
    summand = {"kind": "induced from translations", "dim": target}
    reps = None
    verified = None
    if Aff.order <= group_cap():
        trans = Aff.translations
        chi = LinearChar(character_weights(R)[0], trans, psi(R, Aff._decode(trans)[0]))
        rho = MonomialRep.induce(Aff, chi)
        assert rho.degree == target
        reps = [rho]
        verified = DirectSumRep(reps).is_faithful()
    return FaithfulSolution(
        group=f"affine over {R!r}",
        total_dim=target,
        summands=[summand],
        reps=reps,
        verified_faithful=verified,
    )


# -- cyclic-by-multipliers orbit bound -------------------------------


def orbit_lower_bound(modulus: int, multipliers, h_order: int | None = None):
    """(lower bound on m, whether the action is faithful).  For each prime
    power q exactly dividing modulus, a faithful representation has a
    constituent over a character of Z/modulus faithful on its q-part,
    whose orbit is at least the multiplier subgroup's image mod q.  A
    faithful character of Z/modulus induces a faithful representation of
    dimension [G : Z/modulus], so m equals the bound when the action is
    faithful and the bound is the whole subgroup, as for a prime power."""
    mults = multiplier_closure(modulus, multipliers)
    bound = max((len({u % p**k for u in mults}) for p, k in _factorize(modulus).items()), default=0)
    return bound, h_order is None or h_order == len(mults)


# -- the group families -----------------------------------------------


@dataclass(frozen=True)
class Family:
    """A group family for the CLI and oracle.cross_validate: spec name,
    parameter ``keys`` and ``defaults`` (a key without one is required),
    and callables on a FamilyInstance that build the ring (None: no
    ring) and table group, give |G| (building no group, but for a
    table), describe it, and run the family's ``routes``, which
    cross_validate runs before the two-step routes and the oracle (an
    ``orbit_bound`` route gives the orbit lower bound and whether the
    action is faithful); ``oracle`` says whether the oracle runs by
    default.  What each parameter's value takes is in VALUE_KINDS, and
    FamilyInstance checks it.  The callables look builders up when called, so a rebound
    module-level builder is the one run."""

    spec: str
    keys: tuple
    defaults: dict
    group: Callable
    order: Callable
    describe: Callable
    ring: Callable | None = None
    routes: dict = field(default_factory=dict)
    oracle: bool = True


def _ring(b) -> RingSpec:
    return make_ring(b.p, b.f, b.e, b.n)


def _semidirect(b) -> AbstractGroup:
    if b.h_order is None:
        return semidirect_cyclic(b.modulus, b.multipliers)
    return semidirect_cyclic_hom(b.modulus, b.multipliers[0], b.h_order)


def _semidirect_order(b) -> int:
    """|G| with the parameter checks of its build, and no table."""
    if b.h_order is None:
        return b.modulus * len(multiplier_closure(b.modulus, b.multipliers))
    if len(b.multipliers) != 1:
        raise ValueError(f"multipliers = {json.dumps(b.multipliers)}, not one multiplier, with h_order = {b.h_order}")
    return semidirect_hom_order(b.modulus, b.multipliers[0], b.h_order)


def _table_group(b) -> AbstractGroup:
    obj = b.table
    if isinstance(obj, str):  # a path to a JSON file
        with open(obj) as fh:
            obj = json.load(fh)
    return AbstractGroup.from_json(obj)


_RING_KEYS = ("p", "f", "e", "n")
_RING_DEFAULTS = {"f": 1, "e": 1, "n": 1}

FAMILIES = {
    "heisenberg": Family(
        "heis", _RING_KEYS + ("k",), {**_RING_DEFAULTS, "k": 1}, ring=_ring, oracle=False,
        group=lambda b: HeisenbergGroup(b.ring, b.k).to_abstract(),
        order=lambda b: HeisenbergGroup(b.ring, b.k).order,
        describe=lambda b: f"heis k={b.k} over {b.ring!r}",
        routes={
            "formula": lambda b: formula_heisenberg(b.ring.p, b.ring.f, b.ring.e, b.ring.n, b.k),
            "solver": lambda b: solve_heisenberg(b.ring, b.k),
            "construct": lambda b: construct_faithful_heisenberg(b.ring, b.k),
        },
    ),
    "unitriangular": Family(
        "unitri", _RING_KEYS + ("size",), _RING_DEFAULTS, ring=_ring, oracle=False,
        group=lambda b: UnitriangularGroup(b.ring, b.size).to_abstract(),
        order=lambda b: UnitriangularGroup(b.ring, b.size).order,
        describe=lambda b: f"unitri size={b.size} over {b.ring!r}",
        routes={
            "formula": lambda b: formula_unitriangular(b.ring.p, b.ring.f, b.ring.e, b.ring.n, b.size),
        },
    ),
    "affine": Family(
        "aff", _RING_KEYS, _RING_DEFAULTS, ring=_ring, oracle=False,
        group=lambda b: AffineGroup(b.ring).to_abstract(),
        order=lambda b: AffineGroup(b.ring).order,
        describe=lambda b: f"aff over {b.ring!r}",
        routes={
            "formula": lambda b: formula_affine(b.ring.p, b.ring.f, b.ring.n),
            "construct": lambda b: construct_faithful_affine(b.ring),
        },
    ),
    "gl2": Family(
        "gl2", ("p", "f"), {"f": 1}, ring=lambda b: make_ring(b.p, b.f, 1, 1),
        group=lambda b: general_linear_2(b.ring),
        order=lambda b: (b.ring.size**2 - 1) * (b.ring.size**2 - b.ring.size),
        describe=lambda b: f"gl2 over {b.ring!r}",
    ),
    "semidirect": Family(
        "semidirect", ("modulus", "multipliers", "h_order"), {"h_order": None},
        group=_semidirect,
        order=_semidirect_order,
        describe=lambda b: (
            f"Z/{b.modulus} by units {b.multipliers}"
            if b.h_order is None
            else f"Z/{b.modulus} by Z/{b.h_order} via {b.multipliers[0]}"
        ),
        routes={"orbit_bound": lambda b: orbit_lower_bound(b.modulus, b.multipliers, b.h_order)},
    ),
    "quaternion": Family(
        "quaternion", (), {},
        group=lambda b: quaternion_group(),
        order=lambda b: 8,
        describe=lambda b: "quaternion order 8",
    ),
    "table": Family(
        "table", ("table",), {},
        group=_table_group,
        order=lambda b: b.group.order,
        describe=lambda b: f"table from {b.table}",
    ),
}

# The two-step closed form and construction, for any table group.
TWO_STEP_ROUTES = {
    "formula": lambda b: formula_two_step(b.group),
    "construct": lambda b: construct_faithful_two_step(b.group),
}


_INT = (lambda v: type(v) is int, "an integer")
_FLAG = (lambda v: type(v) is bool, "true or false")

# What a value takes, by key, for the family parameters and the suite
# flags; a key not named here takes an integer.
VALUE_KINDS = {
    "e": (lambda v: type(v) is int or v == "inf", 'an integer or "inf"'),
    "multipliers": (lambda v: type(v) is list and bool(v) and all(type(m) is int for m in v), "a non-empty list of integers"),
    "h_order": (lambda v: v is None or type(v) is int, "an integer or null"),
    "table": (lambda v: isinstance(v, (str, dict)), "a path or a table object"),
    "oracle": _FLAG,
    "two_step": _FLAG,
    "pgroup_catalog": _FLAG,
}


class FamilyInstance:
    """A family's parameters, taken from a dict as attributes (family
    defaults filling in).  This is the one check of a group's parameters,
    for --group specs, subcommand flags and suite instances alike: it
    raises ValueError for an unknown family, then for keys in ``params``
    that are neither family parameters nor ``allowed``, then for missing
    required parameters, then for a value of the wrong kind (VALUE_KINDS).
    Last, it builds the ring and works out |G|, which checks the values
    (a table instance reads its table for that), raising
    RingParameterError for parameters that define no ring and ValueError
    for ones that define no group.  The group of the other families is
    built on first use."""

    def __init__(self, family: str, params: dict, allowed=()):
        fam = FAMILIES.get(family) if isinstance(family, str) else None
        if fam is None:
            raise ValueError(f"unknown family {family!r}")
        unknown = sorted(set(params) - set(fam.keys) - set(allowed))
        if unknown:
            raise ValueError(f"unknown keys {', '.join(unknown)}")
        missing = [key for key in fam.keys if key not in params and key not in fam.defaults]
        if missing:
            raise ValueError(f"missing keys {', '.join(missing)}")
        for key, value in params.items():
            test, want = VALUE_KINDS.get(key, _INT)
            if not test(value):
                raise ValueError(f"{key} = {json.dumps(value)}, not {want}")
        self.family = fam
        for key in fam.keys:
            setattr(self, key, params[key] if key in params else fam.defaults[key])
        self.ring = fam.ring(self) if fam.ring is not None else None
        self.order = fam.order(self)

    @cached_property
    def group(self) -> AbstractGroup:
        return self.family.group(self)
