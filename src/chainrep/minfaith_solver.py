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
from dataclasses import asdict, dataclass, field, is_dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .chain_ring import CapExceededError, RingSpec, _factorize, make_ring
from .char_duality import (
    DualVector,
    NotSpanningError,
    basis_greedy,
    character_weights,
    psi,
    socle_restriction,
    spans_dual,
)
from .exactrep import InducedSum, LinearChar
from .group_models import (
    AbstractGroup,
    AffineGroup,
    HeisenbergGroup,
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
from .mackey_irreps import central_irreps, extended_character


class NotTwoStepError(ValueError):
    pass


class CommutatorNotCyclicError(ValueError):
    pass


class NonSquareIndexError(ValueError):
    pass


class PoolDoesNotSpanError(NotSpanningError):
    pass


class ConstructionCheckError(AssertionError):
    """A construction that fails a check: its summands off the closed
    form or the structure, its models off the summands, or their sum not
    faithful.  Raised explicitly, so python -O keeps the check."""


def _check(ok, message: str) -> None:
    if not ok:
        raise ConstructionCheckError(message)


# -- closed forms -----------------------------------------------------


def formula_heisenberg(p: int, f: int, e, n: int, k: int = 1) -> int:
    """sum_{i<xi} f * q^(k(n-i)) for Hei_{2k+1}(R)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    R = make_ring(p, f, e, n)
    return sum(f * R.q ** (k * (n - i)) for i in range(R.xi))


def formula_unitriangular(p: int, f: int, e, n: int, size: int) -> int:
    """m(U_{k+2}(R)) = m(Hei_{2k+1}(R)) for matrix size k+2, in every
    residue characteristic.  Lower bound: Hei_{2k+1}(R) is the subgroup
    of U_{k+2}(R) on the pattern of the first row, the last column and
    the corner (HeisenbergGroup's positions).  Upper bound: for each
    basis parameter b of R.additive_generators(), psi(b g_{1,k+2}) is
    a character of S_b = {g : g_{1j} in Ann(b) for 1 < j < k+2}, since b
    kills the cross terms of the corner entry, and its induced
    representation has degree [U : S_b] = |R/Ann(b)|^k.  The centre is
    the corner, inside every S_b, where the induced sum restricts to
    copies of psi(b .), which are jointly faithful there; a nontrivial
    normal subgroup of a p-group meets the centre, so the sum is
    faithful, and its degree is the Heisenberg sum.  No step halves.
    Sizes from 2: U_2(R) is (R, +), whose minimum is its generator count
    f * xi, the sum at k = 0."""
    if size < 2:
        raise ValueError("matrix size must be >= 2")
    if size == 2:
        return make_ring(p, f, e, n).d_invariant
    return formula_heisenberg(p, f, e, n, k=size - 2)


def formula_affine(p: int, f: int, n: int) -> int:
    """q^n - q^(n-1): the unit count of the ring."""
    q = p**f
    return q**n - q ** (n - 1)


def formula_two_step(G: AbstractGroup, scan: AbstractGroup | None = None) -> int:
    """sqrt([G:Z]) + d'(Z) - 1 for a two-step p-group with cyclic
    commutator subgroup, from the facts of scan = structure_scan(G), G itself."""
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
    dimension, and, when its kernel was checked trivial, ``models``,
    which makes the explicit monomial models that ``reps`` gives, made
    on its first read."""

    group: str
    total_dim: int
    summands: list
    certificate: list | None = None
    models: Callable | None = field(default=None, repr=False)
    verified_faithful: bool | None = None

    @cached_property
    def reps(self) -> list | None:
        return None if self.models is None else self.models()

    def to_json(self) -> dict:
        out = {
            "group": self.group,
            "total_dim": self.total_dim,
            "summands": [asdict(s) if is_dataclass(s) else s for s in self.summands],
        }
        if self.certificate is not None:
            out["certificate"] = [list(v) for v in self.certificate]
        if self.verified_faithful is not None:
            out["verified_faithful"] = self.verified_faithful
        return out


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
    return FaithfulSolution(
        group="p-group catalog",
        total_dim=sum(dims[i] for i in chosen),
        summands=[entries[i][2] for i in chosen],
        certificate=[tuple(vecs[i].coords) for i in chosen],
    )


def heisenberg_catalog_entries(H: HeisenbergGroup):
    """(dim, DualVector, descriptor) per central parameter b: the first
    irreducible over b and the restriction of psi(b .) to Omega_1.  The
    other irreducibles over b repeat its dim and vector, and come after
    it in the catalog's order, so the greedy would never take them."""
    catalog = central_irreps(H)
    vectors = socle_restriction(H.ring, np.arange(len(catalog))).tolist()
    return [(desc.dim, DualVector(H.ring.p, tuple(v)), desc) for desc, v in zip(catalog, vectors)]


def solve_heisenberg(R: RingSpec, k: int = 1) -> FaithfulSolution:
    H = HeisenbergGroup(R, k)
    sol = solve_pgroup(heisenberg_catalog_entries(H), R.p, R.d_invariant)
    sol.group = f"heisenberg k={k} over {R!r}"
    return sol


# -- explicit constructions ------------------------------------------


def _induced_sum(name, G, summands, target, characters, certificate=None) -> FaithfulSolution:
    """The one checked path of every construction: the summands' dims,
    read off the structure of G, must total the closed form ``target``;
    when |G| is within the group cap, characters() gives the linear
    characters whose inductions are the models, checked by InducedSum
    with no model built: their degrees must be the dims, and their sum
    must be faithful, that is the cores of the characters' kernels must
    meet in the identity.  A failed check raises ConstructionCheckError:
    verified_faithful is True, or None past the cap, where no character
    is checked.  The models are induced when ``reps`` is first read."""
    dims = [s["dim"] for s in summands]
    _check(sum(dims) == target, f"{name}: summands total {sum(dims)}, closed form {target}")
    if G.order > group_cap():
        return FaithfulSolution(name, sum(dims), summands, certificate)
    induced = InducedSum(G, characters())
    _check(induced.degrees == dims, f"{name}: model degrees {induced.degrees}, summand dims {dims}")
    _check(induced.is_faithful(), f"{name}: the sum of the models has a nontrivial kernel")
    return FaithfulSolution(name, sum(dims), summands, certificate, induced.models, True)


def construct_faithful_heisenberg(R: RingSpec, k: int = 1) -> FaithfulSolution:
    """Direct sum over the basis parameters b_ij (R.additive_generators())
    of the induced model with trivial orbit and stabilizer character, of
    degree q^(k(n-j)) at level j."""
    H, name = HeisenbergGroup(R, k), f"heisenberg k={k} over {R!r}"
    params = R.additive_generators()
    vectors = socle_restriction(R, params).tolist()
    _check(spans_dual(vectors, R), f"{name}: basis parameters fail to span")
    summands = [{"b": digits, "level": t % R.xi, "dim": R.q ** (k * (R.n - t % R.xi))}  # b_ij has level j
                for t, digits in enumerate(R.digits(params).tolist())]
    return _induced_sum(name, H, summands, formula_heisenberg(R.p, R.f, R.e, R.n, k),
                        lambda: [extended_character(H, (0,) * k, b, (0,) * k) for b in params],
                        certificate=[tuple(v) for v in vectors])


def construct_faithful_two_step(G: AbstractGroup) -> FaithfulSolution:
    """Induced character from a maximal abelian subgroup A through a
    character chi1 faithful on the cyclic commutator subgroup B, plus r-1
    linear characters through G/B dual to a basis of the socle of the
    image of ker(chi1) on the center Z (ker(chi1) meets B trivially, so it
    maps into G/B injectively).  The sum's kernel meets the socle
    Omega_1(Z) inside ker(chi1), where the linear characters are jointly
    faithful, so not at all; in a p-group every nontrivial normal
    subgroup meets Omega_1(Z), so the kernel is trivial.  Each summand,
    linear ones included, is checked exactly as a character."""
    name = f"two-step table group of order {G.order}"
    target = formula_two_step(G)
    Z, B = G.center, G.commutator_subgroup
    A, gens_A = G._maximal_abelian  # with the rows that grew it
    index = G.order // len(A)
    _check(index**2 == G.order // len(Z), f"{name}: maximal abelian does not sit halfway between center and group")
    # chi1 on A: b -> zeta_|B| for a generator b of B
    b = B[int(np.argmax(G._walk(B)[0] == len(B)))]  # B is cyclic: it has one
    MA, expsA = extend_character(G, [b], len(B), [1], A)
    Q, coset_of = G.quotient([b])
    kernel = np.array(sorted(set(coset_of[Z][expsA[np.searchsorted(A, Z)] == 0].tolist())))  # Z in A, both ascending
    basis = Q._span(kernel[Q._walk(kernel)[0] == G.p])[1]

    def characters():
        chars = [LinearChar(MA, gens_A, expsA[np.searchsorted(A, gens_A)])]
        for unit in np.eye(len(basis), dtype=np.int64):  # values at the images of G's generators, which generate Q
            MQ, expsQ = extend_character(Q, basis, G.p, unit, coset_of[G.generators])
            chars.append(LinearChar(MQ, G.generators, expsQ))
        return chars

    summands = [{"kind": "induced", "dim": index}] + [{"kind": "linear", "dim": 1} for _ in basis]
    return _induced_sum(name, G, summands, target, characters)


def construct_faithful_affine(R: RingSpec) -> FaithfulSolution:
    """Induce the fixed primitive character of the translation subgroup
    up to Aff(R): a faithful model of degree [Aff(R) : R], the unit
    count q^n - q^(n-1).  The translations by the digit basis of R
    generate the translations, and psi takes its value at each."""
    Aff = AffineGroup(R)

    def characters():
        basis = R.ideal_basis(0)
        return [LinearChar(character_weights(R)[0], Aff._axis_rows({0: basis}), psi(R, basis))]

    summands = [{"kind": "induced from translations", "dim": Aff.order // R.size}]
    return _induced_sum(f"affine over {R!r}", Aff, summands, formula_affine(R.p, R.f, R.n), characters)


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
    table), describe it, and run the family's ``routes``, the first that
    routes() lists; ``oracle`` says whether the oracle runs by default.
    What each parameter's value takes is in VALUE_KINDS, and
    FamilyInstance checks it.  The callables look builders up when
    called, so a rebound module-level builder is the one run."""

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


def _oracle(b, pgroup_catalog: bool) -> dict:
    """The oracle's minimum on the group of b and the dims of its
    selection, then, given ``pgroup_catalog``, the greedy solver's minimum
    on the oracle's catalog."""
    from . import oracle as orc

    T = orc.CharacterTable(b.group)
    m, sel = orc.min_faithful_exhaustive(T)
    values = {"oracle": m, "oracle_selection_dims": [T.dims[c] for c in sel]}
    if pgroup_catalog:
        entries = orc.catalog_from_table(T)
        values["solver_catalog"] = solve_pgroup(entries, entries[0][1].p, len(entries[0][1].coords)).total_dim
    return values


def routes(b, flags: dict) -> list:
    """The ordered (key, mode, route) of every route that runs on the
    FamilyInstance b, which run_routes runs: the family's own routes,
    the two-step closed form and construction under ``two_step``, then
    the oracle under ``oracle`` (by default the family's), with the
    greedy solver on its catalog under ``pgroup_catalog``.  ``key`` names
    the value in verify, ``mode`` the minfaith --mode that runs it;
    route(b) looks its function up on this module when called."""
    found = [(key, key, route) for key, route in b.family.routes.items()]
    if flags.get("two_step", False):
        found += [("formula_two_step", "formula", lambda b: formula_two_step(b.group)),
                  ("construct_two_step", "construct", lambda b: construct_faithful_two_step(b.group))]
    if flags.get("oracle", b.family.oracle):
        found.append(("oracle", "oracle", lambda b: _oracle(b, flags.get("pgroup_catalog", False))))
    return found


@dataclass
class RouteRun:
    """What run_routes gives: the values by key, the notes, the last
    solution given, the failure that ended the run as "Type: message"
    (None if none), and the mode of every route listed, by key."""

    values: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    solution: FaithfulSolution | None = None
    error: str | None = None
    modes: dict = field(default_factory=dict)


def run_routes(b, flags: dict, mode: str = "all") -> RouteRun:
    """Run in order the routes of b that routes() lists for ``flags`` and
    ``mode`` selects ("all", or a route's mode).  A route gives the
    oracle's dict, a FaithfulSolution (a construction past the group cap
    built no models: noted), the orbit bound with whether the action is
    faithful (noted), or a value.  A route past a size cap
    (CapExceededError) is the note "<key> skipped: <reason>" in mode all;
    in any other mode it, like any other failure, is the error that ends
    the run."""
    found = routes(b, flags)
    run = RouteRun(modes={key: route_mode for key, route_mode, _ in found})
    for key, route_mode, route in found:
        if mode not in ("all", route_mode):
            continue
        try:
            out = route(b)
        except Exception as exc:  # a failed route is reported, not raised
            if isinstance(exc, CapExceededError) and mode == "all":
                run.notes.append(f"{key} skipped: {exc}")
                continue
            run.error = f"{type(exc).__name__}: {exc}"
            break
        if isinstance(out, dict):
            run.values.update(out)
        elif isinstance(out, FaithfulSolution):
            run.values[key] = out.total_dim
            run.solution = out
            if route_mode == "construct" and out.verified_faithful is None:
                run.notes.append(f"{key} not kernel-checked: |G| = {b.order} exceeds cap {group_cap()}")
        elif isinstance(out, tuple):
            run.values[key] = out[0]
            run.notes.append("action faithful" if out[1] else "action through a quotient")
        else:
            run.values[key] = out
    return run


def judge(run: RouteRun, expected=None) -> tuple:
    """(match, notes) of a run.  A run that failed does not match.
    Otherwise at least one route must give a value of m (orbit_bound and
    oracle_selection_dims are not), all equal, and equal to ``expected``
    when given; and the oracle may not fall below the orbit bound.  The
    notes are the run's, then why there is no value or the bound fails."""
    if run.error is not None:
        return False, run.notes
    m = {value for key, value in run.values.items() if key not in ("orbit_bound", "oracle_selection_dims")}
    below = run.values.get("oracle", math.inf) < run.values.get("orbit_bound", 0)
    notes = run.notes + ["no route gave a value"] * (not m) + ["oracle fell below the orbit lower bound"] * below
    return (len(m) == 1 if expected is None else m == {expected}) and not below, notes


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
