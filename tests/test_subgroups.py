"""Subgroups of table groups against the plain algorithms they replaced.

The references below are kept on purpose: a Python-set closure, the
center as the rows of ``table == table.T``, the commutator subgroup as
the closure of all |G|^2 commutators, the maximal abelian subgroup that
centralises every element found so far, the quotient filled by two
loops over G x N, and one minimal normal witness per class from element
closures.  The fast code must give the same lists and arrays on every
fixture group and on random semidirect products, where the oracle's
minimum is also held to the orbit bound and the two-step closed form.
The coset closure ``_span`` is held to the set closure and a greedy over
it on generated groups, and induction to the subgroup its generators
generate."""

from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.chain_ring import INF, make_ring
from chainrep.exactrep import ChiNotHomomorphismError, LinearChar, MonomialRep
from chainrep.group_models import (
    AbstractGroup,
    HeisenbergGroup,
    UnitriangularGroup,
    multiplier_closure,
    semidirect_cyclic,
    semidirect_cyclic_hom,
)
from chainrep.minfaith_solver import formula_two_step, orbit_lower_bound
from chainrep.oracle import CharacterTable, min_faithful_exhaustive, minimal_normal_witnesses
from reference import induce_loop, word_values

# -- reference algorithms ----------------------------------------------


def ref_closure(G, seed):
    out = {G.identity}
    frontier = set(seed) - out
    out |= frontier
    while frontier:
        new = set()
        base = np.array(sorted(out), dtype=np.int64)
        for g in frontier:
            new |= set(G.table[base, g].tolist())
            new |= set(G.table[g, base].tolist())
        frontier = new - out
        out |= frontier
    return sorted(out)


def ref_greedy(G, seed, start=()):
    """The rows of seed kept by a greedy closure from the rows start:
    each that the closure of start and the rows kept before it lacks."""
    kept, closed = [], set(ref_closure(G, list(start)))
    for g in seed:
        if g not in closed:
            kept.append(g)
            closed = set(ref_closure(G, list(start) + kept))
    return kept


def ref_center(G):
    eq = G.table == G.table.T
    return [g for g in range(G.order) if eq[g].all()]


def ref_commutator_subgroup(G):
    n = G.order
    vals = set()
    chunk = max(1, 2_000_000 // n)
    allg = np.arange(n)
    for lo in range(0, n, chunk):
        x = allg[lo : lo + chunk, None]
        y = allg[None, :]
        conj = G.table[G.table[x, y], G.inverse[x]]
        vals |= set(np.unique(G.table[conj, G.inverse[y]]).tolist())
    return ref_closure(G, sorted(vals))


def ref_maximal_abelian(G):
    S = set(ref_closure(G, ref_center(G)))
    while True:
        extra = [g for g in G.centralizer(sorted(S)) if g not in S]
        if not extra:
            return sorted(S)
        S = set(ref_closure(G, sorted(S) + [min(extra)]))


def ref_quotient(G, normal_elems):
    """(quotient table, coset_of), or ValueError for a subgroup that is
    not normal."""
    nset = set(normal_elems)
    for g in range(G.order):
        for s in normal_elems:
            if G.table[G.table[g, s], G.inverse[g]] not in nset:
                raise ValueError("subgroup is not normal")
    coset_of = np.full(G.order, -1, dtype=np.int64)
    reps = []
    for g in range(G.order):
        if coset_of[g] >= 0:
            continue
        for s in normal_elems:
            coset_of[G.table[g, s]] = len(reps)
        reps.append(g)
    m = len(reps)
    qt = np.array(
        [[coset_of[G.table[reps[a], reps[b]]] for b in range(m)] for a in range(m)],
        dtype=np.int64,
    )
    return qt, coset_of


def ref_witnesses(T):
    G = T.group
    closures = {}
    for j in range(T.r):
        if j == T.identity_class:
            continue
        members = [int(g) for g in np.nonzero(T.class_of == j)[0]]
        closures[j] = frozenset(ref_closure(G, members))
    minimal = []
    for j, N in sorted(closures.items(), key=lambda kv: (len(kv[1]), kv[0])):
        if any(M < N for M in minimal):
            continue
        if N not in minimal:
            minimal.append(N)
    return sorted(min(j for j, Nc in closures.items() if Nc == N) for N in minimal)


def check_against_references(G, T):
    center, comm = ref_center(G), ref_commutator_subgroup(G)
    assert G.center == center
    assert G.commutator_subgroup == comm
    A, gens_A = G._maximal_abelian  # the rows that grew it generate it
    assert A == ref_maximal_abelian(G)
    assert ref_closure(G, gens_A) == A
    assert G._generator_inverses.tolist() == G.inverse[G.generators].tolist()
    for j in range(T.r):
        members = np.nonzero(T.class_of == j)[0].tolist()
        assert np.flatnonzero(G._span(members)[0]).tolist() == ref_closure(G, members)
    for N in (center, comm):
        Q, coset_of = G.quotient(G._span(N)[1])
        qt, ref_coset_of = ref_quotient(G, N)
        assert np.array_equal(Q.table, qt)
        assert np.array_equal(coset_of, ref_coset_of)
    assert minimal_normal_witnesses(T) == ref_witnesses(T)


def test_subgroups_match_references(group_names, table):
    for name in group_names:
        T = table(name)
        check_against_references(T.group, T)


def test_quotient_rejects_a_subgroup_that_is_not_normal(group):
    G = group("s3")
    flip = next(g for g in range(G.order) if G.element_orders[g] == 2)
    sub = np.flatnonzero(G._span([flip])[0]).tolist()
    for quotient in (lambda: G.quotient([flip]), lambda: ref_quotient(G, sub)):
        with pytest.raises(ValueError, match="not normal"):
            quotient()


# -- random semidirect products ----------------------------------------


@st.composite
def semidirect_cases(draw):
    """orbit_lower_bound arguments (modulus, multipliers, h_order): Z/modulus
    by the unit subgroup the multipliers generate (h_order None), or by
    Z/h_order through one unit whose order divides h_order."""
    modulus = draw(st.integers(2, 16), label="modulus")
    units = [u for u in range(1, modulus) if gcd(u, modulus) == 1]
    if draw(st.booleans(), label="hom"):
        m = draw(st.sampled_from(units), label="multiplier")
        order = next(t for t in range(1, modulus + 1) if pow(m, t, modulus) == 1)
        # at most three times the faithful order, and |G| up to about 100
        # where that allows more than one multiple: the table's exact check
        # grows like classes^3 * exponent^2
        most = max(1, min(3, 100 // (modulus * order)))
        return modulus, (m,), order * draw(st.integers(1, most), label="h_order / order")
    return modulus, tuple(draw(st.lists(st.sampled_from(units), min_size=1, max_size=2), label="multipliers")), None


@lru_cache(maxsize=None)
def semidirect_table(modulus, multipliers, h_order):
    if h_order is None:
        return CharacterTable(semidirect_cyclic(modulus, multipliers))
    return CharacterTable(semidirect_cyclic_hom(modulus, multipliers[0], h_order))


def semidirect_property(test):
    """50 examples, the same for every property (one pinned seed), so
    the character tables are built once."""
    return seed(20151002)(settings(max_examples=50, derandomize=True, deadline=None, database=None)(
        given(semidirect_cases())(test)))


@semidirect_property
def test_semidirect_subgroups_match_references(case):
    T = semidirect_table(*case)
    check_against_references(T.group, T)


@semidirect_property
def test_semidirect_oracle_meets_orbit_bound(case):
    # the oracle's m is at least the orbit bound, equals it when the
    # action is faithful and the bound is the whole multiplier subgroup
    # (always so for a prime-power modulus), and equals the two-step
    # closed form where that applies: a two-step p-group with cyclic
    # commutator subgroup and square index
    T = semidirect_table(*case)
    m, _ = min_faithful_exhaustive(T)
    bound, faithful = orbit_lower_bound(*case)
    assert m >= bound
    if faithful and bound == len(multiplier_closure(*case[:2])):
        assert m == bound
    try:
        two_step = formula_two_step(T.group)
    except ValueError:  # NotTwoStepError, CommutatorNotCyclicError, NonSquareIndexError
        return
    assert m == two_step


def test_orbit_bound_for_a_composite_modulus():
    # Z/15 by all its units is S_3 x F_20, so m = 2 + 4 = 6: fewer than
    # the 8 units, and at least their largest image, mod 5
    m, _ = min_faithful_exhaustive(semidirect_table(15, (2, 7), None))
    assert m == 6
    assert orbit_lower_bound(15, [2, 7]) == (4, True)


# -- coset closure and induction's subgroup check on generated groups --

# small pattern groups: Hei(F_2), Hei(F_3), Hei(Z/4), Hei(F_4), Hei_5(F_2),
# U_4(F_2) and U_3(Z/4), of orders 8 to 64
PATTERN_GROUPS = [
    (HeisenbergGroup, (2, 1, INF, 1), 1), (HeisenbergGroup, (3, 1, INF, 1), 1),
    (HeisenbergGroup, (2, 1, 1, 2), 1), (HeisenbergGroup, (2, 2, INF, 1), 1),
    (HeisenbergGroup, (2, 1, INF, 1), 2), (UnitriangularGroup, (2, 1, INF, 1), 4),
    (UnitriangularGroup, (2, 1, 1, 2), 3),
]


@st.composite
def small_groups(draw):
    """A semidirect_cyclic_hom of order at most 240, a small pattern group
    on its law, or either relabelled by a random permutation as a dense
    table group, whose identity may then be any row."""
    if draw(st.booleans(), label="semidirect"):
        modulus = draw(st.integers(2, 30), label="modulus")
        m = draw(st.sampled_from([u for u in range(1, modulus) if gcd(u, modulus) == 1]), label="multiplier")
        order = next(t for t in range(1, modulus + 1) if pow(m, t, modulus) == 1)
        h = order * draw(st.integers(1, max(1, 240 // (modulus * order))), label="h_order / order")
        G = semidirect_cyclic_hom(modulus, m, h)
    else:
        family, params, arg = draw(st.sampled_from(PATTERN_GROUPS), label="pattern group")
        G = family(make_ring(*params), arg)
    if draw(st.booleans(), label="relabel"):
        perm = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="perm seed")).permutation(G.order)
        table = np.empty_like(G.table)
        table[np.ix_(perm, perm)] = perm[G.table]
        G = AbstractGroup(table)
    return G


def subgroup_property(test):
    """40 examples from one pinned seed."""
    return seed(20151003)(settings(max_examples=40, derandomize=True, deadline=None, database=None)(
        given(st.data())(test)))


def _rows(data, G, label):
    return data.draw(st.lists(st.integers(0, G.order - 1), max_size=6), label=label)


@subgroup_property
def test_span_matches_set_closure_and_greedy(data):
    # with and without a base, from a list, an array or an iterator
    G = data.draw(small_groups(), label="group")
    base_rows, rows = _rows(data, G, "base rows"), _rows(data, G, "rows")
    form = data.draw(st.sampled_from([list, np.array, iter]), label="seed form")
    mask, gens = G._span(form(rows))
    assert np.flatnonzero(mask).tolist() == ref_closure(G, rows)
    assert gens == ref_greedy(G, rows)
    base = G._span(base_rows)
    assert base[1] == ref_greedy(G, base_rows)
    mask, gens = G._span(form(rows), base)
    assert np.flatnonzero(mask).tolist() == ref_closure(G, base_rows + rows)
    assert gens == ref_greedy(G, base_rows) + ref_greedy(G, rows, base_rows)


@subgroup_property
def test_induce_checks_the_given_generators(data):
    # induction is from the subgroup the generators generate: the greedy
    # generators of a subgroup S, the same with a repeat, and with one row
    # x outside S added give [G : S] cosets, or [G : <S, x>].  Random
    # values at them are a character, and then induce as the loop on the
    # values of words in them, or are refused
    G = data.draw(small_groups(), label="group")
    mask, gens = G._span(_rows(data, G, "rows"))

    def degree(gens):
        return MonomialRep.induce(G, LinearChar(1, gens, [0] * len(gens))).degree

    assert degree(gens) == degree(gens + gens[:1]) == G.order // int(mask.sum())
    if not mask.all():
        x = int(np.argmin(mask))
        assert degree(gens + [x]) == G.order // len(ref_closure(G, gens + [x]))
    m = data.draw(st.integers(1, 4), label="order")
    chi = LinearChar(m, gens, data.draw(st.lists(st.integers(0, m - 1), min_size=len(gens), max_size=len(gens)), label="values"))
    if word_values(G, chi) is None:
        with pytest.raises(ChiNotHomomorphismError):
            MonomialRep.induce(G, chi)
    else:
        rho, (sigma, exps) = MonomialRep.induce(G, chi), induce_loop(G, chi)
        assert np.array_equal(rho.sigma, sigma) and np.array_equal(rho.exps, exps)
