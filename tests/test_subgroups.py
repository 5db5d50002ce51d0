"""Subgroups of table groups against the plain algorithms they replaced.

The references below are kept on purpose: a Python-set closure, the
center as the rows of ``table == table.T``, the commutator subgroup as
the closure of all |G|^2 commutators, the maximal abelian subgroup that
centralises every element found so far, the quotient filled by two
loops over G x N, and one minimal normal witness per class from element
closures.  The fast code must give the same lists and arrays on every
fixture group and on random semidirect products, where the oracle's
minimum is also held to the orbit bound and the two-step closed form."""

from functools import lru_cache
from math import gcd

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from chainrep.group_models import (
    multiplier_closure,
    semidirect_cyclic,
    semidirect_cyclic_hom,
    structure_scan,
)
from chainrep.minfaith_solver import formula_two_step, orbit_lower_bound
from chainrep.oracle import CharacterTable, min_faithful_exhaustive, minimal_normal_witnesses

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
    assert structure_scan(G).maximal_abelian == ref_maximal_abelian(G)
    for j in range(T.r):
        members = np.nonzero(T.class_of == j)[0].tolist()
        assert np.flatnonzero(G._span(members)[0]).tolist() == ref_closure(G, members)
    for N in (center, comm):
        Q, coset_of = G.quotient(N)
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
    for quotient in (G.quotient, lambda N: ref_quotient(G, N)):
        with pytest.raises(ValueError, match="not normal"):
            quotient(sub)


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
