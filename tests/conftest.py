"""Shared fixtures: cached rings, groups, and character tables.

Everything expensive (table-backed groups, Dixon tables, the default
verification suite) is built once per session and shared across files.
"""

import random

import pytest

from chainrep.chain_ring import INF, make_ring
from chainrep.group_models import (
    AffineGroup,
    HeisenbergGroup,
    UnitriangularGroup,
    general_linear_2,
    quaternion_group,
    semidirect_cyclic,
    semidirect_cyclic_hom,
)
from chainrep.oracle import CharacterTable

RING_PARAMS = {
    "f2": (2, 1, INF, 1),
    "f3": (3, 1, INF, 1),
    "f4": (2, 2, INF, 1),
    "f5": (5, 1, INF, 1),
    "z4": (2, 1, 1, 2),
    "f2t2": (2, 1, INF, 2),
    "ram222": (2, 1, 2, 2),
    "z9": (3, 1, 1, 2),
    "gr42": (2, 2, 1, 2),
    "z8": (2, 1, 1, 3),
    "f3t2": (3, 1, INF, 2),
}

# name -> (ring name, k) for Heisenberg instances
HEIS_PARAMS = {
    "hei3_f2": ("f2", 1),
    "hei3_f3": ("f3", 1),
    "hei3_f4": ("f4", 1),
    "hei3_f5": ("f5", 1),
    "hei3_z4": ("z4", 1),
    "hei3_f2t2": ("f2t2", 1),
    "hei3_ram222": ("ram222", 1),
    "hei3_z9": ("z9", 1),
    "hei3_gr42": ("gr42", 1),
    "hei5_f2": ("f2", 2),
}


@pytest.fixture(scope="session")
def ring():
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = make_ring(*RING_PARAMS[name])
        return cache[name]

    return get


@pytest.fixture(scope="session")
def heis(ring):
    cache = {}

    def get(name):
        if name not in cache:
            rname, k = HEIS_PARAMS[name]
            cache[name] = HeisenbergGroup(ring(rname), k=k)
        return cache[name]

    return get


# name -> builder from the ``ring`` fixture, for the table groups that
# are not Heisenberg groups
GROUP_BUILDERS = {
    "d4": lambda ring: semidirect_cyclic(4, [3]),
    "q8": lambda ring: quaternion_group(),
    "m16": lambda ring: semidirect_cyclic(8, [5]),
    "m27": lambda ring: semidirect_cyclic(9, [4]),
    "d8_16": lambda ring: semidirect_cyclic(8, [7]),
    "z9_units": lambda ring: semidirect_cyclic(9, [2]),
    "z8_z4_hom": lambda ring: semidirect_cyclic_hom(8, 7, 4),
    "s3": lambda ring: semidirect_cyclic(3, [2]),
    "z8_cyclic": lambda ring: semidirect_cyclic(8, [1]),
    "gl2_f3": lambda ring: general_linear_2(make_ring(3, 1, 1, 1)),
    "z7_z16": lambda ring: semidirect_cyclic_hom(7, 1, 16),
    "u3_f3": lambda ring: UnitriangularGroup(ring("f3"), 3).to_abstract(),
    "u4_f3": lambda ring: UnitriangularGroup(ring("f3"), 4).to_abstract(),
    "aff_f3": lambda ring: AffineGroup(ring("f3")).to_abstract(),
    "aff_z4": lambda ring: AffineGroup(ring("z4")).to_abstract(),
    "aff_z9": lambda ring: AffineGroup(ring("z9")).to_abstract(),
    "aff_f4": lambda ring: AffineGroup(ring("f4")).to_abstract(),
}


# built by ``group`` but left out of ``group_names``, which the plain
# reference algorithms of test_subgroups run over: they take about 17 s
# on GL_2(F_7)
LARGE_BUILDERS = {
    "gl2_f7": lambda ring: general_linear_2(make_ring(7, 1, 1, 1)),
    "u5_f2": lambda ring: UnitriangularGroup(ring("f2"), 5).to_abstract(),
}


@pytest.fixture(scope="session")
def group_names():
    """Every name the ``group`` fixture builds, but LARGE_BUILDERS."""
    return list(GROUP_BUILDERS) + list(HEIS_PARAMS)


@pytest.fixture(scope="session")
def group(ring, heis):
    """Cached AbstractGroup instances by short name."""
    cache = {}

    def get(name):
        if name not in cache:
            builder = GROUP_BUILDERS.get(name) or LARGE_BUILDERS.get(name)
            if builder is not None:
                cache[name] = builder(ring)
            else:
                cache[name] = heis(name).to_abstract()
        return cache[name]

    return get


@pytest.fixture(scope="session")
def table(group):
    """Cached Dixon character tables by group name."""
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = CharacterTable(group(name))
        return cache[name]

    return get


@pytest.fixture(scope="session")
def make_abelian():
    """Direct products of cyclic groups as table-backed groups."""
    from chainrep.group_models import AbstractGroup

    cache = {}

    def get(orders):
        orders = tuple(orders)
        if orders not in cache:
            els = [()]
            for m in orders:
                els = [e + (c,) for e in els for c in range(m)]
            pos = {e: i for i, e in enumerate(els)}
            size = len(els)
            tab = [
                [pos[tuple((a + b) % m for a, b, m in zip(x, y, orders))] for y in els]
                for x in els
            ]
            cache[orders] = AbstractGroup(tab, names=els)
        return cache[orders]

    return get


@pytest.fixture(scope="session")
def suite_report():
    from chainrep.cli import load_default_suite
    from chainrep.oracle import cross_validate

    return cross_validate(load_default_suite())


@pytest.fixture
def rng():
    return random.Random(0x5EED)
