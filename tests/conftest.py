"""Shared fixtures: memoized system builders, a conjugation-table corruptor
and the group and center orders of a system."""
import pytest

from fischerlab import catalog, fischer, groups


@pytest.fixture(scope="session")
def system_factory():
    """Build (and memoize) a TranspositionSystem from a descriptor string."""
    cache = {}

    def build(descriptor):
        if descriptor not in cache:
            entry = catalog.from_descriptor(descriptor)
            cache[descriptor] = fischer.build_system(entry.generators)
        return cache[descriptor]

    return build


@pytest.fixture(scope="session")
def with_conj_entry():
    """A copy of a system whose conjugation table has conj[i][j] = value."""

    def corrupt(system, i, j, value):
        conj = list(system.conj)
        conj[i] = list(conj[i])
        conj[i][j] = value
        return fischer.TranspositionSystem(system.involutions, conj, system.generator_axes)

    return corrupt


@pytest.fixture(scope="session")
def orders():
    """(|G|, |Z(G)|) of a system without enumerating G: |G| by Schreier-Sims
    on a faithful permutation action, and Z(G) as the kernel of the class
    action, as D is the class of the generators and so G = <D>."""

    def orders(system):
        order = groups.group_order(system.generators)
        return order, order // system.class_action_order()

    return orders
