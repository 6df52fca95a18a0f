"""Shared fixtures: memoized system builders."""
import pytest

from fischerlab import catalog, fischer


@pytest.fixture(scope="session")
def system_factory():
    """Build (and memoize) a TranspositionSystem from a descriptor string."""
    cache = {}

    def build(descriptor):
        if descriptor not in cache:
            entry = catalog.from_descriptor(descriptor)
            cache[descriptor] = fischer.build_system(entry.generators, entry.seed)
        return cache[descriptor]

    return build
