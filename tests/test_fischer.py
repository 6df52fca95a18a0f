"""Fischer graphs: adjacency, the orbit partition and its components, triple
classification, H detection."""
import itertools

import pytest

from fischerlab import catalog, groups
from fischerlab.fischer import (
    IrregularComponentError,
    NotThreeTranspositionError,
    TranspositionSystem,
    UnexpectedSubgroupError,
    build_system,
    components,
    detect_H_triple,
    extract_H,
    to_dot,
    valency,
)
from fischerlab.groups import FpMatrix, Permutation


def t(n, i, j):
    return Permutation.from_cycles(n, [(i, j)])


def oracle_conj(involutions):
    """The direct formula: row i of the table is index[t_i t_j t_i]."""
    index = {x.key: i for i, x in enumerate(involutions)}
    mul = involutions[0].key_mul()
    return tuple(
        tuple(index[mul(mul(x.key, y.key), x.key)] for y in involutions)
        for x in involutions
    )


def orbits_under_all_rows(sys):
    """The orbits of the class under all n rows of the table, each a sorted
    tuple, in the order of their least axes."""
    orbits, reached = [], set()
    for r in range(sys.size):
        if r not in reached:
            orbit = groups.closure([r], lambda v: [row[v] for row in sys.conj])
            orbits.append(tuple(sorted(orbit)))
            reached.update(orbit)
    return tuple(orbits)


def count_carrier_products(monkeypatch, carrier):
    """A list that gains one entry per product made by either key multiplier
    of the carrier class, and one per conjugate g*x*g made by its
    conjugation kernel ``key_conj``."""
    calls = []

    def counting(make_mul):
        def wrapped(self):
            mul = make_mul(self)

            def counted(a, b):
                calls.append(1)
                return mul(a, b)
            return counted
        return wrapped

    def counting_conj(make_conj):
        def wrapped(self, gens):
            encode, decode, conj = make_conj(self, gens)

            def counted(x):
                calls.extend([1] * len(gens))
                return conj(x)
            return encode, decode, counted
        return wrapped

    for name in ("key_mul", "key_row_mul"):
        monkeypatch.setattr(carrier, name, counting(getattr(carrier, name)))
    monkeypatch.setattr(carrier, "key_conj", counting_conj(carrier.key_conj))
    return calls


# Every descriptor the catalog advertises; all have at most 136 axes.
# O4+(2) has two components, hence two orbits.
CATALOG = (
    [f"symmetric:n={n}" for n in range(2, 13)]
    + [f"symplectic-f2:n={n}" for n in range(1, 4)]
    + [f"orthogonal-f2:dim={d},eps={e}" for d in (4, 6, 8) for e in "+-"]
    + [f"orthogonal-f3:dim={d},sign={e}" for d in (3, 4, 5) for e in "+-"]
    + [f"weyl:type=A,rank={r}" for r in range(1, 8)]
    + [f"weyl:type=D,rank={r}" for r in range(4, 7)]
    + [f"weyl:type=E,rank={r}" for r in range(6, 9)]
)


class TestBuildSystem:
    def test_symmetric_4(self, system_factory):
        sys = system_factory("symmetric:n=4")
        assert sys.size == 6
        # (0 1) and (2 3) commute; (0 1) and (1 2) braid
        a = sys.involutions.index(t(4, 0, 1))
        b = sys.involutions.index(t(4, 2, 3))
        c = sys.involutions.index(t(4, 1, 2))
        assert not sys.adjacent(a, b)
        assert sys.adjacent(a, c)
        assert sys.involutions[sys.conj[a][c]] == t(4, 0, 2)

    def test_rejects_order_4_product(self):
        a = t(4, 0, 1)
        b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
        assert (a * b).order() == 4
        with pytest.raises(NotThreeTranspositionError) as info:
            build_system([a, b])
        assert info.value.order == 4
        # The rejected pair is the first one the oracle table rejects.
        involutions, _ = groups.conjugacy_closure([a, b])
        conj = oracle_conj(involutions)
        n = len(conj)
        bad = [(i, j) for i in range(n) for j in range(i + 1, n)
               if conj[i][j] not in (j, conj[j][i])]
        assert info.value.pair == bad[0]

    def test_rejects_product_of_order_above_512(self):
        # Reflections x -> -x and x -> 1 - x of Z/515: their product is a
        # rotation of order 515, which the verdict names in full.
        m = 515
        a = Permutation([-x % m for x in range(m)])
        b = Permutation([(1 - x) % m for x in range(m)])
        assert (a * b).order() == 515
        with pytest.raises(NotThreeTranspositionError) as info:
            build_system([a, b], [a], max_axes=1000)
        assert info.value.pair == (0, 1)
        assert info.value.order == 515

    def test_conjugate_left_the_class(self, orders):
        # The class of (0 1) alone is D = {(0 1)}, which does not hold the
        # seed (1 2): the build names the seed.
        with pytest.raises(
            groups.GroupError,
            match=r"^seed Permutation\(\(1, 2\)\) is not in the class of the "
            r"generators$",
        ):
            build_system([t(3, 0, 1)], [t(3, 1, 2)])
        # With (1 2) a generator too, D holds all three and G = S3.
        sys = build_system([t(3, 0, 1), t(3, 1, 2)], [t(3, 1, 2)])
        assert sys.size == 3
        assert orders(sys) == (6, 1)

    @pytest.mark.parametrize("descriptor", CATALOG)
    def test_conj_table_matches_oracle(self, system_factory, descriptor):
        sys = system_factory(descriptor)
        assert sys.conj == oracle_conj(sys.involutions)

    @pytest.mark.parametrize("generators, seed", [
        # a seed that is not a generator; the generators' rows reach it
        ([t(5, i, i + 1) for i in range(4)], [t(5, 1, 3)]),
        # a repeated generator and a seed that is not one
        ([t(5, 0, 1), t(5, 1, 2), t(5, 0, 1), t(5, 2, 3)], [t(5, 1, 3)]),
        # every class member a generator: no row is derived
        ([t(4, i, j) for i in range(4) for j in range(i + 1, 4)], [t(4, 2, 3)]),
        # two orbits, {(0 1), (1 2), (0 2)} and {(3 4)}, each with a generator
        ([t(5, 0, 1), t(5, 1, 2), t(5, 3, 4)], [t(5, 3, 4), t(5, 0, 1)]),
    ])
    def test_conj_table_matches_oracle_off_catalog(self, generators, seed):
        sys = build_system(generators, seed)
        assert sys.conj == oracle_conj(sys.involutions)

    @pytest.mark.parametrize("generators, seed, error, message", [
        # one non-involution generator, one generator in the class
        ([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]), t(5, 0, 1)], [t(5, 1, 3)],
         groups.StructuralError,
         r"^generator element is not an involution: Permutation\(\(0, 1, 2, 3, 4\)\)$"),
        # no generator in the class
        ([Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]),
          Permutation.from_cycles(5, [(0, 1, 2, 3)])], [t(5, 1, 3)],
         groups.StructuralError,
         r"^generator element is not an involution: Permutation\(\(0, 1, 2, 3, 4\)\)$"),
        # two orbits, {(0 1), (1 2), (0 2)} and {(3 4)}, neither with a generator
        ([Permutation.from_cycles(5, [(0, 1, 2)])], [t(5, 3, 4), t(5, 0, 1)],
         groups.StructuralError,
         r"^generator element is not an involution: Permutation\(\(0, 1, 2\)\)$"),
        # The seed (0 2) is outside D = {(0 1)}, the class of the generator.
        # The closure of the seed, {(1 2), (0 1), (0 2)}, would give G = <(0 1)>
        # a class action with |Z(G)| = 1 where Z(G) = G has order 2.
        ([t(3, 0, 1)], [t(3, 0, 1), t(3, 0, 2)], groups.GroupError,
         r"^seed Permutation\(\(0, 2\)\) is not in the class of the generators$"),
    ], ids=["cycle-and-class-member", "no-class-member", "two-orbits", "wrong-center"])
    def test_rejects_generators_that_are_not_the_class(
        self, generators, seed, error, message
    ):
        with pytest.raises(error, match=message):
            build_system(generators, seed)

    def test_carrier_products_bounded_by_class_times_generators(self, monkeypatch):
        # The closure makes one conjugate per class member and generator,
        # through the translate kernel, and the build itself makes none.
        calls = count_carrier_products(monkeypatch, Permutation)
        entry = catalog.from_descriptor("weyl:type=E,rank=8")
        sys = build_system(entry.generators)
        assert sys.size * len(entry.generators) == 960
        assert len(calls) == 960

    def test_orthogonal_carrier_products_bounded(self, monkeypatch):
        # O8-(2) from its small generating set: at most 2*dim generators, so
        # at most 2 * n * 2*dim products in the closure (whole class: 2n^2).
        # A matrix conjugate counts once in the kernel and once for each of
        # its two key products; the involution check squares each of the 10
        # generators once more.
        calls = count_carrier_products(monkeypatch, FpMatrix)
        entry = catalog.from_descriptor("orthogonal-f2:dim=8,eps=-")
        sys = build_system(entry.generators)
        assert sys.size == 136
        assert len(entry.generators) == 10
        assert len(calls) == 3 * sys.size * 10 + 10
        assert len(calls) <= 2 * sys.size * 2 * 8 == 4352

    def test_axis_cap(self):
        gens = [t(6, i, i + 1) for i in range(5)]
        with pytest.raises(groups.EnumerationCapError) as info:
            build_system(gens, [gens[0]], max_axes=10)
        # The closure stops at the first involution past the cap, not at 15.
        assert (info.value.cap, info.value.reached) == (10, 11)

    @pytest.mark.parametrize("descriptor", [
        "symmetric:n=5", "orthogonal-f2:dim=6,eps=-", "orthogonal-f3:dim=5",
        "weyl:type=E,rank=6",
    ])
    def test_conj_table_matches_products(self, system_factory, descriptor):
        # Oracle: the carrier's own multiplication and element order.
        sys = system_factory(descriptor)
        invs = sys.involutions
        for i in range(sys.size):
            for j in range(sys.size):
                assert invs[sys.conj[i][j]] == invs[i] * invs[j] * invs[i]
                order = (invs[i] * invs[j]).order()
                assert sys.adjacent(i, j) == (order == 3)


class TestFrozenSystem:
    """A system names its members by index: the class, the table and the
    generator axes are tuples set by the constructor alone."""

    def test_fields_cannot_be_edited_in_place(self, system_factory):
        s = system_factory("symmetric:n=4")
        assert all(type(f) is tuple for f in (s.involutions, s.conj, s.generator_axes))
        with pytest.raises(AttributeError):
            s.involutions.reverse()
        # generators is read off the axes: editing the list it returns
        # changes neither the axes nor the orbits read from them.
        axes, orbits = s.generator_axes, tuple(map(tuple, s.orbits))
        s.generators.append(s.involutions[0])
        assert (s.generator_axes, s.orbits) == (axes, orbits)
        assert s.generators == [s.involutions[g] for g in axes]
        with pytest.raises(AttributeError):
            s.generators = []

    def test_adjacency_views_cannot_be_edited_in_place(self):
        # A fresh S4: the neighbours of an axis and the orbits are tuples, so
        # an edit in place raises instead of changing a later valency or
        # component verdict.
        s = build_system(catalog.from_descriptor("symmetric:n=4").generators)
        assert type(s.neighbor_masks) is tuple
        assert all(type(mask) is int for mask in s.neighbor_masks)
        assert type(s.orbits) is type(s.orbits[0]) is type(s.neighbors(0)) is tuple
        before = (valency(s, s.orbits[0]), components(s))
        assert before == (4, ((0, 1, 2, 3, 4, 5),))
        with pytest.raises(AttributeError):
            s.neighbors(0).append(3)
        with pytest.raises(AttributeError):
            s.orbits[0].append(0)
        assert (valency(s, s.orbits[0]), components(s)) == before

    def test_axes_are_sorted_and_distinct(self, system_factory):
        s = system_factory("orthogonal-f2:dim=4,eps=+")
        assert TranspositionSystem(s.involutions, s.conj, [5, 3, 5]).generator_axes == (3, 5)

    @pytest.mark.parametrize("generators", [
        [t(5, 2, 3), t(5, 0, 1), t(5, 2, 3), t(5, 1, 2)],
        catalog.from_descriptor("orthogonal-f2:dim=4,eps=+").generators,
        catalog.from_descriptor("orthogonal-f3:dim=5").generators,
    ], ids=["repeated-permutations", "O4+(2)", "O5(3)"])
    def test_build_system_axes_are_the_generators_in_the_class(self, generators):
        # Oracle: the position of each generator in the class, found by
        # carrier equality.
        s = build_system(generators)
        assert s.generator_axes == tuple(sorted({s.involutions.index(g) for g in generators}))
        assert s.generators == sorted(set(generators), key=s.involutions.index)


def assert_adjacency_matches_oracle(sys):
    """``neighbor_masks``, ``neighbors`` and ``valency`` against neighbour
    lists read off the table entry by entry."""
    oracle = [[j for j, c in enumerate(row) if c != j] for row in sys.conj]
    assert sys.neighbor_masks == tuple(sum(1 << j for j in nb) for nb in oracle)
    assert [list(sys.neighbors(i)) for i in range(sys.size)] == oracle
    assert [valency(sys, [i]) for i in range(sys.size)] == [len(nb) for nb in oracle]
    degrees = {len(nb) for nb in oracle}
    if len(degrees) == 1:
        assert valency(sys, range(sys.size)) == degrees.pop()
    else:
        with pytest.raises(IrregularComponentError):
            valency(sys, range(sys.size))


class TestNeighborMasks:
    @pytest.mark.parametrize("descriptor", CATALOG)
    def test_catalog_adjacency_matches_oracle(self, system_factory, descriptor):
        assert_adjacency_matches_oracle(system_factory(descriptor))

    def test_every_single_entry_corruption_matches_oracle(
        self, system_factory, with_conj_entry
    ):
        # The masks follow the rule of ``adjacent``, conj[i][j] != j, also
        # where the table is not a valid conjugation table.
        system = system_factory("symmetric:n=4")
        n = system.size
        compared = 0
        for i, j, value in itertools.product(range(n), repeat=3):
            if system.conj[i][j] != value:
                assert_adjacency_matches_oracle(with_conj_entry(system, i, j, value))
                compared += 1
        assert compared == n * n * (n - 1)


class TestComponentsAndValency:
    def test_cross_check_rejects_component_that_is_not_a_class(self, with_conj_entry):
        # O4+(2) has the components {0, 3, 4} and {1, 2, 5}.  Corrupting
        # t_0 t_3 t_0 (#4) to #1 keeps the graph as it is but puts #1 into the
        # conjugation orbit of #0.
        entry = catalog.from_descriptor("orthogonal-f2:dim=4,eps=+")
        sys = build_system(entry.generators)
        assert components(sys) == ((0, 3, 4), (1, 2, 5))
        assert sys.conj[0][3] == 4
        sys = with_conj_entry(sys, 0, 3, 1)
        with pytest.raises(
            groups.GroupError,
            match=r"^component of #0 does not match its conjugacy class$",
        ):
            components(sys)

    @pytest.mark.parametrize("i, j, value", [
        # Generator row 3 now moves #1 to #2: the generator orbits stay
        # {0, 3, 4} and {1, 2, 5}, but #3 becomes a neighbour of #1.
        (3, 1, 2),
        # Generator row 2 now moves #0 to #1, which joins the two generator
        # orbits into one; the graph still splits it.
        (2, 0, 1),
    ])
    def test_cross_check_rejects_a_corrupted_generator_row(
        self, system_factory, with_conj_entry, i, j, value
    ):
        system = system_factory("orthogonal-f2:dim=4,eps=+")
        assert system.generator_axes == (2, 3, 4, 5)
        corrupted = with_conj_entry(system, i, j, value)
        with pytest.raises(
            groups.GroupError,
            match=r"^component of #0 does not match its conjugacy class$",
        ):
            components(corrupted)

    def test_generators_that_do_not_reach_a_component_are_rejected(
        self, system_factory
    ):
        # The valid O4+(2) table with #5 as its only generator: row 5 swaps
        # #1 and #2 and fixes the rest, so the generator orbits split the
        # graph component {0, 3, 4}.
        system = system_factory("orthogonal-f2:dim=4,eps=+")
        alone = TranspositionSystem(system.involutions, system.conj, [5])
        assert alone.orbits == ((0,), (1, 2), (3,), (4,), (5,))
        with pytest.raises(
            groups.GroupError,
            match=r"^component of #0 does not match its conjugacy class$",
        ):
            components(alone)

    def test_orbits_of_a_generator_row_that_is_not_a_permutation(
        self, system_factory, with_conj_entry
    ):
        # S4 with conj[1][4] = 5: generator row 1 sends #4 and #5 to #5.  The
        # orbit of #0 closes over the axes it reaches, and #3, which no
        # generator row reaches from #0, is an orbit of its own.
        system = with_conj_entry(system_factory("symmetric:n=4"), 1, 4, 5)
        assert 1 in system.generator_axes
        assert system.orbits == ((0, 1, 2, 4, 5), (3,))
        with pytest.raises(
            groups.GroupError,
            match=r"^component of #0 does not match its conjugacy class$",
        ):
            components(system)

    @pytest.mark.parametrize("descriptor", ["symmetric:n=4", "orthogonal-f2:dim=4,eps=+"])
    def test_orbits_partition_every_generator_row_corruption(
        self, system_factory, with_conj_entry, descriptor
    ):
        # Each single-entry corruption of a generator row: the orbits are
        # disjoint and cover the axes.
        system = system_factory(descriptor)
        n = system.size
        for g, j, value in itertools.product(system.generator_axes, range(n), range(n)):
            if system.conj[g][j] != value:
                orbits = with_conj_entry(system, g, j, value).orbits
                assert sorted(itertools.chain(*orbits)) == list(range(n)), (g, j, value)

    @pytest.mark.parametrize("descriptor", CATALOG)
    def test_one_partition(self, system_factory, descriptor):
        # The generator orbits, the checked components and the orbits under
        # all n rows of the table are one partition.
        system = system_factory(descriptor)
        assert system.orbits == components(system) == orbits_under_all_rows(system)

    def test_irregular_valency_names_two_vertices(self, with_conj_entry):
        # S5: every transposition has 6 neighbors.  Making #3 move #9 (which
        # commutes with it) gives #3 a seventh neighbor.
        entry = catalog.from_descriptor("symmetric:n=5")
        sys = build_system(entry.generators)
        assert sys.conj[3][9] == 9
        sys = with_conj_entry(sys, 3, 9, 3)
        with pytest.raises(
            IrregularComponentError,
            match=r"^non-constant valency in the component of #0: "
            r"#0 has 6 neighbors, #3 has 7$",
        ):
            valency(sys, list(range(10)))

    def test_connected_symmetric(self, system_factory):
        sys = system_factory("symmetric:n=5")
        comps = components(sys)
        assert [len(c) for c in comps] == [10]
        assert valency(sys, comps[0]) == 6  # 2(n-2) for transpositions

    def test_disconnected(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=3")
        comps = components(sys)
        assert [len(c) for c in comps] == [1, 1, 1]
        assert all(valency(sys, c) == 0 for c in comps)

    def test_split_plus_type(self, system_factory):
        sys = system_factory("orthogonal-f2:dim=4,eps=+")
        assert [len(c) for c in components(sys)] == [3, 3]


S3_COLLAPSE = "S3"
S4_TYPE = "S4"
H_TYPE = "H"


def classify_triple(sys, a, b, c):
    """Type of the pairwise-adjacent triple (a, b, c) by the order of abac.

    abac = (a b a) c is a product of two class involutions, so its order is
    1 (S3 collapse), 2 (S4 type) or 3 (H type).
    """
    aba = sys.conj[a][b]
    if aba == c:
        return S3_COLLAPSE
    return S4_TYPE if sys.conj[aba][c] == c else H_TYPE


def first_H_triple_by_classification(sys):
    """The lexicographically first pairwise-adjacent triple that
    ``classify_triple`` calls H type, or None, by a search over all
    triples of neighbours."""
    for a in range(sys.size):
        for b, c in itertools.product(sys.neighbors(a), repeat=2):
            if sys.adjacent(b, c) and classify_triple(sys, a, b, c) == H_TYPE:
                return (a, b, c)
    return None


# Criterion 5's symplectic roster.
SYMPLECTIC = (
    [f"symmetric:n={n}" for n in range(3, 9)]
    + [f"symplectic-f2:n={n}" for n in range(1, 4)]
    + [f"orthogonal-f2:dim={d},eps={e}" for d in (4, 6) for e in "+-"]
)


class TestTripleClassification:
    def test_s3_collapse(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.involutions.index(t(4, 0, 1))
        b = sys.involutions.index(t(4, 1, 2))
        c = sys.conj[a][b]  # (0 2): the third transposition of the S_3
        assert classify_triple(sys, a, b, c) == S3_COLLAPSE

    def test_s4_type(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.involutions.index(t(4, 0, 1))
        b = sys.involutions.index(t(4, 0, 2))
        c = sys.involutions.index(t(4, 0, 3))
        assert classify_triple(sys, a, b, c) == S4_TYPE

    def test_h_type_in_F3_dim5(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=5")
        witness = detect_H_triple(sys)
        assert witness is not None
        assert classify_triple(sys, *witness) == H_TYPE

    def test_symmetric_has_no_h_triple(self, system_factory):
        assert detect_H_triple(system_factory("symmetric:n=6")) is None

    @pytest.mark.parametrize("descriptor", [
        d for d in CATALOG
        if d not in ("orthogonal-f2:dim=8,eps=+", "orthogonal-f2:dim=8,eps=-",
                     "weyl:type=E,rank=8")
    ])
    def test_witness_matches_classification_search(self, system_factory, descriptor):
        sys = system_factory(descriptor)
        assert sys.size <= 66
        assert detect_H_triple(sys) == first_H_triple_by_classification(sys)

    @pytest.mark.parametrize("descriptor", SYMPLECTIC)
    def test_symplectic_roster_has_no_classified_h_triple(
        self, system_factory, descriptor
    ):
        assert first_H_triple_by_classification(system_factory(descriptor)) is None


def detect_H_triple_by_sets(sys):
    """The set scan that ``detect_H_triple`` replaced, kept as its oracle:
    neighbor sets read off the table, c the least common neighbor of a, b
    and aba."""
    conj = sys.conj
    nbrs = [{j for j, c in enumerate(row) if c != j} for row in conj]
    for a, row_a in enumerate(conj):
        for b in sorted(nbrs[a]):
            common = nbrs[a] & nbrs[b] & nbrs[row_a[b]]
            if common:
                return (a, b, min(common))
    return None


class TestHTripleBitsets:
    @pytest.mark.parametrize("descriptor", CATALOG)
    def test_matches_set_scan(self, system_factory, descriptor):
        sys = system_factory(descriptor)
        assert detect_H_triple(sys) == detect_H_triple_by_sets(sys)

    def test_matches_set_scan_on_every_single_entry_corruption(
        self, system_factory, with_conj_entry
    ):
        system = system_factory("symmetric:n=4")
        n = system.size
        witnesses = set()
        for i, j, value in itertools.product(range(n), repeat=3):
            if system.conj[i][j] != value:
                sys = with_conj_entry(system, i, j, value)
                witness = detect_H_triple(sys)
                assert witness == detect_H_triple_by_sets(sys), (i, j, value)
                witnesses.add(witness)
        # Some corruptions make an H triple, some do not.
        assert None in witnesses and len(witnesses) > 1


class TestExtractH:
    def test_verified_witness(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=5")
        witness = detect_H_triple(sys)
        h = extract_H(sys, witness)
        assert h.order == 54
        assert len(groups.center(h)) == 3

    def test_rejects_s4_triple(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.involutions.index(t(4, 0, 1))
        b = sys.involutions.index(t(4, 0, 2))
        c = sys.involutions.index(t(4, 0, 3))
        with pytest.raises(UnexpectedSubgroupError) as info:
            extract_H(sys, (a, b, c))
        assert info.value.order == 24
        assert info.value.triple == (a, b, c)
        assert str(info.value) == (
            f"triple ({a}, {b}, {c}) generates a group of order 24, expected 54"
        )

    def test_center_must_be_generated_by_abc_squared(self, system_factory, monkeypatch):
        sys = system_factory("orthogonal-f3:dim=5")
        witness = detect_H_triple(sys)
        a = sys.involutions[witness[0]]
        monkeypatch.setattr(groups, "center", lambda group: [a * a])
        with pytest.raises(
            groups.GroupError,
            match=r"^center of the H witness is not generated by \(abc\)\^2$",
        ):
            extract_H(sys, witness)


class TestDot:
    def test_shape(self, system_factory):
        sys = system_factory("symmetric:n=3")
        dot = to_dot(sys)
        assert dot.startswith("graph fischer {")
        assert dot.rstrip().endswith("}")
        # triangle: three vertices, three edges
        assert dot.count(" -- ") == 3
        assert dot.count("label=") == 3
