"""Fischer graphs: adjacency, components, triple classification, H detection."""
import pytest

from fischerlab import catalog, groups
from fischerlab.fischer import (
    H_TYPE,
    S3_COLLAPSE,
    S4_TYPE,
    IrregularComponentError,
    NotThreeTranspositionError,
    UnexpectedSubgroupError,
    build_system,
    classify_triple,
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
    return [
        tuple(index[mul(mul(x.key, y.key), x.key)] for y in involutions)
        for x in involutions
    ]


def count_carrier_products(monkeypatch, carrier):
    """A list that gains one entry per product made by either key multiplier
    of the carrier class."""
    calls = []

    def counting(make_mul):
        def wrapped(self):
            mul = make_mul(self)

            def counted(a, b):
                calls.append(1)
                return mul(a, b)
            return counted
        return wrapped

    for name in ("key_mul", "key_row_mul"):
        monkeypatch.setattr(carrier, name, counting(getattr(carrier, name)))
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
        a = sys.index_of(t(4, 0, 1))
        b = sys.index_of(t(4, 2, 3))
        c = sys.index_of(t(4, 1, 2))
        assert not sys.adjacent(a, b)
        assert sys.adjacent(a, c)
        assert sys.involutions[sys.conj[a][c]] == t(4, 0, 2)

    def test_rejects_order_4_product(self):
        a = t(4, 0, 1)
        b = Permutation.from_cycles(4, [(0, 2), (1, 3)])
        assert (a * b).order() == 4
        with pytest.raises(NotThreeTranspositionError) as info:
            build_system([a, b], [a, b])
        assert info.value.order == 4
        # The rejected pair is the first one the oracle table rejects.
        involutions, _ = groups.conjugacy_closure([a, b], [a, b])
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

    def test_conjugate_left_the_class(self):
        # D = {(1 2), (0 2)} is closed under (0 1) but does not hold it, and
        # (1 2) conjugates (0 2) to (0 1): the build names the generator.
        with pytest.raises(
            groups.GroupError,
            match=r"^generator Permutation\(\(0, 1\)\) is not in the "
            r"transposition class; the center is read off the class action "
            r"only when G = <D>$",
        ):
            build_system([t(3, 0, 1)], [t(3, 1, 2)])
        # With (1 2) a generator too, D holds all three and G = S3.
        sys = build_system([t(3, 0, 1), t(3, 1, 2)], [t(3, 1, 2)])
        assert sys.size == 3
        assert sys.orders() == (6, 1)

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
        # D = {(1 2), (0 1), (0 2)} holds the generator (0 1), but <(0 1)>
        # does not reach #0 = (1 2): G = <(0 1)> is not <D>, and the class
        # action would give |Z(G)| = 1 where Z(G) = G has order 2.
        ([t(3, 0, 1)], [t(3, 0, 1), t(3, 0, 2)], groups.GroupError,
         r"^no generator is conjugate to involution #0; "
         r"the class must be the class of its generators$"),
    ], ids=["cycle-and-class-member", "no-class-member", "two-orbits", "wrong-center"])
    def test_rejects_generators_that_are_not_the_class(
        self, generators, seed, error, message
    ):
        with pytest.raises(error, match=message):
            build_system(generators, seed)

    def test_carrier_products_bounded_by_class_times_generators(self, monkeypatch):
        # The closure makes 2 products per class member and generator, and
        # the build itself makes none.
        calls = count_carrier_products(monkeypatch, Permutation)
        entry = catalog.from_descriptor("weyl:type=E,rank=8")
        sys = build_system(entry.generators, entry.seed)
        assert 2 * sys.size * len(entry.generators) == 1920
        assert len(calls) == 1920

    def test_orthogonal_carrier_products_bounded(self, monkeypatch):
        # O8-(2) from its small generating set: at most 2*dim generators, so
        # at most 2 * n * 2*dim products in the closure (whole class: 2n^2).
        calls = count_carrier_products(monkeypatch, FpMatrix)
        entry = catalog.from_descriptor("orthogonal-f2:dim=8,eps=-")
        sys = build_system(entry.generators, entry.seed)
        assert sys.size == 136
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


class TestComponentsAndValency:
    def test_cross_check_rejects_component_that_is_not_a_class(self):
        # O4+(2) has the components {0, 3, 4} and {1, 2, 5}.  Corrupting
        # t_0 t_3 t_0 (#4) to #1 keeps the graph as it is but puts #1 into the
        # conjugation orbit of #0.
        entry = catalog.from_descriptor("orthogonal-f2:dim=4,eps=+")
        sys = build_system(entry.generators, entry.seed)
        assert components(sys) == [[0, 3, 4], [1, 2, 5]]
        row = list(sys.conj[0])
        assert row[3] == 4
        row[3] = 1
        sys.conj[0] = tuple(row)
        with pytest.raises(
            groups.GroupError,
            match=r"^component of #0 does not match its conjugacy class$",
        ):
            components(sys)

    def test_irregular_valency_names_two_vertices(self):
        # S5: every transposition has 6 neighbors.  Making #3 move #9 (which
        # commutes with it) gives #3 a seventh neighbor.
        entry = catalog.from_descriptor("symmetric:n=5")
        sys = build_system(entry.generators, entry.seed)
        row = list(sys.conj[3])
        assert row[9] == 9
        row[9] = 3
        sys.conj[3] = tuple(row)
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


class TestTripleClassification:
    def test_s3_collapse(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.index_of(t(4, 0, 1))
        b = sys.index_of(t(4, 1, 2))
        c = sys.conj[a][b]  # (0 2): the third transposition of the S_3
        assert classify_triple(sys, a, b, c) == S3_COLLAPSE

    def test_s4_type(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.index_of(t(4, 0, 1))
        b = sys.index_of(t(4, 0, 2))
        c = sys.index_of(t(4, 0, 3))
        assert classify_triple(sys, a, b, c) == S4_TYPE

    def test_h_type_in_F3_dim5(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=5")
        witness = detect_H_triple(sys)
        assert witness is not None
        assert classify_triple(sys, *witness) == H_TYPE

    def test_symmetric_has_no_h_triple(self, system_factory):
        assert detect_H_triple(system_factory("symmetric:n=6")) is None


class TestExtractH:
    def test_verified_witness(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=5")
        witness = detect_H_triple(sys)
        h = extract_H(sys, witness)
        assert h.order == 54
        assert len(groups.center(h)) == 3

    def test_rejects_s4_triple(self, system_factory):
        sys = system_factory("symmetric:n=4")
        a = sys.index_of(t(4, 0, 1))
        b = sys.index_of(t(4, 0, 2))
        c = sys.index_of(t(4, 0, 3))
        with pytest.raises(UnexpectedSubgroupError) as info:
            extract_H(sys, (a, b, c))
        assert info.value.order == 24
        assert info.value.triple == (a, b, c)
        assert str(info.value) == (
            f"triple ({a}, {b}, {c}) generates a group of order 24, expected 54"
        )


class TestDot:
    def test_shape(self, system_factory):
        sys = system_factory("symmetric:n=3")
        dot = to_dot(sys)
        assert dot.startswith("graph fischer {")
        assert dot.rstrip().endswith("}")
        # triangle: three vertices, three edges
        assert dot.count(" -- ") == 3
        assert dot.count("label=") == 3
