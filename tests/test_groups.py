"""Group-element arithmetic, closure enumeration, center computation, and
group orders by Schreier-Sims checked against independent oracles."""
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischerlab import catalog, fischer, groups
from fischerlab.groups import (
    EnumerationCapError,
    FpMatrix,
    GroupError,
    Permutation,
    StructuralError,
    center,
    closure,
    conjugacy_closure,
    generate,
    group_order,
    permutation_action,
    permutation_group_order,
    permutation_images,
)


SRC = str(Path(__file__).resolve().parent.parent / "src")


def transposition(n, i, j):
    return Permutation.from_cycles(n, [(i, j)])


class TestPermutation:
    def test_identity(self):
        e = Permutation.identity(4)
        assert e.is_identity()
        assert e.order() == 1

    def test_from_cycles(self):
        p = Permutation.from_cycles(4, [(0, 1, 2)])
        assert p.images == (1, 2, 0, 3)

    def test_composition_applies_right_factor_first(self):
        # (0 1) then (1 2): 0 -> 1 -> 2
        a = transposition(3, 1, 2)
        b = transposition(3, 0, 1)
        assert (a * b).images[0] == 2

    def test_order(self):
        p = Permutation.from_cycles(6, [(0, 1), (2, 3, 4)])
        assert p.order() == 6

    def test_mixed_degree_rejected(self):
        with pytest.raises(GroupError):
            Permutation.identity(3) * Permutation.identity(4)

    @given(st.permutations(range(6)))
    @settings(max_examples=50)
    def test_order_annihilates(self, xs):
        p = Permutation(tuple(xs))
        acc = Permutation.identity(6)
        for _ in range(p.order()):
            acc = acc * p
        assert acc.is_identity()

    def test_key_mul_matches_mul(self):
        a = Permutation.from_cycles(4, [(0, 1, 2)])
        b = transposition(4, 2, 3)
        assert a.key_mul()(a.key, b.key) == (a * b).key

    def test_images_must_be_a_bijection(self):
        with pytest.raises(StructuralError, match=r"^not a bijection on 0\.\.2: \(0, 0, 2\)$"):
            Permutation([0, 0, 2])

    def test_identity_repr(self):
        assert repr(Permutation.identity(3)) == "Permutation(id)"


class TestFpMatrix:
    def test_identity_and_entries(self):
        m = FpMatrix.identity(3, 2)
        assert m.entries == (1, 0, 0, 1)
        assert m.is_identity()

    def test_from_entries_roundtrip(self):
        m = FpMatrix.from_entries(3, 2, [1, 2, 0, 1])
        assert m.entries == (1, 2, 0, 1)

    @pytest.mark.parametrize("p, entries, message", [
        (2, [1, 0, 0], r"^expected 4 entries, got 3$"),
        (3, [1, 0, 0, 3], r"^entries must be residues in \[0, p\)$"),
    ])
    def test_from_entries_checks_its_entries(self, p, entries, message):
        with pytest.raises(StructuralError, match=message):
            FpMatrix.from_entries(p, 2, entries)

    def test_product_needs_one_modulus_and_dimension(self):
        with pytest.raises(StructuralError, match=r"^modulus/dimension mismatch$"):
            FpMatrix.identity(2, 2) * FpMatrix.identity(3, 2)

    def test_multiplication_mod_p(self):
        a = FpMatrix.from_entries(3, 2, [1, 1, 0, 1])
        sq = a * a
        assert sq.entries == (1, 2, 0, 1)
        assert a.order() == 3

    SINGULAR = r"^matrix not invertible: FpMatrix\(p=2, dim=2, entries=\(1, 1, 1, 1\)\)$"

    def test_singular_order_raises(self):
        with pytest.raises(StructuralError, match=self.SINGULAR):
            FpMatrix.from_entries(2, 2, [1, 1, 1, 1]).order()

    def test_singular_generator_raises(self):
        singular = FpMatrix.from_entries(2, 2, [1, 1, 1, 1])
        with pytest.raises(StructuralError, match=self.SINGULAR):
            generate([FpMatrix.identity(2, 2), singular])

    def test_key_mul_matches_mul(self):
        a = FpMatrix.from_entries(2, 3, [1, 1, 0, 0, 1, 0, 0, 0, 1])
        b = FpMatrix.from_entries(2, 3, [1, 0, 0, 0, 1, 1, 0, 0, 1])
        assert a.key_mul()(a.key, b.key) == (a * b).key

    @given(st.sampled_from([(2, 1), (2, 4), (2, 8), (3, 2), (3, 5)]), st.data())
    @settings(max_examples=40)
    def test_products_match_entrywise_definition(self, shape, data):
        p, dim = shape
        size = dim * dim
        entries = st.lists(st.integers(0, p - 1), min_size=size, max_size=size)
        a = FpMatrix.from_entries(p, dim, data.draw(entries))
        b = FpMatrix.from_entries(p, dim, data.draw(entries))
        x, y = a.entries, b.entries
        expected = [
            sum(x[i * dim + k] * y[k * dim + j] for k in range(dim)) % p
            for i in range(dim)
            for j in range(dim)
        ]
        assert (a * b).entries == tuple(expected)
        assert a.key_mul()(a.key, b.key) == (a * b).key
        assert a.key_row_mul()(a.key, b.key) == (a * b).key


def digit_row_table(p, dim, rows):
    """The F_p row table built on digit tuples: entry x is an earlier entry
    plus d rows[k], summed digit by digit mod p and packed at the end."""
    table = [(0,) * dim]
    for row in rows:
        row = groups._row_decode(row, p, dim)
        layer = table
        for _ in range(p - 1):
            layer = [tuple((x + y) % p for x, y in zip(v, row)) for v in layer]
            table = table + layer
    return [groups._row_encode(v, p) for v in table]


F3_CATALOG = (
    [f"orthogonal-f3:dim={d},sign={e}" for d in (3, 4, 5) for e in "+-"]
    + [f"orthogonal-f3:dim=4,form=1112,sign={e}" for e in "+-"]
)


class TestRowTable:
    @pytest.mark.parametrize("descriptor", F3_CATALOG)
    def test_f3_catalog_generators_match_digit_tables(self, descriptor):
        for g in catalog.from_descriptor(descriptor).generators:
            columns = zip(*(groups._row_decode(r, g.p, g.dim) for r in g.rows))
            transpose = [groups._row_encode(c, g.p) for c in columns]
            for rows in (g.rows, transpose):
                expected = digit_row_table(g.p, g.dim, rows)
                assert groups._row_table(g.p, g.dim, rows) == expected

    @given(st.integers(1, 7), st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_f3_matrices_match_digit_tables(self, dim, data):
        row = st.integers(0, 3**dim - 1)
        rows = data.draw(st.lists(row, min_size=dim, max_size=dim))
        assert groups._row_table(3, dim, rows) == digit_row_table(3, dim, rows)


@pytest.mark.parametrize("build", [generate, conjugacy_closure, fischer.build_system])
def test_empty_generator_list_is_rejected(build):
    with pytest.raises(StructuralError, match=r"^need at least one element$"):
        build([])


class TestHelpers:
    def test_element_order(self):
        assert Permutation.from_cycles(5, [(0, 1, 2, 3, 4)]).order() == 5


class TestClosure:
    def test_start_then_layers_in_key_order(self):
        # 2 -> 8, 1; 4 -> 6, 2 | 1 -> 9, 0; 6 -> 4, 3; 8 -> 2, 4 | ...
        keys = closure([4, 2], lambda x: [10 - x, x // 2])
        assert keys == [2, 4, 1, 6, 8, 0, 3, 9, 7, 10, 5]

    def test_cap_raises_when_first_exceeded(self):
        with pytest.raises(EnumerationCapError) as info:
            closure([0], lambda x: [x + 1], cap=5)
        assert str(info.value) == "closure exceeded cap 5 (reached 6 elements)"
        assert (info.value.cap, info.value.reached) == (5, 6)

    def test_start_counts_toward_cap(self):
        with pytest.raises(EnumerationCapError, match="reached 3 elements"):
            closure([1, 2, 3], lambda x: [], cap=2)
        assert closure([1, 2, 3], lambda x: [], cap=3) == [1, 2, 3]


# Every descriptor the catalog advertises, read off its bounds.
CATALOG = (
    [f"symmetric:n={n}" for n in range(2, catalog.SYMMETRIC_MAX_N + 1)]
    + [f"symplectic-f2:n={n}" for n in range(1, catalog.SYMPLECTIC_MAX_N + 1)]
    + [f"orthogonal-f2:dim={d},eps={e}" for d in catalog.ORTHOGONAL_F2_DIMS for e in "+-"]
    + [f"orthogonal-f3:dim={d},sign={e}" for d in catalog.ORTHOGONAL_F3_DIMS for e in "+-"]
    + [f"weyl:type={kind},rank={r}" for kind, ranks in catalog.WEYL_RANKS.items()
       for r in ranks]
)


def reference_conjugacy_closure(generators):
    """Class keys and generator rows as conjugacy_closure built them before
    permutation_action: the closure's step fills an images dict, which an
    index map and a column transpose turn into rows keyed by class index."""
    gens = list(dict.fromkeys(g.key for g in generators))
    encode, decode, conj = generators[0].key_conj(gens)
    images = {}

    def step(x):
        images[x] = conj(x)
        return images[x]

    keys = sorted(closure(map(encode, gens), step))
    index = {k: i for i, k in enumerate(keys)}
    columns = zip(*(images[k] for k in keys))
    actions = {index[encode(g)]: tuple(index[k] for k in col) for g, col in zip(gens, columns)}
    return [decode(k) for k in keys], actions


class TestPermutationAction:
    # x -> 2x and x -> -x mod 7 move 1 through every nonzero residue.
    @staticmethod
    def moves(x):
        return [2 * x % 7, -x % 7]

    def test_points_and_permutations(self):
        points, perms = permutation_action([1], self.moves)
        assert points == [1, 2, 3, 4, 5, 6]
        assert perms == [(1, 3, 5, 0, 2, 4), (5, 4, 3, 2, 1, 0)]

    def test_each_point_is_moved_once(self):
        calls = []
        permutation_action([1, 6], lambda x: calls.append(x) or self.moves(x))
        assert sorted(calls) == [1, 2, 3, 4, 5, 6]

    def test_cap_error_is_the_closures(self):
        with pytest.raises(EnumerationCapError) as info:
            permutation_action([1], self.moves, cap=5)
        with pytest.raises(EnumerationCapError) as expected:
            closure([1], self.moves, cap=5)
        assert str(info.value) == str(expected.value) == (
            "closure exceeded cap 5 (reached 6 elements)"
        )
        assert (info.value.cap, info.value.reached) == (5, 6)

    @pytest.mark.parametrize("descriptor", CATALOG)
    def test_conjugacy_closure_matches_images_dict(self, descriptor):
        gens = catalog.from_descriptor(descriptor).generators
        cls, actions = conjugacy_closure(gens)
        keys, expected = reference_conjugacy_closure(gens)
        assert [x.key for x in cls] == keys
        assert list(actions.items()) == list(expected.items())


class TestGenerate:
    def test_s3_element_order(self):
        # Identity, then each breadth-first layer in key order.
        g = generate([transposition(3, 0, 1), transposition(3, 1, 2)])
        assert g.element_keys == [
            (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0),
        ]

    def test_symmetric_group_order(self):
        gens = [transposition(4, i, i + 1) for i in range(3)]
        assert generate(gens).order == 24

    def test_contains_identity_first(self):
        g = generate([transposition(3, 0, 1)])
        assert g.element_keys[0] == transposition(3, 0, 1).identity_key()
        assert g.order == 2

    def test_cap_raises(self):
        gens = [transposition(5, i, i + 1) for i in range(4)]
        with pytest.raises(EnumerationCapError):
            generate(gens, max_order=100)

    def test_matrix_group(self):
        # GL_2(2) has order 6
        a = FpMatrix.from_entries(2, 2, [0, 1, 1, 0])
        b = FpMatrix.from_entries(2, 2, [1, 1, 0, 1])
        assert generate([a, b]).order == 6

    def test_membership(self):
        g = generate([transposition(3, 0, 1), transposition(3, 1, 2)])
        assert transposition(3, 0, 2) in g
        assert transposition(4, 0, 2) not in g

    @pytest.mark.parametrize("generators, message", [
        ([Permutation.identity(2), FpMatrix.identity(2, 2)], "mixed element kinds"),
        ([Permutation.identity(3), Permutation.identity(4)],
         "degree mismatch among elements"),
        ([FpMatrix.identity(2, 2), FpMatrix.identity(3, 2)],
         "modulus/dimension mismatch among elements"),
    ])
    def test_incompatible_generators_rejected(self, generators, message):
        with pytest.raises(StructuralError, match=f"^{message}$"):
            generate(generators)


class TestConjugacyClosure:
    def test_transposition_class(self):
        gens = [transposition(4, i, i + 1) for i in range(3)]
        cls, _ = conjugacy_closure(gens)
        assert len(cls) == 6
        assert all(x.order() == 2 for x in cls)

    def test_actions_are_conjugation_by_each_distinct_generator(self):
        # A duplicate generator gets one action, in first-seen order.
        gens = [transposition(5, 2, 3), transposition(5, 0, 1),
                transposition(5, 2, 3), transposition(5, 1, 2),
                transposition(5, 3, 4)]
        cls, actions = conjugacy_closure(gens)
        assert len(cls) == 10
        assert list(actions) == [cls.index(g) for g in (gens[0], gens[1], gens[3], gens[4])]
        for g in gens:
            assert [cls[i] for i in actions[cls.index(g)]] == [g * x * g for x in cls]
        # A generator that is not an involution is named.
        cycle = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        with pytest.raises(StructuralError, match=(
            r"^generator element is not an involution: "
            r"Permutation\(\(0, 1, 2, 3, 4\)\)$"
        )):
            conjugacy_closure([cycle, gens[1], cycle])

    @pytest.mark.parametrize("bad", [
        Permutation.from_cycles(4, [(0, 1, 2)]),
        FpMatrix.from_entries(2, 2, [0, 1, 1, 1]),
    ], ids=["Permutation", "FpMatrix"])
    def test_order_three_generator_is_named(self, bad):
        # An order above 2 is named as a malformed generator, element included.
        assert bad.order() == 3
        with pytest.raises(GroupError) as info:
            conjugacy_closure([bad])
        assert info.type is StructuralError
        assert str(info.value) == f"generator element is not an involution: {bad!r}"

    def test_cap(self):
        gens = [transposition(6, i, i + 1) for i in range(5)]
        with pytest.raises(EnumerationCapError):
            conjugacy_closure(gens, cap=4)


class TestCenter:
    def test_symmetric_center_trivial(self):
        g = generate([transposition(3, 0, 1), transposition(3, 1, 2)])
        assert len(center(g)) == 1

    def test_dihedral_center(self):
        r = Permutation.from_cycles(4, [(0, 1, 2, 3)])
        s = Permutation.from_cycles(4, [(0, 2)])
        g = generate([r, s])
        assert g.order == 8
        z = center(g)
        assert sorted(x.order() for x in z) == [1, 2]

    def test_abelian_matrix_group(self):
        a = FpMatrix.from_entries(3, 2, [2, 0, 0, 2])
        g = generate([a])
        assert len(center(g)) == g.order == 2


# Every catalog descriptor whose group has order at most 51,840, so that the
# brute-force oracle (full enumeration, then a center scan) stays affordable.
SMALL_ROSTER = (
    [f"symmetric:n={n}" for n in range(2, 9)]
    + ["symplectic-f2:n=1", "symplectic-f2:n=2"]
    + ["orthogonal-f2:dim=4,eps=+", "orthogonal-f2:dim=4,eps=-",
       "orthogonal-f2:dim=6,eps=+", "orthogonal-f2:dim=6,eps=-"]
    + ["orthogonal-f3:dim=3", "orthogonal-f3:dim=3,sign=-",
       "orthogonal-f3:dim=4", "orthogonal-f3:dim=4,sign=-", "orthogonal-f3:dim=5"]
    + [f"weyl:type=A,rank={r}" for r in range(1, 8)]
    + [f"weyl:type=D,rank={r}" for r in range(4, 7)]
    + ["weyl:type=E,rank=6"]
)


def reference_generate(generators, max_order=None):
    """Element keys of the tuple-key enumeration: the identity, then each
    layer of right products a*g by key_mul, in key order."""
    gen_keys = sorted({g.key for g in generators})
    mul = generators[0].key_mul()
    return closure(
        [generators[0].identity_key()], lambda a: [mul(a, g) for g in gen_keys],
        max_order,
    )


def s5_on_300_points():
    """S5 acting on 60 blocks of 5 points at once."""
    return [
        Permutation.from_cycles(300, [(b + i, b + i + 1) for b in range(0, 300, 5)])
        for i in range(4)
    ]


def f3_reflections_on_729_points():
    """Reflections r_v(x) = x - 2 (x.v)/(v.v) v of F3^6, with the standard
    dot product, in e0, e0+e1 and e1+e2: a group of order 48."""
    vectors = [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)]
    gens = []
    for v in vectors:
        scale = -2 * pow(sum(a * a for a in v), -1, 3)
        entries = [(int(i == j) + scale * a * b) % 3
                   for i, a in enumerate(v) for j, b in enumerate(v)]
        gens.append(FpMatrix.from_entries(3, 6, entries))
    return gens


# Carriers of at most 256 points, where generate keys by bytes, and two of
# more, where it keeps tuple keys.
BYTE_KEYED = [
    "symmetric:n=6", "symplectic-f2:n=2", "orthogonal-f2:dim=4,eps=-",
    "orthogonal-f3:dim=3,sign=-", "orthogonal-f3:dim=4", "weyl:type=D,rank=5",
]
TUPLE_KEYED = {"s5-on-300": s5_on_300_points, "f3-dim-6": f3_reflections_on_729_points}


def generators_of(carrier):
    if carrier in TUPLE_KEYED:
        gens = TUPLE_KEYED[carrier]()
        assert len(permutation_images(gens[0])) > 256
    else:
        gens = catalog.from_descriptor(carrier).generators
        assert len(permutation_images(gens[0])) <= 256
    return gens


class TestGenerateMatchesReference:
    @pytest.mark.parametrize("carrier", BYTE_KEYED + list(TUPLE_KEYED))
    def test_same_keys_in_the_same_order(self, carrier):
        gens = generators_of(carrier)
        assert generate(gens).element_keys == reference_generate(gens)

    def test_tuple_keyed_orders(self):
        assert generate(s5_on_300_points()).order == 120
        group = generate(f3_reflections_on_729_points())
        assert (group.order, len(center(group))) == (48, 2)

    @pytest.mark.parametrize("carrier", ["symmetric:n=6", "orthogonal-f3:dim=4",
                                         *TUPLE_KEYED])
    def test_cap_message(self, carrier):
        gens = generators_of(carrier)
        cap = len(reference_generate(gens)) - 1
        message = f"closure exceeded cap {cap} (reached {cap + 1} elements)"
        with pytest.raises(EnumerationCapError) as info:
            generate(gens, max_order=cap)
        assert str(info.value) == message
        with pytest.raises(EnumerationCapError) as info:
            reference_generate(gens, cap)
        assert str(info.value) == message

    def test_permutation_center_beyond_256_points(self):
        gens = s5_on_300_points()
        assert len(center(generate(gens))) == 1
        assert len(center(generate(gens[:1] + gens[2:3]))) == 4


class TestCenterMatchesSympy:
    @pytest.mark.parametrize("carrier", [
        "weyl:type=D,rank=4", "weyl:type=D,rank=6", "orthogonal-f3:dim=3",
        "orthogonal-f3:dim=4", "orthogonal-f2:dim=4,eps=+", "orthogonal-f2:dim=4,eps=-",
        *TUPLE_KEYED,
    ])
    def test_same_elements(self, carrier):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens = generators_of(carrier)
        oracle = combinatorics.PermutationGroup([
            combinatorics.Permutation(list(permutation_images(g))) for g in gens
        ])
        expected = {tuple(z.array_form) for z in oracle.center().generate()}
        assert {permutation_images(z) for z in center(generate(gens))} == expected


class TestSchreierSims:
    def test_matrix_images_are_a_homomorphism(self):
        a = FpMatrix.from_entries(3, 2, [1, 2, 1, 1])
        b = FpMatrix.from_entries(3, 2, [0, 1, 2, 0])
        ia, ib = permutation_images(a), permutation_images(b)
        assert permutation_images(a * b) == tuple(ia[x] for x in ib)
        assert sorted(ia) == list(range(9))

    def test_singular_matrix_rejected(self):
        with pytest.raises(StructuralError):
            permutation_images(FpMatrix.from_entries(2, 2, [1, 1, 1, 1]))

    def test_trivial_groups(self):
        assert permutation_group_order([]) == 1
        assert permutation_group_order([(0, 1, 2)]) == 1

    def test_order_cap_names_order_and_cap(self):
        gens = [transposition(6, i, i + 1) for i in range(5)]
        with pytest.raises(EnumerationCapError, match="720 exceeds the order cap 100"):
            group_order(gens, max_order=100)
        assert group_order(gens, max_order=720) == 720

    @pytest.mark.parametrize("descriptor", SMALL_ROSTER)
    def test_matches_brute_force(self, system_factory, orders, descriptor):
        system = system_factory(descriptor)
        group = system.group()
        assert orders(system) == (group.order, len(center(group)))

    def test_brute_force_roster_covers_abelian_and_central_cases(
        self, system_factory, orders
    ):
        assert orders(system_factory("orthogonal-f3:dim=3")) == (8, 8)
        assert orders(system_factory("weyl:type=D,rank=4")) == (192, 2)
        assert orders(system_factory("weyl:type=D,rank=6")) == (23040, 2)

    @pytest.mark.parametrize("descriptor, order, center_order", [
        ("symplectic-f2:n=3", 1_451_520, 1),
        ("weyl:type=E,rank=7", 2_903_040, 2),
        ("weyl:type=E,rank=8", 696_729_600, 2),
        ("symmetric:n=12", 479_001_600, 1),
    ])
    def test_theory_values(self, system_factory, orders, descriptor, order, center_order):
        system = system_factory(descriptor)
        assert orders(system) == (order, center_order)

    @pytest.mark.parametrize("descriptor", [
        "symmetric:n=9", "symplectic-f2:n=3", "orthogonal-f3:dim=5",
        "orthogonal-f3:dim=3", "weyl:type=D,rank=6", "weyl:type=E,rank=7",
    ])
    def test_matches_sympy(self, system_factory, orders, descriptor):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        system = system_factory(descriptor)
        oracle = combinatorics.PermutationGroup([
            combinatorics.Permutation(list(permutation_images(g)))
            for g in system.generators
        ])
        expected = (oracle.order(), oracle.center().order())
        assert orders(system) == expected

    @pytest.mark.parametrize("descriptor", [
        "orthogonal-f2:dim=8,eps=+", "orthogonal-f2:dim=8,eps=-",
    ])
    def test_order_matches_sympy_on_256_points(self, descriptor):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        gens = catalog.from_descriptor(descriptor).generators
        images = [permutation_images(g) for g in gens]
        oracle = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(im)) for im in images]
        )
        assert permutation_group_order(images) == oracle.order()

    def test_generators_from_two_classes_accepted(self, orders):
        # D = {(0 1), (1 2), (0 2), (3 4)} is the union of the generators'
        # two classes.  It generates G = S3 x C2, whose center <(3 4)> is the
        # kernel of the class action.
        gens = [transposition(5, 0, 1), transposition(5, 1, 2), transposition(5, 3, 4)]
        system = fischer.build_system(gens)
        assert system.size == 4
        assert orders(system) == (12, len(center(generate(gens)))) == (12, 2)

    def test_capped_analyze_exits_without_enumerating(self):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "fischerlab.cli", "analyze", "symmetric:n=12",
             "--max-order", "1000"],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=SRC),
        )
        assert proc.returncode == 3
        assert "479001600" in proc.stderr and "1000" in proc.stderr
        assert time.perf_counter() - start < 20
