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

from fischerlab import catalog, fischer
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


class TestFpMatrix:
    def test_identity_and_entries(self):
        m = FpMatrix.identity(3, 2)
        assert m.entries == (1, 0, 0, 1)
        assert m.is_identity()

    def test_from_entries_roundtrip(self):
        m = FpMatrix.from_entries(3, 2, [1, 2, 0, 1])
        assert m.entries == (1, 2, 0, 1)

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
        assert next(iter(g.elements())).is_identity()
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
        cls, _ = conjugacy_closure([gens[0]], gens)
        assert len(cls) == 6
        assert all(x.order() == 2 for x in cls)

    def test_actions_are_conjugation_by_each_distinct_generator(self):
        # A duplicate generator gets one action, in first-seen order.
        gens = [transposition(5, 2, 3), transposition(5, 0, 1),
                transposition(5, 2, 3), transposition(5, 1, 2),
                transposition(5, 3, 4)]
        cls, actions = conjugacy_closure([transposition(5, 1, 3)], gens)
        assert len(cls) == 10
        assert list(actions) == [gens[0].key, gens[1].key, gens[3].key, gens[4].key]
        for g in gens:
            assert [cls[i] for i in actions[g.key]] == [g * x * g for x in cls]
        # A generator that is not an involution is named, after the seeds.
        cycle = Permutation.from_cycles(5, [(0, 1, 2, 3, 4)])
        with pytest.raises(StructuralError, match=(
            r"^generator element is not an involution: "
            r"Permutation\(\(0, 1, 2, 3, 4\)\)$"
        )):
            conjugacy_closure([transposition(5, 1, 3)], [cycle, gens[1], cycle])

    def test_seed_must_be_involution(self):
        bad = Permutation.from_cycles(4, [(0, 1, 2)])
        with pytest.raises(GroupError):
            conjugacy_closure([bad], [bad])

    @pytest.mark.parametrize("bad", [
        Permutation.from_cycles(4, [(0, 1, 2)]),
        FpMatrix.from_entries(2, 2, [0, 1, 1, 1]),
    ], ids=["Permutation", "FpMatrix"])
    def test_order_three_seed_is_named(self, bad):
        # An order above 2 is named as a malformed seed.
        assert bad.order() == 3
        with pytest.raises(StructuralError, match=(
            r"^seed element is not an involution: "
        )):
            conjugacy_closure([bad], [bad])

    def test_cap(self):
        gens = [transposition(6, i, i + 1) for i in range(5)]
        with pytest.raises(EnumerationCapError):
            conjugacy_closure([gens[0]], gens, cap=4)


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
    """Reflections of F3^6 in e0, e0+e1 and e1+e2: a group of order 48."""
    vectors = [(1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0)]
    return [catalog._f3_reflection(6, (1,) * 6, v) for v in vectors]


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
    def test_matches_brute_force(self, system_factory, descriptor):
        system = system_factory(descriptor)
        group = system.group()
        assert system.orders() == (group.order, len(center(group)))

    def test_brute_force_roster_covers_abelian_and_central_cases(self, system_factory):
        assert system_factory("orthogonal-f3:dim=3").orders() == (8, 8)
        assert system_factory("weyl:type=D,rank=4").orders() == (192, 2)
        assert system_factory("weyl:type=D,rank=6").orders() == (23040, 2)

    @pytest.mark.parametrize("descriptor, order, center_order", [
        ("symplectic-f2:n=3", 1_451_520, 1),
        ("weyl:type=E,rank=7", 2_903_040, 2),
        ("weyl:type=E,rank=8", 696_729_600, 2),
        ("symmetric:n=12", 479_001_600, 1),
    ])
    def test_theory_values(self, system_factory, descriptor, order, center_order):
        system = system_factory(descriptor)
        assert system.orders() == (order, center_order)

    @pytest.mark.parametrize("descriptor", [
        "symmetric:n=9", "symplectic-f2:n=3", "orthogonal-f3:dim=5",
        "orthogonal-f3:dim=3", "weyl:type=D,rank=6", "weyl:type=E,rank=7",
    ])
    def test_matches_sympy(self, system_factory, descriptor):
        combinatorics = pytest.importorskip("sympy.combinatorics")
        system = system_factory(descriptor)
        oracle = combinatorics.PermutationGroup([
            combinatorics.Permutation(list(permutation_images(g)))
            for g in system.generators
        ])
        expected = (oracle.order(), oracle.center().order())
        assert system.orders() == expected

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

    def test_generator_outside_class_rejected(self):
        gens = [transposition(5, 0, 1), transposition(5, 1, 2), transposition(5, 3, 4)]
        with pytest.raises(GroupError, match=(
            r"^generator Permutation\(\(3, 4\)\) is not in the transposition "
            r"class; the center is read off the class action only when G = <D>$"
        )):
            fischer.build_system(gens, [gens[0]])
        # Seeded with both classes, D = {(0 1), (1 2), (0 2), (3 4)} generates
        # G = S3 x C2, whose center <(3 4)> is the kernel of the class action.
        system = fischer.build_system(gens, [gens[0], gens[2]])
        assert system.size == 4
        assert system.orders() == (12, len(center(generate(gens)))) == (12, 2)

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
