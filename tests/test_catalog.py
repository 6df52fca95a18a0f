"""Catalog constructors and descriptor parsing."""
from itertools import product

import pytest

from fischerlab import catalog, fischer, groups
from fischerlab.catalog import CatalogError


class TestSymmetric:
    def test_generators_and_seed(self):
        e = catalog.symmetric(5)
        assert len(e.generators) == 4
        assert e.seed == e.generators
        assert e.descriptor == "symmetric:n=5"

    def test_group_order(self):
        assert groups.generate(catalog.symmetric(5).generators).order == 120

    @pytest.mark.parametrize("n", [1, 13])
    def test_range(self, n):
        with pytest.raises(CatalogError):
            catalog.symmetric(n)


class TestSymplecticF2:
    def test_small_orders(self):
        # Sp_2(2) ~ S_3, Sp_4(2) ~ S_6
        assert groups.generate(catalog.symplectic_F2(1).generators).order == 6
        assert groups.generate(catalog.symplectic_F2(2).generators).order == 720

    def test_generators_are_involutions(self):
        e = catalog.symplectic_F2(2)
        assert all(g.order() == 2 for g in e.generators)

    @pytest.mark.parametrize("n, count", [(1, 2), (2, 5), (3, 8)])
    def test_small_set_generates_the_whole_class(self, n, count):
        # The class is every transvection t_v, v != 0, of the form pairing
        # coordinates (0,1), (2,3), ...
        dim = 2 * n

        def form(x, y):
            return sum(x[i] * y[i + 1] + x[i + 1] * y[i] for i in range(0, dim, 2))

        whole = [transvection(form, v) for v in product((0, 1), repeat=dim) if any(v)]
        entry = catalog.symplectic_F2(n)
        assert len(entry.generators) == count
        small = fischer.build_system(entry.generators)
        full = fischer.build_system(whole)
        assert [x.key for x in small.involutions] == [x.key for x in full.involutions]
        assert small.conj == full.conj

    def test_range(self):
        with pytest.raises(CatalogError):
            catalog.symplectic_F2(4)


class TestOrthogonalF2:
    def test_class_sizes(self, system_factory):
        assert system_factory("orthogonal-f2:dim=4,eps=+").size == 6
        assert system_factory("orthogonal-f2:dim=4,eps=-").size == 10
        assert system_factory("orthogonal-f2:dim=6,eps=+").size == 28
        assert system_factory("orthogonal-f2:dim=6,eps=-").size == 36

    def test_generators_are_involutions(self):
        e = catalog.orthogonal_F2(4, "-")
        assert all(g.order() == 2 for g in e.generators)

    def test_bad_params(self):
        with pytest.raises(CatalogError):
            catalog.orthogonal_F2(5, "+")
        with pytest.raises(CatalogError):
            catalog.orthogonal_F2(4, "x")


class TestOrthogonalF3:
    def test_reflections_preserve_form(self):
        # q(x) = sum of squares; every generator must fix it pointwise on F3^3
        e = catalog.orthogonal_F3(3)
        p = 3

        def q(vec):
            return sum(c * c for c in vec) % p

        for g in e.generators:
            flat = g.entries
            for v0 in range(p):
                for v1 in range(p):
                    for v2 in range(p):
                        v = (v0, v1, v2)
                        image = [
                            sum(flat[3 * r + c] * v[c] for c in range(3)) % p
                            for r in range(3)
                        ]
                        assert q(image) == q(v)

    def test_dim5_order(self, system_factory):
        sys5 = system_factory("orthogonal-f3:dim=5")
        assert sys5.size == 45
        assert sys5.group().order == 51840

    def test_range(self):
        with pytest.raises(CatalogError):
            catalog.orthogonal_F3(6)

    def test_sign_is_1_or_2(self):
        with pytest.raises(CatalogError, match=r"^orthogonal-f3: sign must be 1 or 2$"):
            catalog.orthogonal_F3(5, sign=3)

    @pytest.mark.parametrize("form", ["110", "113", "444"])
    def test_form_entries_are_1_or_2(self, form):
        with pytest.raises(CatalogError) as exc:
            catalog.from_descriptor(f"orthogonal-f3:dim=3,form={form}")
        digits = tuple(map(int, form))
        assert str(exc.value) == f"orthogonal-f3: form entries must be 1 or 2, got {digits}"


def matrix_of(p, dim, image):
    """The matrix over F_p whose column j is image(e_j)."""
    columns = [image(tuple(int(i == j) for i in range(dim))) for j in range(dim)]
    return groups.FpMatrix.from_entries(
        p, dim, [columns[j][i] % p for i in range(dim) for j in range(dim)]
    )


def transvection(form, v):
    """t_v(x) = x + B(x, v) v over F2, with B = ``form``."""
    return matrix_of(2, len(v), lambda x: [a + form(x, v) * b for a, b in zip(x, v)])


def reflection(form, v):
    """r_v(x) = x - 2 B(x, v)/q(v) v over F3, with B = ``form`` and
    q(v) = B(v, v)."""
    inverse = pow(form(v, v), -1, 3)
    return matrix_of(
        3, len(v), lambda x: [a - 2 * form(x, v) * inverse * b for a, b in zip(x, v)]
    )


def whole_class_generators(descriptor):
    """The whole transvection or reflection class of an orthogonal
    descriptor, one map per class vector, built from the textbook formulas
    with no catalog helper."""
    params = dict(item.split("=") for item in descriptor.split(":")[1].split(","))
    dim = int(params["dim"])
    if descriptor.startswith("orthogonal-f2"):
        # q+ = x0 x1 + x2 x3 + ...; q- has x^2 + xy + y^2 as its last block.
        def q(x):
            value = sum(x[i] * x[i + 1] for i in range(0, dim, 2))
            if params["eps"] == "-":
                value += x[-2] ** 2 + x[-1] ** 2
            return value % 2

        def polar(x, y):
            return q([a + b for a, b in zip(x, y)]) - q(x) - q(y)

        vectors = [v for v in product((0, 1), repeat=dim) if q(v) == 1]
        return [transvection(polar, v) for v in vectors]
    diagonal = [int(c) for c in params.get("form", "1" * dim)]
    sign = catalog.F3_SIGNS[params["sign"]]

    def form(x, y):
        return sum(d * a * b for d, a, b in zip(diagonal, x, y))

    # r_v = r_{-v}: keep one matrix per line.
    whole = {}
    for v in product(range(3), repeat=dim):
        if form(v, v) % 3 == sign:
            g = reflection(form, v)
            whole.setdefault(g.key, g)
    return list(whole.values())


ORTHOGONAL = (
    [f"orthogonal-f2:dim={d},eps={e}" for d in (4, 6, 8) for e in "+-"]
    + [f"orthogonal-f3:dim={d},sign={e}" for d in (3, 4, 5) for e in "+-"]
    + [f"orthogonal-f3:dim=4,form=1112,sign={e}" for e in "+-"]
)


class TestSmallGeneratingSet:
    @pytest.mark.parametrize("descriptor", ORTHOGONAL)
    def test_generates_the_whole_class(self, descriptor):
        entry = catalog.from_descriptor(descriptor)
        whole = whole_class_generators(descriptor)
        dim = entry.params["dim"]
        assert len(entry.generators) <= 2 * dim
        assert entry.seed == entry.generators
        small = fischer.build_system(entry.generators)
        full = fischer.build_system(whole)
        assert [x.key for x in small.involutions] == [x.key for x in full.involutions]
        assert small.conj == full.conj
        assert all(g.key in {x.key for x in whole} for g in entry.generators)
        assert groups.group_order(entry.generators, None) == groups.group_order(
            whole, None
        )

    def test_each_vector_meets_each_map_once(self, monkeypatch):
        # O8-(2): 136 class vectors and 10 generators.  Recomputing the
        # closure whenever a vector joins S took 2,522 images.
        real = catalog._generating_vectors
        calls = []

        def counted(vectors, image):
            def counting(u, v):
                calls.append((u, v))
                return image(u, v)

            assert len(vectors) == 136
            return real(vectors, counting)

        monkeypatch.setattr(catalog, "_generating_vectors", counted)
        entry = catalog.from_descriptor("orthogonal-f2:dim=8,eps=-")
        assert len(entry.generators) == 10
        assert len(calls) <= 136 * 10


class TestWeyl:
    @pytest.mark.parametrize(
        "type_,rank,order",
        [("A", 2, 6), ("A", 3, 24), ("D", 4, 192), ("E", 6, 51840)],
    )
    def test_orders(self, type_, rank, order):
        e = catalog.weyl(type_, rank)
        assert groups.generate(e.generators).order == order

    def test_reflection_count_E7(self, system_factory):
        assert system_factory("weyl:type=E,rank=7").size == 63

    @pytest.mark.parametrize("kind, rank", [
        (kind, rank) for kind, ranks in catalog.WEYL_RANKS.items() for rank in ranks
    ])
    def test_generators_match_images_dict(self, kind, rank):
        # The generators as weyl built them before permutation_action: the
        # closure's step fills an images dict, which an index map and a
        # column transpose turn into one permutation per simple root.
        simple = catalog._simple_roots(kind, rank)
        images = {}

        def step(x):
            images[x] = [catalog._reflect(x, v) for v in simple]
            return images[x]

        start = set(simple) | {tuple(-a for a in r) for r in simple}
        roots = sorted(groups.closure(start, step))
        index = {r: i for i, r in enumerate(roots)}
        expected = [tuple(index[y] for y in col) for col in zip(*(images[x] for x in roots))]
        assert [g.images for g in catalog.weyl(kind, rank).generators] == expected

    def test_bad_rank(self):
        with pytest.raises(CatalogError):
            catalog.weyl("A", 8)
        with pytest.raises(CatalogError):
            catalog.weyl("B", 2)


class TestFromDescriptor:
    @pytest.mark.parametrize(
        "descriptor",
        [
            "symmetric:n=5",
            "symplectic-f2:n=2",
            "orthogonal-f2:dim=6,eps=+",
            "orthogonal-f3:dim=4",
            "weyl:type=E,rank=6",
        ],
    )
    def test_roundtrip(self, descriptor):
        e = catalog.from_descriptor(descriptor)
        assert e.generators and e.seed

    def test_examples_in_registry_parse(self):
        for info in catalog.FAMILIES.values():
            assert catalog.from_descriptor(info["example"]).generators

    def test_unknown_family(self):
        with pytest.raises(CatalogError):
            catalog.from_descriptor("unitary:n=4")

    def test_leftover_params_rejected(self):
        with pytest.raises(CatalogError):
            catalog.from_descriptor("symmetric:n=5,junk=1")

    def test_missing_param(self):
        with pytest.raises(CatalogError):
            catalog.from_descriptor("symmetric")

    def test_bad_value(self):
        with pytest.raises(CatalogError):
            catalog.from_descriptor("symmetric:n=five")

    def test_malformed_item(self):
        with pytest.raises(CatalogError):
            catalog.from_descriptor("symmetric:n")


class TestSeedConsistency:
    @pytest.mark.parametrize(
        "descriptor", ["symmetric:n=4", "weyl:type=A,rank=3", "symplectic-f2:n=2"]
    )
    def test_seed_closure_is_valid_system(self, descriptor, system_factory):
        sys = system_factory(descriptor)
        # every member really is an involution in the generated group
        assert all(x.order() == 2 for x in sys.involutions)
        g = sys.group()
        assert all(x in g for x in sys.involutions)

    def test_symmetric_matches_weyl_A(self, system_factory):
        # S_n is the Weyl group of A_{n-1}; the Fischer graphs agree up to size
        s = system_factory("symmetric:n=4")
        w = system_factory("weyl:type=A,rank=3")
        assert s.size == w.size == 6
        assert sorted(map(len, fischer.components(s))) == sorted(
            map(len, fischer.components(w))
        )
