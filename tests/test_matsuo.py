"""Matsuo algebras: products, forms, unity, radical, spectra, Miyamoto maps."""
import functools
import itertools
import json
import re
from fractions import Fraction
from pathlib import Path

import pytest

from fischerlab import fischer, groups, matsuo
from fischerlab.fischer import build_system
from fischerlab.groups import Permutation, generate
from fischerlab.matsuo import (
    DegenerateAlphaError,
    MatsuoAlgebra,
    MatsuoError,
    NotSigmaConfigurationError,
    VerificationError,
    format_rational,
)

HALF = Fraction(1, 2)


def quotient_coords(algebra, vector):
    """Coordinates on ``quotient().rep_indices`` of the coset of ``vector``:
    each row of ``gram_radical()``, the only one nonzero at its free column,
    clears that column."""
    rep_indices = algebra.quotient().rep_indices
    free = [c for c in range(algebra.n) if c not in rep_indices]
    v = [Fraction(x) for x in vector]
    for f, row in zip(free, algebra.gram_radical()):
        scale = v[f] / row[f]
        v = [x - scale * r for x, r in zip(v, row)]
    return [v[c] for c in rep_indices]


def apply_permutation(mapping, vector):
    """The vector whose coordinate mapping[j] is coordinate j of ``vector``."""
    out = [Fraction(0)] * len(mapping)
    for j, c in enumerate(vector):
        out[mapping[j]] += c
    return out


@pytest.fixture(scope="module")
def s3(system_factory):
    return system_factory("symmetric:n=3")


@pytest.fixture(scope="module")
def s4(system_factory):
    return system_factory("symmetric:n=4")


@pytest.fixture(scope="module")
def B(s3):
    return MatsuoAlgebra(s3, HALF, HALF)


class TestRationalIO:
    def test_format_always_has_denominator(self):
        assert format_rational(Fraction(3)) == "3/1"
        assert format_rational(Fraction(-1, 2)) == "-1/2"


class TestProductsAndForm:
    def test_square(self, B):
        x0 = B.axis(0)
        assert B.multiply(x0, x0) == [2 * c for c in x0]

    def test_adjacent_product(self, B):
        # three transpositions of S_3 are pairwise adjacent
        prod = B.multiply(B.axis(0), B.axis(1))
        k = B.system.conj[0][1]
        expected = B.zero()
        expected[0] = expected[1] = Fraction(1, 4)
        expected[k] = Fraction(-1, 4)
        assert prod == expected

    def test_orthogonal_product(self, s4):
        A = MatsuoAlgebra(s4, HALF, HALF)
        i, j = next(
            (i, j)
            for i in range(6)
            for j in range(6)
            if i != j and not s4.adjacent(i, j)
        )
        assert A.multiply(A.axis(i), A.axis(j)) == A.zero()

    def test_gram_values(self, B):
        assert B.gram[0][0] == Fraction(1, 4)
        assert B.gram[0][1] == Fraction(1, 32)

    def test_gram_other_parameters(self, s3):
        A = MatsuoAlgebra(s3, Fraction(2, 5), Fraction(4, 5))
        assert A.gram[0][0] == Fraction(2, 5)
        assert A.gram[0][1] == Fraction(1, 25)

    def test_alpha_zero_products_vanish(self, s3):
        A = MatsuoAlgebra(s3, Fraction(0), HALF)
        assert A.multiply(A.axis(0), A.axis(1)) == A.zero()

    def test_axioms_exhaustive(self, B):
        assert B.verify_axioms()

    @pytest.mark.parametrize("alpha", [Fraction(1), HALF])
    def test_e6_tables_stay_int64(self, system_factory, alpha):
        # The scaled Gram table holds exactly the form values: beta/2 on the
        # diagonal, alpha*beta/8 on edges, 0 otherwise.
        A = MatsuoAlgebra(system_factory("weyl:type=E,rank=6"), alpha, alpha)
        gram = A._gram
        scale = 8 * alpha.denominator**2
        form = [
            [alpha / 2 if i == j else alpha**2 / 8 if A.system.adjacent(i, j) else 0
             for j in range(A.n)]
            for i in range(A.n)
        ]
        assert gram == [[x * scale for x in row] for row in form]
        assert all(type(x) is int for row in gram for x in row)

    def test_bilinearity_spot(self, B):
        u = [Fraction(1), Fraction(-2), Fraction(3)]
        v = [Fraction(0), Fraction(1, 3), Fraction(5)]
        lhs = B.multiply(u, v)
        by_parts = B.zero()
        for i, ci in enumerate(u):
            for j, cj in enumerate(v):
                term = B.multiply(B.axis(i), B.axis(j))
                for k in range(B.n):
                    by_parts[k] += ci * cj * term[k]
        assert lhs == by_parts

    @pytest.mark.parametrize("view", ["multiply", "form"])
    def test_vector_length_is_checked(self, B, view):
        with pytest.raises(MatsuoError, match=r"^vector length must be 3$"):
            getattr(B, view)([Fraction(1)], B.axis(0))


class TestUnity:
    def test_s3_unity(self, B):
        omega = B.unity()
        assert omega == [Fraction(4, 5)] * 3

    def test_disconnected_needs_component(self, system_factory):
        sys = system_factory("orthogonal-f3:dim=3")
        A = MatsuoAlgebra(sys, HALF, HALF)
        with pytest.raises(matsuo.MatsuoError):
            A.unity()
        assert A.unity([0]) == [Fraction(1), Fraction(0), Fraction(0)]

    def test_degenerate_slope_returns_none(self, s3):
        # k = 2 here, so alpha = -2 kills k*alpha + 4
        A = MatsuoAlgebra(s3, Fraction(-2), HALF)
        assert A.unity() is None


class TestRadicalAndQuotient:
    def test_nondegenerate(self, B):
        assert B.gram_radical() == []
        assert B.quotient().dim == 3

    def test_rank_one_radical(self, s3):
        A = MatsuoAlgebra(s3, Fraction(-2), HALF)
        rad = A.gram_radical()
        assert rad == [[1, 1, 1]]
        q = A.quotient(rad)
        assert q.dim == 2

    def test_rank_two_radical_with_shared_lead(self, s3):
        # at alpha = 4 the Gram matrix is constant; both kernel vectors have
        # a nonzero first coordinate, exercising the echelon normalization
        A = MatsuoAlgebra(s3, Fraction(4), HALF)
        rad = A.gram_radical()
        assert len(rad) == 2
        q = A.quotient(rad)
        assert q.dim == 1

    # Subspaces other than the Gram kernel, whose ideal and form tests live
    # in the oracles of test_matsuo_oracle.py.
    @pytest.mark.parametrize("descriptor, alpha, beta, rows", [
        pytest.param("symmetric:n=3", HALF, HALF, [[1, -1, 0]], id="vector"),
        pytest.param("symmetric:n=3", Fraction(-2), HALF, [[1, 1, 1], [1, -1, 0]],
                     id="radical-plus-vector"),
        pytest.param("symmetric:n=3", HALF, HALF, [[0, -1, 1], [1, -1, 0]], id="two-rows"),
        pytest.param("symmetric:n=3", Fraction(-2), HALF, [], id="empty"),
        pytest.param("symmetric:n=3", Fraction(-2), HALF, [[1, 1]], id="short"),
        pytest.param("symmetric:n=5", Fraction(2**25 + 1, 2**26 + 3),
                     Fraction(2**30 - 5, 2**29 + 7), [[1, -1] + [0] * 8], id="not-ideal"),
        pytest.param("symmetric:n=3", Fraction(-2), Fraction(2**70 + 1, 2**65 + 3),
                     [[2**70] * 3], id="scaled"),
    ])
    def test_other_subspaces_rejected(self, system_factory, descriptor, alpha, beta, rows):
        A = MatsuoAlgebra(system_factory(descriptor), alpha, beta)
        with pytest.raises(matsuo.MatsuoError, match=(
            r"^the quotient is taken only by the rows of gram_radical\(\)$"
        )):
            A.quotient(rows)

    def test_quotient_products_consistent(self, s3):
        # The radical rows are the zero coset, and the product of two cosets
        # does not depend on the representative of the left one.
        A = MatsuoAlgebra(s3, Fraction(-2), HALF)
        q = A.quotient()
        radical = A.gram_radical()
        assert q.dim == 2 and radical == [[1, 1, 1]]
        assert [quotient_coords(A, row) for row in radical] == [[0, 0]]
        for p in q.rep_indices:
            for r in q.rep_indices:
                product = quotient_coords(A, A.multiply(A.axis(p), A.axis(r)))
                shifted = [x + y for x, y in zip(A.axis(p), radical[0])]
                assert quotient_coords(A, A.multiply(shifted, A.axis(r))) == product

    def test_radical_basis_in_kernel(self, s3):
        A = MatsuoAlgebra(s3, Fraction(-2), HALF)
        for vec in A.gram_radical():
            v = [Fraction(c) for c in vec]
            assert all(A.form(v, A.axis(i)) == 0 for i in range(A.n))


class TestSpectrum:
    def test_s3_dimensions(self, B):
        spec = B.adjoint_spectrum(0)
        assert spec.dims == {Fraction(2): 1, Fraction(0): 1, HALF: 1}
        assert spec.basis_2 == [B.axis(0)]

    def test_alpha_space_is_half_valency(self, system_factory):
        sys = system_factory("symmetric:n=5")
        A = MatsuoAlgebra(sys, HALF, HALF)
        from fischerlab import fischer

        k = fischer.valency(sys, fischer.components(sys)[0])
        spec = A.adjoint_spectrum(0)
        assert len(spec.basis_alpha) == k // 2
        assert len(spec.basis_2) == 1
        assert sum(map(len, (spec.basis_2, spec.basis_0, spec.basis_alpha))) == A.n

    def test_degenerate_alpha_raises(self, s3):
        for bad in (Fraction(0), Fraction(2)):
            with pytest.raises(DegenerateAlphaError):
                MatsuoAlgebra(s3, bad, HALF).adjoint_spectrum(0)

    def test_eigen_equations_hold(self, system_factory):
        sys = system_factory("symmetric:n=4")
        A = MatsuoAlgebra(sys, Fraction(2, 5), Fraction(4, 5))
        x0 = A.axis(0)
        spec = A.adjoint_spectrum(0)
        for v in spec.basis_alpha:
            assert A.multiply(x0, v) == [Fraction(2, 5) * c for c in v]
        for v in spec.basis_0:
            assert A.multiply(x0, v) == A.zero()


class TestMiyamoto:
    def test_s3_mapping(self, B):
        pi = B.miyamoto(0)
        third = B.system.conj[1][2]
        assert third == 0
        assert pi.mapping[0] == 0
        assert pi.mapping[1] == B.system.conj[0][1]
        assert pi.is_involution()

    def test_apply_negates_alpha_vectors(self, B):
        spec = B.adjoint_spectrum(0)
        pi = B.miyamoto(0)
        for v in spec.basis_alpha:
            assert apply_permutation(pi.mapping, v) == [-c for c in v]

    def test_all_axes_verify(self, system_factory):
        sys = system_factory("symmetric:n=5")
        A = MatsuoAlgebra(sys, HALF, Fraction(1, 16))
        for i in range(A.n):
            assert A.miyamoto(i).is_involution()

    def test_axis_checks_read_the_system_orbits(self, system_factory, monkeypatch):
        # The verdicts are carried along system.orbits, so once the system
        # holds its orbits the per-axis checks close nothing themselves.
        sys = system_factory("symmetric:n=5")
        assert sys.orbits == (tuple(range(10)),)
        calls = []
        closure = groups.closure

        def counted(*args, **kwargs):
            calls.append(args)
            return closure(*args, **kwargs)

        monkeypatch.setattr(groups, "closure", counted)
        checks = MatsuoAlgebra(sys, HALF, HALF)._axis_checks
        assert calls == []
        # Only the generator axes are checked directly; axis 0, the least
        # axis of the one orbit, is one of them.
        assert sys.generator_axes == (0, 1, 3, 6)
        assert sorted({check.axis for check in checks}) == [0, 1, 3, 6]


class TestWitnesses:
    """Each failure message of the table checks names its witness; every
    test corrupts one conjugation-table or Gram entry.

    On S4 at alpha = beta = 1/2, conj row 0 is (0, 2, 1, 3, 5, 4): axis 3
    commutes with axis 0, and the neighbours pair up as {1, 2} and {4, 5}, so
    the eigenbasis of axis 0 has the columns x^0 | x^3, two plus vectors |
    x^1 - x^2, x^4 - x^5.
    """

    @pytest.fixture
    def A(self, s4):
        assert s4.conj[0] == (0, 2, 1, 3, 5, 4)
        return MatsuoAlgebra(s4, HALF, HALF)

    def test_eigen_equation(self, s4, with_conj_entry):
        # x^0 x^5 = (x^0 + x^5 - x^3)/4 keeps the pairing {4, 5} but breaks
        # the plus vector of column 3
        A = MatsuoAlgebra(with_conj_entry(s4, 0, 5, 3), HALF, HALF)
        with pytest.raises(VerificationError, match=(
            r"^eigen-equation failed for eigenvalue 0 at axis 0, column 3 "
            r"\(coordinate x\^3\)$"
        )):
            A.adjoint_spectrum(0)

    def test_dimensions(self, s4, with_conj_entry):
        A = MatsuoAlgebra(with_conj_entry(s4, 0, 5, 5), HALF, HALF)
        with pytest.raises(VerificationError, match=(
            r"^eigenspace dimensions 1 \+ 4 \+ 2 of axis 0 do not sum to \|I\| = 6$"
        )):
            A.adjoint_spectrum(0)

    def test_miyamoto_involution(self, s4, with_conj_entry):
        A = MatsuoAlgebra(with_conj_entry(s4, 0, 5, 5), HALF, HALF)
        with pytest.raises(VerificationError, match=(
            r"^miyamoto map of axis 0 is not an involution: x\^4 -> x\^5 -> x\^5$"
        )):
            A.miyamoto(0)

    def test_miyamoto_automorphism(self, s4, with_conj_entry):
        # Row 3 is (0, 4, 5, 3, 1, 2).  The first entry changes the common
        # conjugate of an adjacent pair; the second turns the zero product of
        # the commuting pair 3, 0 into a nonzero one.
        for j, value in ((4, 2), (0, 1)):
            A = MatsuoAlgebra(with_conj_entry(s4, 3, j, value), HALF, HALF)
            with pytest.raises(VerificationError, match=(
                rf"^miyamoto map of axis 0 is not an automorphism at pair \(3,{j}\)$"
            )):
                A.miyamoto(0)

    def test_miyamoto_isometry(self, s4, with_conj_entry):
        # At alpha = 0 no automorphism scan runs.  With conj[4][4] = 0 the
        # Gram diagonal holds the edge value 0 at 4 but beta/2 at perm[4] = 5.
        A = MatsuoAlgebra(with_conj_entry(s4, 4, 4, 0), Fraction(0), HALF)
        with pytest.raises(VerificationError, match=(
            r"^miyamoto map of axis 0 is not an isometry at pair \(4,4\)$"
        )):
            A.miyamoto(0)

    def test_unity_idempotent(self, s4, with_conj_entry):
        # x^1 x^4 loses its x^3 term to x^5, so omega^2 moves off x^3.  The
        # idempotent identity is the sum of the per-axis ones, so the per-axis
        # check names the axis that moved: omega x^1 moves off x^3 too.
        A = MatsuoAlgebra(with_conj_entry(s4, 1, 4, 5), HALF, HALF)
        with pytest.raises(VerificationError, match=(
            r"^omega x\^1 != 2 x\^1 on the component of axis 0 \(coordinate x\^3\)$"
        )):
            A.unity()

    def test_unity_axis(self, s4, with_conj_entry):
        # x^3 x^2 takes the x^3 term back from x^5: omega^2 is kept, but not
        # omega x^1
        system = with_conj_entry(with_conj_entry(s4, 1, 4, 5), 3, 2, 3)
        A = MatsuoAlgebra(system, HALF, HALF)
        with pytest.raises(VerificationError, match=(
            r"^omega x\^1 != 2 x\^1 on the component of axis 0 \(coordinate x\^3\)$"
        )):
            A.unity()

    def test_unity_form(self, A):
        gram = A._gram
        gram[2][3] += 1
        with pytest.raises(VerificationError, match=r"^\(omega \| x\^3\) != beta/2$"):
            A.unity()

    def test_kernel(self, s3):
        # At alpha = -2 the scaled Gram rows are (4, -2, -2) and its
        # permutations; a second kernel row (1, 2, 0) is orthogonal to row 0
        # only, so the witness is radical row 1 at axis 1.
        A = MatsuoAlgebra(s3, Fraction(-2), HALF)
        A.gram_elimination = A.gram_elimination._replace(kernel=[[1, 1, 1], [1, 2, 0]])
        with pytest.raises(VerificationError, match=(
            r"^radical row 1 is not in the Gram kernel at axis 1$"
        )):
            A.quotient()

    def test_axioms(self, s4, with_conj_entry):
        # Row 3 is (0, 4, 5, 3, 1, 2) and row 4 is (5, 3, 2, 1, 4, 0).
        A = MatsuoAlgebra(with_conj_entry(s4, 3, 4, 2), HALF, HALF)
        with pytest.raises(VerificationError, match=r"^product is not commutative at pair \(3,4\)$"):
            A.verify_axioms()
        system = with_conj_entry(with_conj_entry(s4, 3, 4, 2), 4, 3, 2)
        A = MatsuoAlgebra(system, HALF, HALF)
        with pytest.raises(VerificationError, match=r"^form is not invariant at triple \(3,1,4\)$"):
            A.verify_axioms()


class TestSigmaAction:
    def test_kernel_is_center(self, s4):
        A = MatsuoAlgebra(s4, HALF, HALF)
        action = A.sigma_action(s4.group())
        assert len(action.kernel_keys) == 1

    def test_permutations_are_conjugation(self, system_factory, s3):
        A = MatsuoAlgebra(s3, HALF, HALF)
        action = A.sigma_action(s3.group())
        # conjugation by transposition #0 fixes it and swaps the other two
        key0 = s3.involutions[0].key
        assert action.permutations[key0] == (0, 2, 1)
        # sigma comes from carrier products and conj from the class closure;
        # each generator's sigma is its row of conj.
        for descriptor in ("symmetric:n=3", "symmetric:n=4", "symplectic-f2:n=2"):
            system = system_factory(descriptor)
            A = MatsuoAlgebra(system, HALF, HALF)
            action = A.sigma_action(system.group())
            for g in system.generators:
                row = system.conj[system.involutions.index(g)]
                assert action.permutations[g.key] == tuple(row)

    def test_group_must_stabilize_the_class(self):
        # D = {(0 1), (1 2), (0 2)}, and (2 3) conjugates (1 2) to (1 3).
        def t(i, j):
            return Permutation.from_cycles(4, [(i, j)])

        system = build_system([t(0, 1), t(1, 2)], [t(0, 1)])
        A = MatsuoAlgebra(system, HALF, HALF)
        with pytest.raises(
            MatsuoError, match=r"^group does not stabilize the transposition class$"
        ):
            A.sigma_action(generate([t(2, 3)]))


class TestPairType:
    def test_types(self, s4):
        A = MatsuoAlgebra(s4, HALF, HALF)
        assert A.pair_type(0, 0) == "1A"
        adjacent = next(j for j in range(6) if s4.adjacent(0, j))
        apart = next(j for j in range(1, 6) if not s4.adjacent(0, j))
        assert A.pair_type(0, adjacent) == "2A"
        assert A.pair_type(0, apart) == "2B"

    def test_requires_half_half(self, s3):
        A = MatsuoAlgebra(s3, Fraction(2, 5), Fraction(4, 5))
        with pytest.raises(NotSigmaConfigurationError):
            A.pair_type(0, 1)


class TestExports:
    def test_gram_csv(self, B):
        csv = matsuo.export_gram_csv(B)
        rows = csv.strip().split("\n")
        assert len(rows) == 3
        assert rows[0].split(",")[0] == "1/4"

    def test_gram_views_cannot_be_edited_in_place(self, s4):
        # The Fraction Gram views of the algebra and of its quotient are
        # tuples of tuples: an edit in place raises and changes neither the
        # form value, nor the pair type, nor the CSV export.
        A = MatsuoAlgebra(s4, HALF, HALF)
        Q = A.quotient()
        for gram in (A.gram, Q.gram):
            assert type(gram) is tuple and all(type(row) is tuple for row in gram)
        before = (A.gram_entry(0, 1), A.pair_type(0, 1), matsuo.export_gram_csv(A))
        assert before[:2] == (Fraction(1, 32), "2A")
        with pytest.raises(TypeError):
            A.gram[0][1] = Fraction(1, 4)
        with pytest.raises(TypeError):
            A.gram[0] = A.gram[1]
        with pytest.raises(TypeError):
            Q.gram[0][1] = Fraction(1, 4)
        assert (A.gram_entry(0, 1), A.pair_type(0, 1), matsuo.export_gram_csv(A)) == before



def test_analyze_builds_each_eigenbasis_once(monkeypatch, capsys):
    # E6 has 6 generators and one orbit: the generator axes and the least
    # axis are checked, and the other axes carry their verdict (today's
    # count without the orbit rule: 72, two per axis).
    from fischerlab import cli

    built = []
    eigenbasis = MatsuoAlgebra._eigenbasis

    def counting(self, i):
        built.append(i)
        return eigenbasis(self, i)

    monkeypatch.setattr(MatsuoAlgebra, "_eigenbasis", counting)
    assert cli.main(["analyze", "weyl:type=E,rank=6", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["matsuo"]
    assert report["spectra"]["verdict"] == report["miyamoto"]["verdict"] == "pass"
    assert report["spectra"]["per_component"][0]["dims"] == {"2": 1, "0": 25, "alpha": 10}
    assert len(built) == len(set(built)) <= 6 + 1


def commutativity_defect(system):
    """The first cell (i, j) of the whole table, in row-major order, where
    x^i x^j != x^j x^i at alpha != 0: i and j are adjacent one way only, or
    both ways with two common conjugates."""
    conj = system.conj
    for i, (row, column) in enumerate(zip(conj, zip(*conj))):
        for j, (c, d) in enumerate(zip(row, column)):
            if (c != j) != (d != i) or (c != j and c != d):
                return i, j
    return None


class TestOneLaw:
    """``TranspositionSystem.law_defect`` is the one scan of the
    3-transposition law: ``build_system`` and the Matsuo axioms read it."""

    @pytest.mark.parametrize("descriptor", [
        "symmetric:n=4", "orthogonal-f2:dim=4,eps=+", "orthogonal-f3:dim=3",
        "weyl:type=D,rank=4",
    ])
    def test_matches_commutativity_on_every_single_entry_corruption(
        self, system_factory, with_conj_entry, descriptor
    ):
        system = system_factory(descriptor)
        n = system.size
        defects = set()
        for i, j, value in itertools.product(range(n), repeat=3):
            if system.conj[i][j] != value:
                corrupted = with_conj_entry(system, i, j, value)
                defect = corrupted.law_defect
                assert defect == commutativity_defect(corrupted), (i, j, value)
                defects.add(defect)
        # Diagonal corruptions keep the law; the others break it.
        assert None in defects and len(defects) > 1

    def test_analyze_scans_the_law_once(self, monkeypatch, capsys):
        from fischerlab import cli

        scans = []
        scan = fischer.TranspositionSystem.law_defect.func

        def counting(system):
            scans.append(system.size)
            return scan(system)

        law = functools.cached_property(counting)
        law.__set_name__(fischer.TranspositionSystem, "law_defect")
        monkeypatch.setattr(fischer.TranspositionSystem, "law_defect", law)
        assert cli.main(["analyze", "weyl:type=E,rank=6", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["three_transposition"]["verdict"] == "pass"
        assert report["matsuo"]["axioms"]["verdict"] == "pass"
        assert scans == [36]

    def test_a_corrupted_table_is_a_new_system(self, s4, with_conj_entry):
        # The rows are frozen, so no cached view outlives its table: an edit
        # in place raises, and the corrupted table is a new system whose law
        # and axioms both name the broken pair.  Row 3 is (0, 4, 5, 3, 1, 2).
        assert (s4.law_defect, s4.orbits) == (None, (tuple(range(6)),))
        with pytest.raises(TypeError):
            s4.conj[3] = (0, 4, 5, 3, 2, 2)
        with pytest.raises(TypeError):
            s4.conj[3][4] = 2
        table = [list(row) for row in s4.conj]
        table[3][4] = 2
        corrupted = fischer.TranspositionSystem(s4.involutions, table, s4.generator_axes)
        table[3][4] = 1
        assert corrupted.conj[3] == (0, 4, 5, 3, 2, 2)
        assert (s4.law_defect, corrupted.law_defect) == (None, (3, 4))
        with pytest.raises(VerificationError, match=(
            r"^product is not commutative at pair \(3,4\)$"
        )):
            MatsuoAlgebra(corrupted, HALF, HALF).verify_axioms()
        MatsuoAlgebra(s4, HALF, HALF).verify_axioms()


def test_readme_library_example(capsys):
    # The README's library example runs as written.  On S5 an axis commutes
    # with 3 transpositions and is adjacent to 3 pairs of the other 6, so its
    # eigenspaces for 2, 0 and alpha have dimensions 1, 3 + 3 and 3.
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert 'from_descriptor("symmetric:n=5")' in example
    exec(example, {})
    dims, alpha_column = capsys.readouterr().out.splitlines()
    assert dims.startswith(
        "{Fraction(2, 1): 1, Fraction(0, 1): 6, Fraction(1, 2): 3} "
    )
    assert alpha_column.startswith("[Fraction(")
