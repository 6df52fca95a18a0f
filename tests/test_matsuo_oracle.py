"""The checks of fischerlab.matsuo against two oracles.

The Fraction oracle is the per-vector and per-pair Fraction code that checked
the same identities before the checks ran on integer tables, on its own
closed-form product and form (``product_terms``, ``gram_entry``,
``multiply`` and ``form`` below, not the views of ``MatsuoAlgebra``, which
read the checked integer tables): eigenvectors multiplied out with
``multiply``, Miyamoto maps compared pair by pair on ``product_terms`` and
``gram_entry``, the ideal property tested vector by vector against a reduced
row echelon form, and ranks by Gaussian elimination over Fraction.

The dense oracle is the integer-table code that ran on an n x n x n structure
tensor before the checks read the conjugation table.  It reproduces each
verdict and each witness message, also on corrupted tables.

``MatsuoAlgebra.quotient`` accepts only the Gram kernel, so the ideal and
induced-form tests of other subspaces live on in the two oracles, which
check each other on them.
"""
import itertools
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischerlab import fischer, matsuo
from fischerlab.groups import GroupError
from fischerlab.matsuo import (
    DegenerateAlphaError,
    MatsuoAlgebra,
    MatsuoError,
    RadicalNotIdealError,
    VerificationError,
)

TWO = F(2)


# -- the oracle -----------------------------------------------------------


def product_terms(A, i, j):
    """Sparse structure constants of x^i x^j (at most three terms)."""
    if i == j:
        return ((i, TWO),)
    k = A.system.conj[i][j]
    if A.alpha and k != j:
        half_alpha = A.alpha / 2
        return ((i, half_alpha), (j, half_alpha), (k, -half_alpha))
    return ()


def gram_entry(A, i, j):
    """beta/2 on the diagonal, alpha*beta/8 on edges, 0 otherwise."""
    if i == j:
        return A.beta / 2
    if A.system.adjacent(i, j):
        return A.alpha * A.beta / 8
    return F(0)


def oracle_gram(A):
    return [[gram_entry(A, i, j) for j in range(A.n)] for i in range(A.n)]


def multiply(A, u, v):
    out = [F(0)] * A.n
    support_v = [j for j, c in enumerate(v) if c]
    for i, ci in enumerate(u):
        if ci:
            for j in support_v:
                for t, coeff in product_terms(A, i, j):
                    out[t] += ci * v[j] * coeff
    return out


def form(A, u, v):
    support_v = [j for j, c in enumerate(v) if c]
    return sum(
        (ci * v[j] * gram_entry(A, i, j) for i, ci in enumerate(u) if ci for j in support_v),
        F(0),
    )


def oracle_spectrum(A, i):
    """(basis_2, basis_0, basis_alpha) of ad(x^i), each vector checked to be
    an eigenvector with ``multiply``."""
    if A.alpha in (0, 2):
        raise DegenerateAlphaError(A.alpha)
    sys_ = A.system
    basis_2 = [A.axis(i)]
    basis_0 = []
    basis_alpha = []
    row = sys_.conj[i]
    for j in range(A.n):
        if j != i and row[j] == j:
            basis_0.append(A.axis(j))
    for j in sys_.neighbors(i):
        jo = row[j]
        if jo < j:
            continue
        minus = A.zero()
        minus[j] = F(1)
        minus[jo] = F(-1)
        basis_alpha.append(minus)
        plus = A.zero()
        plus[j] = F(1)
        plus[jo] += F(1)
        plus[i] -= A.alpha / 2
        basis_0.append(plus)
    xi = A.axis(i)
    for lam, vecs in ((TWO, basis_2), (F(0), basis_0), (A.alpha, basis_alpha)):
        for v in vecs:
            assert multiply(A, xi, v) == [lam * c for c in v]
    assert len(basis_2) + len(basis_0) + len(basis_alpha) == A.n
    return basis_2, basis_0, basis_alpha


def oracle_miyamoto(A, i):
    """Whether conj row i is an involution acting by +1 on the {2, 0}
    eigenspaces and -1 on the alpha eigenspace, and a form-preserving
    automorphism, checked pair by pair."""
    mapping = A.system.conj[i]
    if any(mapping[mapping[j]] != j for j in range(A.n)):
        return False

    def apply(v):
        out = [F(0)] * A.n
        for j, c in enumerate(v):
            out[mapping[j]] += c
        return out

    if A.alpha not in (0, 2):
        basis_2, basis_0, basis_alpha = oracle_spectrum(A, i)
        if any(apply(v) != v for v in basis_2 + basis_0):
            return False
        if any(apply(v) != [-c for c in v] for v in basis_alpha):
            return False
    for j in range(A.n):
        for k in range(j, A.n):
            mapped = sorted((mapping[t], c) for t, c in product_terms(A, j, k))
            if mapped != sorted(product_terms(A, mapping[j], mapping[k])):
                return False
            if gram_entry(A, j, k) != gram_entry(A, mapping[j], mapping[k]):
                return False
    return True


def oracle_unity(A, component):
    """omega of a component, or None when k*alpha + 4 = 0, with the
    idempotent, omega x^i = 2 x^i and (omega | x^i) = beta/2 identities
    checked with ``multiply`` and ``form``."""
    k = fischer.valency(A.system, component)
    if k * A.alpha + 4 == 0:
        return None
    coeff = F(4) / (k * A.alpha + 4)
    omega = A.zero()
    for i in component:
        omega[i] = coeff
    half = [c / 2 for c in omega]
    assert multiply(A, half, half) == half
    for i in component:
        assert multiply(A, omega, A.axis(i)) == [2 * c for c in A.axis(i)]
        assert form(A, omega, A.axis(i)) == A.beta / 2
    return omega


def rref(rows):
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    m = [list(row) for row in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        lead = m[r][c]
        m[r] = [x / lead for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def fraction_rank(matrix):
    return len(rref([[F(x) for x in row] for row in matrix])[0])


def oracle_quotient_dim(A, radical):
    """Dimension of A / span(radical), raising RadicalNotIdealError when the
    span is not an ideal and VerificationError when the induced form is
    degenerate."""
    reduced, pivots = rref([[F(x) for x in row] for row in radical])
    if len(reduced) != len(radical):
        raise MatsuoError("radical basis is linearly dependent")

    def in_span(v):
        v = list(v)
        for f, row in zip(pivots, reduced):
            c = v[f]
            if c:
                v = [x - c * y for x, y in zip(v, row)]
        return not any(v)

    for row in radical:
        vec = [F(x) for x in row]
        for i in range(A.n):
            if not in_span(multiply(A, vec, A.axis(i))):
                raise RadicalNotIdealError(f"radical vector times axis {i}")
    reps = [c for c in range(A.n) if c not in pivots]
    gram = [[gram_entry(A, p, q) for q in reps] for p in reps]
    if fraction_rank(gram) != len(reps):
        raise VerificationError("degenerate")
    return len(reps)


def outcome(call):
    try:
        return call()
    except MatsuoError as exc:
        return type(exc)


# -- the dense oracle -------------------------------------------------------


def first(mask):
    """Index tuple of the first True entry of a boolean array, or None."""
    if not mask.any():
        return None
    return tuple(int(x) for x in np.argwhere(mask)[0])


def absmax(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def exact(bound, *arrays):
    """The arrays as int64 when none is an object array and ``bound`` bounds
    every value computed from them, otherwise as object arrays."""
    fits = bound < 2**63 and all(a.dtype != object for a in arrays)
    return [a.astype(np.int64 if fits else object, copy=False) for a in arrays]


def matmul(a, b):
    a, b = exact(a.shape[-1] * absmax(a) * absmax(b), a, b)
    return a @ b


def dense_ad(A, j):
    """ad(x^j) as the n x n integer matrix of ``A._ad`` on each basis vector."""
    columns = [A._ad(j, {t: 1}) for t in range(A.n)]
    return [[column.get(s, 0) for column in columns] for s in range(A.n)]


def dense_columns(columns, n):
    """Sparse columns {coordinate: value} as the rows of an n-row matrix."""
    return [[column.get(t, 0) for column in columns] for t in range(n)]


class DenseOracle:
    """The checks on a dense structure tensor: tensor[i, j] is x^i x^j scaled
    by 2*den(alpha), next to the Gram matrix scaled by 8*den(alpha)*den(beta),
    both filled entry by entry from ``conj``.  Products with a fixed axis j
    are read from the slice tensor[j], x^j on the left, as the checks on
    ``conj`` read ad(x^j); on a commutative table either order gives the
    same verdicts and witnesses."""

    def __init__(self, A):
        n = A.n
        a_num, a_den = A.alpha.numerator, A.alpha.denominator
        b_num = A.beta.numerator
        max_t = max(4 * a_den, abs(a_num))
        max_g = max(abs(4 * a_den * b_num), abs(a_num * b_num))
        bound = max(max_t, max_g, n * max_t * max_g)
        dtype = np.int64 if bound < 2**63 else object
        self.A = A
        self.n = n
        self.tensor = np.zeros((n, n, n), dtype=dtype)
        self.gram = np.zeros((n, n), dtype=dtype)
        for i in range(n):
            self.tensor[i, i, i] = 4 * a_den
            self.gram[i, i] = 4 * a_den * b_num
            for j, c in enumerate(A.system.conj[i]):
                if c != j:
                    self.tensor[i, j, i] += a_num
                    self.tensor[i, j, j] += a_num
                    self.tensor[i, j, c] -= a_num
                    self.gram[i, j] = a_num * b_num

    def triples(self):
        """t[i, j, k] = (x^i x^j | x^k) scaled by 16*den(alpha)^2*den(beta)."""
        n = self.n
        return (self.tensor.reshape(n * n, n) @ self.gram).reshape(n, n, n)

    def verify_axioms(self):
        tensor, gram = self.tensor, self.gram
        hit = first(tensor != tensor.transpose(1, 0, 2))
        if hit is not None:
            raise VerificationError(
                f"product is not commutative at pair ({hit[0]},{hit[1]})"
            )
        hit = first(gram != gram.T)
        if hit is not None:
            raise VerificationError(f"form is not symmetric at pair ({hit[0]},{hit[1]})")
        t = self.triples()
        hit = first(t != t.transpose(1, 2, 0))
        if hit is not None:
            raise VerificationError(
                f"form is not invariant at triple ({hit[0]},{hit[1]},{hit[2]})"
            )
        return True

    def eigenbasis(self, i):
        A, n = self.A, self.n
        if A.alpha in (0, 2):
            raise DegenerateAlphaError(A.alpha)
        row = A.system.conj[i]
        a_num = A.alpha.numerator
        scale = 2 * A.alpha.denominator
        fixed = [j for j in range(n) if j != i and row[j] == j]
        pairs = [(j, row[j]) for j in A.system.neighbors(i) if row[j] > j]
        sizes = (1, len(fixed) + len(pairs), len(pairs))
        if sum(sizes) != n:
            raise VerificationError(
                f"eigenspace dimensions {sizes[0]} + {sizes[1]} + {sizes[2]} "
                f"of axis {i} do not sum to |I| = {n}"
            )
        dtype = object if self.tensor.dtype == object else np.int64
        basis = np.zeros((n, sum(sizes)), dtype=dtype)
        basis[i, 0] = scale
        basis[fixed, range(1, 1 + len(fixed))] = scale
        if pairs:
            js, jos = (list(t) for t in zip(*pairs))
            plus = np.arange(1 + len(fixed), sizes[0] + sizes[1])
            minus = plus + len(pairs)
            basis[js, plus] = scale
            basis[jos, plus] += scale
            basis[i, plus] -= a_num
            basis[js, minus] = scale
            basis[jos, minus] -= scale
        lam = np.array([2 * scale] + [0] * sizes[1] + [2 * a_num] * sizes[2], dtype=dtype)
        lhs = matmul(self.tensor[i].T, basis)
        vecs, lam = exact(absmax(basis) * absmax(lam), basis, lam)
        hit = first(lhs != vecs * lam)
        if hit is not None:
            value = F(int(lam[hit[1]]), scale)
            raise VerificationError(
                f"eigen-equation failed for eigenvalue {value} at axis {i}, "
                f"column {hit[1]} (coordinate x^{hit[0]})"
            )
        return basis, sizes

    def miyamoto(self, i):
        A, n = self.A, self.n
        perm = np.array(A.system.conj[i])
        hit = first(perm[perm] != np.arange(n))
        if hit is not None:
            j = hit[0]
            raise VerificationError(
                f"miyamoto map of axis {i} is not an involution: "
                f"x^{j} -> x^{perm[j]} -> x^{perm[perm[j]]}"
            )
        if A.alpha not in (0, 2):
            basis, sizes = self.eigenbasis(i)
            sign = np.ones(basis.shape[1], dtype=np.int64)
            sign[sizes[0] + sizes[1]:] = -1
            hit = first(basis[perm] != basis * sign)
            if hit is not None:
                c = hit[1]
                if sign[c] > 0:
                    value = (TWO, F(0))[c >= sizes[0]]
                    raise VerificationError(
                        f"miyamoto map of axis {i} moved a +1 eigenvector "
                        f"(eigenvalue {value}, column {c})"
                    )
                raise VerificationError(
                    f"miyamoto map of axis {i} failed to negate an alpha "
                    f"eigenvector (column {c})"
                )
        for j in range(n):
            hit = first(self.tensor[perm[j]][np.ix_(perm, perm)] != self.tensor[j])
            if hit is not None:
                raise VerificationError(
                    f"miyamoto map of axis {i} is not an automorphism at "
                    f"pair ({j},{hit[0]})"
                )
        hit = first(self.gram[np.ix_(perm, perm)] != self.gram)
        if hit is not None:
            raise VerificationError(
                f"miyamoto map of axis {i} is not an isometry at pair ({hit[0]},{hit[1]})"
            )
        return A.system.conj[i]

    def unity(self, component):
        A = self.A
        k = fischer.valency(A.system, component)
        if k * A.alpha + 4 == 0:
            return None
        coeff = F(4) / (k * A.alpha + 4)
        p, q = coeff.numerator, coeff.denominator
        unit = q * 4 * A.alpha.denominator
        comp = list(component)
        tensor = self.tensor[np.ix_(comp, comp)]
        bound = len(comp) ** 2 * max(absmax(tensor), 1) * max(abs(p), unit)
        (tensor,) = exact(bound, tensor)
        sums = tensor.sum(axis=1)
        target = np.zeros_like(sums)
        target[range(len(comp)), comp] = unit
        hit = first(p * sums != target)
        if hit is not None:
            raise VerificationError(
                f"omega x^{comp[hit[0]]} != 2 x^{comp[hit[0]]} on the component "
                f"of axis {comp[0]} (coordinate x^{hit[1]})"
            )
        block = self.gram[np.ix_(comp, comp)]
        value = unit * A.beta.numerator
        bound = max(len(comp) * absmax(block) * abs(p), abs(value))
        (block,) = exact(bound, block)
        hit = first(p * block.sum(axis=0) != value)
        if hit is not None:
            raise VerificationError(f"(omega | x^{comp[hit[0]]}) != beta/2")
        omega = A.zero()
        for i in comp:
            omega[i] = coeff
        return omega

    def quotient_dim(self, radical):
        """The ideal and induced-form tests that ``MatsuoQuotient`` ran on any
        subspace before it read the Gram elimination, with the ideal test on
        the tensor."""
        n = self.n
        rows = np.array(radical, dtype=object).reshape(len(radical), n)
        elim = matsuo.bareiss(radical)
        if elim.rank != len(rows):
            raise MatsuoError("radical basis is linearly dependent")
        if len(rows) and elim.kernel:
            # products[row * n + j] = x^j times radical row ``row``
            table = self.tensor.transpose(1, 0, 2).reshape(n, n * n)
            products = matmul(rows, table).reshape(len(rows) * n, n)
            kernel = np.array(elim.kernel, dtype=object)
            hit = first(matmul(products, kernel.T) != 0)
            if hit is not None:
                row, j = divmod(hit[0], n)
                raise RadicalNotIdealError(
                    f"radical row {row} times axis {j} left the radical"
                )
        pivots = set(elim.pivots)
        reps = [c for c in range(n) if c not in pivots]
        form = matsuo.bareiss(self.gram[np.ix_(reps, reps)].tolist())
        if form.rank != len(reps):
            dependent = next(p for p in range(len(reps)) if p not in form.pivots)
            raise VerificationError(
                f"induced form on the quotient is degenerate: rank {form.rank} "
                f"of {len(reps)}, the Gram column of x^{reps[dependent]} depends "
                f"on earlier ones"
            )
        return len(reps)


def verdict(call):
    """The result of ``call``, or the type and witness text of its failure."""
    try:
        return "ok", call()
    except (MatsuoError, GroupError) as exc:
        return type(exc), str(exc)


# -- random alpha and beta ------------------------------------------------

SYSTEMS = [
    "symmetric:n=3",
    "symmetric:n=4",
    "symmetric:n=5",
    "orthogonal-f2:dim=4,eps=-",
    "orthogonal-f3:dim=5",
]

# Zero, alpha = 2, the values where some Gram matrix above is singular, and
# the huge rationals of the object-array path, besides random ones.
SPECIAL = [F(0), F(2), F(-2), F(4), F(-1), F(-4, 3), F(1, 2), F(-2, 3), F(-1, 4)]
HUGE = st.builds(F, st.integers(-(2**70), 2**70), st.integers(1, 2**70))
RATIONALS = st.one_of(
    st.sampled_from(SPECIAL),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
    HUGE,
)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    descriptor=st.sampled_from(SYSTEMS),
    alpha=RATIONALS,
    beta=RATIONALS,
    data=st.data(),
)
def test_checks_agree_with_fraction_oracle(system_factory, descriptor, alpha, beta, data):
    system = system_factory(descriptor)
    A = MatsuoAlgebra(system, alpha, beta)
    i = data.draw(st.integers(0, A.n - 1), label="axis")

    gram = oracle_gram(A)
    assert A.gram == tuple(map(tuple, gram))
    radical = A.gram_radical()
    assert len(radical) == A.n - fraction_rank(gram)
    for row in radical:
        v = [F(x) for x in row]
        assert all(form(A, v, A.axis(j)) == 0 for j in range(A.n))
    assert A.quotient(radical).dim == oracle_quotient_dim(A, radical)
    vector = data.draw(st.lists(st.integers(-2, 2), min_size=A.n, max_size=A.n))
    assert A.multiply(A.axis(i), vector) == multiply(A, A.axis(i), vector)
    assert A.form(vector, vector) == form(A, vector, vector)
    if any(vector):
        assert outcome(lambda: oracle_quotient_dim(A, [vector])) == outcome(
            lambda: DenseOracle(A).quotient_dim([vector])
        )
        if [vector] != radical:
            assert outcome(lambda: A.quotient([vector])) is MatsuoError

    for comp in fischer.components(system):
        assert A.unity(comp) == oracle_unity(A, comp)

    if alpha in (0, 2):
        with pytest.raises(DegenerateAlphaError):
            A.adjoint_spectrum(i)
    else:
        spectrum = A.adjoint_spectrum(i)
        expected = oracle_spectrum(A, i)
        assert (spectrum.basis_2, spectrum.basis_0, spectrum.basis_alpha) == expected
        assert spectrum.dims == {TWO: 1, F(0): len(expected[1]), alpha: len(expected[2])}
    assert oracle_miyamoto(A, i)
    assert A.miyamoto(i).mapping == system.conj[i]


DENSE_SYSTEMS = SYSTEMS + ["weyl:type=E,rank=6"]


@settings(max_examples=40, deadline=None)
@given(
    descriptor=st.sampled_from(DENSE_SYSTEMS),
    alpha=RATIONALS,
    beta=RATIONALS,
    data=st.data(),
)
def test_checks_agree_with_dense_oracle(
    system_factory, with_conj_entry, descriptor, alpha, beta, data
):
    system = system_factory(descriptor)
    n = system.size
    comps = fischer.components(system)
    entry = st.integers(0, n - 1)
    corruptions = data.draw(
        st.lists(st.tuples(entry, entry, entry), max_size=2), label="conj[i][j] = value"
    )
    for i, j, value in corruptions:
        system = with_conj_entry(system, i, j, value)
    A = MatsuoAlgebra(system, alpha, beta)
    dense = DenseOracle(A)
    i = data.draw(entry, label="axis")

    for j in range(n):
        assert dense_ad(A, j) == dense.tensor[j].T.tolist()
    assert verdict(A.verify_axioms) == verdict(dense.verify_axioms)
    spectrum = verdict(lambda: A.adjoint_spectrum(i))
    if spectrum[0] == "ok":
        vectors, sizes = spectrum[1].vectors, spectrum[1].sizes
        spectrum = "ok", (dense_columns(vectors, n), sizes)
    expected = verdict(lambda: dense.eigenbasis(i))
    if expected[0] == "ok":
        expected = "ok", (expected[1][0].tolist(), expected[1][1])
    assert spectrum == expected
    assert verdict(lambda: A.miyamoto(i).mapping) == verdict(lambda: dense.miyamoto(i))
    for comp in comps:
        assert verdict(lambda: A.unity(comp)) == verdict(lambda: dense.unity(comp))
    # The quotient rests on the axioms: when they hold, the dense ideal and
    # form tests pass on the Gram kernel; when they fail, the quotient cites
    # their witness.
    radical = A.gram_radical()
    axioms = verdict(dense.verify_axioms)
    if axioms[0] == "ok":
        assert dense.quotient_dim(radical) == A.quotient().dim
    else:
        assert verdict(lambda: A.quotient().dim) == (
            RadicalNotIdealError, f"radical is not known to be an ideal: {axioms[1]}"
        )
    # The sparse G R^T equals the dense product, also where conj[i][i] != i
    # makes gram[i][i] the edge value.
    vector = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    rows = radical + [vector]
    dense_rows = np.array(rows, dtype=object).reshape(len(rows), n)
    assert [list(t) for t in A._gram_times(rows)] == (
        dense.gram.astype(object) @ dense_rows.T
    ).tolist()
    # Other subspaces: the quotient rejects them, and on the catalog's own
    # table the two oracles agree on them.
    assert outcome(lambda: A.quotient(rows)) is MatsuoError
    if not corruptions:
        assert outcome(lambda: oracle_quotient_dim(A, rows)) == outcome(
            lambda: dense.quotient_dim(rows)
        )


@pytest.mark.parametrize("alpha, beta", [
    pytest.param(F(1, 2), F(1, 2), id="1/2"),
    pytest.param(F(2, 5), F(1, 2), id="2/5"),
    pytest.param(F(-1), F(1, 2), id="-1"),
    pytest.param(F(0), F(1, 2), id="0"),
    pytest.param(F(2), F(1, 2), id="2"),
    pytest.param(F(1, 2), F(0), id="1/2,beta=0"),
])
def test_miyamoto_agrees_on_every_single_entry_corruption(
    system_factory, with_conj_entry, alpha, beta
):
    # The dense oracle keeps the test that the map acts by +1 on the {2, 0}
    # eigenvectors and by -1 on the alpha eigenvectors; A.miyamoto relies on
    # the eigenbasis being built from the same row.  It also keeps the form
    # symmetry and isometry scans, which A reads off the conjugation scans
    # except for the isometry scan at alpha = 0.  Every changed entry of the
    # S4 table, on every axis, must give the same verdict and witness.
    system = system_factory("symmetric:n=4")
    n = system.size
    compared = 0
    for i, j, value in itertools.product(range(n), repeat=3):
        if system.conj[i][j] == value:
            continue
        A = MatsuoAlgebra(with_conj_entry(system, i, j, value), alpha, beta)
        dense = DenseOracle(A)
        assert verdict(A.verify_axioms) == verdict(dense.verify_axioms), (i, j, value)
        for axis in range(n):
            assert verdict(lambda: A.miyamoto(axis).mapping) == verdict(
                lambda: dense.miyamoto(axis)
            ), (i, j, value, axis)
            compared += 1
    assert compared == (n**3 - n**2) * n


def test_ad_applies_a_row_that_repeats_a_value(system_factory, with_conj_entry):
    # Row 0 of S4 becomes (0, 2, 1, 1, 5, 4): x^0 x^2 and x^0 x^3 both lose
    # their third term to x^1, and ad(x^0) must subtract both.
    system = with_conj_entry(system_factory("symmetric:n=4"), 0, 3, 1)
    A = MatsuoAlgebra(system, F(1, 2), F(1, 2))
    assert dense_ad(A, 0) == DenseOracle(A).tensor[0].T.tolist()


def test_gram_views_read_the_integer_table(system_factory, with_conj_entry):
    # With conj[0][0] = 1 the integer table puts the edge value on the
    # diagonal at (0, 0); the Fraction views and the CSV print that value,
    # 1 over the scale 8 * 2 * 2, not beta/2.
    system = with_conj_entry(system_factory("symmetric:n=4"), 0, 0, 1)
    A = MatsuoAlgebra(system, F(1, 2), F(1, 2))
    gram = A._gram
    row = [F(x, 32) for x in gram[0]]
    assert A.gram[0] == tuple(row)
    assert [A.gram_entry(0, j) for j in range(A.n)] == row
    csv = matsuo.export_gram_csv(A)
    assert csv.split("\n")[0] == ",".join(matsuo.format_rational(x) for x in row)
    assert csv.startswith("1/32,")


def test_multiply_keeps_the_left_operand(system_factory, with_conj_entry):
    # conj[3][4] = 2 while conj[4][3] = 1: x^3 x^4 and x^4 x^3 differ, and
    # multiply reads row 3 for x^3 on the left, as the oracle does.
    system = with_conj_entry(system_factory("symmetric:n=4"), 3, 4, 2)
    A = MatsuoAlgebra(system, F(1, 2), F(1, 2))
    x3, x4 = A.axis(3), A.axis(4)
    assert A.multiply(x3, x4) == multiply(A, x3, x4)
    assert A.multiply(x4, x3) == multiply(A, x4, x3)
    assert A.multiply(x3, x4) != A.multiply(x4, x3)


def test_alpha_zero_products_do_not_read_conj(system_factory, with_conj_entry):
    # At alpha = 0 distinct axes multiply to 0, so a table on which x^3 x^4
    # and x^4 x^3 name different conjugates still gives a commutative
    # algebra, and every row of it an automorphism.
    system = with_conj_entry(system_factory("symmetric:n=4"), 3, 4, 2)
    A = MatsuoAlgebra(system, F(0), F(1, 2))
    dense = DenseOracle(A)
    assert A.verify_axioms() and dense.verify_axioms()
    assert A.miyamoto(0).mapping == dense.miyamoto(0)


# -- caller-supplied subspaces: the oracles' ideal and form tests ----------


class TestOracleQuotient:
    """The witnesses of the ideal and induced-form tests, on subspaces that
    are not the Gram kernel."""

    def test_ideal(self, system_factory):
        # At alpha = -2 the radical of S3 is span{x^0 + x^1 + x^2}; the
        # second row is not in any ideal with it.
        s3 = system_factory("symmetric:n=3")
        dense = DenseOracle(MatsuoAlgebra(s3, F(-2), F(1, 2)))
        with pytest.raises(RadicalNotIdealError, match=(
            r"^radical row 1 times axis 0 left the radical$"
        )):
            dense.quotient_dim([[1, 1, 1], [1, -1, 0]])
        # Row 1 leaves the span at axis 0 and row 0 first at axis 1: the
        # witness is the first row.
        dense = DenseOracle(MatsuoAlgebra(s3, F(1, 2), F(1, 2)))
        with pytest.raises(RadicalNotIdealError, match=(
            r"^radical row 0 times axis 1 left the radical$"
        )):
            dense.quotient_dim([[0, -1, 1], [1, -1, 0]])

    def test_degenerate_quotient(self, system_factory):
        A = MatsuoAlgebra(system_factory("symmetric:n=3"), F(-2), F(1, 2))
        with pytest.raises(VerificationError, match=(
            r"^induced form on the quotient is degenerate: rank 2 of 3, the Gram "
            r"column of x\^2 depends on earlier ones$"
        )):
            DenseOracle(A).quotient_dim([])
        with pytest.raises(VerificationError):
            oracle_quotient_dim(A, [])

    def test_non_ideal_subspace(self, system_factory):
        # span{x^0 - x^1} is in the kernel of nothing and is not an ideal.
        A = MatsuoAlgebra(system_factory("symmetric:n=3"), F(1, 2), F(1, 2))
        with pytest.raises(RadicalNotIdealError):
            oracle_quotient_dim(A, [[1, -1, 0]])
        with pytest.raises(RadicalNotIdealError):
            DenseOracle(A).quotient_dim([[1, -1, 0]])


# -- large rationals and E6 ------------------------------------------------

BIG_ALPHA = F(2**25 + 1, 2**26 + 3)
BIG_BETA = F(2**30 - 5, 2**29 + 7)


def test_large_rationals_agree_with_dense_oracle(system_factory):
    # n * max|T| * max|G| is about 2^89 here, so int64 would wrap.
    A = MatsuoAlgebra(system_factory("symmetric:n=5"), BIG_ALPHA, BIG_BETA)
    dense = DenseOracle(A)
    assert dense.tensor.dtype == object
    table = dense.triples()
    scale = 16 * BIG_ALPHA.denominator**2 * BIG_BETA.denominator
    for i in range(A.n):
        for j in range(A.n):
            product = multiply(A, A.axis(i), A.axis(j))
            assert A.multiply(A.axis(i), A.axis(j)) == product
            for k in range(A.n):
                assert table[i, j, k] == form(A, product, A.axis(k)) * scale
    assert A.verify_axioms() and dense.verify_axioms()
    for i in range(A.n):
        spectrum = A.adjoint_spectrum(i)
        basis, sizes = dense.eigenbasis(i)
        assert (dense_columns(spectrum.vectors, A.n), spectrum.sizes) == (
            basis.tolist(), sizes
        )
        assert A.miyamoto(i).mapping == dense.miyamoto(i)
    assert A.unity() == dense.unity(fischer.components(A.system)[0])
    assert A.quotient().dim == dense.quotient_dim(A.gram_radical())
    not_ideal = [[1, -1] + [0] * (A.n - 2)]
    assert outcome(lambda: oracle_quotient_dim(A, not_ideal)) is RadicalNotIdealError
    assert outcome(lambda: dense.quotient_dim(not_ideal)) is RadicalNotIdealError


def test_object_path_agrees_with_oracle(system_factory):
    system = system_factory("symmetric:n=5")
    A = MatsuoAlgebra(system, BIG_ALPHA, BIG_BETA)
    gram = A._gram
    scale = 8 * BIG_ALPHA.denominator * BIG_BETA.denominator
    assert gram == [[x * scale for x in row] for row in oracle_gram(A)]
    for i in range(A.n):
        spectrum = A.adjoint_spectrum(i)
        assert (spectrum.basis_2, spectrum.basis_0, spectrum.basis_alpha) == (
            oracle_spectrum(A, i)
        )
        A.miyamoto(i)
        assert oracle_miyamoto(A, i)
    assert A.unity() == oracle_unity(A, fischer.components(system)[0])
    assert A.quotient().dim == oracle_quotient_dim(A, A.gram_radical())
    not_ideal = [[1, -1] + [0] * (A.n - 2)]
    with pytest.raises(RadicalNotIdealError):
        oracle_quotient_dim(A, not_ideal)


def test_object_path_ideal_check(system_factory):
    # k = 2 and alpha = -2 make the Gram matrix of S3 singular, with the huge
    # beta in every entry, so the kernel check multiplies Gram entries above
    # 2^70.  The radical row scaled by 2^70 spans the same ideal.
    A = MatsuoAlgebra(system_factory("symmetric:n=3"), F(-2), F(2**70 + 1, 2**65 + 3))
    radical = A.gram_radical()
    assert radical == [[1, 1, 1]]
    assert A.quotient(radical).dim == oracle_quotient_dim(A, radical) == 2
    scaled = [[2**70] * 3]
    assert oracle_quotient_dim(A, scaled) == DenseOracle(A).quotient_dim(scaled) == 2


@pytest.mark.parametrize("alpha", [F(1), F(1, 2)])
def test_e6_checks_stay_int64(system_factory, alpha):
    A = MatsuoAlgebra(system_factory("weyl:type=E,rank=6"), alpha, alpha)
    for i in range(A.n):
        assert A.adjoint_spectrum(i).sizes == (1, 25, 10)
        A.miyamoto(i)
    assert A.unity() is not None
    radical = A.gram_radical()
    assert len(radical) == (15 if alpha == 1 else 0)
    assert all(type(x) is int for row in radical for x in row)
    assert A.quotient(radical).dim == 36 - len(radical)
    assert A.quotient().dim == DenseOracle(A).quotient_dim(radical)


# -- one check per orbit of the generator rows -----------------------------


def assert_agrees_with_full_scan(A):
    """Every axis verdict of A, carried along the generator orbits or not,
    equals the dense oracle's check at that axis: the Miyamoto witnesses,
    the eigenbases and the first failing eigen-equation in index order; the
    axioms, whose invariance scan reads these verdicts, give the dense
    oracle's witness."""
    dense = DenseOracle(A)
    n = A.n
    assert verdict(A.verify_axioms) == verdict(dense.verify_axioms)
    for i in range(n):
        assert verdict(lambda: A.miyamoto(i).mapping) == verdict(
            lambda: dense.miyamoto(i)
        ), i
    spectra = [verdict(lambda: dense.eigenbasis(i)) for i in range(n)]
    first_failure = next((v for v in spectra if v[0] != "ok"), ("ok", True))
    assert verdict(A.verify_spectra) == first_failure
    for i, expected in enumerate(spectra):
        got = verdict(lambda: A.adjoint_spectrum(i))
        if got[0] == "ok":
            got = "ok", (dense_columns(got[1].vectors, n), got[1].sizes)
        if expected[0] == "ok":
            expected = "ok", (expected[1][0].tolist(), expected[1][1])
        assert got == expected, i


def test_orbit_verdicts_agree_on_non_generator_row_corruptions(
    system_factory, with_conj_entry
):
    # O4+(2) has the generator axes 2, 3, 4, 5 and two orbits, {0, 3, 4} and
    # {1, 2, 5}, whose least axes 0 and 1 are not generators.  Every change
    # of one entry of row 0 or row 1 must give the witnesses of the full
    # scan.
    system = system_factory("orthogonal-f2:dim=4,eps=+")
    assert system.generator_axes == (2, 3, 4, 5)
    assert fischer.components(system) == ((0, 3, 4), (1, 2, 5))
    n = system.size
    compared = 0
    for i in (0, 1):
        for j, value in itertools.product(range(n), repeat=2):
            if system.conj[i][j] != value:
                A = MatsuoAlgebra(with_conj_entry(system, i, j, value), F(1, 2), F(1, 2))
                assert_agrees_with_full_scan(A)
                compared += 1
    assert compared == 2 * (n * n - n)


def test_failing_orbit_without_a_generator_is_checked_axis_by_axis(system_factory):
    # With axis 5 as the only generator, whose row swaps axes 1 and 2, the
    # orbit {1, 2} holds no generator.  Changing conj[1][3] and conj[2][3]
    # from 3 to 4 keeps row 5 an automorphism, so the verdicts are carried,
    # but row 1 stops being an involution: both axes of the orbit are then
    # checked directly and name their own witnesses.
    system = system_factory("orthogonal-f2:dim=4,eps=+")
    axes = [5]
    clean = fischer.TranspositionSystem(system.involutions, system.conj, axes)
    A = MatsuoAlgebra(clean, F(1, 2), F(1, 2))
    assert [check.axis for check in A._axis_checks] == [0, 1, 1, 3, 4, 5]
    assert_agrees_with_full_scan(A)

    conj = list(system.conj)
    for i in (1, 2):
        row = list(conj[i])
        assert row[3] == 3
        row[3] = 4
        conj[i] = tuple(row)
    A = MatsuoAlgebra(
        fischer.TranspositionSystem(system.involutions, conj, axes), F(1, 2), F(1, 2)
    )
    assert [check.axis for check in A._axis_checks] == [0, 1, 2, 3, 4, 5]
    assert A._axis_checks[5].miyamoto is None
    assert verdict(lambda: A.miyamoto(2)) == (
        VerificationError,
        "miyamoto map of axis 2 is not an involution: x^3 -> x^4 -> x^4",
    )
    assert_agrees_with_full_scan(A)
