"""The integer-table checks of fischerlab.matsuo against a Fraction oracle.

The oracle is the per-vector and per-pair Fraction code that checked the same
identities before the checks ran on integer tables: eigenvectors multiplied
out with ``multiply``, Miyamoto maps compared pair by pair on
``product_terms`` and ``gram_entry``, the ideal property tested vector by
vector against a reduced row echelon form, and ranks by Gaussian elimination
over Fraction.
"""
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fischerlab import fischer, matsuo
from fischerlab.matsuo import (
    DegenerateAlphaError,
    MatsuoAlgebra,
    MatsuoError,
    RadicalNotIdealError,
    VerificationError,
)

TWO = F(2)


# -- the oracle -----------------------------------------------------------


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
            assert A.multiply(xi, v) == [lam * c for c in v]
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
            mapped = sorted((mapping[t], c) for t, c in A.product_terms(j, k))
            if mapped != sorted(A.product_terms(mapping[j], mapping[k])):
                return False
            if A.gram_entry(j, k) != A.gram_entry(mapping[j], mapping[k]):
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
    assert A.multiply(half, half) == half
    for i in component:
        assert A.multiply(omega, A.axis(i)) == [2 * c for c in A.axis(i)]
        assert A.form(omega, A.axis(i)) == A.beta / 2
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
    assert len(reduced) == len(radical)

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
            if not in_span(A.multiply(vec, A.axis(i))):
                raise RadicalNotIdealError(f"radical vector times axis {i}")
    reps = [c for c in range(A.n) if c not in pivots]
    gram = [[A.gram_entry(p, q) for q in reps] for p in reps]
    if fraction_rank(gram) != len(reps):
        raise VerificationError("degenerate")
    return len(reps)


def outcome(call):
    try:
        return call()
    except MatsuoError as exc:
        return type(exc)


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


@settings(max_examples=30, deadline=None)
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

    radical = A.gram_radical()
    assert len(radical) == A.n - fraction_rank(A.gram)
    for row in radical:
        v = [F(x) for x in row]
        assert all(A.form(v, A.axis(j)) == 0 for j in range(A.n))
    assert A.quotient(radical).dim == oracle_quotient_dim(A, radical)
    vector = data.draw(st.lists(st.integers(-2, 2), min_size=A.n, max_size=A.n))
    if any(vector):
        assert outcome(lambda: A.quotient([vector]).dim) == outcome(
            lambda: oracle_quotient_dim(A, [vector])
        )

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


# -- which integer path each check takes ----------------------------------

BIG_ALPHA = F(2**25 + 1, 2**26 + 3)
BIG_BETA = F(2**30 - 5, 2**29 + 7)


@pytest.fixture
def dtypes(monkeypatch):
    """The dtypes that matsuo's exact products and sums run in."""
    seen = set()
    real = matsuo._exact

    def spy(bound, *arrays):
        out = real(bound, *arrays)
        seen.update(str(a.dtype) for a in out)
        return out

    monkeypatch.setattr(matsuo, "_exact", spy)
    return seen


def test_object_path_agrees_with_oracle(system_factory, dtypes):
    system = system_factory("symmetric:n=5")
    A = MatsuoAlgebra(system, BIG_ALPHA, BIG_BETA)
    tensor, gram = A.integer_tables()
    assert tensor.dtype == object and gram.dtype == object
    for i in range(A.n):
        spectrum = A.adjoint_spectrum(i)
        assert (spectrum.basis_2, spectrum.basis_0, spectrum.basis_alpha) == (
            oracle_spectrum(A, i)
        )
        A.miyamoto(i)
        assert oracle_miyamoto(A, i)
    assert A.unity() == oracle_unity(A, fischer.components(system)[0])
    not_ideal = [[1, -1] + [0] * (A.n - 2)]
    with pytest.raises(RadicalNotIdealError):
        A.quotient(not_ideal)
    with pytest.raises(RadicalNotIdealError):
        oracle_quotient_dim(A, not_ideal)
    assert dtypes == {"object"}


def test_object_path_ideal_check(system_factory, dtypes):
    # k = 2 and alpha = -2 make the Gram matrix of S3 singular; the huge beta
    # forces object tables.
    A = MatsuoAlgebra(system_factory("symmetric:n=3"), F(-2), F(2**70 + 1, 2**65 + 3))
    assert A.integer_tables()[0].dtype == object
    radical = A.gram_radical()
    assert radical == [[1, 1, 1]]
    assert A.quotient(radical).dim == oracle_quotient_dim(A, radical) == 2
    assert dtypes == {"object"}


@pytest.mark.parametrize("alpha", [F(1), F(1, 2)])
def test_e6_checks_stay_int64(system_factory, dtypes, alpha):
    A = MatsuoAlgebra(system_factory("weyl:type=E,rank=6"), alpha, alpha)
    for i in range(A.n):
        assert A.adjoint_spectrum(i).sizes == (1, 25, 10)
        A.miyamoto(i)
    assert A.unity() is not None
    radical = A.gram_radical()
    assert len(radical) == (15 if alpha == 1 else 0)
    assert A.quotient(radical).dim == 36 - len(radical)
    assert dtypes == {"int64"}
