"""Exact-rational Matsuo algebras over a transposition system: structure
constants, invariant bilinear form, unity, radical and non-degenerate
quotient, adjoint eigenstructure, and Miyamoto involutions.

Scalars are Fractions at the interface.  Every product has at most three
terms read off the conjugation table ``conj``, so the checks store no product
table: they read ``conj`` and one integer Gram table (``integer_tables``), in
int64 only where a bound on every value shows that nothing can wrap and in
Python ints otherwise, so every verification in this module is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import groups, virasoro

TWO = Fraction(2)
HALF = Fraction(1, 2)
_INT64_MAX = 2**63 - 1


class MatsuoError(Exception):
    pass


class DegenerateAlphaError(MatsuoError):
    def __init__(self, alpha):
        super().__init__(f"adjoint eigenanalysis requires alpha not in {{0, 2}}, got {alpha}")
        self.alpha = alpha


class RadicalNotIdealError(MatsuoError):
    """The form radical fails to absorb multiplication (internal bug guard)."""


class NotSigmaConfigurationError(MatsuoError):
    """Pair typing is only defined in the alpha = beta = 1/2 regime."""


class VerificationError(MatsuoError):
    """An identity that must hold by construction failed (signals a table bug)."""


def parse_rational(text):
    return Fraction(str(text))


def format_rational(value):
    f = Fraction(value)
    return f"{f.numerator}/{f.denominator}"


def _dtype(bound):
    """int64 when ``bound`` fits in it, Python ints (object) otherwise."""
    import numpy as np

    return np.int64 if bound <= _INT64_MAX else object


def _exact(bound, *arrays):
    """The arrays as int64 when none is an object array and ``bound`` bounds
    every value computed from them, otherwise as object arrays of Python ints,
    so no product or sum wraps."""
    dtype = object if any(a.dtype == object for a in arrays) else _dtype(bound)
    return [a.astype(dtype, copy=False) for a in arrays]


def _absmax(a):
    return max(int(a.max()), -int(a.min())) if a.size else 0


def _matmul(a, b):
    """Exact integer product a @ b."""
    a, b = _exact(a.shape[-1] * _absmax(a) * _absmax(b), a, b)
    return a @ b


def _int_array(rows, ncols):
    """A list of integer rows as an int64 array when every entry fits, else as
    an object array."""
    import numpy as np

    bound = max((abs(x) for row in rows for x in row), default=0)
    return np.array(rows, dtype=_dtype(bound)).reshape(len(rows), ncols)


def _first(mask):
    """Index tuple of the first True entry of a boolean array, or None."""
    import numpy as np

    if not mask.any():
        return None
    return tuple(int(x) for x in np.argwhere(mask)[0])


def _eigenvalue(alpha, sizes, column):
    """Eigenvalue of a column of an eigenbasis ordered 2 | 0 | alpha."""
    if column < sizes[0]:
        return TWO
    return Fraction(0) if column < sizes[0] + sizes[1] else alpha


@dataclass
class Elimination:
    """Fraction-free reduced echelon form of an integer matrix (Bareiss 1968).

    ``echelon`` holds the ``rank`` nonzero rows; in the columns ``pivots`` it
    is ``det`` times the identity.  ``kernel`` is a basis of the right kernel:
    for each free column f, the primitive integer vector with a positive entry
    at f and zeros at the other free columns.  ``minors`` are the leading
    principal minors det A[:k, :k], k = 1, 2, ..., up to the first that
    vanishes.
    """

    rank: int
    pivots: list
    echelon: list
    det: int
    minors: list
    kernel: list


def bareiss(matrix):
    """One fraction-free elimination pass over a 2-D integer array: forward
    Bareiss steps, then back substitution on the free columns only.  Every
    division is exact, so all entries stay integers (minors of ``matrix``)."""
    import numpy as np

    m = np.array(matrix, dtype=object)
    rows, cols = m.shape
    pivots, minors = [], []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        nonzero = np.flatnonzero(m[r:, c] != 0)
        if not len(nonzero):
            continue
        p = r + int(nonzero[0])
        if p != r:
            m[[r, p]] = m[[p, r]]
        lead = m[r, c]
        if p == r == c == len(minors):
            minors.append(lead)
        below = m[r + 1:, c:]
        below[...] = (lead * below - np.outer(m[r + 1:, c], m[r, c:])) // det
        det = lead
        pivots.append(c)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    # Row k of the reduced form is det * (row k of the RREF); it is integral
    # by Cramer's rule and equals det on its pivot and 0 on the others.
    reduced = m[:rank, free] * det
    for k in reversed(range(rank)):
        later = pivots[k + 1:]
        if later:
            reduced[k] -= m[k, later] @ reduced[k + 1:]
        reduced[k] //= m[k, pivots[k]]
    echelon = np.zeros((rank, cols), dtype=object)
    echelon[range(rank), pivots] = det
    echelon[:, free] = reduced
    kernel = []
    for q, f in enumerate(free):
        x = [0] * cols
        x[f] = det
        for k, c in enumerate(pivots):
            x[c] = -reduced[k, q]
        g = math.gcd(*x) if det > 0 else -math.gcd(*x)
        kernel.append([v // g for v in x])
    return Elimination(rank, pivots, echelon.tolist(), det, minors, kernel)


@dataclass
class AdjointSpectrum:
    """Adjoint eigenbasis of one axis.  The columns of ``vectors`` (an integer
    n x n array) are the basis vectors scaled by 2*den(alpha), in the blocks
    2 | 0 | alpha whose sizes are ``sizes``; ``basis_2``, ``basis_0`` and
    ``basis_alpha`` are Fraction lists built when read."""

    axis: int
    alpha: Fraction
    vectors: object
    sizes: tuple

    @property
    def dims(self):
        return dict(zip((TWO, Fraction(0), self.alpha), self.sizes))

    def _block(self, b):
        start = sum(self.sizes[:b])
        scale = 2 * self.alpha.denominator
        return [
            [Fraction(int(x), scale) for x in self.vectors[:, c]]
            for c in range(start, start + self.sizes[b])
        ]

    @property
    def basis_2(self):
        return self._block(0)

    @property
    def basis_0(self):
        return self._block(1)

    @property
    def basis_alpha(self):
        return self._block(2)


@dataclass
class MiyamotoMap:
    axis: int
    mapping: tuple

    def apply(self, vector):
        out = [Fraction(0)] * len(self.mapping)
        for j, c in enumerate(vector):
            out[self.mapping[j]] += c
        return out

    def is_involution(self):
        return all(self.mapping[self.mapping[j]] == j for j in range(len(self.mapping)))


@dataclass
class SigmaAction:
    group: object
    permutations: dict
    kernel_keys: list


class MatsuoAlgebra:
    """B_{alpha,beta} over a transposition system.

    Basis products: x^i x^i = 2 x^i; for adjacent i, j the product is
    (alpha/2)(x^i + x^j - x^{i o j}); orthogonal otherwise.  The form takes
    beta/2 on the diagonal, alpha*beta/8 on edges, 0 otherwise.  The checks
    read ``system.conj`` and one integer Gram table (``integer_tables``).
    """

    def __init__(self, system, alpha, beta):
        self.system = system
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        self.n = system.size

    def axis(self, i):
        v = [Fraction(0)] * self.n
        v[i] = Fraction(1)
        return v

    def zero(self):
        return [Fraction(0)] * self.n

    def product_terms(self, i, j):
        """Sparse structure constants of x^i x^j (at most three terms)."""
        if i == j:
            return ((i, TWO),)
        k = self.system.conj[i][j]
        if self.alpha and k != j:
            half_alpha = self.alpha / 2
            return ((i, half_alpha), (j, half_alpha), (k, -half_alpha))
        return ()

    def gram_entry(self, i, j):
        if i == j:
            return self.beta / 2
        if self.system.adjacent(i, j):
            return self.alpha * self.beta / 8
        return Fraction(0)

    @cached_property
    def gram(self):
        return [[self.gram_entry(i, j) for j in range(self.n)] for i in range(self.n)]

    def multiply(self, u, v):
        if len(u) != self.n or len(v) != self.n:
            raise MatsuoError(f"vector length must be {self.n}")
        out = [Fraction(0)] * self.n
        support_u = [i for i, c in enumerate(u) if c]
        support_v = [j for j, c in enumerate(v) if c]
        for i in support_u:
            ci = u[i]
            for j in support_v:
                c = ci * v[j]
                for t, coeff in self.product_terms(i, j):
                    out[t] += c * coeff
        return out

    def form(self, u, v):
        if len(u) != self.n or len(v) != self.n:
            raise MatsuoError(f"vector length must be {self.n}")
        total = Fraction(0)
        for i, ci in enumerate(u):
            if not ci:
                continue
            row = self.gram[i]
            for j, cj in enumerate(v):
                if cj:
                    total += ci * cj * row[j]
        return total

    # -- unity ------------------------------------------------------------

    def unity(self, component=None):
        """The unity-defining vector of a connected component, or None when
        k*alpha + 4 = 0.  The returned vector omega satisfies
        omega x^i = 2 x^i and (omega | x^i) = beta/2 on the component, and
        omega/2 is an idempotent."""
        import numpy as np

        from . import fischer

        if component is None:
            comps = fischer.components(self.system)
            if len(comps) != 1:
                raise MatsuoError("system is disconnected; pass a component")
            component = comps[0]
        k = fischer.valency(self.system, component)
        if k * self.alpha + 4 == 0:
            return None
        coeff = Fraction(4) / (k * self.alpha + 4)
        # With coeff = p/q, omega = coeff * 1_C, and the tables scaled as in
        # integer_tables, the identities read (j in C):
        #   omega x^j = 2 x^j       p * S[j, t]   = q * 4 den(alpha) [t = j]
        #   omega^2 = 2 omega       p * sum_j S[j, t] = q * 4 den(alpha) [t in C]
        #   (omega | x^j) = beta/2  p * sum_i G[i, j] = q * 4 den(alpha) num(beta)
        # where S[j] = ad(x^j) 1_C.
        p, q = coeff.numerator, coeff.denominator
        unit = q * 4 * self.alpha.denominator
        _, gram = self.integer_tables()
        comp = list(component)
        member = np.zeros(self.n, dtype=np.int64)
        member[comp] = 1
        sums = np.array([self._ad(j, member) for j in comp])
        bound = max(len(comp) * _absmax(sums) * abs(p), unit)
        (sums,) = _exact(bound, sums)
        target = np.zeros_like(sums)
        target[range(len(comp)), comp] = unit
        hit = _first(p * sums.sum(axis=0) != target.sum(axis=0))
        if hit is not None:
            raise VerificationError(
                f"omega/2 failed the idempotent identity on the component of "
                f"axis {comp[0]} (coordinate x^{hit[0]})"
            )
        hit = _first(p * sums != target)
        if hit is not None:
            j, t = comp[hit[0]], hit[1]
            raise VerificationError(
                f"omega x^{j} != 2 x^{j} on the component of axis {comp[0]} "
                f"(coordinate x^{t})"
            )
        block = gram[np.ix_(comp, comp)]
        value = unit * self.beta.numerator
        bound = max(len(comp) * _absmax(block) * abs(p), abs(value))
        (block,) = _exact(bound, block)
        hit = _first(p * block.sum(axis=0) != value)
        if hit is not None:
            j = comp[hit[0]]
            raise VerificationError(f"(omega | x^{j}) != beta/2")
        omega = self.zero()
        for i in comp:
            omega[i] = coeff
        return omega

    # -- radical and quotient ----------------------------------------------

    def gram_radical(self):
        """Kernel of the Gram matrix by fraction-free elimination.

        Returns primitive integer row vectors in reduced echelon form: basis
        vector f carries the only nonzero entry among the free columns, a
        positive one, at column f.  Each call returns fresh lists.
        """
        return [list(v) for v in self.gram_elimination.kernel]

    def quotient(self, radical=None):
        if radical is None:
            radical = self.gram_radical()
        return MatsuoQuotient(self, radical)

    # -- adjoint spectrum and Miyamoto involutions --------------------------

    def _eigenbasis(self, i):
        """The eigenbasis of ad(x^i) as integer columns scaled by
        2*den(alpha), ordered 2 | 0 | alpha, with every eigen-equation checked
        in one product.  Returns the basis and its three block sizes."""
        import numpy as np

        if self.alpha == 0 or self.alpha == 2:
            raise DegenerateAlphaError(self.alpha)
        n = self.n
        row = self.system.conj[i]
        a_num = self.alpha.numerator
        scale = 2 * self.alpha.denominator
        fixed = [j for j in range(n) if j != i and row[j] == j]
        pairs = [(j, row[j]) for j in self.system.neighbors(i) if row[j] > j]
        sizes = (1, len(fixed) + len(pairs), len(pairs))
        if sum(sizes) != n:
            raise VerificationError(
                f"eigenspace dimensions {sizes[0]} + {sizes[1]} + {sizes[2]} "
                f"of axis {i} do not sum to |I| = {n}"
            )
        dtype = _dtype(max(self._bound, 2 * max(scale, abs(a_num))))
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
        # ad(x^i) is scaled by 2*den(alpha), so eigenvalue lam scales to
        # 2*den(alpha)*lam.
        lam = np.array(
            [2 * scale] + [0] * sizes[1] + [2 * a_num] * sizes[2], dtype=dtype
        )
        lhs = self._ad(i, basis)
        vecs, lam = _exact(_absmax(basis) * _absmax(lam), basis, lam)
        hit = _first(lhs != vecs * lam)
        if hit is not None:
            c = hit[1]
            value = _eigenvalue(self.alpha, sizes, c)
            raise VerificationError(
                f"eigen-equation failed for eigenvalue {value} at axis {i}, "
                f"column {c} (coordinate x^{hit[0]})"
            )
        return basis, sizes

    def adjoint_spectrum(self, i):
        basis, sizes = self._eigenbasis(i)
        return AdjointSpectrum(i, self.alpha, basis, sizes)

    def miyamoto(self, i):
        """The Miyamoto involution of axis i as a basis permutation (row i of
        the conjugation table), verified to act by +1 on the {2, 0}
        eigenspaces and -1 on the alpha eigenspace, and to be a
        form-preserving algebra automorphism."""
        import numpy as np

        mapping = self.system.conj[i]
        conj, gram = self.integer_tables()
        perm = conj[i]
        hit = _first(perm[perm] != np.arange(self.n))
        if hit is not None:
            j = hit[0]
            raise VerificationError(
                f"miyamoto map of axis {i} is not an involution: "
                f"x^{j} -> x^{perm[j]} -> x^{perm[perm[j]]}"
            )
        if self.alpha not in (0, 2):
            basis, sizes = self._eigenbasis(i)
            sign = np.ones(basis.shape[1], dtype=np.int64)
            sign[sizes[0] + sizes[1]:] = -1
            hit = _first(basis[perm] != basis * sign)
            if hit is not None:
                c = hit[1]
                if sign[c] > 0:
                    value = _eigenvalue(self.alpha, sizes, c)
                    raise VerificationError(
                        f"miyamoto map of axis {i} moved a +1 eigenvector "
                        f"(eigenvalue {value}, column {c})"
                    )
                raise VerificationError(
                    f"miyamoto map of axis {i} failed to negate an alpha "
                    f"eigenvector (column {c})"
                )
        # The bijection perm is an automorphism when conj[perm[j]][perm[k]]
        # == perm[conj[j][k]], and always at alpha = 0.
        if self.alpha:
            hit = _first(conj[np.ix_(perm, perm)] != perm[conj])
            if hit is not None:
                raise VerificationError(
                    f"miyamoto map of axis {i} is not an automorphism at "
                    f"pair ({hit[0]},{hit[1]})"
                )
        hit = _first(gram[np.ix_(perm, perm)] != gram)
        if hit is not None:
            raise VerificationError(
                f"miyamoto map of axis {i} is not an isometry at pair "
                f"({hit[0]},{hit[1]})"
            )
        return MiyamotoMap(i, mapping)

    def sigma_action(self, group):
        """The conjugation action of an enumerated group on the basis, with
        its kernel verified to equal the group center."""
        sys = self.system
        template = group._template
        mul = template.key_mul()
        index = {x.key: i for i, x in enumerate(sys.involutions)}
        axis_keys = [x.key for x in sys.involutions]
        perms = {}
        for gk in group.element_keys:
            ginv = group.element(gk).inverse().key
            try:
                perm = tuple(index[mul(mul(gk, k), ginv)] for k in axis_keys)
            except KeyError:
                raise MatsuoError(
                    "group does not stabilize the transposition class"
                ) from None
            perms[gk] = perm
        gen_keys = [g.key for g in group.generators]
        for a in gen_keys:
            for b in gen_keys:
                ab = mul(a, b)
                composed = tuple(perms[a][t] for t in perms[b])
                if perms[ab] != composed:
                    raise VerificationError("sigma is not a homomorphism on generators")
        identity_perm = tuple(range(self.n))
        kernel = [gk for gk in group.element_keys if perms[gk] == identity_perm]
        center_keys = sorted(z.key for z in groups.center(group))
        if sorted(kernel) != center_keys:
            raise VerificationError("kernel of sigma differs from the group center")
        return SigmaAction(group, perms, kernel)

    # -- sigma-type pair classification -------------------------------------

    def pair_type(self, i, j):
        """Dihedral type of an axis pair in the alpha = beta = 1/2 regime."""
        if (self.alpha, self.beta) != (HALF, HALF):
            raise NotSigmaConfigurationError(
                f"pair typing needs alpha = beta = 1/2, got ({self.alpha}, {self.beta})"
            )
        if i == j:
            return "1A"
        value = self.gram_entry(i, j)
        if value == 0:
            return "2B"
        if value == Fraction(1, 32):
            record = virasoro.lookup_by_type("2A")
            if Fraction(record.inner_product_times_1024, 1024) != value:
                raise VerificationError("2A inner product disagrees with the dihedral table")
            return "2A"
        raise NotSigmaConfigurationError(f"form value {value} is not a sigma configuration")

    # -- integer tables for exhaustive checks -------------------------------

    def integer_tables(self):
        """``system.conj`` as an index array and the Gram matrix scaled by
        8*den(alpha)*den(beta), built once per algebra; every check reads
        these two.  The Gram array is int64 when ``_bound`` < 2^63 and an
        object array of Python ints otherwise, and then every check runs in
        Python ints.
        """
        return self._tables

    @cached_property
    def _bound(self):
        """n * max|T| * max|G|, with T a structure constant scaled by
        2*den(alpha) and G a scaled Gram entry."""
        a_num, a_den = self.alpha.numerator, self.alpha.denominator
        b_num = self.beta.numerator
        max_t = max(4 * a_den, abs(a_num))
        max_g = max(abs(4 * a_den * b_num), abs(a_num * b_num))
        return max(max_t, max_g, self.n * max_t * max_g)

    @cached_property
    def _tables(self):
        import numpy as np

        n = self.n
        conj = np.array(self.system.conj)
        gram = np.zeros((n, n), dtype=_dtype(self._bound))
        gram[range(n), range(n)] = 4 * self.alpha.denominator * self.beta.numerator
        gram[conj != np.arange(n)] = self.alpha.numerator * self.beta.numerator
        return conj, gram

    def _ad(self, j, vectors):
        """ad(x^j) scaled by 2*den(alpha), read off row j of ``conj``, times
        an integer vector or the columns V of a matrix.  With a = num(alpha)
        and N = {t : conj[j][t] != t}, rows N gain a*V[N], rows conj[j][N]
        lose it (an unbuffered subtract, as a row may repeat a value), and
        row j gains a*sum(V[N]) + 4*den(alpha)*V[j]."""
        import numpy as np

        row = self._tables[0][j]
        nbrs = np.flatnonzero(row != np.arange(self.n))
        a = self.alpha.numerator
        unit = 4 * self.alpha.denominator
        bound = ((2 * len(nbrs) + 1) * abs(a) + unit) * _absmax(vectors)
        (v,) = _exact(max(bound, self._bound), vectors)
        moved = a * v[nbrs]
        out = np.zeros_like(v)
        out[nbrs] += moved
        np.subtract.at(out, row[nbrs], moved)
        out[j] += moved.sum(axis=0) + unit * v[j]
        return out

    @cached_property
    def gram_elimination(self):
        """The one ``bareiss`` elimination of the Gram table; the radical and
        positive definiteness both read it."""
        return bareiss(self._tables[1])

    def verify_axioms(self):
        """Exhaustive exact check of commutativity, form symmetry and
        invariance (uv|w) = (u|vw) over all basis triples."""
        import numpy as np

        conj, gram = self.integer_tables()
        n = self.n
        adjacent = conj != np.arange(n)
        # x^i x^j = x^j x^i when i, j are adjacent both ways with one common
        # conjugate, or neither way; at alpha = 0 always.
        if self.alpha:
            hit = _first((adjacent != adjacent.T) | (adjacent & (conj != conj.T)))
            if hit is not None:
                raise VerificationError(
                    f"product is not commutative at pair ({hit[0]},{hit[1]})"
                )
        hit = _first(gram != gram.T)
        if hit is not None:
            raise VerificationError(
                f"form is not symmetric at pair ({hit[0]},{hit[1]})"
            )
        # Then triple (i, j, k) is invariant when S = G ad(x^i), S[j, k] =
        # (x^j | x^i x^k), has S[j, k] == S[k, j]; each column of S combines
        # at most three Gram columns.
        a = self.alpha.numerator
        unit = 4 * self.alpha.denominator
        (g,) = _exact(max((3 * abs(a) + unit) * _absmax(gram), self._bound), gram)
        for i in range(n):
            nbrs = np.flatnonzero(adjacent[i])
            s = np.zeros_like(g)
            s[:, nbrs] = a * (g[:, [i]] + g[:, nbrs] - g[:, conj[i, nbrs]])
            s[:, i] += unit * g[:, i]
            hit = _first(s != s.T)
            if hit is not None:
                raise VerificationError(
                    f"form is not invariant at triple ({i},{hit[0]},{hit[1]})"
                )
        return True


class MatsuoQuotient:
    """Quotient of a Matsuo algebra by the radical of its form, with the
    radical verified to be an ideal and the induced form verified
    non-degenerate."""

    def __init__(self, algebra, radical):
        import numpy as np

        self.algebra = algebra
        self.radical = radical
        n = algebra.n
        rows = [[Fraction(x) for x in row] for row in radical]
        if any(len(row) != n for row in rows):
            raise MatsuoError(f"radical vectors must have length {n}")
        scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
        rows = _int_array([[int(x * d) for x in row] for row, d in zip(rows, scales)], n)
        elim = bareiss(rows)
        if elim.rank != len(rows):
            raise MatsuoError("radical basis is linearly dependent")
        self._pivot_cols = elim.pivots
        self._echelon = elim.echelon
        self._det = elim.det
        pivot_set = set(elim.pivots)
        self.rep_indices = [c for c in range(n) if c not in pivot_set]
        self.dim = len(self.rep_indices)
        self._verify_ideal(rows, elim.kernel)
        _, gram = algebra.integer_tables()
        reps = self.rep_indices
        form = bareiss(gram[np.ix_(reps, reps)])
        if form.rank != self.dim:
            dependent = next(p for p in range(self.dim) if p not in form.pivots)
            raise VerificationError(
                f"induced form on the quotient is degenerate: rank {form.rank} "
                f"of {self.dim}, the Gram column of x^{reps[dependent]} depends "
                f"on earlier ones"
            )

    @cached_property
    def gram(self):
        a = self.algebra
        return [
            [a.gram_entry(p, q) for q in self.rep_indices]
            for p in self.rep_indices
        ]

    def reduce(self, vector):
        """Canonical coset representative with zero pivot coordinates."""
        v = [Fraction(x) for x in vector]
        for f, row in zip(self._pivot_cols, self._echelon):
            c = v[f]
            if c:
                for col, x in enumerate(row):
                    if x:
                        v[col] -= c * Fraction(x, self._det)
        return v

    def coords(self, vector):
        v = self.reduce(vector)
        return [v[c] for c in self.rep_indices]

    def product_coords(self, p, q):
        """Induced product of quotient basis elements p, q (positions into
        rep_indices)."""
        a = self.algebra
        w = a.multiply(a.axis(self.rep_indices[p]), a.axis(self.rep_indices[q]))
        return self.coords(w)

    def _verify_ideal(self, rows, kernel):
        """Every product of an axis with a radical row lies in the span of the
        rows: for each axis j, the kernel of ``rows`` annihilates ad(x^j)
        rows^T.  The witness is the first failing (row, axis) pair."""
        a = self.algebra
        if not len(rows) or not kernel:
            return
        kernel = _int_array(kernel, a.n)
        hits = []
        for j in range(a.n):
            hit = _first((_matmul(kernel, a._ad(j, rows.T)) != 0).any(axis=0))
            if hit is not None:
                hits.append((hit[0], j))
        if hits:
            row, i = min(hits)
            raise RadicalNotIdealError(
                f"radical row {row} times axis {i} left the radical"
            )


def export_gram_csv(algebra):
    lines = []
    for row in algebra.gram:
        lines.append(",".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"
