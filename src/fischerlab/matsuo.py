"""Exact-rational Matsuo algebras over a transposition system: structure
constants, invariant bilinear form, unity, radical and non-degenerate
quotient, adjoint eigenstructure, and Miyamoto involutions.

All scalars are Fractions; every verification in this module is exact.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import groups, virasoro

TWO = Fraction(2)
HALF = Fraction(1, 2)


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


@dataclass
class AdjointSpectrum:
    axis: int
    alpha: Fraction
    basis_2: list
    basis_0: list
    basis_alpha: list

    @property
    def dims(self):
        return {
            TWO: len(self.basis_2),
            Fraction(0): len(self.basis_0),
            self.alpha: len(self.basis_alpha),
        }


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
    beta/2 on the diagonal, alpha*beta/8 on edges, 0 otherwise.
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
        omega = self.zero()
        for i in component:
            omega[i] = coeff
        half = [c / 2 for c in omega]
        if self.multiply(half, half) != half:
            raise VerificationError("omega/2 failed the idempotent identity")
        for i in component:
            if self.multiply(omega, self.axis(i)) != [2 * c for c in self.axis(i)]:
                raise VerificationError(f"omega x^{i} != 2 x^{i}")
            if self.form(omega, self.axis(i)) != self.beta / 2:
                raise VerificationError(f"(omega | x^{i}) != beta/2")
        return omega

    # -- radical and quotient ----------------------------------------------

    def gram_radical(self):
        """Kernel of the Gram matrix by fraction-free elimination.

        Returns integer row vectors in reduced echelon form: basis vector f
        carries the only nonzero entry among the free columns at column f.
        """
        n = self.n
        den = math.lcm(
            *(x.denominator for row in self.gram for x in row), 1
        )
        m = [[int(x * den) for x in row] for row in self.gram]
        pivots = []
        prev = 1
        r = 0
        for c in range(n):
            piv = next((row for row in range(r, n) if m[row][c]), None)
            if piv is None:
                continue
            m[r], m[piv] = m[piv], m[r]
            for row in range(r + 1, n):
                factor = m[row][c]
                lead = m[r][c]
                for col in range(c, n):
                    m[row][col] = (m[row][col] * lead - factor * m[r][col]) // prev
            prev = m[r][c]
            pivots.append(c)
            r += 1
        free = [c for c in range(n) if c not in pivots]
        basis = []
        for f in free:
            x = [Fraction(0)] * n
            x[f] = Fraction(1)
            for idx in range(len(pivots) - 1, -1, -1):
                c = pivots[idx]
                s = sum(m[idx][col] * x[col] for col in range(c + 1, n))
                x[c] = Fraction(-s, m[idx][c])
            lcd = math.lcm(*(v.denominator for v in x), 1)
            basis.append([int(v * lcd) for v in x])
        return basis

    def quotient(self, radical=None):
        if radical is None:
            radical = self.gram_radical()
        return MatsuoQuotient(self, radical)

    # -- adjoint spectrum and Miyamoto involutions --------------------------

    def adjoint_spectrum(self, i):
        if self.alpha == 0 or self.alpha == 2:
            raise DegenerateAlphaError(self.alpha)
        sys = self.system
        basis_2 = [self.axis(i)]
        basis_0 = []
        basis_alpha = []
        row = sys.conj[i]
        for j in range(self.n):
            if j != i and row[j] == j:
                basis_0.append(self.axis(j))
        for j in sys.neighbors(i):
            jo = row[j]
            if jo < j:
                continue  # one vector per {j, i o j} pair
            minus = self.zero()
            minus[j] = Fraction(1)
            minus[jo] = Fraction(-1)
            basis_alpha.append(minus)
            plus = self.zero()
            plus[j] = Fraction(1)
            plus[jo] += Fraction(1)
            plus[i] -= self.alpha / 2
            basis_0.append(plus)
        xi = self.axis(i)
        for lam, vecs in ((TWO, basis_2), (Fraction(0), basis_0), (self.alpha, basis_alpha)):
            for v in vecs:
                if self.multiply(xi, v) != [lam * c for c in v]:
                    raise VerificationError(
                        f"eigen-equation failed for eigenvalue {lam} at axis {i}"
                    )
        if len(basis_2) + len(basis_0) + len(basis_alpha) != self.n:
            raise VerificationError("eigenspace dimensions do not sum to |I|")
        return AdjointSpectrum(i, self.alpha, basis_2, basis_0, basis_alpha)

    def miyamoto(self, i):
        """The Miyamoto involution of axis i as a basis permutation (row i of
        the conjugation table), verified to act by +1 on the {2, 0}
        eigenspaces and -1 on the alpha eigenspace, and to be a
        form-preserving algebra automorphism."""
        mapping = self.system.conj[i]
        pi = MiyamotoMap(i, mapping)
        if not pi.is_involution():
            raise VerificationError(f"miyamoto map of axis {i} is not an involution")
        if self.alpha not in (0, 2):
            spectrum = self.adjoint_spectrum(i)
            for v in spectrum.basis_2 + spectrum.basis_0:
                if pi.apply(v) != v:
                    raise VerificationError("miyamoto map moved a +1 eigenvector")
            for v in spectrum.basis_alpha:
                if pi.apply(v) != [-c for c in v]:
                    raise VerificationError("miyamoto map failed to negate an alpha eigenvector")
        for j in range(self.n):
            for k in range(j, self.n):
                mapped = sorted((mapping[t], c) for t, c in self.product_terms(j, k))
                direct = sorted(self.product_terms(mapping[j], mapping[k]))
                if mapped != list(direct):
                    raise VerificationError(
                        f"miyamoto map of axis {i} is not an automorphism at pair ({j},{k})"
                    )
                if self.gram_entry(j, k) != self.gram_entry(mapping[j], mapping[k]):
                    raise VerificationError(
                        f"miyamoto map of axis {i} is not an isometry at pair ({j},{k})"
                    )
        return pi

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

    # -- integer-scaled tables for exhaustive checks ------------------------

    def integer_tables(self):
        """Structure tensor and Gram matrix as integer numpy arrays.

        The product table is scaled by 2*den(alpha) and the Gram matrix by
        8*den(alpha)*den(beta), so identities that are homogeneous in both
        tables can be checked in integer arithmetic.  The arrays are int64
        when every entry of ``triple_table`` provably fits (n * max|T| *
        max|G| < 2^63), and object arrays of Python ints otherwise, so no
        product wraps.
        """
        import numpy as np

        n = self.n
        a_num, a_den = self.alpha.numerator, self.alpha.denominator
        b_num = self.beta.numerator
        max_t = max(4 * a_den, abs(a_num))
        max_g = max(abs(4 * a_den * b_num), abs(a_num * b_num))
        fits = max(max_t, max_g, n * max_t * max_g) <= np.iinfo(np.int64).max
        dtype = np.int64 if fits else object
        tensor = np.zeros((n, n, n), dtype=dtype)
        gram = np.zeros((n, n), dtype=dtype)
        for i in range(n):
            tensor[i, i, i] = 4 * a_den
            gram[i, i] = 4 * a_den * b_num
            for j, c in enumerate(self.system.conj[i]):
                if c != j:
                    tensor[i, j, i] += a_num
                    tensor[i, j, j] += a_num
                    tensor[i, j, c] -= a_num
                    gram[i, j] = a_num * b_num
        return tensor, gram

    def triple_table(self, tensor, gram):
        """t[i, j, k] = (x^i x^j | x^k) scaled by 16*den(alpha)^2*den(beta),
        from the arrays of ``integer_tables``."""
        n = self.n
        return (tensor.reshape(n * n, n) @ gram).reshape(n, n, n)

    def verify_axioms(self):
        """Exhaustive exact check of commutativity, form symmetry and
        invariance (uv|w) = (u|vw) over all basis triples."""
        import numpy as np

        tensor, gram = self.integer_tables()
        if not np.array_equal(tensor, tensor.transpose(1, 0, 2)):
            raise VerificationError("product is not commutative")
        if not np.array_equal(gram, gram.T):
            raise VerificationError("form is not symmetric")
        # invariance says t[i,j,k] = t[j,k,i]
        t = self.triple_table(tensor, gram)
        if not np.array_equal(t, t.transpose(1, 2, 0)):
            raise VerificationError("form is not invariant")
        return True


class MatsuoQuotient:
    """Quotient of a Matsuo algebra by the radical of its form, with the
    radical verified to be an ideal and the induced form verified
    non-degenerate."""

    def __init__(self, algebra, radical):
        self.algebra = algebra
        self.radical = radical
        n = algebra.n
        self._reduced, self._pivot_cols = _rref(
            [[Fraction(x) for x in row] for row in radical]
        )
        if len(self._reduced) != len(radical):
            raise MatsuoError("radical basis is linearly dependent")
        free_set = set(self._pivot_cols)
        self.rep_indices = [c for c in range(n) if c not in free_set]
        self.dim = len(self.rep_indices)
        self._rep_pos = {c: p for p, c in enumerate(self.rep_indices)}
        self._verify_ideal()
        self.gram = [
            [algebra.gram_entry(p, q) for q in self.rep_indices]
            for p in self.rep_indices
        ]
        if _fraction_rank(self.gram) != self.dim:
            raise VerificationError("induced form on the quotient is degenerate")

    def reduce(self, vector):
        """Canonical coset representative with zero pivot coordinates."""
        v = list(vector)
        for f, row in zip(self._pivot_cols, self._reduced):
            c = v[f]
            if c:
                for col, x in enumerate(row):
                    v[col] -= c * x
        return v

    def contains_in_radical(self, vector):
        return not any(self.reduce(vector))

    def coords(self, vector):
        v = self.reduce(vector)
        return [v[c] for c in self.rep_indices]

    def product_coords(self, p, q):
        """Induced product of quotient basis elements p, q (positions into
        rep_indices)."""
        a = self.algebra
        w = a.multiply(a.axis(self.rep_indices[p]), a.axis(self.rep_indices[q]))
        return self.coords(w)

    def _verify_ideal(self):
        a = self.algebra
        for row in self.radical:
            vec = [Fraction(x) for x in row]
            for i in range(a.n):
                w = a.multiply(vec, a.axis(i))
                if not self.contains_in_radical(w):
                    raise RadicalNotIdealError(
                        f"radical vector times axis {i} left the radical"
                    )


def _rref(rows):
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


def _fraction_rank(matrix):
    """Plain Gaussian elimination rank over the rationals."""
    m = [list(row) for row in matrix]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((r for r in range(rank, len(m)) if m[r][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][c]:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def export_gram_csv(algebra):
    lines = []
    for row in algebra.gram:
        lines.append(",".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"


def export_structure_json(algebra):
    """Sparse structure constants keyed by basis pair, rationals as 'p/q'."""
    table = {}
    for i in range(algebra.n):
        for j in range(i, algebra.n):
            terms = algebra.product_terms(i, j)
            if terms:
                table[f"{i},{j}"] = [[t, format_rational(c)] for t, c in terms]
    return {
        "alpha": format_rational(algebra.alpha),
        "beta": format_rational(algebra.beta),
        "basis_size": algebra.n,
        "products": table,
    }
