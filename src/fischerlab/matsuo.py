"""Exact-rational Matsuo algebras over a transposition system: structure
constants, invariant bilinear form, unity, radical and non-degenerate
quotient, adjoint eigenstructure, and Miyamoto involutions.

Scalars are Fractions at the interface.  Every product has at most three
terms read off the conjugation table ``conj``, so the checks store no product
table: they read the rows of ``conj`` and one integer Gram table
(``integer_tables``), itself a function of ``conj``, so form symmetry and a
Miyamoto isometry at alpha != 0 follow from the scans of ``conj``.
Eigenvectors are sparse columns of at most three entries.  The Fraction views
``gram``, ``gram_entry``, ``form`` and ``multiply`` read the same two tables,
so they give only values that the checks verified.  Every check and the one
elimination routine, ``bareiss``, run in Python ints, which cannot wrap, so
every verification in this module is exact.  The radical, the quotient and
positive definiteness all read the one elimination of the Gram table; the
quotient rests on the axioms, since the radical of an invariant symmetric
form is an ideal, and on an exact check that the Gram table annihilates the
radical rows.
"""
from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from operator import itemgetter

from . import format_rational, groups

TWO = Fraction(2)
HALF = Fraction(1, 2)


class MatsuoError(Exception):
    pass


class DegenerateAlphaError(MatsuoError):
    def __init__(self, alpha):
        super().__init__(f"adjoint eigenanalysis requires alpha not in {{0, 2}}, got {alpha}")
        self.alpha = alpha


class RadicalNotIdealError(MatsuoError):
    """The axioms failed, so nothing shows that the form radical is an ideal;
    the message cites the axioms witness."""


class NotSigmaConfigurationError(MatsuoError):
    """Pair typing is only defined in the alpha = beta = 1/2 regime."""


class VerificationError(MatsuoError):
    """An identity that must hold by construction failed (signals a table bug)."""


def _gather(indices):
    """The function taking a sequence s to the tuple of s[k], k in
    ``indices``: one ``itemgetter`` call per sequence."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda s: tuple(s[k] for k in indices)


def _first_difference(left, right):
    """The first position where two equal-length sequences differ."""
    return next(k for k, (x, y) in enumerate(zip(left, right)) if x != y)


def _eigenvalue(alpha, sizes, column):
    """Eigenvalue of a column of an eigenbasis ordered 2 | 0 | alpha."""
    if column < sizes[0]:
        return TWO
    return Fraction(0) if column < sizes[0] + sizes[1] else alpha


class Elimination(namedtuple("Elimination", "rank pivots det minors kernel")):
    """Fraction-free elimination of an integer matrix (Bareiss 1968).

    ``pivots`` are the ``rank`` pivot columns and ``det`` is the last pivot,
    a rank x rank minor up to sign.  ``kernel`` is a basis of the right kernel:
    for each free column f, the primitive integer vector with a positive entry
    at f and zeros at the other free columns.  ``minors`` are the leading
    principal minors det A[:k, :k], k = 1, 2, ..., up to the first that
    vanishes.
    """

    __slots__ = ()


def bareiss(matrix):
    """One fraction-free elimination pass over integer rows: forward Bareiss
    steps, then back substitution on the free columns only.  Every division
    is exact, so all entries stay Python ints (minors of ``matrix``)."""
    m = [list(map(int, row)) for row in matrix]
    rows = len(m)
    cols = len(m[0]) if m else 0
    pivots, minors = [], []
    det = 1
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = next((k for k in range(r, rows) if m[k][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        if p == r == c == len(minors):
            minors.append(lead)
        top = m[r][c:]
        for row in m[r + 1:]:
            f = row[c]
            if f:
                row[c:] = [(lead * x - f * y) // det for x, y in zip(row[c:], top)]
            elif lead != det:
                row[c:] = [lead * x // det for x in row[c:]]
        det = lead
        pivots.append(c)
    rank = len(pivots)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    # Row k of the reduced form is det * (row k of the RREF); it is integral
    # by Cramer's rule and equals det on its pivot and 0 on the others.
    reduced = [[m[k][f] * det for f in free] for k in range(rank)]
    for k in reversed(range(rank)):
        acc = reduced[k]
        for later in range(k + 1, rank):
            coef = m[k][pivots[later]]
            if coef:
                acc = [x - coef * y for x, y in zip(acc, reduced[later])]
        lead = m[k][pivots[k]]
        reduced[k] = [x // lead for x in acc]
    kernel = []
    for q, f in enumerate(free):
        x = [0] * cols
        x[f] = det
        for k, c in enumerate(pivots):
            x[c] = -reduced[k][q]
        g = math.gcd(*x) if det > 0 else -math.gcd(*x)
        kernel.append([v // g for v in x])
    return Elimination(rank, pivots, det, minors, kernel)


class AdjointSpectrum(namedtuple("AdjointSpectrum", "axis alpha vectors sizes")):
    """Adjoint eigenbasis of one axis.  ``vectors`` lists the basis vectors
    as sparse integer columns {coordinate: value} of at most three entries,
    scaled by 2*den(alpha), in the blocks 2 | 0 | alpha whose sizes are
    ``sizes``; ``basis_2``, ``basis_0`` and ``basis_alpha`` are dense
    Fraction lists built when read."""

    __slots__ = ()

    @property
    def dims(self):
        return dict(zip((TWO, Fraction(0), self.alpha), self.sizes))

    def _block(self, b):
        start = sum(self.sizes[:b])
        scale = 2 * self.alpha.denominator
        out = []
        for column in self.vectors[start:start + self.sizes[b]]:
            v = [Fraction(0)] * sum(self.sizes)
            for t, x in column.items():
                v[t] = Fraction(x, scale)
            out.append(v)
        return out

    @property
    def basis_2(self):
        return self._block(0)

    @property
    def basis_0(self):
        return self._block(1)

    @property
    def basis_alpha(self):
        return self._block(2)


class MiyamotoMap(namedtuple("MiyamotoMap", "axis mapping")):
    __slots__ = ()

    def apply(self, vector):
        out = [Fraction(0)] * len(self.mapping)
        for j, c in enumerate(vector):
            out[self.mapping[j]] += c
        return out

    def is_involution(self):
        return all(self.mapping[self.mapping[j]] == j for j in range(len(self.mapping)))


SigmaAction = namedtuple("SigmaAction", "group permutations kernel_keys")


class MatsuoAlgebra:
    """B_{alpha,beta} over a transposition system.

    Basis products: x^i x^i = 2 x^i; for adjacent i, j the product is
    (alpha/2)(x^i + x^j - x^{i o j}); orthogonal otherwise.  The form takes
    beta/2 on the diagonal, alpha*beta/8 on edges, 0 otherwise.  The checks
    read ``system.conj`` and one integer Gram table (``integer_tables``), and
    so do ``gram``, ``gram_entry``, ``form`` and ``multiply``: the form is the
    integer table over 8*den(alpha)*den(beta), and the product is ``_ad``
    over 2*den(alpha).
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

    def gram_entry(self, i, j):
        return self.gram[i][j]

    @cached_property
    def gram(self):
        """The integer Gram table over its scale 8*den(alpha)*den(beta)."""
        scale = 8 * self.alpha.denominator * self.beta.denominator
        return [[Fraction(x, scale) for x in row] for row in self._tables[1]]

    def multiply(self, u, v):
        """u v as the sum over i of u_i ad(x^i) v, read off ``_ad``: x^i on
        the left."""
        if len(u) != self.n or len(v) != self.n:
            raise MatsuoError(f"vector length must be {self.n}")
        sparse_v = {j: c for j, c in enumerate(v) if c}
        out = defaultdict(int)
        for i, ci in enumerate(u):
            if ci:
                for t, x in self._ad(i, sparse_v).items():
                    out[t] += ci * x
        scale = 2 * self.alpha.denominator
        return [Fraction(out[t], scale) for t in range(self.n)]

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
        member = dict.fromkeys(comp, 1)
        sums = [self._ad(j, member) for j in comp]
        total = [0] * self.n
        for s in sums:
            for t, x in s.items():
                total[t] += x
        hit = next(
            (t for t, x in enumerate(total) if p * x != unit * (t in member)), None
        )
        if hit is not None:
            raise VerificationError(
                f"omega/2 failed the idempotent identity on the component of "
                f"axis {comp[0]} (coordinate x^{hit})"
            )
        for j, s in zip(comp, sums):
            bad = [t for t in s.keys() | {j} if p * s.get(t, 0) != unit * (t == j)]
            if bad:
                raise VerificationError(
                    f"omega x^{j} != 2 x^{j} on the component of axis {comp[0]} "
                    f"(coordinate x^{min(bad)})"
                )
        value = unit * self.beta.numerator
        hit = next(
            (j for j in comp if p * sum(gram[i][j] for i in comp) != value), None
        )
        if hit is not None:
            raise VerificationError(f"(omega | x^{hit}) != beta/2")
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
        """The quotient by the form radical.  ``radical``, when given, must be
        the rows of ``gram_radical()``: any other rows raise MatsuoError.
        Raises RadicalNotIdealError, citing the axioms witness, when the
        axioms fail."""
        if radical is not None and [list(row) for row in radical] != (
            self.gram_elimination.kernel
        ):
            raise MatsuoError("the quotient is taken only by the rows of gram_radical()")
        return MatsuoQuotient(self)

    # -- adjoint spectrum and Miyamoto involutions --------------------------

    def _eigenbasis(self, i):
        """The eigenbasis of ad(x^i) as sparse integer columns {coordinate:
        value} scaled by 2*den(alpha), ordered 2 | 0 | alpha, with every
        eigen-equation checked through ``_ad``.  Returns the columns and
        their three block sizes."""
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
        plus = []
        for j, jo in pairs:
            column = {j: scale, jo: scale}
            column[i] = column.get(i, 0) - a_num
            plus.append(column)
        basis = (
            [{i: scale}]
            + [{j: scale} for j in fixed]
            + plus
            + [{j: scale, jo: -scale} for j, jo in pairs]
        )
        # ad(x^i) is scaled by 2*den(alpha), so eigenvalue lam scales to
        # 2*den(alpha)*lam.
        lam = [2 * scale] + [0] * sizes[1] + [2 * a_num] * sizes[2]
        hits = []
        for c, (column, value) in enumerate(zip(basis, lam)):
            image = self._ad(i, column)
            bad = [
                t for t in image.keys() | column.keys()
                if image.get(t, 0) != value * column.get(t, 0)
            ]
            if bad:
                hits.append((min(bad), c))
        if hits:
            t, c = min(hits)
            raise VerificationError(
                f"eigen-equation failed for eigenvalue "
                f"{_eigenvalue(self.alpha, sizes, c)} at axis {i}, "
                f"column {c} (coordinate x^{t})"
            )
        return basis, sizes

    def adjoint_spectrum(self, i):
        basis, sizes = self._eigenbasis(i)
        return AdjointSpectrum(i, self.alpha, basis, sizes)

    def miyamoto(self, i):
        """The Miyamoto involution of axis i as a basis permutation (row i of
        the conjugation table), verified to be an involution, an algebra
        automorphism and an isometry of the form; ``_eigenbasis`` checks the
        eigen-equations of axis i.  The action by +1 on the {2, 0} eigenspaces
        and -1 on the alpha eigenspace holds by construction: the eigenbasis
        is built from this row, so an involutive row that passes the
        eigen-equations fixes x^i and swaps the two entries of each pair."""
        mapping = self.system.conj[i]
        conj, gram = self.integer_tables()
        perm = conj[i]
        n = self.n
        j = next((j for j in range(n) if perm[perm[j]] != j), None)
        if j is not None:
            raise VerificationError(
                f"miyamoto map of axis {i} is not an involution: "
                f"x^{j} -> x^{perm[j]} -> x^{perm[perm[j]]}"
            )
        if self.alpha not in (0, 2):
            self._eigenbasis(i)
        # The involution perm is an automorphism when conj[perm[j]][perm[k]]
        # == perm[conj[j][k]].  That keeps whether conj[j][k] = k, and so, by
        # ``integer_tables``, gram[j][k]: perm is an isometry.  At alpha = 0,
        # where every map is an automorphism, the isometry is scanned.  Rows j
        # and perm[j] state the same condition, so the first failing row has
        # j <= perm[j].
        at_perm = _gather(perm)
        rows = [j for j in range(n) if j <= perm[j]]
        if self.alpha:
            for j in rows:
                image = _gather(conj[j])(perm)
                if at_perm(conj[perm[j]]) != image:
                    k = _first_difference(at_perm(conj[perm[j]]), image)
                    raise VerificationError(
                        f"miyamoto map of axis {i} is not an automorphism at "
                        f"pair ({j},{k})"
                    )
        else:
            for j in rows:
                if at_perm(gram[perm[j]]) != tuple(gram[j]):
                    k = _first_difference(at_perm(gram[perm[j]]), gram[j])
                    raise VerificationError(
                        f"miyamoto map of axis {i} is not an isometry at pair "
                        f"({j},{k})"
                    )
        return MiyamotoMap(i, mapping)

    def sigma_action(self, group):
        """The conjugation action of an enumerated group on the basis, with
        its kernel verified to equal the group center.

        sigma_g(j) is the index m with t_m*g == g*t_j.  For each element g the
        n keys t_m*g (through the cached rows of t_m) map back to m, and each
        g*t_j (through the cached table of t_j) is looked up there, so no
        element is inverted."""
        template = group._template
        mul = template.key_mul()
        row_mul = template.key_row_mul()
        axis_keys = [x.key for x in self.system.involutions]
        perms = {}
        for gk in group.element_keys:
            index = {row_mul(t, gk): m for m, t in enumerate(axis_keys)}
            try:
                perms[gk] = tuple(index[mul(gk, t)] for t in axis_keys)
            except KeyError:
                raise MatsuoError(
                    "group does not stabilize the transposition class"
                ) from None
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
        from . import virasoro

        value = self.gram_entry(i, j)
        if value == 0:
            return "2B"
        if value == virasoro.lookup_by_type("2A").inner_product:
            return "2A"
        raise NotSigmaConfigurationError(f"form value {value} is not a sigma configuration")

    # -- integer tables for exhaustive checks -------------------------------

    def integer_tables(self):
        """The rows of ``system.conj`` and the Gram matrix scaled by
        8*den(alpha)*den(beta) as a list of lists of Python ints, built once
        per algebra; every check reads these two."""
        return self._tables

    @cached_property
    def _tables(self):
        conj = self.system.conj
        diag = 4 * self.alpha.denominator * self.beta.numerator
        edge = self.alpha.numerator * self.beta.numerator
        gram = []
        for i, row in enumerate(conj):
            g = [edge if c != j else 0 for j, c in enumerate(row)]
            if row[i] == i:
                g[i] = diag
            gram.append(g)
        return conj, gram

    def _ad(self, j, vector):
        """ad(x^j) scaled by 2*den(alpha), read off row j of ``conj``, times a
        sparse integer vector {coordinate: value}, as a sparse vector.  With
        a = num(alpha), each x^t with conj[j][t] != t adds a*v_t to x^t and
        to x^j and subtracts it from x^conj[j][t] (a row may repeat a value),
        and x^j adds 4*den(alpha)*v_j."""
        row = self.system.conj[j]
        a = self.alpha.numerator
        out = defaultdict(int)
        for t, v in vector.items():
            if t == j:
                out[j] += 4 * self.alpha.denominator * v
            s = row[t]
            if s != t:
                out[t] += a * v
                out[j] += a * v
                out[s] -= a * v
        return out

    def _gram_times(self, rows):
        """G R^T for the integer Gram table G and integer rows R, as n tuples
        of len(rows) entries.  Row i of G is read on its support
        {j : conj[i][j] != j} u {i}, where ``integer_tables`` puts its only
        nonzero entries, with the support split by Gram value, so each entry
        is a sum of value * (sum of gathered row entries): exact, in
        O(n k r) for valency k and r rows."""
        conj, gram = self._tables
        out = []
        for i, (perm, g) in enumerate(zip(conj, gram)):
            by_value = defaultdict(list)
            for j, c in enumerate(perm):
                if c != j or j == i:
                    by_value[g[j]].append(j)
            terms = [(value, _gather(js)) for value, js in by_value.items() if value]
            out.append(tuple(sum([x * sum(at(r)) for x, at in terms]) for r in rows))
        return out

    @cached_property
    def gram_elimination(self):
        """The one ``bareiss`` elimination of the Gram table; the radical, the
        quotient and positive definiteness all read it."""
        return bareiss(self._tables[1])

    def verify_axioms(self):
        """Exhaustive exact check of commutativity (hence form symmetry) and
        invariance (uv|w) = (u|vw) over all basis triples, run once per
        algebra; a failure raises VerificationError naming its witness."""
        if self._axioms_witness is not None:
            raise VerificationError(self._axioms_witness)
        return True

    @cached_property
    def _axioms_witness(self):
        """The witness text of the first failed axiom, or None; ``quotient``
        reads it too.  At alpha = 0 all hold: x^i x^j = 2 delta_ij x^i, and
        the form is diagonal.  Off the diagonal, gram[i][j] is the edge value
        exactly when conj[i][j] != j, so the commutativity scan, which checks
        conj[i][j] != j <=> conj[j][i] != i, also proves form symmetry."""
        if not self.alpha:
            return None
        conj = self._tables[0]
        # x^i x^j = x^j x^i when i, j are adjacent both ways with one common
        # conjugate, or neither way.
        for i, (row, column) in enumerate(zip(conj, zip(*conj))):
            for j, (c, d) in enumerate(zip(row, column)):
                if (c != j) != (d != i) or (c != j and c != d):
                    return f"product is not commutative at pair ({i},{j})"
        # Then triple (i, j, k) is invariant when S = G ad(x^i), S[j][k] =
        # (x^j | x^i x^k), has S[j][k] == S[k][j].
        for i in range(self.n):
            if not self._invariant_by_gathers(i):
                hit = self._asymmetry(i)
                if hit is not None:
                    return f"form is not invariant at triple ({i},{hit[0]},{hit[1]})"
        return None

    def _invariant_by_gathers(self, i):
        """A sufficient condition, in row gathers, for S = G ad(x^i) to be
        symmetric at alpha != 0 when G is.  Column k of S is a*(G[:, i] +
        G[:, k] - G[:, conj[i][k]]) for k in N = {k : conj[i][k] != k}, column
        i gains unit*G[:, i], and the other columns are 0.  With i not in N,
        ``integer_tables`` makes G[i] the edge value on N and 0 off N u {i},
        and S is symmetric when G[k][conj[i][j]] = G[conj[i][k]][j] for every
        k in N and every j: at j = i, with a*G[i][i] = unit*G[i][k] on N, this
        also makes row i and column i of S agree."""
        conj, gram = self._tables
        perm = conj[i]
        if perm[i] != i:
            return False
        at_perm = _gather(perm)
        return all(
            at_perm(gram[k]) == tuple(gram[c]) for k, c in enumerate(perm) if c != k
        )

    def _asymmetry(self, i):
        """The first (j, k) with S[j][k] != S[k][j] for S = G ad(x^i), built
        in full, or None."""
        perm = self._tables[0][i]
        a, unit = self.alpha.numerator, 4 * self.alpha.denominator
        s = []
        for g in self._tables[1]:
            row = [a * (g[i] + g[k] - g[c]) if c != k else 0 for k, c in enumerate(perm)]
            row[i] += unit * g[i]
            s.append(row)
        return next(
            ((j, k) for j, row in enumerate(s) for k, x in enumerate(row) if x != s[k][j]),
            None,
        )


class MatsuoQuotient:
    """Quotient of a Matsuo algebra by the radical of its form, read off the
    one Gram elimination: the representatives ``rep_indices`` are its pivot
    columns, the radical rows are its kernel rows, each with its own pivot at
    a free column, and ``dim`` is its rank.

    By invariance the radical of the form is an ideal, and a symmetric Gram
    matrix is non-degenerate on its pivot rows and columns, so the quotient
    rests on the axioms; when they fail it raises RadicalNotIdealError citing
    their witness.  The kernel rows are checked exactly against the Gram
    table (``_gram_times``)."""

    def __init__(self, algebra):
        witness = algebra._axioms_witness
        if witness is not None:
            raise RadicalNotIdealError(f"radical is not known to be an ideal: {witness}")
        elim = algebra.gram_elimination
        products = algebra._gram_times(elim.kernel)
        hit = next(
            ((q, i) for q in range(len(elim.kernel))
             for i, row in enumerate(products) if row[q]),
            None,
        )
        if hit is not None:
            raise VerificationError(
                f"radical row {hit[0]} is not in the Gram kernel at axis {hit[1]}"
            )
        self.algebra = algebra
        self.radical = [list(v) for v in elim.kernel]
        self.rep_indices = list(elim.pivots)
        self.dim = elim.rank
        pivot_set = set(elim.pivots)
        self._radical_pivots = [c for c in range(algebra.n) if c not in pivot_set]

    @cached_property
    def gram(self):
        at = _gather(self.rep_indices)
        return [list(at(row)) for row in at(self.algebra.gram)]

    def reduce(self, vector):
        """Canonical coset representative with zero radical-pivot
        coordinates."""
        v = [Fraction(x) for x in vector]
        for f, row in zip(self._radical_pivots, self.radical):
            c = v[f]
            if c:
                scale = c / row[f]
                for col, x in enumerate(row):
                    if x:
                        v[col] -= scale * x
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


def export_gram_csv(algebra):
    lines = []
    for row in algebra.gram:
        lines.append(",".join(format_rational(x) for x in row))
    return "\n".join(lines) + "\n"
