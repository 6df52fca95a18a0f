"""Exact-rational Matsuo algebras over a transposition system: structure
constants, invariant bilinear form, unity, radical and non-degenerate
quotient, adjoint eigenstructure, and Miyamoto involutions.

Scalars are Fractions at the interface.  Every product has at most three
terms read off the conjugation table ``conj``, so the checks store no product
table: they read ``system.conj``, its 3-transposition law (``law_defect``)
and one integer Gram table (``_gram``), itself a function of ``conj``, so
form symmetry and a Miyamoto isometry at alpha != 0 follow from ``conj``.
The product has one implementation, ``_ad``, and the form one table,
``_gram``: the eigen-equations, unity, the invariance scan and ``multiply``
apply ``_ad``, and the kernel check of the quotient multiplies by ``_gram``,
so every verdict judges the same algebra.
Eigenvectors are sparse columns of at most three entries, and a per-axis
Miyamoto check that passes is carried along ``system.orbits``
(``_axis_checks``), the one partition of the axes, which
``fischer.components`` cross-checks against the Fischer graph, and shows
invariance at its axis.  The Fraction views ``gram``, ``gram_entry``,
``form`` and ``multiply`` read the same two tables, so they give only values
that the checks verified.  Every check and the one elimination routine,
``bareiss``, run in Python ints, which cannot wrap, so every verification in
this module is exact.  The radical, the quotient and
positive definiteness all read the one elimination of the Gram table; the
quotient rests on the axioms, since the radical of an invariant symmetric
form is an ideal, and on an exact check that the Gram table annihilates the
radical rows.

Every cached view is frozen, as ``system.conj`` is: ``_gram`` and ``gram``
are tuples of tuples, the elimination holds tuples, ``_axis_checks`` is a
tuple whose eigenbases are tuples of read-only mappings, and a quotient's
``rep_indices`` and ``gram`` are tuples.  An edit in place raises, so no
view can disagree with the table it was read from.
"""
from __future__ import annotations

import math
from collections import defaultdict, namedtuple
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from types import MappingProxyType

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


class Elimination(namedtuple("Elimination", "rank pivots minors kernel")):
    """Fraction-free elimination of an integer matrix (Bareiss 1968), frozen:
    every field is an int or a tuple.

    ``pivots`` are the ``rank`` pivot columns.  ``kernel`` is a basis of the
    right kernel, one tuple per free column f: the primitive integer vector
    with a positive entry at f and zeros at the other free columns.
    ``minors`` are the leading principal minors det A[:k, :k], k = 1, 2, ...,
    up to the first that vanishes.
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
        kernel.append(tuple(v // g for v in x))
    return Elimination(rank, tuple(pivots), tuple(minors), tuple(kernel))


class AdjointSpectrum(namedtuple("AdjointSpectrum", "axis alpha vectors sizes")):
    """Adjoint eigenbasis of one axis.  ``vectors`` is a tuple of the basis
    vectors as read-only sparse integer columns {coordinate: value} of at
    most three entries, scaled by 2*den(alpha), in the blocks 2 | 0 | alpha
    whose sizes are ``sizes``; they are the columns that the axis check
    built, so an edit raises.  ``basis_2``, ``basis_0`` and ``basis_alpha``
    are dense Fraction lists built when read."""

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


class AxisCheck(namedtuple("AxisCheck", "axis basis spectrum miyamoto")):
    """The frozen verdict of one axis, made at ``axis``: the tuple of
    read-only columns and the block sizes that ``_eigenbasis`` returned there
    (None at alpha in {0, 2} or when it failed), and the witness texts of the
    eigen-equation and Miyamoto checks, each None when it passed."""

    __slots__ = ()


class MiyamotoMap(namedtuple("MiyamotoMap", "axis mapping")):
    __slots__ = ()

    def is_involution(self):
        return all(self.mapping[self.mapping[j]] == j for j in range(len(self.mapping)))


SigmaAction = namedtuple("SigmaAction", "group permutations kernel_keys")


class MatsuoAlgebra:
    """B_{alpha,beta} over a transposition system.

    Basis products: x^i x^i = 2 x^i; for adjacent i, j the product is
    (alpha/2)(x^i + x^j - x^{i o j}); orthogonal otherwise.  The form takes
    beta/2 on the diagonal, alpha*beta/8 on edges, 0 otherwise.  The checks
    read ``system.conj`` and one integer Gram table (``_gram``), and so do
    ``gram``, ``gram_entry``, ``form`` and ``multiply``: the form is the
    integer table over 8*den(alpha)*den(beta), and the product is ``_ad``
    over 2*den(alpha).
    """

    def __init__(self, system, alpha, beta):
        self.system = system
        self.alpha = Fraction(alpha)
        self.beta = Fraction(beta)
        self.n = system.size

    def axis(self, i):
        self._require_axes(i)
        v = [Fraction(0)] * self.n
        v[i] = Fraction(1)
        return v

    def zero(self):
        return [Fraction(0)] * self.n

    def _require_axes(self, *axes):
        """Raises MatsuoError unless every axis index lies in range(n)."""
        bad = next((i for i in axes if not 0 <= i < self.n), None)
        if bad is not None:
            raise MatsuoError(f"axis {bad} is out of range for n = {self.n}")

    def gram_entry(self, i, j):
        self._require_axes(i, j)
        return self.gram[i][j]

    @cached_property
    def gram(self):
        """The integer Gram table over its scale 8*den(alpha)*den(beta), as
        a tuple of tuples."""
        scale = 8 * self.alpha.denominator * self.beta.denominator
        return tuple(tuple(Fraction(x, scale) for x in row) for row in self._gram)

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
        omega x^i = 2 x^i and (omega | x^i) = beta/2 on the component, read
        through ``_ad`` and ``_gram``, and omega/2 is an idempotent.  The
        component (default: all axes) must be the closure of its first axis
        over ``system.neighbors``, the test of ``fischer.components``, so the
        identities need no conjugacy-class check of the table.  A component
        that fails it (naming the least missing or extra axis), is empty,
        repeats an axis or holds one outside range(n) raises a plain
        MatsuoError, as no table is at fault."""
        from . import fischer

        comp = list(range(self.n) if component is None else component)
        self._require_axes(*comp)
        if not comp:
            raise MatsuoError("the component is empty")
        if len(set(comp)) != len(comp):
            repeat = next(j for m, j in enumerate(comp) if j in comp[:m])
            raise MatsuoError(f"the component repeats axis {repeat}")
        reached = set(groups.closure([comp[0]], self.system.neighbors))
        if reached != set(comp):
            if component is None:
                raise MatsuoError("system is disconnected; pass a component")
            stray = min(reached ^ set(comp))
            raise MatsuoError(
                f"axis {stray} is {'missing' if stray in reached else 'extra'}: the "
                f"component is not the Fischer-graph component of axis {comp[0]}"
            )
        k = fischer.valency(self.system, comp)
        if k * self.alpha + 4 == 0:
            return None
        coeff = Fraction(4) / (k * self.alpha + 4)
        # With coeff = p/q, omega = coeff * 1_C, and the tables scaled as in
        # _gram and _ad, the identities read (j in C):
        #   omega x^j = 2 x^j       p * S[j, t]   = q * 4 den(alpha) [t = j]
        #   (omega | x^j) = beta/2  p * sum_i G[i, j] = q * 4 den(alpha) num(beta)
        # where S[j] = ad(x^j) 1_C.  Summing the first over j in C gives
        # p * sum_j S[j, t] = q * 4 den(alpha) [t in C], which is exactly
        # omega^2 = 2 omega, so omega/2 is an idempotent once it holds.
        p, q = coeff.numerator, coeff.denominator
        unit = q * 4 * self.alpha.denominator
        gram = self._gram
        member = dict.fromkeys(comp, 1)
        for j in comp:
            s = self._ad(j, member)
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
        if radical is not None and tuple(map(tuple, radical)) != (
            self.gram_elimination.kernel
        ):
            raise MatsuoError("the quotient is taken only by the rows of gram_radical()")
        return MatsuoQuotient(self)

    # -- adjoint spectrum and Miyamoto involutions --------------------------

    def _eigenbasis(self, i):
        """The eigenbasis of ad(x^i) as sparse integer columns {coordinate:
        value} scaled by 2*den(alpha), ordered 2 | 0 | alpha, with every
        eigen-equation checked through ``_ad``.  Returns the columns, a
        tuple of read-only mappings, and their three block sizes."""
        n = self.n
        row = self.system.conj[i]
        a_num = self.alpha.numerator
        scale = 2 * self.alpha.denominator
        fixed = [j for j in range(n) if j != i and row[j] == j]
        pairs = [(j, c) for j, c in enumerate(row) if c > j]
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
        basis = tuple(map(MappingProxyType, (
            [{i: scale}]
            + [{j: scale} for j in fixed]
            + plus
            + [{j: scale, jo: -scale} for j, jo in pairs]
        )))
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
                f"{Fraction(lam[c], scale)} at axis {i}, "
                f"column {c} (coordinate x^{t})"
            )
        return basis, sizes

    def adjoint_spectrum(self, i):
        """The adjoint eigenbasis of axis i, read off its verdict: the basis
        that the direct check of axis i built, or, where the verdict was
        carried to axis i, one built now."""
        self._require_axes(i)
        if self.alpha == 0 or self.alpha == 2:
            raise DegenerateAlphaError(self.alpha)
        check = self._axis_checks[i]
        if check.spectrum is not None:
            raise VerificationError(check.spectrum)
        basis, sizes = check.basis if check.axis == i else self._eigenbasis(i)
        return AdjointSpectrum(i, self.alpha, basis, sizes)

    def verify_spectra(self):
        """The eigen-equations of every axis, read off the axis verdicts;
        raises the VerificationError of the first failing axis in index
        order."""
        if self.alpha == 0 or self.alpha == 2:
            raise DegenerateAlphaError(self.alpha)
        witness = next((c.spectrum for c in self._axis_checks if c.spectrum), None)
        if witness is not None:
            raise VerificationError(witness)
        return True

    def miyamoto(self, i):
        """The Miyamoto involution of axis i as a basis permutation (row i of
        the conjugation table), verified to be an involution, an algebra
        automorphism and an isometry of the form, with the eigen-equations of
        axis i checked; the verdict is read off ``_axis_checks``."""
        self._require_axes(i)
        witness = self._axis_checks[i].miyamoto
        if witness is not None:
            raise VerificationError(witness)
        return MiyamotoMap(i, self.system.conj[i])

    @cached_property
    def _axis_checks(self):
        """A tuple of one ``AxisCheck`` per axis, made by ``_check_axis`` at
        the axis itself or carried from the least axis of its orbit in
        ``system.orbits``, the orbits of the generator rows.

        Every generator axis is checked directly.  When all of them pass at
        alpha != 0, each generator row P is an involution with
        conj[P(j)][P(k)] = P(conj[j][k]) for all j, k, and then a check that
        passes at an axis r passes at P(r) with the same eigenspace sizes:
        this is the conjugation rule tau_{x^g} = g^-1 tau_x g of Miyamoto
        involutions (Miyamoto, J. Algebra 179, 1996; Hall-Rehren-Shpectorov,
        J. Algebra 437, 2015).  Proof.  Taking j = r, as P = P^-1, row P(r)
        is P o row r o P.  So row P(r) is an involution when row r is, and an
        automorphism of the table when row r is, being a product of
        automorphisms.  The map phi: x^t -> x^P(t) takes ad(x^r) to
        ad(x^P(r)), as ``_ad`` reads only row r and alpha, and it preserves
        the Gram table, which ``_gram`` reads off whether
        conj[j][k] = k.  The fixed points and 2-cycles of row P(r) are the
        images under P of those of row r, so its eigenbasis is phi of the one
        at r up to the order of the columns and the sign of the alpha
        columns: the block sizes agree and the eigen-equations hold.  By
        induction on words in the generator rows, the pass carries over the
        orbit of r.

        So the least axis of each orbit is checked directly, and its verdict
        is carried over the orbit when it passes.  The axes of an orbit that
        fails, and all axes when a generator fails or alpha = 0 (where no
        automorphism is scanned), are checked directly, so every verdict and
        witness is the one ``_check_axis`` gives at that axis.
        """
        system = self.system
        checks = [None] * self.n
        for g in system.generator_axes:
            checks[g] = self._check_axis(g)
        if self.alpha and all(checks[g].miyamoto is None for g in system.generator_axes):
            for orbit in system.orbits:
                r = orbit[0]
                checks[r] = checks[r] or self._check_axis(r)
                if checks[r].miyamoto is None:
                    for j in orbit:
                        checks[j] = checks[j] or checks[r]
        return tuple(check or self._check_axis(i) for i, check in enumerate(checks))

    def _check_axis(self, i):
        """The ``AxisCheck`` of axis i, checked directly.  Row i is checked to
        be an involution, an algebra automorphism and an isometry of the
        form, and ``_eigenbasis`` checks the eigen-equations of axis i, once
        for both witnesses.  The action by +1 on the {2, 0} eigenspaces and -1
        on the alpha eigenspace holds by construction: the eigenbasis is built
        from this row, so an involutive row that passes the eigen-equations
        fixes x^i and swaps the two entries of each pair."""
        basis = spectrum = None
        if self.alpha not in (0, 2):
            try:
                basis = self._eigenbasis(i)
            except VerificationError as exc:
                spectrum = str(exc)
        return AxisCheck(i, basis, spectrum, self._miyamoto_witness(i, spectrum))

    def _miyamoto_witness(self, i, spectrum):
        """The witness text of the first failed Miyamoto check of axis i, or
        None; ``spectrum`` is the eigen-equation witness of axis i."""
        conj = self.system.conj
        perm = conj[i]
        n = self.n
        j = next((j for j in range(n) if perm[perm[j]] != j), None)
        if j is not None:
            return (
                f"miyamoto map of axis {i} is not an involution: "
                f"x^{j} -> x^{perm[j]} -> x^{perm[perm[j]]}"
            )
        if spectrum is not None:
            return spectrum
        # The involution perm is an automorphism when conj[perm[j]][perm[k]]
        # == perm[conj[j][k]].  That keeps whether conj[j][k] = k, and so, by
        # ``_gram``, gram[j][k]: perm is an isometry.  At alpha = 0,
        # where every map is an automorphism, the Gram table is diagonal, so
        # perm is an isometry when it keeps the diagonal.  Rows j and perm[j]
        # state the same condition, so the first failing row has j <= perm[j].
        at_perm = _gather(perm)
        rows = [j for j in range(n) if j <= perm[j]]
        if self.alpha:
            for j in rows:
                image = _gather(conj[j])(perm)
                if at_perm(conj[perm[j]]) != image:
                    k = _first_difference(at_perm(conj[perm[j]]), image)
                    return (
                        f"miyamoto map of axis {i} is not an automorphism at "
                        f"pair ({j},{k})"
                    )
        else:
            gram = self._gram
            j = next((j for j in rows if gram[j][j] != gram[perm[j]][perm[j]]), None)
            if j is not None:
                return f"miyamoto map of axis {i} is not an isometry at pair ({j},{j})"
        return None

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
        self._require_axes(i, j)
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

    # -- the integer Gram table for exhaustive checks ------------------------

    @cached_property
    def _gram(self):
        """The Gram matrix scaled by 8*den(alpha)*den(beta), as a tuple of
        tuples of Python ints read off ``system.conj``: the edge value where
        conj[i][j] != j, the diagonal value where conj[i][i] = i."""
        diag = 4 * self.alpha.denominator * self.beta.numerator
        edge = self.alpha.numerator * self.beta.numerator
        return tuple(
            tuple(diag if j == i == c else edge if c != j else 0
                  for j, c in enumerate(row))
            for i, row in enumerate(self.system.conj)
        )

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
        of len(rows) entries.  Each row of ``_gram`` is read on its nonzero
        entries, split by value, so each entry is a sum of value * (sum of
        gathered row entries): exact, in O(n k r) for valency k and r rows,
        and it multiplies by the one form table the other checks read."""
        out = []
        for g in self._gram:
            by_value = defaultdict(list)
            for j, value in enumerate(g):
                if value:
                    by_value[value].append(j)
            terms = [(value, _gather(js)) for value, js in by_value.items()]
            out.append(tuple(sum([x * sum(at(r)) for x, at in terms]) for r in rows))
        return out

    @cached_property
    def gram_elimination(self):
        """The one ``bareiss`` elimination of the Gram table; the radical, the
        quotient and positive definiteness all read it."""
        return bareiss(self._gram)

    def verify_axioms(self):
        """Exhaustive exact check of commutativity (hence form symmetry) and
        invariance (uv|w) = (u|vw) over all basis triples, run once per
        algebra, with invariance at each axis read off its Miyamoto verdict;
        a failure raises VerificationError naming its witness."""
        if self._axioms_witness is not None:
            raise VerificationError(self._axioms_witness)
        return True

    @cached_property
    def _axioms_witness(self):
        """The witness text of the first failed axiom, or None; ``quotient``
        reads it too.  At alpha = 0 all hold: x^i x^j = 2 delta_ij x^i, and
        the form is diagonal.  Otherwise x^i x^j = x^j x^i exactly when i, j
        commute or are adjacent: the law, ``system.law_defect``.  Off the
        diagonal gram[i][j] is the edge value exactly when conj[i][j] != j,
        which the law makes symmetric, so it also proves form symmetry.

        Triple (i, j, k) is invariant when S = G ad(x^i), S[j][k] =
        (x^j | x^i x^k), has S[j][k] == S[k][j]; ``_asymmetry`` builds S from
        ``_ad`` and ``_gram`` and scans it only at the axes whose Miyamoto
        verdict (``_axis_checks``) fails.  A pass is enough.  With P = conj[i],
        N = {k : P(k) != k}, a = num(alpha) and unit = 4*den(alpha), ``_ad``
        makes column k of S a*(G[:, i] + G[:, k] - G[:, P(k)]) for k in N,
        column i gains unit*G[:, i], and the other columns are 0.  With i not
        in N, ``_gram`` makes G[i] the edge value on N and 0 off N u {i}, so,
        G being symmetric, S is symmetric when G[k][P(j)] = G[P(k)][j] for
        all k in N and all j: at j = i, as a*G[i][i] = unit*G[i][k] on N,
        this also makes row i and column i of S agree.  A pass makes P an
        involutive automorphism of ``conj``, so P keeps whether conj[j][k] = k
        and is an isometry of G; and P(i) = i, or m = P(i) has conj[i][m] = i
        and conj[m][i] = m, which the law, checked first, rejects.  So
        G[P(k)][j] = G[P(P(k))][P(j)] = G[k][P(j)]."""
        if not self.alpha:
            return None
        defect = self.system.law_defect
        if defect is not None:
            return f"product is not commutative at pair ({defect[0]},{defect[1]})"
        for i, check in enumerate(self._axis_checks):
            if check.miyamoto is not None:
                hit = self._asymmetry(i)
                if hit is not None:
                    return f"form is not invariant at triple ({i},{hit[0]},{hit[1]})"
        return None

    def _asymmetry(self, i):
        """The first (j, k) with S[j][k] != S[k][j] for S = G ad(x^i), or
        None; column k of S is ``_gram`` times ``_ad(i, {k: 1})``."""
        gram_columns = tuple(zip(*self._gram))
        s = []  # s[k] is column k of S
        for k in range(self.n):
            column = [0] * self.n
            for t, x in self._ad(i, {k: 1}).items():
                column = [c + x * g for c, g in zip(column, gram_columns[t])]
            s.append(column)
        return next(
            ((j, k) for j, col in enumerate(s) for k, x in enumerate(col) if x != s[k][j]),
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
    their witness.  The kernel rows are checked exactly against ``_gram``
    itself, the form table the axioms read (``_gram_times``)."""

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
        self.rep_indices = elim.pivots
        self.dim = elim.rank

    @cached_property
    def gram(self):
        at = _gather(self.rep_indices)
        return tuple(map(at, at(self.algebra.gram)))


def export_gram_csv(algebra):
    return "\n".join(",".join(map(format_rational, row)) for row in algebra.gram) + "\n"
