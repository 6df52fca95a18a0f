"""Fischer graphs of 3-transposition systems: adjacency, components, valency,
and detection of the order-54 critical subgroup that separates symplectic-type
systems from the rest.

A system is stored as one conjugation table: ``conj[i][j]`` is the index of
t_i t_j t_i.  Adjacency, the common conjugate i o j of an adjacent pair, the
product orders, the conjugacy orbits and the Miyamoto maps of the Matsuo
layer are all read from it.

``build_system`` fills the table from the action sigma_g of each generator g
on the class, which the conjugacy closure records as it goes.  A generator
in the class has row sigma_g, and i = sigma_g[j] gives row i =
sigma_g o row j o sigma_g^-1, so the rows spread along the closure's moves
with index compositions alone.  The carrier conjugates only the first member
of an orbit that no generator row reaches: 2*n*|S| carrier products in all,
plus 2n per such orbit, instead of 2*n^2 more after the closure.
"""
from __future__ import annotations

from . import groups
from .groups import GroupError

DEFAULT_MAX_AXES = 512


class NotThreeTranspositionError(GroupError):
    def __init__(self, i, j, order):
        super().__init__(
            f"product of involutions #{i} and #{j} has order {order} > 3"
        )
        self.pair = (i, j)
        self.order = order


class IrregularComponentError(GroupError):
    """A connected component with non-constant valency (internal bug guard)."""


class UnexpectedSubgroupError(GroupError):
    def __init__(self, triple, order, group):
        self.triple = tuple(triple)
        super().__init__(
            f"triple {self.triple} generates a group of order {order}, expected 54"
        )
        self.order = order
        self.group = group


class TranspositionSystem:
    """A conjugation-closed involution set stored as one conjugation table.

    ``conj[i][j]`` is the index of t_i t_j t_i, so row i is conjugation by
    t_i as a permutation of the class.  For i != j, t_i t_j has order 2 when
    ``conj[i][j] == j`` and order 3 (i, j adjacent in the Fischer graph, with
    common conjugate i o j = ``conj[i][j]``) when ``conj[i][j] == conj[j][i]``.
    """

    def __init__(self, involutions, conj, generators):
        self.involutions = involutions
        self.conj = conj
        self.generators = generators
        self._index = {x.key: i for i, x in enumerate(involutions)}

    @property
    def size(self):
        return len(self.involutions)

    def index_of(self, element):
        return self._index[element.key]

    def adjacent(self, i, j):
        return self.conj[i][j] != j

    def neighbors(self, i):
        return [j for j, c in enumerate(self.conj[i]) if c != j]

    def group(self, max_order=groups.DEFAULT_MAX_ORDER):
        """Enumerate the generated group (may raise EnumerationCapError)."""
        return groups.generate(self.generators, max_order=max_order)

    def class_action_order(self):
        """|G acting on D| by Schreier-Sims on the rows of the generators.

        Every generator must lie in the class D, so that G = <D> and Z(G) is
        the kernel of this action: |Z(G)| = |G| / |G acting on D|.
        """
        outside = [g for g in self.generators if g.key not in self._index]
        if outside:
            raise GroupError(
                f"generator {outside[0]!r} is not in the transposition class; "
                "the center is read off the class action only when G = <D>"
            )
        return groups.permutation_group_order(
            self.conj[self.index_of(g)] for g in self.generators
        )

    def orders(self, max_order=None):
        """(|G|, |Z(G)|) without enumerating G (may raise EnumerationCapError
        when |G| exceeds ``max_order``; None: no cap).

        |G| comes from Schreier-Sims on a faithful permutation action.
        """
        order = groups.group_order(self.generators, max_order)
        return order, order // self.class_action_order()


def build_system(generators, seed, max_axes=DEFAULT_MAX_AXES):
    """Conjugacy-close the seed and build its conjugation table, failing
    loudly if any product of two class members has order above 3.  The
    closure stops as soon as it passes ``max_axes`` involutions.

    Conjugation is a homomorphism G -> Sym(D), so the rows spread from the
    generators' actions as the module docstring describes.
    """
    involutions, actions = groups.conjugacy_closure(seed, generators, cap=max_axes)
    n = len(involutions)
    index = {x.key: i for i, x in enumerate(involutions)}
    conj = [None] * n
    for g, sigma in actions.items():
        if g in index:
            conj[index[g]] = sigma
    moves = [
        (sigma, sorted(range(n), key=sigma.__getitem__)) for sigma in actions.values()
    ]

    def derive(j):
        # Fill the rows one move away from row j; return the new indices.
        row = conj[j]
        filled = []
        for sigma, inverse in moves:
            i = sigma[j]
            if conj[i] is None:
                conj[i] = tuple([sigma[row[m]] for m in inverse])
                filled.append(i)
        return filled

    groups.closure([i for i in range(n) if conj[i] is not None], derive)
    # An orbit's conjugations either all stay in the class or all leave it,
    # so the first unfilled row is the first one that can leave it.
    mul = involutions[0].key_mul()
    keys = [x.key for x in involutions]
    for i, ki in enumerate(keys):
        if conj[i] is None:
            try:
                conj[i] = tuple(index[mul(mul(ki, kj), ki)] for kj in keys)
            except KeyError:
                raise GroupError(
                    f"a conjugate by involution #{i} left the class"
                ) from None
            groups.closure([i], derive)
    for i in range(n):
        row = conj[i]
        for j in range(i + 1, n):
            if row[j] != j and row[j] != conj[j][i]:
                raise NotThreeTranspositionError(
                    i, j, (involutions[i] * involutions[j]).order()
                )
    return TranspositionSystem(involutions, conj, list(generators))


def components(sys):
    """Connected components of the Fischer graph, each cross-checked to be a
    single conjugacy class of the group generated by the involutions."""
    conj = sys.conj
    seen = set()
    comps = []
    for start in range(sys.size):
        if start in seen:
            continue
        comp = groups.closure([start], sys.neighbors)
        orbit = groups.closure([start], lambda v: [row[v] for row in conj])
        if set(orbit) != set(comp):
            raise GroupError(
                f"component of #{start} does not match its conjugacy class"
            )
        seen.update(comp)
        comps.append(sorted(comp))
    return comps


def valency(sys, component):
    """Common neighbor count inside a connected component."""
    first = component[0]
    k = len(sys.neighbors(first))
    for v in component:
        d = len(sys.neighbors(v))
        if d != k:
            raise IrregularComponentError(
                f"non-constant valency in the component of #{first}: "
                f"#{first} has {k} neighbors, #{v} has {d}"
            )
    return k


S3_COLLAPSE = "S3"
S4_TYPE = "S4"
H_TYPE = "H"


def classify_triple(sys, a, b, c):
    """Type of the pairwise-adjacent triple (a, b, c) by the order of abac.

    abac = (a b a) c is a product of two class involutions, so its order is
    1 (S3 collapse), 2 (S4 type) or 3 (H type).
    """
    aba = sys.conj[a][b]
    if aba == c:
        return S3_COLLAPSE
    return S4_TYPE if sys.conj[aba][c] == c else H_TYPE


def detect_H_triple(sys):
    """Lexicographically first pairwise-adjacent triple with (abac) of order 3,
    or None.  A None verdict certifies symplectic type."""
    conj = sys.conj
    nbrs = [set(sys.neighbors(i)) for i in range(sys.size)]
    for a, row_a in enumerate(conj):
        for b in sorted(nbrs[a]):
            # c must be adjacent to a, b and aba (c == aba is the S3 collapse)
            common = nbrs[a] & nbrs[b] & nbrs[row_a[b]]
            if common:
                return (a, b, min(common))
    return None


def extract_H(sys, witness):
    """Generate the subgroup of an H-type triple and verify its structure:
    order 54 with center of order 3 generated by (abc)^2."""
    a, b, c = (sys.involutions[i] for i in witness)
    group = groups.generate([a, b, c], max_order=1000)
    if group.order != 54:
        raise UnexpectedSubgroupError(witness, group.order, group)
    z = groups.center(group)
    abc = a * b * c
    zgen = abc * abc
    zkeys = {x.key for x in z}
    if len(z) != 3 or zgen.key not in zkeys or zgen.is_identity():
        raise GroupError("center of the H witness is not generated by (abc)^2")
    return group


def to_dot(sys, name="fischer"):
    """DOT rendering of the Fischer graph (vertices by canonical index)."""
    lines = [f"graph {name} {{"]
    for i in range(sys.size):
        lines.append(f'  {i} [label="{i}"];')
    for i in range(sys.size):
        for j in sys.neighbors(i):
            if j > i:
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
