"""Fischer graphs of 3-transposition systems: adjacency, components, valency,
and detection of the order-54 critical subgroup that separates symplectic-type
systems from the rest.

A system is stored as one conjugation table: ``conj[i][j]`` is the index of
t_i t_j t_i.  Adjacency, the common conjugate i o j of an adjacent pair, the
product orders, the conjugacy orbits, the Miyamoto maps of the Matsuo layer
and the 3-transposition law, one cached scan (``law_defect``) that
``build_system`` and the Matsuo commutativity check share, are read from it.

A system is the class D of its generators S, their closure under
conjugation by S.  Each generator lies in D and each member of D is a
conjugate of one, so each conjugacy orbit of D holds a generator and
G = <S> = <D>.  ``build_system`` fills the table from the action sigma_g of
each generator g on the class, which the conjugacy closure records as it
goes.  Generator g has row sigma_g, and i = sigma_g[j] gives row i =
sigma_g o row j o sigma_g, as sigma_g is its own inverse, so the rows spread
along the closure's moves with index compositions alone: 2*n*|S| carrier
products in all, all in the closure, instead of 2*n^2 more after it.

One partition of D serves every layer: ``TranspositionSystem.orbits``, the
orbits of the generator rows.  On a valid table these are the conjugacy
classes of G on D and the components of the Fischer graph, since
conjugation by t_s fixes t_x or moves it to a neighbour, and two neighbours
are conjugate in the S3 they generate.  ``components`` returns the orbits
once the table shows both facts, and the Matsuo layer carries its per-axis
verdicts along the same orbits.  The check rejects a table when some row
moves an axis out of its orbit, when a changed entry joins or splits graph
components, or when the generator rows do not reach a whole component.
"""
from __future__ import annotations

from functools import cached_property

from . import groups
from .groups import GroupError


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
        return self._neighbors[i]

    @cached_property
    def _neighbors(self):
        """The Fischer-graph neighbors of every vertex in increasing order,
        read off the table once per system."""
        return [[j for j, c in enumerate(row) if c != j] for row in self.conj]

    def group(self, max_order=groups.DEFAULT_MAX_ORDER):
        """Enumerate the generated group (may raise EnumerationCapError)."""
        return groups.generate(self.generators, max_order=max_order)

    @cached_property
    def generator_axes(self):
        """The indices of the distinct generators, in increasing order."""
        return sorted({self.index_of(g) for g in self.generators})

    @cached_property
    def orbits(self):
        """The orbits of the generator rows, each sorted: each is the closure
        of the least axis not yet reached over the axes not yet reached, so
        they partition the axes also where a row is not a permutation."""
        rows = [self.conj[g] for g in self.generator_axes]
        orbits, reached = [], set()
        for r in range(self.size):
            if r not in reached:
                orbit = groups.closure([r], lambda v: {row[v] for row in rows} - reached)
                orbits.append(sorted(orbit))
                reached.update(orbit)
        return orbits

    @cached_property
    def law_defect(self):
        """The first pair i < j, in row-major order, of axes that neither
        commute (conj[i][j] = j and conj[j][i] = i) nor are adjacent
        (conj[i][j] = conj[j][i], neither i nor j), or None."""
        conj = self.conj
        for i, row in enumerate(conj):
            for j in range(i + 1, len(conj)):
                c, d = row[j], conj[j][i]
                if (c != d or c == i) if c != j else d != i:
                    return i, j
        return None

    def class_action_order(self):
        """|G acting on D| by Schreier-Sims on the generator rows.

        D is the class of the generators, so G = <D> and Z(G) is the
        kernel of this action: |Z(G)| = |G| / |G acting on D|.
        """
        return groups.permutation_group_order(self.conj[g] for g in self.generator_axes)


def build_system(generators, seed=None, max_axes=None):
    """The class of the generators with its conjugation table, failing
    loudly if a generator is not an involution, if a ``seed`` element is not
    in the class, or if any product of two class members has order above 3.
    The closure stops as soon as it passes ``max_axes`` involutions (None:
    no cap).

    Every class member is a conjugate of a generator, so the rows spread
    from the generators' actions to the whole class, as the module docstring
    describes.  On a table of group elements conj[i][i] = i, commuting is
    symmetric and conj[i][j] = i would force t_j = t_i, so the pair of
    ``law_defect`` is the first with t_i t_j of order above 3.
    """
    involutions, actions = groups.conjugacy_closure(generators, cap=max_axes)
    for s in seed or ():
        if s not in involutions:
            raise GroupError(f"seed {s!r} is not in the class of the generators")
    n = len(involutions)
    system = TranspositionSystem(involutions, [None] * n, list(generators))
    conj, index = system.conj, system._index
    for g, sigma in actions.items():
        conj[index[g]] = sigma

    def derive(j):
        # Fill the rows one move away from row j; return the new indices.
        row = conj[j]
        filled = []
        for sigma in actions.values():
            i = sigma[j]
            if conj[i] is None:
                conj[i] = tuple([sigma[row[m]] for m in sigma])
                filled.append(i)
        return filled

    groups.closure({index[g] for g in actions}, derive)
    if system.law_defect:
        i, j = system.law_defect
        raise NotThreeTranspositionError(i, j, (involutions[i] * involutions[j]).order())
    return system


def components(sys):
    """The connected components of the Fischer graph: ``sys.orbits``, each
    checked to be the graph component of its least axis and to be mapped
    into itself by every row of the table."""
    for orbit in sys.orbits:
        members = set(orbit)
        if set(groups.closure([orbit[0]], sys.neighbors)) != members or any(
            row[v] not in members for row in sys.conj for v in orbit
        ):
            raise GroupError(
                f"component of #{orbit[0]} does not match its conjugacy class"
            )
    return sys.orbits


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


def detect_H_triple(sys):
    """Lexicographically first pairwise-adjacent triple with (abac) of order 3,
    or None.  A None verdict certifies symplectic type.  Each neighbor set is
    an int bitmask, so the least c of a pair (a, b) is the lowest set bit of
    the common neighbors of a, b and aba."""
    conj = sys.conj
    nbrs = sys._neighbors
    masks = [sum(1 << j for j in nb) for nb in nbrs]
    for a, (row_a, mask_a) in enumerate(zip(conj, masks)):
        for b in nbrs[a]:
            # c must be adjacent to a, b and aba (c == aba is the S3 collapse)
            common = mask_a & masks[b] & masks[row_a[b]]
            if common:
                return (a, b, (common & -common).bit_length() - 1)
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


def to_dot(sys):
    """DOT rendering of the Fischer graph (vertices by canonical index)."""
    lines = ["graph fischer {"]
    for i in range(sys.size):
        lines.append(f'  {i} [label="{i}"];')
    for i in range(sys.size):
        for j in sys.neighbors(i):
            if j > i:
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
