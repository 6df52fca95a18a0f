"""Fischer graphs of 3-transposition systems: adjacency, components, valency,
and detection of the order-54 critical subgroup that separates symplectic-type
systems from the rest."""
from __future__ import annotations

from dataclasses import dataclass, field

from . import groups
from .groups import EnumerationCapError, GroupError

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
    def __init__(self, order, group):
        super().__init__(f"triple generates a group of order {order}, expected 54")
        self.order = order
        self.group = group


class TranspositionSystem:
    """A conjugation-closed involution set with its product-order matrix,
    Fischer-graph adjacency (bitset rows) and the partial map
    circ(i, j) = index of the common conjugate i^j = j^i for adjacent pairs."""

    def __init__(self, involutions, order_matrix, adjacency, circ, generators):
        self.involutions = involutions
        self.order_matrix = order_matrix
        self.adjacency = adjacency
        self.circ = circ
        self.generators = generators
        self._index = {x.key: i for i, x in enumerate(involutions)}

    @property
    def size(self):
        return len(self.involutions)

    def index_of(self, element):
        return self._index[element.key]

    def adjacent(self, i, j):
        return bool(self.adjacency[i] >> j & 1)

    def neighbors(self, i):
        row = self.adjacency[i]
        return [j for j in range(self.size) if row >> j & 1]

    def conjugation(self, i):
        """Conjugation by involution i as a permutation of the class indices:
        j -> i o j for neighbours of i, j fixed otherwise."""
        row = self.adjacency[i]
        return tuple(
            self.circ[i, j] if row >> j & 1 else j for j in range(self.size)
        )

    def group(self, max_order=groups.DEFAULT_MAX_ORDER):
        """Enumerate the generated group (may raise EnumerationCapError)."""
        return groups.generate(self.generators, max_order=max_order)

    def orders(self, max_order=groups.DEFAULT_MAX_ORDER):
        """(|G|, |Z(G)|) without enumerating G (may raise EnumerationCapError).

        |G| comes from Schreier-Sims on a faithful permutation action.  Every
        generator lies in the class D, so G = <D> and Z(G) is the kernel of
        the conjugation action on D: |Z(G)| = |G| / |G acting on D|.
        """
        outside = [g for g in self.generators if g.key not in self._index]
        if outside:
            raise GroupError(
                f"generator {outside[0]!r} is not in the transposition class; "
                "the center is read off the class action only when G = <D>"
            )
        order = groups.group_order(self.generators, max_order)
        on_class = groups.permutation_group_order(
            self.conjugation(self.index_of(g)) for g in self.generators
        )
        return order, order // on_class


def build_system(generators, seed, max_axes=DEFAULT_MAX_AXES, class_cap=100_000):
    """Conjugacy-close the seed and build the Fischer graph, failing loudly if
    any product of two class members has order above 3."""
    involutions = groups.conjugacy_closure(seed, generators, cap=class_cap)
    n = len(involutions)
    if n > max_axes:
        raise EnumerationCapError(max_axes, n)
    index = {x.key: i for i, x in enumerate(involutions)}
    mul = involutions[0].key_mul()
    keys = [x.key for x in involutions]
    id_key = involutions[0].identity_key()

    order_matrix = [[1] * n for _ in range(n)]
    adjacency = [0] * n
    circ = {}
    for i in range(n):
        ki = keys[i]
        for j in range(i + 1, n):
            prod = mul(ki, keys[j])
            if mul(prod, prod) == id_key:
                order_matrix[i][j] = order_matrix[j][i] = 2
                continue
            if mul(mul(prod, prod), prod) == id_key:
                order_matrix[i][j] = order_matrix[j][i] = 3
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
                # i o j = j^i = i j i (an involution conjugating an involution)
                cij = mul(mul(ki, keys[j]), ki)
                cji = mul(mul(keys[j], ki), keys[j])
                if cij != cji or cij not in index:
                    raise GroupError(
                        "common conjugate of an adjacent pair left the class "
                        f"(pair {i},{j})"
                    )
                circ[i, j] = circ[j, i] = index[cij]
                continue
            raise NotThreeTranspositionError(
                i, j, groups.element_order(involutions[i] * involutions[j])
            )
    return TranspositionSystem(involutions, order_matrix, adjacency, circ, list(generators))


def components(sys):
    """Connected components of the Fischer graph, each cross-checked to be a
    single conjugacy class of the group generated by the involutions."""
    n = sys.size
    seen = [False] * n
    comps = []
    for start in range(n):
        if seen[start]:
            continue
        comp = []
        stack = [start]
        seen[start] = True
        while stack:
            v = stack.pop()
            comp.append(v)
            row = sys.adjacency[v]
            for w in range(n):
                if row >> w & 1 and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        comp.sort()
        orbit = _conjugation_orbit(sys, start)
        if orbit != set(comp):
            raise GroupError(
                f"component of #{start} does not match its conjugacy class"
            )
        comps.append(comp)
    comps.sort()
    return comps


def _conjugation_orbit(sys, start):
    mul = sys.involutions[0].key_mul()
    keys = [x.key for x in sys.involutions]
    index = sys._index
    orbit = {start}
    frontier = [start]
    while frontier:
        new = []
        for v in frontier:
            for t in keys:
                w = index[mul(mul(t, keys[v]), t)]
                if w not in orbit:
                    orbit.add(w)
                    new.append(w)
        frontier = new
    return orbit


def valency(sys, component):
    """Common neighbor count inside a connected component."""
    counts = {bin(sys.adjacency[v]).count("1") for v in component}
    if len(counts) != 1:
        raise IrregularComponentError(
            f"non-constant valency {sorted(counts)} in component {component[:8]}..."
        )
    return counts.pop()


S3_COLLAPSE = "S3"
S4_TYPE = "S4"
H_TYPE = "H"


def classify_triple(sys, a, b, c):
    """Type of the pairwise-adjacent triple (a, b, c) by the order of abac.

    abac = (a b a) c is a product of two class involutions, so its order is
    1 (S3 collapse), 2 (S4 type) or 3 (H type).
    """
    conj = sys.circ[a, b]  # a b a = b^a = a o b
    order = sys.order_matrix[conj][c]
    return {1: S3_COLLAPSE, 2: S4_TYPE, 3: H_TYPE}[order]


def detect_H_triple(sys):
    """Lexicographically first pairwise-adjacent triple with (abac) of order 3,
    or None.  A None verdict certifies symplectic type."""
    n = sys.size
    adj = sys.adjacency
    order_matrix = sys.order_matrix
    circ = sys.circ
    for a in range(n):
        row_a = adj[a]
        for b in range(n):
            if not row_a >> b & 1:
                continue
            conj = circ[a, b]
            orders = order_matrix[conj]
            both = row_a & adj[b]
            for c in range(n):
                if both >> c & 1 and orders[c] == 3:
                    return (a, b, c)
    return None


def extract_H(sys, witness):
    """Generate the subgroup of an H-type triple and verify its structure:
    order 54 with center of order 3 generated by (abc)^2."""
    a, b, c = (sys.involutions[i] for i in witness)
    group = groups.generate([a, b, c], max_order=1000)
    if group.order != 54:
        raise UnexpectedSubgroupError(group.order, group)
    z = groups.center(group)
    abc = a * b * c
    zgen = abc * abc
    zkeys = {x.key for x in z}
    if len(z) != 3 or zgen.key not in zkeys or zgen.is_identity():
        raise GroupError("center of the H witness is not generated by (abc)^2")
    if {(zgen * zgen).key, zgen.key, a.identity_key()} != zkeys:
        raise GroupError("center of the H witness is not cyclic of order 3")
    return group


@dataclass
class FischerReport:
    descriptor: str
    class_size: int
    component_sizes: list
    valencies: list
    connected: bool
    h_triple: tuple | None
    h_subgroup_order: int | None
    group_order: int | None
    center_order: int | None
    type_verdict: str = field(default="")

    def __post_init__(self):
        if not self.type_verdict:
            self.type_verdict = (
                "symplectic" if self.h_triple is None else "non-symplectic (H witness)"
            )

    def to_jsonable(self):
        return {
            "descriptor": self.descriptor,
            "class_size": self.class_size,
            "component_sizes": list(self.component_sizes),
            "valencies": list(self.valencies),
            "connected": self.connected,
            "h_triple": list(self.h_triple) if self.h_triple else None,
            "h_subgroup_order": self.h_subgroup_order,
            "group_order": self.group_order,
            "center_order": self.center_order,
            "type_verdict": self.type_verdict,
        }


def analyze_system(sys, descriptor="", group=None):
    """Assemble the graph-level report (no Matsuo data)."""
    comps = components(sys)
    vals = [valency(sys, c) for c in comps]
    witness = detect_H_triple(sys)
    h_order = None
    if witness is not None:
        h_order = extract_H(sys, witness).order
    center_order = None
    if group is not None:
        center_order = len(groups.center(group))
    return FischerReport(
        descriptor=descriptor,
        class_size=sys.size,
        component_sizes=[len(c) for c in comps],
        valencies=vals,
        connected=len(comps) == 1,
        h_triple=witness,
        h_subgroup_order=h_order,
        group_order=group.order if group is not None else None,
        center_order=center_order,
    )


def to_dot(sys, name="fischer"):
    """DOT rendering of the Fischer graph (vertices by canonical index)."""
    lines = [f"graph {name} {{"]
    for i in range(sys.size):
        lines.append(f'  {i} [label="{i}"];')
    for i in range(sys.size):
        row = sys.adjacency[i]
        for j in range(i + 1, sys.size):
            if row >> j & 1:
                lines.append(f"  {i} -- {j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
