"""Concrete finite-group engine: permutations, matrices over small prime fields,
breadth-first closure enumeration and the permutation action of moves on a
closure, and group orders by Schreier–Sims.

Composition convention (fixed globally): ``a * b`` means "apply b first, then a".
"""
from __future__ import annotations

import math
from functools import cached_property, lru_cache

DEFAULT_MAX_ORDER = 2_000_000


class GroupError(Exception):
    pass


class StructuralError(GroupError):
    """Incompatible or malformed group elements (degree/modulus mismatch)."""


class EnumerationCapError(GroupError):
    def __init__(self, cap, reached, message=None):
        super().__init__(
            message or f"closure exceeded cap {cap} (reached {reached} elements)"
        )
        self.cap = cap
        self.reached = reached


class Permutation:
    """A permutation of {0, ..., n-1} stored by its image array."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise StructuralError(f"not a bijection on 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def _raw(cls, images):
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree):
        return cls._raw(tuple(range(degree)))

    @classmethod
    def from_cycles(cls, degree, cycles):
        images = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                images[a] = b
        return cls(images)

    @property
    def degree(self):
        return len(self.images)

    @property
    def key(self):
        return self.images

    def peer(self, key):
        """Element of the same carrier rebuilt from a canonical key."""
        return Permutation._raw(key)

    def __mul__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        a, b = self.images, other.images
        if len(a) != len(b):
            raise StructuralError(f"degree mismatch: {len(a)} vs {len(b)}")
        return Permutation._raw(tuple(map(a.__getitem__, b)))

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def order(self):
        """The lcm of the cycle lengths."""
        return math.lcm(*map(len, self.cycles()))

    def key_mul(self):
        return _perm_key_mul

    def key_row_mul(self):
        return _perm_key_mul

    def key_conj(self, gens):
        """``(encode, decode, conj)``: ``conj(x)`` lists the encoded keys of
        g*x*g, whose images are g[x[g[i]]], for the keys g in ``gens`` and an
        encoded key x.  Each is two translations through ``_translation``: g
        by the table of x, which the generators share, then by the table of
        g, built once."""
        encode, table, apply = _translation(len(self.images))
        pairs = [(encode(g), table(g)) for g in gens]

        def conj(x):
            tx = table(x)
            return [apply(apply(g, tx), tg) for g, tg in pairs]

        return encode, tuple, conj

    def identity_key(self):
        return tuple(range(len(self.images)))

    def cycles(self):
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start] or self.images[start] == start:
                seen[start] = True
                continue
            cyc = []
            j = start
            while not seen[j]:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        cyc = self.cycles()
        if not cyc:
            return "Permutation(id)"
        return "Permutation(" + "".join(str(c) for c in cyc) + ")"


def _perm_key_mul(a, b):
    return tuple(map(a.__getitem__, b))


def _perm_inverse(images):
    inv = [0] * len(images)
    for i, j in enumerate(images):
        inv[j] = i
    return tuple(inv)


def _row_decode(row, p, dim):
    out = []
    for _ in range(dim):
        out.append(row % p)
        row //= p
    return out


def _row_encode(digits, p):
    row = 0
    for d in reversed(digits):
        row = row * p + d
    return row


@lru_cache(maxsize=None)
def _spread_rows(p, dim):
    """``(spread, fields, mask)``: spread[x] holds digit j of the packed row
    x in bit field j, each ``mask`` wide, so a sum of dim rows times digits
    does not carry between fields; ``fields`` pairs the bit offset of field j
    with the weight p^j of digit j in a packed row."""
    width = ((p - 1) ** 2 * dim).bit_length()
    spread = [0]
    for j in range(dim):
        spread = [x + (d << width * j) for d in range(p) for x in spread]
    fields = tuple((width * j, p**j) for j in range(dim))
    return tuple(spread), fields, (1 << width) - 1


def _row_table(p, dim, rows):
    """Row table of the matrix with these packed rows: entry x is the packed
    row x times the matrix.  The x below p^(k+1) are those below p^k plus d e_k
    for d in 1..p-1, so each entry is an earlier one plus d rows[k], over F3
    in the bit fields of ``_spread_rows``, each entry reduced once at the end."""
    table = [0]
    if p == 2:
        for row in rows:
            table += [x ^ row for x in table]
        return table
    spread, fields, mask = _spread_rows(p, dim)
    for row in rows:
        row = spread[row]
        layer = table
        for _ in range(p - 1):
            layer = [x + row for x in layer]
            table = table + layer
    return [sum((x >> shift & mask) % p * q for shift, q in fields) for x in table]


def _invertible_row_table(g, rows):
    """The row table of the matrix with these packed rows, g or its
    transpose, checked to be a permutation of F_p^dim: it is one exactly when
    g is invertible."""
    table = _row_table(g.p, g.dim, rows)
    if len(set(table)) != len(table):
        raise StructuralError(f"matrix not invertible: {g!r}")
    return table


class FpMatrix:
    """Square matrix over F_p (p = 2 or 3), a group element when invertible.

    Acts on column vectors, so ``(a * b) v == a (b v)``: right factor first.
    Rows are stored base-p packed (column 0 is the least significant digit).
    ``from_entries`` builds one from checked entries.
    """

    __slots__ = ("p", "dim", "rows")

    @classmethod
    def _raw(cls, p, dim, rows):
        m = object.__new__(cls)
        m.p = p
        m.dim = dim
        m.rows = rows
        return m

    @classmethod
    def from_entries(cls, p, dim, entries):
        entries = list(entries)
        if len(entries) != dim * dim:
            raise StructuralError(f"expected {dim * dim} entries, got {len(entries)}")
        if any(e < 0 or e >= p for e in entries):
            raise StructuralError("entries must be residues in [0, p)")
        rows = tuple(
            _row_encode(entries[i * dim : (i + 1) * dim], p) for i in range(dim)
        )
        return cls._raw(p, dim, rows)

    @classmethod
    def identity(cls, p, dim):
        return cls._raw(p, dim, tuple(p**i for i in range(dim)))

    @property
    def entries(self):
        out = []
        for r in self.rows:
            out.extend(_row_decode(r, self.p, self.dim))
        return tuple(out)

    @property
    def key(self):
        return self.rows

    def peer(self, key):
        return FpMatrix._raw(self.p, self.dim, key)

    def __mul__(self, other):
        if not isinstance(other, FpMatrix):
            return NotImplemented
        if self.p != other.p or self.dim != other.dim:
            raise StructuralError("modulus/dimension mismatch")
        rows = self.key_row_mul()(self.rows, other.rows)
        return FpMatrix._raw(self.p, self.dim, rows)

    def key_mul(self):
        p, dim = self.p, self.dim
        cache = {}

        def mul(a, b):
            table = cache.get(b)
            if table is None:
                table = cache[b] = _row_table(p, dim, b)
            return tuple(map(table.__getitem__, a))

        return mul

    def key_row_mul(self):
        """Key product for a varying right factor: row i of a*b combines the
        rows of b chosen by row i of a (an XOR over F2, a digitwise sum over
        F3), so no p^dim table is built for b.  The nonzero entries of each
        left factor are cached.  Over F3 each row of b is decoded once, by
        ``_spread_rows``, and row i of a*b is one integer sum of those,
        reduced digit by digit."""
        p, dim = self.p, self.dim
        cache = {}

        def mul(a, b):
            terms = cache.get(a)
            if terms is None:
                terms = cache[a] = [
                    [(k, c) for k, c in enumerate(_row_decode(r, p, dim)) if c]
                    for r in a
                ]
            if p == 2:
                out = []
                for row in terms:
                    acc = 0
                    for k, _ in row:
                        acc ^= b[k]
                    out.append(acc)
                return tuple(out)
            spread, fields, mask = _spread_rows(p, dim)
            rows = [spread[r] for r in b]
            out = []
            for row in terms:
                acc = 0
                for k, c in row:
                    acc += c * rows[k]
                out.append(sum((acc >> shift & mask) % p * q for shift, q in fields))
            return tuple(out)

        return mul

    def key_conj(self, gens):
        """``(encode, decode, conj)`` as for a Permutation, on the key tuples
        themselves: g*x*g is x*g through the cached table of g, then g*(x*g)
        through the rows of x*g, so no table is built for x."""
        mul = self.key_mul()
        row_mul = self.key_row_mul()

        def conj(x):
            return [row_mul(g, mul(x, g)) for g in gens]

        return tuple, tuple, conj

    def identity_key(self):
        return tuple(self.p**i for i in range(self.dim))

    def is_identity(self):
        return self.rows == self.identity_key()

    def order(self):
        """Order of the permutation the matrix makes of F_p^dim: the action on
        vectors is faithful, so the two orders agree.  Raises StructuralError
        for a singular matrix."""
        return Permutation._raw(permutation_images(self)).order()

    def __eq__(self, other):
        return (
            isinstance(other, FpMatrix)
            and self.p == other.p
            and self.dim == other.dim
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return f"FpMatrix(p={self.p}, dim={self.dim}, entries={self.entries})"


def _check_compatible(elements):
    if not elements:
        raise StructuralError("need at least one element")
    first = elements[0]
    for e in elements[1:]:
        if type(e) is not type(first):
            raise StructuralError("mixed element kinds")
        if isinstance(first, Permutation):
            if e.degree != first.degree:
                raise StructuralError("degree mismatch among elements")
        else:
            if e.p != first.p or e.dim != first.dim:
                raise StructuralError("modulus/dimension mismatch among elements")
    return first


class GeneratedGroup:
    """A fully enumerated group: deterministic element order (BFS layer, then
    canonical key order within a layer)."""

    def __init__(self, generators, element_keys):
        self.generators = list(generators)
        self.element_keys = list(element_keys)
        self._template = self.generators[0]

    @property
    def order(self):
        return len(self.element_keys)

    @cached_property
    def _keys(self):
        return set(self.element_keys)

    def __contains__(self, item):
        key = item.key if hasattr(item, "key") else item
        return key in self._keys


def closure(start, step, cap=None):
    """Breadth-first closure of the keys ``start`` under ``step``, where
    ``step(key)`` lists the keys one move away.

    Returns the sorted start keys, then each new layer in key order.  Raises
    EnumerationCapError as soon as more than ``cap`` keys are reached.
    """
    seen = set(start)
    limit = math.inf if cap is None else cap
    if len(seen) > limit:
        raise EnumerationCapError(cap, len(seen))
    out = sorted(seen)
    frontier = out
    while frontier:
        layer = []
        for key in frontier:
            for k in step(key):
                if k not in seen:
                    seen.add(k)
                    layer.append(k)
                    if len(seen) > limit:
                        raise EnumerationCapError(cap, len(seen))
        layer.sort()
        out.extend(layer)
        frontier = layer
    return out


def permutation_action(start, moves, cap=None):
    """The sorted points of ``closure(start, moves, cap)`` and, per move, the
    tuple of the indices of its images of those points, where ``moves(x)``
    lists the image of x under each move in one fixed order.  The closure
    calls ``moves`` once per point, so each image is computed once."""
    images = {}
    points = sorted(closure(start, lambda x: images.setdefault(x, moves(x)), cap))
    index = {x: i for i, x in enumerate(points)}
    perms = [tuple(index[y] for y in column) for column in zip(*map(images.get, points))]
    return points, perms


def _translation(points):
    """``(encode, table, apply)`` with ``apply(encode(a), table(t))`` encoding
    ``tuple(t[x] for x in a)`` for keys a, t over range(points): bytes and one
    bytes.translate up to 256 points, tuples beyond."""
    if points > 256:
        return tuple, tuple, lambda a, t: tuple(map(t.__getitem__, a))
    pad = bytes(range(points, 256))
    return bytes, lambda t: bytes(t) + pad, bytes.translate


def generate(generators, max_order=DEFAULT_MAX_ORDER):
    """Breadth-first closure of the identity under the generators.

    A step maps key a through a table per generator g: the images of g for a
    permutation (the left product g*a), the row table of g for a matrix (the
    right product a*g).  Both sides reach the same layers, as layer k holds the
    products of k generators and of no fewer.  Up to 256 points the keys are
    bytes and a step is one bytes.translate; equal-length bytes sort like the
    tuples they encode, so the element keys come out as with tuple keys.
    """
    template = _check_compatible(generators)
    tables = sorted({g.key for g in generators})
    if isinstance(template, FpMatrix):
        tables = [_invertible_row_table(template.peer(g), g) for g in tables]
    encode, table, apply = _translation(len(tables[0]))
    tables = [table(t) for t in tables]
    identity = encode(template.identity_key())
    keys = closure([identity], lambda a: [apply(a, t) for t in tables], max_order)
    for i, key in enumerate(keys):
        keys[i] = tuple(key)
    return GeneratedGroup(generators, keys)


def permutation_images(g):
    """Image tuple of g in a faithful permutation action: its own images for a
    Permutation; for an FpMatrix, its action on the p^dim column vectors, each
    vector packed base p like a matrix row."""
    if isinstance(g, Permutation):
        return g.images
    # g v is the row v times the transpose of g, whose rows are g's columns.
    p, dim = g.p, g.dim
    columns = zip(*(_row_decode(r, p, dim) for r in g.rows))
    return tuple(_invertible_row_table(g, [_row_encode(c, p) for c in columns]))


def permutation_group_order(generators):
    """Exact order of the group generated by permutations given as image
    tuples, by deterministic Schreier–Sims (Sims 1970; Seress, *Permutation
    Group Algorithms*, 2003, ch. 4).

    Every Schreier generator is sifted; none is sampled.  A generator that
    sifts to the identity is skipped, and a new base point is the first point
    moved by the strong generator that needs it.  The order is the product of
    the basic orbit lengths.
    """
    gens = [tuple(g) for g in generators]
    if not gens:
        return 1
    identity = tuple(range(len(gens[0])))
    base = []
    strong = []  # strong[l]: (s, s^-1) for the strong generators fixing base[:l]
    orbits = []  # orbits[l]: basic orbit of base[l] in discovery order
    transversals = []  # transversals[l][x]: (u, u^-1) with u[base[l]] == x

    def sift(g, level):
        for lv in range(level, len(base)):
            coset = transversals[lv].get(g[base[lv]])
            if coset is None:
                return g
            g = _perm_key_mul(coset[1], g)
        return g

    def extend(level, g):
        # g fixes base[:level]; make it a strong generator of this level and,
        # through the sifted Schreier generators, of the levels below.
        if level == len(base):
            point = next(x for x, y in enumerate(g) if x != y)
            base.append(point)
            strong.append([])
            orbits.append([point])
            transversals.append({point: (identity, identity)})
        gens_here, orbit = strong[level], orbits[level]
        transversal = transversals[level]
        added = (g, _perm_inverse(g))
        gens_here.append(added)
        known = len(orbit)
        i = 0
        while i < len(orbit):
            x = orbit[i]
            u, u_inv = transversal[x]
            # Old points pair with the new generator only, new points with all.
            for s, s_inv in gens_here if i >= known else (added,):
                su = _perm_key_mul(s, u)
                y = su[base[level]]
                if y not in transversal:
                    transversal[y] = (su, _perm_key_mul(u_inv, s_inv))
                    orbit.append(y)
                    continue
                schreier = _perm_key_mul(transversal[y][1], su)
                if schreier != identity:
                    residue = sift(schreier, level + 1)
                    if residue != identity:
                        extend(level + 1, residue)
            i += 1

    for g in gens:
        if sift(g, 0) != identity:
            extend(0, g)
    return math.prod(len(orbit) for orbit in orbits)


def group_order(generators, max_order=None):
    """Exact order of the generated group without enumerating it: Schreier–Sims
    on a faithful permutation action.  Raises EnumerationCapError when the
    order exceeds ``max_order`` (None: no cap)."""
    _check_compatible(generators)
    order = permutation_group_order(permutation_images(g) for g in generators)
    if max_order is not None and order > max_order:
        raise EnumerationCapError(
            max_order, order, f"group order {order} exceeds the order cap {max_order}"
        )
    return order


def conjugacy_closure(generators, cap=None):
    """The class D of the given involutions: the smallest set holding them
    and closed under conjugation by them, in canonical key order, with the
    action of each distinct generator g on it.

    Returns ``(involutions, actions)`` where ``actions[i][j]`` is the index
    of g x_j g for the distinct generator g = x_i: the rows of the
    conjugation table at the generators, keyed by class index.  Both come
    from ``permutation_action`` with the carrier's ``key_conj`` kernel as the
    moves, so each conjugate is computed once, by the closure, and no
    generator is inverted.  Encoded keys sort as the keys do, so the class
    order does not depend on the encoding.  Raises EnumerationCapError as
    soon as D passes ``cap`` (None: no cap).
    """
    template = _check_compatible(generators)
    for x in generators:
        if x.is_identity() or not (x * x).is_identity():
            raise StructuralError(f"generator element is not an involution: {x!r}")
    gens = list(dict.fromkeys(g.key for g in generators))
    encode, decode, conj = template.key_conj(gens)
    keys, perms = permutation_action(map(encode, gens), conj, cap)
    actions = {keys.index(encode(g)): perm for g, perm in zip(gens, perms)}
    return [template.peer(decode(k)) for k in keys], actions


def center(group):
    """Elements of an enumerated group commuting with every generator: k is
    kept when k*g == g*k for each generator key g, where k*g goes through the
    cached table of g and g*k through the cached rows of g."""
    template = group._template
    mul = template.key_mul()
    row_mul = template.key_row_mul()
    gen_keys = sorted({g.key for g in group.generators})
    return [
        template.peer(k)
        for k in group.element_keys
        if all(mul(k, g) == row_mul(g, k) for g in gen_keys)
    ]
