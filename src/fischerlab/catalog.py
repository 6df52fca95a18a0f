"""Constructors for the standard 3-transposition families.

Each constructor returns a :class:`CatalogEntry` holding a small generating
set S of transposition class members; the class is recovered downstream as
the conjugacy closure of S.

The symplectic and orthogonal classes have one construction.  Over F_p with
a symmetric bilinear form B, the class is the maps

    t_v : x -> x + c B(x, v) v

over the class vectors v, one per line {v, -v}.  Over F2, c = 1 and t_v is
a transvection.  Over F3, c = q(v) and t_v is the reflection
x -> x - 2 B(x, v)/q(v) v, since -2/q(v) = q(v) mod 3.

S is chosen from the class vectors, in order: a vector joins S when it lies
outside the closure of the vectors already in S under their own maps t_v,
and the choice stops once that closure is the whole class.  The class then
lies in <S>, so <S> is the group the class generates.

Fixed standard forms:
  * over F2, B pairs coordinates (0,1), (2,3), ...: it is the symplectic
    form, and the polar form of both quadratic forms below;
  * symplectic over F2: every nonzero vector is a class vector;
  * quadratic forms over F2: q+ = x0 x1 + x2 x3 + ...; q- replaces the last
    hyperbolic block by the norm form x^2 + xy + y^2; the class vectors
    have q(v) = 1;
  * over F3, B is a user-supplied diagonal (default all ones),
    q(v) = B(v, v), and the class vectors have q(v) = sign.
"""
from __future__ import annotations

from itertools import product as iproduct

SYMMETRIC_MAX_N = 12
SYMPLECTIC_MAX_N = 3
ORTHOGONAL_F2_DIMS = (4, 6, 8)
ORTHOGONAL_F3_DIMS = (3, 4, 5)
WEYL_RANKS = {"A": range(1, 8), "D": range(4, 7), "E": range(6, 9)}
F3_SIGNS = {"+": 1, "-": 2, "1": 1, "2": 2}


class CatalogError(ValueError):
    """Unsupported or malformed family parameters."""


class _BadParameter(ValueError):
    """A descriptor parameter outside its choices, as ``(key, reason)``."""


class CatalogEntry:
    """Generators of one family member, all in its transposition class, and
    the descriptor ``family:key=value,...``."""

    def __init__(self, family, params, generators):
        items = ",".join(f"{k}={v}" for k, v in params.items())
        self.params = params
        self.generators = generators
        # Only perfbench/op.py reads the seed, as build_system's second
        # argument; the generators are always in their own class.
        self.seed = generators
        self.descriptor = f"{family}:{items}" if items else family


def symmetric(n):
    """S_n with the transpositions; adjacent transpositions generate."""
    from .groups import Permutation

    if not 2 <= n <= SYMMETRIC_MAX_N:
        raise CatalogError(f"symmetric: n must be in [2, {SYMMETRIC_MAX_N}], got {n}")
    gens = [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(n - 1)]
    return CatalogEntry("symmetric", {"n": n}, gens)


def _class_vectors(p, dim, q, value):
    """The vectors v of F_p^dim with q(v) = value, one per line {v, -v}: the
    digit tuple whose first nonzero entry is 1, in base-p order with v[0]
    least significant."""
    vectors = []
    for digits in iproduct(range(p), repeat=dim):
        v = digits[::-1]
        if next((x for x in v if x), 0) == 1 and q(v) == value:
            vectors.append(v)
    return vectors


def _generating_vectors(vectors, image):
    """The class vectors of the generating set S: each vector outside the
    closure of those chosen before it under their own transvections or
    reflections, until that closure is the whole class.  ``image(u, v)`` is
    the class vector that the transvection or reflection of v maps u to.

    When v joins S, the closure grows by the images of the reached vectors
    under t_v and then by the closure of what is new under every map of S,
    so each reached vector meets each map of S once."""
    from .groups import closure

    chosen = []
    reached = set()
    for v in vectors:
        if v not in reached:
            chosen.append(v)
            new = {v} | {image(u, v) for u in reached}
            reached |= set(closure(new - reached, lambda u: [
                x for x in (image(u, w) for w in chosen) if x not in reached
            ]))
            if len(reached) == len(vectors):
                break
    return chosen


def _form_entry(family, params, p, gram, vectors, c):
    """The entry generated by the maps t_v : x -> x + c B(x, v) v of the
    class vectors v chosen by ``_generating_vectors``, where ``gram`` is the
    Gram matrix of B."""
    from .groups import FpMatrix

    # polar[v][j] = c B(e_j, v), so t_v(x) = x + (polar[v] . x) v.
    polar = {
        v: tuple(c * sum(b * x for b, x in zip(row, v)) % p for row in gram)
        for v in vectors
    }

    def image(u, v):  # t_v(u), as the class vector of its line
        s = sum(a * x for a, x in zip(polar[v], u)) % p
        if not s:
            return u
        w = [(x + s * y) % p for x, y in zip(u, v)]
        if next(x for x in w if x) != 1:
            w = [-x % p for x in w]
        return tuple(w)

    gens = [
        FpMatrix.from_entries(p, len(gram), [
            ((i == j) + x * b) % p
            for i, x in enumerate(v) for j, b in enumerate(polar[v])
        ])
        for v in _generating_vectors(vectors, image)
    ]
    return CatalogEntry(family, params, gens)


def _f2_gram(dim):
    """B over F2: coordinates (0,1), (2,3), ... paired."""
    return [[int(k == j ^ 1) for k in range(dim)] for j in range(dim)]


def _f2_quadratic(dim, eps):
    """q+ or q- on digit tuples, with x^2 + xy + y^2 = x + xy + y over F2."""

    def q(v):
        val = sum(v[i] * v[i + 1] for i in range(0, dim, 2))
        if eps == "-":
            val += v[-2] + v[-1]
        return val % 2

    return q


def symplectic_F2(n):
    """Sp_{2n}(2) with the transvection class: every nonzero vector v."""
    if not 1 <= n <= SYMPLECTIC_MAX_N:
        raise CatalogError(f"symplectic-f2: n must be in [1, {SYMPLECTIC_MAX_N}], got {n}")
    dim = 2 * n
    vectors = _class_vectors(2, dim, lambda v: 1, 1)
    return _form_entry("symplectic-f2", {"n": n}, 2, _f2_gram(dim), vectors, 1)


def orthogonal_F2(dim, eps):
    """O_dim^eps(2)-type group generated by the singular-point transvections
    t_v with q(v) = 1."""
    if dim not in ORTHOGONAL_F2_DIMS:
        raise CatalogError(f"orthogonal-f2: dim must be one of {ORTHOGONAL_F2_DIMS}")
    if eps not in ("+", "-"):
        raise CatalogError("orthogonal-f2: eps must be '+' or '-'")
    vectors = _class_vectors(2, dim, _f2_quadratic(dim, eps), 1)
    params = {"dim": dim, "eps": eps}
    return _form_entry("orthogonal-f2", params, 2, _f2_gram(dim), vectors, 1)


def orthogonal_F3(dim, form=None, sign=1):
    """F3 orthogonal group generated by the reflections r_v with q(v) = sign.

    ``form`` is the diagonal of the bilinear form (entries 1 or 2);
    ``sign`` in {1, 2} selects the reflection class by the value of q(v).
    The class is never empty: for the first two form entries d, d', q takes
    the values d, d' and d + d' mod 3 at e_1, e_2 and e_1 + e_2, and these
    cover 1 and 2.
    """
    if not ORTHOGONAL_F3_DIMS[0] <= dim <= ORTHOGONAL_F3_DIMS[-1]:
        raise CatalogError(f"orthogonal-f3: dim must be in {ORTHOGONAL_F3_DIMS}")
    if form is None:
        form = (1,) * dim
    form = tuple(form)
    if len(form) != dim:
        raise CatalogError("orthogonal-f3: form length must equal dim")
    if any(x not in (1, 2) for x in form):
        raise CatalogError(f"orthogonal-f3: form entries must be 1 or 2, got {form}")
    if sign not in (1, 2):
        raise CatalogError("orthogonal-f3: sign must be 1 or 2")
    gram = [[d if j == k else 0 for k in range(dim)] for j, d in enumerate(form)]
    vectors = _class_vectors(
        3, dim, lambda v: sum(d * x * x for d, x in zip(form, v)) % 3, sign
    )
    params = {"dim": dim, "form": "".join(map(str, form)), "sign": sign}
    # c = q(v) = sign on every class vector.
    return _form_entry("orthogonal-f3", params, 3, gram, vectors, sign)


def _simple_roots(kind, rank):
    def chain(count, dim, scale=1):
        # scale * (e_i - e_{i+1}) for i < count, in dimension dim
        return [
            tuple(scale if k == i else -scale if k == i + 1 else 0 for k in range(dim))
            for i in range(count)
        ]

    if kind == "A":
        return chain(rank, rank + 1)
    if kind == "D":
        return chain(rank - 1, rank) + [
            tuple(1 if k in (rank - 2, rank - 1) else 0 for k in range(rank))
        ]
    # E6/E7/E8 inside the rank-8 lattice, doubled to clear half-integers.  The
    # chain is the negative of the usual one, which gives the same reflections.
    return [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)] + chain(rank - 2, 8, 2)


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reflect(x, v):
    """x - 2 (x.v)/(v.v) v.  Every root of a simply-laced system has the norm
    of the simple roots, so 2 (x.v)/(v.v) is an integer."""
    num = 2 * _dot(x, v)
    if not num:
        return x
    c = num // _dot(v, v)
    return tuple(a - c * b for a, b in zip(x, v))


def weyl(kind, rank):
    """ADE Weyl group represented as permutations of its root set."""
    from .groups import Permutation, permutation_action

    kind = kind.upper()
    if kind not in WEYL_RANKS:
        raise CatalogError("weyl: type must be A, D or E")
    if rank not in WEYL_RANKS[kind]:
        raise CatalogError(
            f"weyl: rank {rank} unsupported for type {kind} "
            f"(allowed {list(WEYL_RANKS[kind])})"
        )
    simple = _simple_roots(kind, rank)
    start = set(simple) | {tuple(-a for a in r) for r in simple}
    # permutation_action reflects each root by each simple root once, and the
    # generators are the permutations these reflections make of the roots.
    _, perms = permutation_action(start, lambda x: [_reflect(x, v) for v in simple])
    gens = [Permutation(perm) for perm in perms]
    return CatalogEntry("weyl", {"type": kind, "rank": rank}, gens)


def _orthogonal_F3_entry(params):
    """``orthogonal_F3`` from its descriptor parameters: ``form`` as diagonal
    digits, ``sign`` as one of the keys of F3_SIGNS (default +)."""
    dim = int(params.pop("dim"))
    form = params.pop("form", None)
    if form is not None:
        form = tuple(int(c) for c in form)
    sign = params.pop("sign", "+")
    if sign not in F3_SIGNS:
        raise _BadParameter("sign", f"must be '+', '-', '1' or '2', got {sign!r}")
    return orthogonal_F3(dim, form=form, sign=F3_SIGNS[sign])


_WEYL_RANK_TEXT = ", ".join(
    f"{kind}<={ranks[-1]}" if ranks[0] == 1 else f"{kind}={ranks[0]}..{ranks[-1]}"
    for kind, ranks in WEYL_RANKS.items()
)
# Each family: the text of its parameters, an example descriptor, and
# ``build``, which pops its parameters from the parsed ``{key: text}`` dict
# and returns the entry.
FAMILIES = {
    "symmetric": {
        "params": f"n=2..{SYMMETRIC_MAX_N}",
        "example": "symmetric:n=5",
        "build": lambda p: symmetric(int(p.pop("n"))),
    },
    "symplectic-f2": {
        "params": f"n=1..{SYMPLECTIC_MAX_N}",
        "example": "symplectic-f2:n=3",
        "build": lambda p: symplectic_F2(int(p.pop("n"))),
    },
    "orthogonal-f2": {
        "params": f"dim={'|'.join(map(str, ORTHOGONAL_F2_DIMS))}, eps=+|-",
        "example": "orthogonal-f2:dim=6,eps=+",
        "build": lambda p: orthogonal_F2(int(p.pop("dim")), p.pop("eps")),
    },
    "orthogonal-f3": {
        "params": f"dim={ORTHOGONAL_F3_DIMS[0]}..{ORTHOGONAL_F3_DIMS[-1]} "
                  "[,form=diagonal digits] [,sign=+|-]",
        "example": "orthogonal-f3:dim=5",
        "build": _orthogonal_F3_entry,
    },
    "weyl": {
        "params": f"type={'|'.join(WEYL_RANKS)}, rank ({_WEYL_RANK_TEXT})",
        "example": "weyl:type=E,rank=6",
        "build": lambda p: weyl(p.pop("type"), int(p.pop("rank"))),
    },
}


def from_descriptor(descriptor):
    """Build a catalog entry from a CLI descriptor string like
    ``symmetric:n=5`` or ``orthogonal-f2:dim=6,eps=+``."""
    family, _, rest = descriptor.partition(":")
    family = family.strip().lower()
    params = {}
    if rest:
        for item in rest.split(","):
            k, sep, v = item.partition("=")
            if not sep:
                raise CatalogError(f"bad descriptor item {item!r} in {descriptor!r}")
            k = k.strip()
            if k in params:
                raise CatalogError(f"duplicate parameter {k!r} in {descriptor!r}")
            params[k] = v.strip()
    if family not in FAMILIES:
        raise CatalogError(f"unknown family {family!r}")
    try:
        entry = FAMILIES[family]["build"](params)
    except KeyError as exc:
        raise CatalogError(f"missing/bad parameter {exc} in {descriptor!r}") from exc
    except _BadParameter as exc:
        key, reason = exc.args
        raise CatalogError(f"bad parameter {key!r} in {descriptor!r}: {reason}") from exc
    except ValueError as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"bad parameter value in {descriptor!r}: {exc}") from exc
    if params:
        raise CatalogError(
            f"unrecognized parameters {sorted(params)} in {descriptor!r}"
        )
    return entry
