"""Constructors for the standard 3-transposition families.

Each constructor returns a :class:`CatalogEntry` holding a small generating
set together with the designated transposition seed; the full transposition
class is recovered downstream by conjugacy closure.

The orthogonal families choose their generating set S from the class
vectors, in order: a vector joins S when it lies outside the closure of the
vectors already in S under their own transvections (over F2) or reflections
(over F3), and the choice stops once that closure is the whole class.  The
class then lies in <S>, so <S> is the group the class generates; every
generator is a class member, and S is also the seed.

Fixed standard forms:
  * symplectic over F2: B pairs coordinates (0,1), (2,3), ...;
  * quadratic forms over F2: q+ = x0 x1 + x2 x3 + ...; q- replaces the last
    hyperbolic block by the norm form x^2 + xy + y^2;
  * forms over F3 are user-supplied diagonals (default all ones).
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


class CatalogEntry:
    """Generators and transposition seed of one family member; the
    descriptor defaults to ``family:key=value,...``."""

    def __init__(self, family, params, generators, seed, descriptor=""):
        if not descriptor:
            items = ",".join(f"{k}={v}" for k, v in params.items())
            descriptor = f"{family}:{items}" if items else family
        self.family = family
        self.params = params
        self.generators = generators
        self.seed = seed
        self.descriptor = descriptor


def symmetric(n):
    """S_n with the transpositions; adjacent transpositions generate."""
    from .groups import Permutation

    if not 2 <= n <= SYMMETRIC_MAX_N:
        raise CatalogError(f"symmetric: n must be in [2, {SYMMETRIC_MAX_N}], got {n}")
    gens = [Permutation.from_cycles(n, [(i, i + 1)]) for i in range(n - 1)]
    seed = [Permutation.from_cycles(n, [(0, 1)])]
    return CatalogEntry("symmetric", {"n": n}, gens, seed)


def _sp_form_image(v, dim):
    """Bitmask of j with B(e_j, v) = 1 for the standard symplectic form."""
    out = 0
    for j in range(dim):
        if v >> (j ^ 1) & 1:
            out |= 1 << j
    return out


def _f2_transvection(dim, v, bv):
    """t_v : x -> x + B(x, v) v, given bv = bitmask of {j : B(e_j, v) = 1}."""
    from .groups import FpMatrix

    rows = []
    for i in range(dim):
        row = 1 << i
        if v >> i & 1:
            row ^= bv
        rows.append(row)
    return FpMatrix(2, dim, rows)


def symplectic_F2(n):
    """Sp_{2n}(2) with the transvection class."""
    if not 1 <= n <= SYMPLECTIC_MAX_N:
        raise CatalogError(f"symplectic-f2: n must be in [1, {SYMPLECTIC_MAX_N}], got {n}")
    dim = 2 * n
    # Basis transvections only generate a product of Sp_2 blocks; the extra
    # e_{2i-1}+e_{2i} vectors bridge consecutive hyperbolic pairs.
    vectors = [1 << i for i in range(dim)]
    vectors += [(1 << (2 * i + 1)) | (1 << (2 * i + 2)) for i in range(n - 1)]
    gens = [_f2_transvection(dim, v, _sp_form_image(v, dim)) for v in vectors]
    seed = [gens[0]]
    return CatalogEntry("symplectic-f2", {"n": n}, gens, seed)


def _f2_quadratic(dim, eps):
    if eps == "+":
        blocks = dim // 2
        minus_block = False
    else:
        blocks = dim // 2 - 1
        minus_block = True

    def q(v):
        val = 0
        for b in range(blocks):
            val ^= (v >> (2 * b) & 1) & (v >> (2 * b + 1) & 1)
        if minus_block:
            x = v >> (dim - 2) & 1
            y = v >> (dim - 1) & 1
            val ^= x ^ (x & y) ^ y
        return val

    return q


def _generating_vectors(vectors, image):
    """The class vectors of the generating set S: each vector outside the
    closure of those chosen before it under their own transvections or
    reflections, until that closure is the whole class.  ``image(u, v)`` is
    the class vector that the transvection or reflection of v maps u to."""
    from .groups import closure

    chosen = []
    reached = set()
    for v in vectors:
        if v not in reached:
            chosen.append(v)
            reached = set(closure(chosen, lambda u: [image(u, w) for w in chosen]))
            if len(reached) == len(vectors):
                break
    return chosen


def _f2_class(dim, eps):
    """Each class vector v (q(v) = 1) mapped to the bitmask of
    {j : B(e_j, v) = 1}, where B is the polar form of q."""
    q = _f2_quadratic(dim, eps)
    return {
        v: sum((q((1 << j) ^ v) ^ q(1 << j) ^ q(v)) << j for j in range(dim))
        for v in range(1, 1 << dim)
        if q(v) == 1
    }


def orthogonal_F2(dim, eps):
    """O_dim^eps(2)-type group generated by the singular-point transvections
    t_v with q(v) = 1."""
    if dim not in ORTHOGONAL_F2_DIMS:
        raise CatalogError(f"orthogonal-f2: dim must be one of {ORTHOGONAL_F2_DIMS}")
    if eps not in ("+", "-"):
        raise CatalogError("orthogonal-f2: eps must be '+' or '-'")
    polar = _f2_class(dim, eps)

    def image(u, v):  # t_v(u) = u + B(u, v) v
        return u ^ v if (u & polar[v]).bit_count() & 1 else u

    gens = [
        _f2_transvection(dim, v, polar[v])
        for v in _generating_vectors(list(polar), image)
    ]
    return CatalogEntry(
        "orthogonal-f2", {"dim": dim, "eps": eps}, gens, list(gens)
    )


def _f3_reflection(dim, form, v):
    """r_v : x -> x - 2 B(x,v)/q(v) v for anisotropic v over F3."""
    from .groups import FpMatrix

    qv = sum(d * x * x for d, x in zip(form, v)) % 3
    qinv = qv  # 1 and 2 are self-inverse mod 3
    entries = []
    for i in range(dim):
        for j in range(dim):
            bjv = form[j] * v[j] % 3
            e = (1 if i == j else 0) - 2 * bjv * qinv * v[i]
            entries.append(e % 3)
    return FpMatrix.from_entries(3, dim, entries)


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
    vectors = _f3_class(dim, form, sign)

    def image(u, v):  # r_v(u) = u - 2 B(u, v)/q(v) v, up to sign
        c = 2 * sum(d * x * y for d, x, y in zip(form, u, v)) * sign
        w = [(x - c * y) % 3 for x, y in zip(u, v)]
        if next(x for x in w if x) == 2:
            w = [-x % 3 for x in w]
        return tuple(w)

    gens = [
        _f3_reflection(dim, form, v) for v in _generating_vectors(vectors, image)
    ]
    return CatalogEntry(
        "orthogonal-f3",
        {"dim": dim, "form": "".join(map(str, form)), "sign": sign},
        gens,
        list(gens),
    )


def _f3_class(dim, form, sign):
    """The vectors v with q(v) = sign, one of each pair {v, -v}: the one
    whose first nonzero entry is 1."""
    vectors = []
    for v in iproduct(range(3), repeat=dim):
        nz = next((x for x in v if x), 0)
        if nz != 1:  # one representative of {v, -v}
            continue
        if sum(d * x * x for d, x in zip(form, v)) % 3 == sign:
            vectors.append(v)
    return vectors


def _simple_roots(kind, rank):
    if kind == "A":
        dim = rank + 1
        return [
            tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(dim))
            for i in range(rank)
        ]
    if kind == "D":
        dim = rank
        simple = [
            tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(dim))
            for i in range(rank - 1)
        ]
        simple.append(
            tuple(1 if k in (rank - 2, rank - 1) else 0 for k in range(dim))
        )
        return simple
    # E6/E7/E8 inside the rank-8 lattice, doubled to clear half-integers.
    a1 = (1, -1, -1, -1, -1, -1, -1, 1)
    a2 = (2, 2, 0, 0, 0, 0, 0, 0)
    chain = [
        tuple(2 if k == i + 1 else -2 if k == i else 0 for k in range(8))
        for i in range(rank - 2)
    ]
    return [a1, a2] + chain


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _reflect(x, v):
    num = 2 * _dot(x, v)
    if not num:
        return x
    den = _dot(v, v)
    assert num % den == 0
    c = num // den
    return tuple(a - c * b for a, b in zip(x, v))


def weyl(kind, rank):
    """ADE Weyl group represented as permutations of its root set."""
    from .groups import Permutation, closure

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
    # Each root is reflected by each simple root once, by the closure, and
    # the generators read those images.
    images = {}

    def step(x):
        images[x] = [_reflect(x, v) for v in simple]
        return images[x]

    roots = sorted(closure(start, step))
    index = {r: i for i, r in enumerate(roots)}
    gens = [
        Permutation(tuple(index[y] for y in column))
        for column in zip(*(images[x] for x in roots))
    ]
    seed = [gens[0]]
    return CatalogEntry("weyl", {"type": kind, "rank": rank}, gens, seed)


_WEYL_RANK_TEXT = ", ".join(
    f"{kind}<={ranks[-1]}" if ranks[0] == 1 else f"{kind}={ranks[0]}..{ranks[-1]}"
    for kind, ranks in WEYL_RANKS.items()
)
FAMILIES = {
    "symmetric": {
        "params": f"n=2..{SYMMETRIC_MAX_N}",
        "example": "symmetric:n=5",
    },
    "symplectic-f2": {
        "params": f"n=1..{SYMPLECTIC_MAX_N}",
        "example": "symplectic-f2:n=3",
    },
    "orthogonal-f2": {
        "params": f"dim={'|'.join(map(str, ORTHOGONAL_F2_DIMS))}, eps=+|-",
        "example": "orthogonal-f2:dim=6,eps=+",
    },
    "orthogonal-f3": {
        "params": f"dim={ORTHOGONAL_F3_DIMS[0]}..{ORTHOGONAL_F3_DIMS[-1]} "
                  "[,form=diagonal digits] [,sign=+|-]",
        "example": "orthogonal-f3:dim=5",
    },
    "weyl": {
        "params": f"type={'|'.join(WEYL_RANKS)}, rank ({_WEYL_RANK_TEXT})",
        "example": "weyl:type=E,rank=6",
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
    try:
        if family == "symmetric":
            entry = symmetric(int(params.pop("n")))
        elif family == "symplectic-f2":
            entry = symplectic_F2(int(params.pop("n")))
        elif family == "orthogonal-f2":
            entry = orthogonal_F2(int(params.pop("dim")), params.pop("eps"))
        elif family == "orthogonal-f3":
            dim = int(params.pop("dim"))
            form = params.pop("form", None)
            if form is not None:
                form = tuple(int(c) for c in form)
            sign = params.pop("sign", "+")
            if sign not in F3_SIGNS:
                raise CatalogError(
                    f"bad parameter 'sign' in {descriptor!r}: "
                    f"must be '+', '-', '1' or '2', got {sign!r}"
                )
            entry = orthogonal_F3(dim, form=form, sign=F3_SIGNS[sign])
        elif family == "weyl":
            entry = weyl(params.pop("type"), int(params.pop("rank")))
        else:
            raise CatalogError(f"unknown family {family!r}")
    except KeyError as exc:
        raise CatalogError(f"missing/bad parameter {exc} in {descriptor!r}") from exc
    except ValueError as exc:
        if isinstance(exc, CatalogError):
            raise
        raise CatalogError(f"bad parameter value in {descriptor!r}: {exc}") from exc
    if params:
        raise CatalogError(
            f"unrecognized parameters {sorted(params)} in {descriptor!r}"
        )
    return entry
