"""Unitary-series Virasoro data: central charges, conformal weights, module
labels, multiplicity-free fusion products, the tau/sigma sign gradings, and
the nine dihedral-subalgebra types as queryable records."""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction


class VirasoroError(ValueError):
    pass


class NotInTableError(VirasoroError):
    pass


def central_charge(m):
    """c_m = 1 - 6/((m+2)(m+3)), strictly increasing towards 1."""
    _check_label(m)
    return 1 - Fraction(6, (m + 2) * (m + 3))


def _check_label(m, r=1, s=1):
    # The default (1, 1) is a label of every m >= 1: it checks m alone.
    if m < 1:
        raise VirasoroError(f"series index must be >= 1, got {m}")
    if not (1 <= r <= m + 1 and 1 <= s <= m + 2):
        raise VirasoroError(f"label (r={r}, s={s}) out of range for m={m}")


def canonical(m, r, s):
    """Lexicographic minimum of {(r, s), (m+2-r, m+3-s)}."""
    _check_label(m, r, s)
    return min((r, s), (m + 2 - r, m + 3 - s))


def weight(m, r, s):
    """h_{r,s} = ((r(m+3) - s(m+2))^2 - 1) / (4(m+2)(m+3)), exactly."""
    _check_label(m, r, s)
    return Fraction((r * (m + 3) - s * (m + 2)) ** 2 - 1, 4 * (m + 2) * (m + 3))


def irreducibles(m):
    """Canonical labels of the (m+1)(m+2)/2 irreducible modules."""
    _check_label(m)
    labels = {canonical(m, r, s) for r in range(1, m + 2) for s in range(1, m + 3)}
    return sorted(labels)


def weights(m):
    return sorted({weight(m, r, s) for r, s in irreducibles(m)})


def weight_exists(m, h):
    return Fraction(h) in {weight(m, r, s) for r, s in irreducibles(m)}


def fuse(m, a, b):
    """Multiplicity-free fusion product of two module labels, as a sorted
    tuple of canonical labels."""
    r, s = a
    rp, sp = b
    _check_label(m, r, s)
    _check_label(m, rp, sp)
    imax = min(r, rp, m + 2 - r, m + 2 - rp)
    jmax = min(s, sp, m + 3 - s, m + 3 - sp)
    out = {
        canonical(m, abs(r - rp) + 2 * i - 1, abs(s - sp) + 2 * j - 1)
        for i in range(1, imax + 1)
        for j in range(1, jmax + 1)
    }
    return tuple(sorted(out))


def tau_sign(m, label):
    """Sign of the module under the involution defined by the fusion grading:
    (-1)^(r+1) for even m, (-1)^(s+1) for odd m.  It is constant on label
    orbits: m+2-r has the parity of r for even m, m+3-s that of s for odd m."""
    r, s = label
    _check_label(m, r, s)
    return -1 if (r if m % 2 == 0 else s) % 2 == 0 else 1


def sigma_sector(m):
    """The fusion-closed sector family P_m: first-row labels h_{1,s} for even
    m, first-column labels h_{r,1} for odd m (canonicalized)."""
    _check_label(m)
    if m % 2 == 0:
        raw = [(1, s) for s in range(1, m + 3)]
    else:
        raw = [(r, 1) for r in range(1, m + 2)]
    return sorted({canonical(m, r, s) for r, s in raw})


def _sigma_orbit(m, label):
    """The s of the orbit's h_{1,s} (even m) or the r of its h_{r,1} (odd m),
    or None when the label is outside P_m.  The orbit of (r, s) is {(r, s),
    (m+2-r, m+3-s)}."""
    r, s = label
    _check_label(m, r, s)
    if m % 2 == 0:
        return s if r == 1 else m + 3 - s if r == m + 1 else None
    return r if s == 1 else m + 2 - r if s == m + 2 else None


def in_sigma_sector(m, label):
    return _sigma_orbit(m, label) is not None


def sigma_sign(m, label):
    """(-1)^(s+1) on h_{1,s} (even m) / (-1)^(r+1) on h_{r,1} (odd m)."""
    k = _sigma_orbit(m, label)
    if k is None:
        raise VirasoroError(f"label {label} is outside the sigma sector P_{m}")
    return -1 if k % 2 == 0 else 1


class SakumaRecord(namedtuple(
    "SakumaRecord",
    "type_tag max_tau_order inner_product_times_1024 griess_dim ising_count "
    "miyamoto_kind",
)):
    """One row of the dihedral-subalgebra table for pairs of central-charge
    1/2 idempotent generators."""

    __slots__ = ()

    @property
    def inner_product(self):
        return Fraction(self.inner_product_times_1024, 1024)


SAKUMA_TABLE = (
    SakumaRecord("1A", 1, 256, 1, 1, "sigma"),
    SakumaRecord("2A", 2, 32, 3, 3, "sigma"),
    SakumaRecord("3A", 3, 13, 4, 3, "tau"),
    SakumaRecord("4A", 4, 8, 5, 4, "tau"),
    SakumaRecord("5A", 5, 6, 6, 5, "tau"),
    SakumaRecord("6A", 6, 5, 8, 7, "tau"),
    SakumaRecord("4B", 4, 4, 5, 5, "tau"),
    SakumaRecord("2B", 2, 0, 2, 2, "sigma"),
    SakumaRecord("3C", 3, 4, 3, 3, "tau"),
)

_BY_TAG = {rec.type_tag: rec for rec in SAKUMA_TABLE}


def lookup_by_type(tag):
    try:
        return _BY_TAG[tag.upper()]
    except KeyError:
        raise NotInTableError(f"unknown dihedral type {tag!r}") from None


def lookup_by_inner_product(value):
    """All table rows with the given inner product (e/f pairing).  The value
    2^2/2^10 is genuinely shared by types 4B and 3C, so a two-element result
    signals ambiguity the caller must resolve by dimension or Miyamoto kind."""
    value = Fraction(value)
    hits = tuple(rec for rec in SAKUMA_TABLE if rec.inner_product == value)
    if not hits:
        raise NotInTableError(f"inner product {value} is not in the dihedral table")
    return hits


# The six modules of the Z3-graded extension of the charge-4/5 algebra, with
# the cube-root-of-unity tag of each sector (exponent of zeta).  Stored as
# static data; the extension's own fusion rules are not modeled here.
W3_CHARGE_4_5_MODULES = (
    {"weights": (Fraction(0), Fraction(3)), "zeta_power": 0},
    {"weights": (Fraction(2, 5), Fraction(7, 5)), "zeta_power": 0},
    {"weights": (Fraction(2, 3),), "zeta_power": 1},
    {"weights": (Fraction(2, 3),), "zeta_power": -1},
    {"weights": (Fraction(1, 15),), "zeta_power": 1},
    {"weights": (Fraction(1, 15),), "zeta_power": -1},
)
